"""Two-sided modules, their operator relations, and the word envelope."""

import hashlib
import itertools
import json
import random
import tracemalloc

import numpy as np
import pytest

import rlk
from rlk import algebra_core, envelope, identities
from rlk.algebra_core import Algebra, TablePMap, ZeroPMap
from rlk.dialgebra import as_dialgebra, dleib, matrix_dialgebra
from rlk.envelope import (
    LeibnizModule,
    adjoint_module,
    check_module_axioms,
    check_restricted_module,
    module_roundtrip,
    ulp_relations_check,
    ulp_truncated,
    zero_module,
)
from rlk.errors import UsageError
from rlk.free_structures import BASIS_SIZE_BOUND, check_ud_unit, ud_p
from rlk.identities import check_leibniz

from helpers import (abelian, counting, l2, l2_dialgebra, matrix_assoc, primes_at_the_bound,
                     random_structure, residues_near_the_top, truncated_poly, upper_triangular2,
                     zinbiel_zero)
from oracles import (
    ideal_rank_fixed_point,
    naive_mat_mul,
    naive_module_relations,
    naive_word_tables,
    rewrite_words_fixed_point,
    word_rows,
)


def swapped_adjoint(g):
    M = adjoint_module(g)
    return LeibnizModule(g, g.dim, M.right_action, M.left_action,
                         label=f"swapped({g.label})")


def with_zero_pmap(g):
    return g.extended(pmaps={"zero": ZeroPMap()})


def random_module(g, mdim, seed):
    """Seeded random left and right actions; no module identity need hold."""
    rng = random.Random(seed)
    left, right = (np.array([[[rng.randrange(g.p) for _ in range(mdim)] for _ in range(mdim)]
                             for _ in range(g.dim)], dtype=np.int64).reshape(g.dim, mdim, mdim)
                   for _ in range(2))
    return LeibnizModule(g, mdim, left, right, label=f"random{mdim}({g.label})")


# -- module carrier ------------------------------------------------------------


def test_adjoint_module_matrices_realize_the_bracket():
    g = l2(2)
    M = adjoint_module(g)
    assert M.mdim == 2
    assert M.left_action[0].tolist() == [[0, 1], [0, 0]]
    assert M.left_action[1].tolist() == [[0, 0], [0, 0]]
    assert M.right_action[0].tolist() == [[0, 0], [0, 0]]
    assert M.right_action[1].tolist() == [[1, 0], [0, 0]]
    for i in range(2):
        for m in range(2):
            want = g.multiply("bracket", g.basis(i), g.basis(m))
            assert (M.left_action[i][:, m] % 2).tolist() == list(want)


def test_action_of_general_elements_is_linear():
    g = l2(3)
    M = adjoint_module(g)
    X = np.array([(2, 1), (1, 0), (5, -1)])
    for (a, b), mat in zip(X, M.right_stack(X)):
        assert np.array_equal(mat, (a * M.right_action[0] + b * M.right_action[1]) % 3)


def test_module_shape_validation():
    g = l2(2)
    with pytest.raises(UsageError, match="shape"):
        LeibnizModule(g, 2, np.zeros((3, 2, 2)), np.zeros((2, 2, 2)))
    with pytest.raises(UsageError, match="dimension"):
        LeibnizModule(g, -1, np.zeros((2, 0, 0)), np.zeros((2, 0, 0)))


def test_zero_module_refuses_a_negative_dimension():
    """The carrier's error, raised before numpy is asked for the matrices."""
    with pytest.raises(UsageError, match=r"^module dimension must be >= 0, got -1$"):
        zero_module(l2(2), -1)
    assert zero_module(l2(2), 0).left_action.shape == (2, 0, 0)


def test_module_dimension_is_bounded_by_the_modulus():
    """Module matrix products sum mdim products of residues below p."""
    g = abelian(2**31 - 1, 1)
    with pytest.raises(UsageError, match="too large"):
        zero_module(g, 4)
    assert zero_module(g, 1).mdim == 1


# -- module identities -----------------------------------------------------------


def test_zero_module_satisfies_everything():
    g = l2(3)
    M = zero_module(g, 3)
    rep = check_module_axioms(g, M)
    assert rep.status == "pass"
    assert rep.coverage.count == 3 * 4 * 3
    assert check_restricted_module(g, M).status == "pass"
    assert module_roundtrip(g, M).status == "pass"


@pytest.mark.parametrize("p", [2, 3, 5])
def test_adjoint_module_of_l2_passes_the_identities(p):
    g = l2(p)
    rep = check_module_axioms(g, adjoint_module(g))
    assert rep.status == "pass"


def test_adjoint_modules_of_derived_brackets_pass():
    for D in (as_dialgebra(truncated_poly(3, 3)), l2_dialgebra(2)):
        g = dleib(D)
        assert check_module_axioms(g, adjoint_module(g)).status == "pass"


def test_swapped_actions_fail_with_witness():
    g = l2(2)
    rep = check_module_axioms(g, swapped_adjoint(g))
    assert rep.status == "fail"
    assert rep.failure_count > 0
    assert rep.witnesses[0].inputs[0] in ("m_first", "m_middle", "m_last")


def test_module_axioms_require_a_leibniz_bracket():
    c = truncated_poly(2, 4).structure("assoc")
    g = Algebra(2, 4, {"bracket": c}, label="poly-as-bracket")
    assert check_leibniz(g).status == "fail"
    with pytest.raises(UsageError, match="bracket fails"):
        check_module_axioms(g, zero_module(g, 1))


def test_module_attached_to_another_algebra_rejected():
    g1, g2 = l2(2), l2(2)
    with pytest.raises(UsageError, match="different algebra"):
        check_module_axioms(g1, adjoint_module(g2))


# -- restricted modules ----------------------------------------------------------


def test_adjoint_module_restrictedness_is_definitional():
    for g in (l2(2), l2(3), dleib(as_dialgebra(truncated_poly(2, 3)))):
        rep = check_restricted_module(g, adjoint_module(g))
        assert rep.status == "pass"
        assert rep.coverage.kind == "exhaustive"


def test_wrong_pmap_fails_on_elements_with_second_component():
    g = with_zero_pmap(l2(2))
    rep = check_restricted_module(g, adjoint_module(g), pmap="zero")
    assert rep.status == "fail"
    assert rep.failure_count == 2
    assert rep.witnesses[0].inputs == ((0, 1),)


def test_restricted_module_requires_the_identities():
    g = l2(2)
    with pytest.raises(UsageError, match="module identities"):
        check_restricted_module(g, swapped_adjoint(g))


# -- operator relations ------------------------------------------------------------


def test_derived_sign_relations_hold_on_adjoint_modules():
    for g in (l2(2), l2(3), l2(5), dleib(l2_dialgebra(3))):
        rep = ulp_relations_check(g, adjoint_module(g))
        assert rep.status == "pass", (g.label, rep.to_dict())
        assert "derived signs" in rep.notes


def _bracket_relation_residuals(c, p, sign):
    """The two bracket-compatibility relations on the adjoint module of the
    bracket with constants c, as plain matrices: r_[x,y] - r_y r_x + sign
    r_x r_y and l_[x,y] - r_y l_x + sign l_x r_y on every basis pair.  The
    derived signs are sign = +1; the printed ones subtract both composites."""
    n = len(c)
    right = [[[c[s][i][r] for s in range(n)] for r in range(n)] for i in range(n)]
    left = [[[c[i][s][r] for s in range(n)] for r in range(n)] for i in range(n)]

    def combine(terms):
        return [[sum(a * m[r][s] for a, m in terms) % p for s in range(n)] for r in range(n)]

    out = {}
    for i in range(n):
        for j in range(n):
            for tag, acts, first, second in (("r_bracket", right, right[j], right[i]),
                                             ("l_bracket", left, right[j], left[i])):
                out[tag, i, j] = combine(
                    [(c[i][j][k], acts[k]) for k in range(n)]
                    + [(-1, naive_mat_mul(first, second, p)),
                       (sign, naive_mat_mul(second, first, p))])
    return out


def test_printed_signs_fail_in_odd_characteristic():
    c = l2(3).structure("bracket").tolist()
    derived = _bracket_relation_residuals(c, 3, 1)
    printed = _bracket_relation_residuals(c, 3, -1)
    assert not any(any(row) for m in derived.values() for row in m)
    assert any(any(row) for row in printed["r_bracket", 1, 1])


def test_printed_signs_coincide_mod_two():
    c = l2(2).structure("bracket").tolist()
    assert _bracket_relation_residuals(c, 2, -1) == _bracket_relation_residuals(c, 2, 1)


def test_relation_verdicts_match_the_module_checks():
    cases = []
    for g in (l2(2), l2(3), dleib(as_dialgebra(truncated_poly(2, 3))),
              dleib(l2_dialgebra(2))):
        cases.append((g, adjoint_module(g), "frobenius"))
        cases.append((g, zero_module(g, 2), "frobenius"))
        cases.append((g, swapped_adjoint(g), "frobenius"))
    gz = with_zero_pmap(l2(2))
    cases.append((gz, adjoint_module(gz), "zero"))
    for g, M, pmap in cases:
        direct = check_module_axioms(g, M)
        if direct.ok():
            conjunction = check_restricted_module(g, M, pmap=pmap).ok()
        else:
            conjunction = False
        rep = ulp_relations_check(g, M, pmap=pmap)
        assert rep.ok() == conjunction, (g.label, M.label, rep.to_dict())


def _relations_and_oracle(g, M, pmap, cap, samples):
    """_module_relations's (failure count, witnesses) with no gate, and the
    word-expanded oracle's on the same instance rows, both as plain lists."""
    failures, witnesses, count, _note = envelope._module_relations(
        g, M, pmap, cap, 0, samples, ("relation",))
    X, PX, _ = envelope._pmap_instances(g, pmap, cap, 0, samples)
    assert count == 3 * g.dim ** 2 + len(X)
    expected = naive_module_relations(
        g.structure("bracket").tolist(), M.left_action.tolist(), M.right_action.tolist(),
        M.mdim, g.p, X.tolist(), PX.tolist(), ("relation",))
    got = (failures, [(w.inputs, w.lhs.tolist(), w.rhs.tolist()) for w in witnesses])
    return got, expected


@pytest.mark.parametrize("p", [2, 3, 5])
def test_power_family_sweep_matches_the_word_expanded_oracle(p):
    """The p-power family read off the operator sweep gives the failure count
    and the witness list (inputs, lhs, rhs), in order, of expanding r_x^p
    into its words: on L2 with its passing table p-map, the failing zero
    p-map and the table p-map with its values moved one row on; on the
    adjoint, swapped, random and zero (mdim 0 and 2) modules; exhaustive and
    with cap=1.  Every grid holds x = 0; some cases fail only in the power
    family and some run past WITNESS_LIMIT."""
    keys = list(itertools.product(range(p), repeat=2))
    moved = TablePMap({k: (0, keys[(t + 1) % len(keys)][1]) for t, k in enumerate(keys)})
    g = l2(p).extended(pmaps={"zero": ZeroPMap(), "moved": moved})
    cases = [(g, M, pmap) for M in (adjoint_module(g), swapped_adjoint(g), random_module(g, 2, p),
                                    zero_module(g, 0), zero_module(g, 2))
             for pmap in ("frobenius", "zero", "moved")]
    if p < 5:
        t3 = dleib(as_dialgebra(truncated_poly(p, 3)))
        cases += [(t3, adjoint_module(t3), "frobenius"), (t3, random_module(t3, 2, p), "frobenius")]
    seen = set()
    for (h, M, pmap), cap in itertools.product(cases, (None, 1)):
        got, expected = _relations_and_oracle(h, M, pmap, cap, 6)
        assert got == expected, (h.label, M.label, pmap, cap)
        power = sum(w[0][1] == "r_power" for w in expected[1])
        seen.add(("power fails" if power else "power passes",
                  "bracket passes" if power == len(expected[1]) else "bracket fails"))
        seen.add(expected[0] > len(expected[1]))
    assert seen == {("power fails", "bracket passes"), ("power passes", "bracket passes"),
                    ("power fails", "bracket fails"), ("power passes", "bracket fails"),
                    True, False}


def test_power_family_sweep_matches_the_oracle_past_2_24(monkeypatch):
    """At the first prime past 2**24, on x = 0 rows whose p-map values are
    planted residues near p (r_0^p is zero, so a value fails unless r_{f(0)}
    is zero).  Only x = 0 rows: the oracle would compose any other row's
    r_x^p one letter at a time, p letters a word."""
    P = 16777259
    c = np.zeros((2, 2, 2), dtype=np.int64)
    c[0, 1, 0] = 1
    g = Algebra(P, 2, {"bracket": c})
    rng = random.Random("past-2-24")
    X = np.zeros((6, 2), dtype=np.int64)
    PX = np.array([[0, 0], [1, 0], [P - 1, P - 2], [0, P - 1],
                   [rng.randrange(P), rng.randrange(P)], [P - 3, 1]], dtype=np.int64)
    monkeypatch.setattr(envelope, "_pmap_instances", lambda *args: (X, PX, "planted"))
    near_top = np.array([P - 1 - rng.randrange(8) for _ in range(16)], dtype=np.int64)
    modules = [adjoint_module(g), zero_module(g, 0), zero_module(g, 2),
               LeibnizModule(g, 2, near_top[:8].reshape(2, 2, 2), near_top[8:].reshape(2, 2, 2))]
    for M in modules:
        got, expected = _relations_and_oracle(g, M, "planted", None, 0)
        assert got == expected, M.label
    assert expected[0] > 0


def test_bracket_families_match_the_oracle_at_the_float_switches(monkeypatch):
    """The bracket families read off _module_sides against the word-expanded
    oracle, on random brackets and modules with residues next to p - 1: at
    the largest prime that the 2**62 modulus bound admits for the module
    dimension, and at the primes on either side of the 2**53 and 2**24 float
    switches.  Each prime runs with the default cuts, and with the
    small-product cut at 0 and one basis pair a chunk, so that the stacks
    take the float routes and witnesses are kept across chunks; more than
    WITNESS_LIMIT relations fail.  The p-power rows are x = 0 with planted
    values: the oracle would compose any other r_x^p one letter at a time."""
    n, mdim = 3, 3
    rng = random.Random("sides-near-the-top")
    primes = [primes_at_the_bound(1 << 62, mdim)[0], *primes_at_the_bound(1 << 53, mdim),
              *primes_at_the_bound(1 << 24, mdim)]
    cuts = [(algebra_core._SMALL_PRODUCT, envelope._CHUNK_ENTRIES), (0, 1)]
    pairs, matmul_mod = [], envelope._matmul_mod
    monkeypatch.setattr(envelope, "_matmul_mod",
                        lambda A, B, p: pairs.append(len(A)) or matmul_mod(A, B, p))
    for p, (small_product, chunk) in itertools.product(primes, cuts):
        monkeypatch.setattr(algebra_core, "_SMALL_PRODUCT", small_product)
        monkeypatch.setattr(envelope, "_CHUNK_ENTRIES", chunk)
        g = Algebra(p, n, {"bracket": residues_near_the_top(p, (n, n, n), rng)})
        M = LeibnizModule(g, mdim, *(residues_near_the_top(p, (n, mdim, mdim), rng)
                                     for _ in range(2)))
        X = np.zeros((2, n), dtype=np.int64)
        PX = np.stack([np.zeros(n, dtype=np.int64), residues_near_the_top(p, (n,), rng)])
        monkeypatch.setattr(envelope, "_pmap_instances", lambda *args: (X, PX, "planted"))
        pairs.clear()
        got, expected = _relations_and_oracle(g, M, "planted", None, 0)
        assert got == expected, p
        assert max(pairs) == (1 if chunk == 1 else n * n), p
        assert expected[0] > identities.WITNESS_LIMIT, p


@pytest.mark.parametrize("p", [5, 1_000_003])
def test_module_sides_chunk_and_relation_stacks_fit_the_entry_budget(p, monkeypatch):
    """Everything _module_relations holds at once besides the witnesses it
    returns (a _module_sides chunk with its products' float copies, the
    relation stacks built from it, and what is still held of the chunk
    before) fits _CHUNK_ENTRIES int64 entries, plus a fixed allowance for
    index arrays and witnesses.  289 basis pairs at mdim 10 make three
    chunks, two of them full; no p-power row is swept."""
    monkeypatch.setattr(envelope, "_CHUNK_ENTRIES", 1 << 18)
    n, mdim = 17, 10
    g = Algebra(p, n, {"bracket": random_structure(p, n, random.Random(p))})
    M = random_module(g, mdim, p)
    none = np.zeros((0, n), dtype=np.int64)
    monkeypatch.setattr(envelope, "_pmap_instances", lambda *args: (none, none, "none"))
    tracemalloc.start()
    try:
        failures, *_ = envelope._module_relations(g, M, "none", None, 0, 0)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert failures == 3 * n * n
    assert peak - held <= 8 * envelope._CHUNK_ENTRIES + (1 << 16)


# -- truncated word envelope --------------------------------------------------------


def test_one_dim_abelian_envelope_matches_exhaustive_span_oracle():
    g = abelian(2, 1, with_pmap=True)
    pres = ulp_truncated(g, pmap="zero", d=3)
    assert pres.ambient.dim == 15
    words, idx, tabs = naive_word_tables(2, 3)
    rows = word_rows(idx, [
        {(0, 1): 1, (1, 0): 1},
        {(1, 0): 1, (0, 0): 1},
        {(1, 1): 1},
    ], 2)
    rank = ideal_rank_fixed_point(tabs, rows, 2)
    assert pres.ideal_rank == rank == 11
    assert pres.dimension == 4
    assert pres.normal_basis == ((), (0,), (1,), (1, 0))
    assert pres.degree_table() == {0: 1, 1: 2, 2: 1}


def test_greedy_rewriting_misses_a_degree_three_consequence():
    """The three reductions (second letter after first collapses, double
    right kills) are not confluent: one length-3 word has two divergent
    reductions, so the greedy normal forms overcount the quotient by one.
    The exhaustive ideal span proves the extra word is in the ideal."""
    words = [()]
    for n in (1, 2, 3):
        words.extend(itertools.product((0, 1), repeat=n))
    rules = {(0, 1): (1, 0), (1, 0): (0, 0), (1, 1): None}
    normal = rewrite_words_fixed_point(words, rules)
    assert normal == {(), (0,), (1,), (0, 0), (0, 0, 0)}
    g = abelian(2, 1, with_pmap=True)
    pres = ulp_truncated(g, pmap="zero", d=3)
    lll = {pres.ambient.index[(0, 0, 0)]: 1}
    assert not pres.project(lll).any()
    assert len(normal) == pres.dimension + 1


def test_zero_dim_envelope_is_the_unit_line():
    g = abelian(2, 0, with_pmap=True)
    pres = ulp_truncated(g, pmap="zero", d=3)
    assert pres.dimension == 1
    assert pres.normal_basis == ((),)


def _l2_word_relations(p, idx):
    """Independent relation rows for the 2-dim fixture: letters 0,1 act on
    the left, 2,3 on the right; bracket [e1,e2] = e1; p-map (a,b) -> (0,b)."""
    bracket = {(0, 1): {0: 1}}
    rows = []
    for i in range(2):
        for j in range(2):
            br = bracket.get((i, j), {})
            r_rel = {(2 + k,): c for k, c in br.items()}
            r_rel[(2 + i, 2 + j)] = (r_rel.get((2 + i, 2 + j), 0) - 1) % p
            r_rel[(2 + j, 2 + i)] = (r_rel.get((2 + j, 2 + i), 0) + 1) % p
            rows.append(r_rel)
            l_rel = {(k,): c for k, c in br.items()}
            l_rel[(i, 2 + j)] = (l_rel.get((i, 2 + j), 0) - 1) % p
            l_rel[(2 + j, i)] = (l_rel.get((2 + j, i), 0) + 1) % p
            rows.append(l_rel)
            rows.append({(2 + j, i): 1, (j, i): 1})
    for x in itertools.product(range(p), repeat=2):
        target = {(3,): x[1] % p} if x[1] % p else {}
        rel = dict(target)
        for seq in itertools.product(range(2), repeat=p):
            coeff = 1
            for k in seq:
                coeff = (coeff * x[k]) % p
            if coeff:
                w = tuple(2 + k for k in seq)
                rel[w] = (rel.get(w, 0) - coeff) % p
        rows.append(rel)
    return word_rows(idx, rows, p)


def test_two_dim_envelope_matches_exhaustive_span_oracle():
    g = l2(2)
    pres = ulp_truncated(g, d=2)
    words, idx, tabs = naive_word_tables(4, 2)
    assert pres.ambient.dim == len(words) == 21
    rows = _l2_word_relations(2, idx)
    rank = ideal_rank_fixed_point(tabs, rows, 2)
    assert pres.ideal_rank == rank
    assert pres.dimension == 21 - rank
    assert any("letters" in n for n in pres.notes)
    assert any("all 4 elements" in n for n in pres.notes)


def test_envelope_degree_below_characteristic_rejected():
    with pytest.raises(UsageError, match="below the characteristic"):
        ulp_truncated(l2(3), d=2)
    with pytest.raises(UsageError, match="not restricted"):
        ulp_truncated(with_zero_pmap(l2(2)), pmap="zero", d=3)


def test_envelope_default_degree_is_the_characteristic():
    pres = ulp_truncated(l2(2))
    assert pres.ambient.degree_cap == 2


# -- roundtrip -----------------------------------------------------------------------


def test_adjoint_roundtrips_bit_exactly():
    for g in (l2(2), l2(3), dleib(as_dialgebra(truncated_poly(3, 3)))):
        rep = module_roundtrip(g, adjoint_module(g))
        assert rep.status == "pass", (g.label, rep.to_dict())


def test_roundtrip_coverage_counts_relations_and_letters():
    g = l2(2)
    rep = module_roundtrip(g, adjoint_module(g))
    assert rep.coverage.count == (3 * 4 + 4) + 2 * 2


def test_roundtrip_requires_a_restricted_module():
    g = with_zero_pmap(l2(2))
    with pytest.raises(UsageError, match="not restricted"):
        module_roundtrip(g, adjoint_module(g), pmap="zero")


def test_precondition_errors_name_the_witness_inputs_on_one_line():
    g = with_zero_pmap(l2(3))
    ut2 = dleib(as_dialgebra(upper_triangular2(3)))
    broken = Algebra(2, 1, {"bracket": np.ones((1, 1, 1), dtype=np.int64)})
    not_restricted = "input is not restricted Leibniz (witness ((0, 1),))"
    cases = [
        (lambda: ud_p(g, pmap="zero", d=3), not_restricted),
        (lambda: ulp_truncated(g, pmap="zero", d=3), not_restricted),
        (lambda: check_module_axioms(broken, zero_module(broken, 2)),
         "underlying bracket fails its identity (witness (0, 0, 0))"),
        (lambda: check_restricted_module(ut2, swapped_adjoint(ut2)),
         "module identities fail (witness ('m_first', 0, 1, 0))"),
        (lambda: module_roundtrip(g, adjoint_module(g), pmap="zero"),
         "module is not restricted (witness ((0, 1),))"),
    ]
    for run, message in cases:
        with pytest.raises(UsageError) as err:
            run()
        assert str(err.value) == message


# -- one restricted pass: gate, p-relations and held reports -------------------------


def test_oversized_envelopes_are_refused_before_the_restricted_sweep(monkeypatch):
    """The ambient is built before the gate: a non-restricted input whose
    ambient passes BASIS_SIZE_BOUND gets the bound error, and no element is
    swept.  Words on 4 letters up to degree 10, dialgebra monomials on 2
    generators up to degree 11 (degree 10 is 18,434, inside the bound)."""
    calls = {"_operator_failures": 0}
    monkeypatch.setattr(identities, "_operator_failures",
                        counting(calls, "_operator_failures", identities._operator_failures))
    g = with_zero_pmap(l2(2))
    for run in (lambda: ulp_truncated(g, pmap="zero", d=10),
                lambda: ud_p(g, pmap="zero", d=11)):
        with pytest.raises(UsageError, match=str(BASIS_SIZE_BOUND)):
            run()
    assert calls == {"_operator_failures": 0}


def _pmap_rows(monkeypatch):
    """Row counts of every Algebra.apply_pmap_batch call from here on."""
    rows, real = [], Algebra.apply_pmap_batch

    def counted(self, name, X):
        rows.append(len(X))
        return real(self, name, X)

    monkeypatch.setattr(Algebra, "apply_pmap_batch", counted)
    return rows


def test_exhaustive_gates_hand_their_pmap_values_to_the_relations(monkeypatch):
    """An exhaustive gate's grid and p-map values are the p-relations' own:
    each construction evaluates the p-map once on every element."""
    ut2 = dleib(as_dialgebra(upper_triangular2(3)))
    ab = abelian(3, 2, with_pmap=True)
    rows = _pmap_rows(monkeypatch)
    for run, count in ((lambda: ulp_truncated(l2(3), d=3), 9),
                       (lambda: ud_p(ab, pmap="zero", d=3), 9),
                       (lambda: check_ud_unit(ab, pmap="zero", d=3), 9),
                       (lambda: module_roundtrip(ut2, adjoint_module(ut2)), 27)):
        rows.clear()
        run()
        assert rows == [count]


def test_module_roundtrip_sweeps_the_power_family_once(monkeypatch):
    """An exhaustive gate's passing sweep is the p-power family's: module_roundtrip
    makes one _operator_failures call, the gate's.  A sampled gate (cap=1)
    swept other rows, so the relations' own sample is swept once more.  The
    gate's module axioms prove the bracket families: either way the one
    _module_sides pass is the gate's."""
    ut2 = dleib(as_dialgebra(upper_triangular2(3)))
    calls = {"_module_sides": 0, "_operator_failures": 0}
    monkeypatch.setattr(envelope, "_module_sides",
                        counting(calls, "_module_sides", envelope._module_sides))
    counted = counting(calls, "_operator_failures", identities._operator_failures)
    for module in (identities, envelope):
        monkeypatch.setattr(module, "_operator_failures", counted)
    for cap, count in ((None, 1), (1, 2)):
        calls.update(_module_sides=0, _operator_failures=0)
        assert module_roundtrip(ut2, adjoint_module(ut2), cap=cap).ok()
        assert calls == {"_module_sides": 1, "_operator_failures": count}


def test_module_checks_compose_no_word_longer_than_two(monkeypatch):
    """Every operator product the module checks take multiplies two letters
    (a row of left_action or right_action): no r_x^p word (length p) and no
    product of products is composed, at p = 2, 3 and 5, passing or not."""
    operands, real = [], envelope._matmul_mod

    def recorded(A, B, p):
        operands.extend((A, B))
        return real(A, B, p)

    monkeypatch.setattr(envelope, "_matmul_mod", recorded)
    for g in (l2(2), l2(3), l2(5), dleib(as_dialgebra(upper_triangular2(3)))):
        runs = [(M, lambda M=M: ulp_relations_check(g, M))
                for M in (adjoint_module(g), swapped_adjoint(g), random_module(g, 2, 0))]
        ad = adjoint_module(g)
        runs += [(ad, lambda: module_roundtrip(g, ad)),
                 (ad, lambda: module_roundtrip(g, ad, cap=1))]
        for M, run in runs:
            letters = {a.tobytes() for a in np.concatenate([M.left_action, M.right_action])}
            operands.clear()
            run()
            assert operands
            assert all(a.tobytes() in letters for A in operands for a in A)


def test_gates_read_the_leibniz_report_dleib_holds(monkeypatch):
    """A dleib output holds its passing leibniz report, so no gate checks the
    bracket again; an extended() copy holds no reports and is checked once."""
    calls = {"check_leibniz": 0}
    monkeypatch.setattr(identities, "check_leibniz",
                        counting(calls, "check_leibniz", identities.check_leibniz))
    derived = dleib(as_dialgebra(upper_triangular2(3)))
    R = zinbiel_zero(3, 2)
    for g, count in ((derived, 0), (derived.extended(), 1)):
        for run in (lambda: ud_p(g, d=2),
                    lambda: module_roundtrip(g, adjoint_module(g)),
                    lambda: check_module_axioms(g, adjoint_module(g)),
                    lambda: rlk.tensor_prelie(g, R)):
            calls["check_leibniz"] = 0
            run()
            assert calls == {"check_leibniz": count}


def _digest(out) -> str:
    h = hashlib.sha256(json.dumps(out.to_dict(), sort_keys=True).encode())
    if hasattr(out, "projection"):
        h.update(out.projection.tobytes())
        h.update(repr(out.relations).encode())
    return h.hexdigest()


# computed before the gates handed their grids on; a sampled gate (cap=1)
# hands nothing on, so the p-relations draw the basis and their own sample
SAMPLED_DIGESTS = {
    "ulp_truncated": "d1f0ac784a75b543893b2101f11e3036d0a5d522a6551a35fb1aed71e5900c55",
    "ud_p": "9104df1f123561c503f8a327d7bce9ff4c264df1ec6e21d75f7f1c82fbd6b686",
    "check_ud_unit": "e6b5ab5f8f1faf9b504c3bc373565c0ceea07bb019221caf58b78003eaec9a98",
    "module_roundtrip": "f7b1490d654d7467ed7364f2c58666aee2971a543074402a22ab0bf38e619561",
}


@pytest.mark.parametrize("name", sorted(SAMPLED_DIGESTS))
def test_sampled_gates_leave_the_pmap_relations_as_they_were(name):
    ut2 = dleib(as_dialgebra(upper_triangular2(3)))
    run = {
        "ulp_truncated": lambda: ulp_truncated(l2(3), d=3, cap=1),
        "ud_p": lambda: ud_p(ut2, d=3, cap=1),
        "check_ud_unit": lambda: check_ud_unit(ut2, d=3, cap=1),
        "module_roundtrip": lambda: module_roundtrip(ut2, adjoint_module(ut2), cap=1),
    }[name]
    out = run()
    assert any("sampled" in note for note in out.notes)
    assert _digest(out) == SAMPLED_DIGESTS[name]


# computed before the p-power family was read off the operator sweep: two
# adjoint roundtrips (625 exhaustive power relations; a sampled dim-12 case)
# and two ulp_relations_check failures with r_power witnesses
MODULE_RELATION_DIGESTS = {
    "roundtrip_mat2_F5": "a5940ef551c0747532614f8b7b581173791d2af82f039d78fdad15986005aa44",
    "roundtrip_gl2_ut2_F3": "8511606e46a20dbd3620a2685164ad42f2998e9dab1cdae723a6ea13b5e08bba",
    "relations_l2_F3_zero_pmap": "8b7b5c25fa679ec24776bd0a759f9816ee1170684575932c0c8154a9983b2556",
    "relations_l2_F5_random3": "b338333ab73da97acf2dc7b1120f1f2fd5b94d6e1c64abe1a77010499518969a",
}


@pytest.mark.parametrize("name", sorted(MODULE_RELATION_DIGESTS))
def test_module_relation_reports_are_as_they_were(name):
    def roundtrip(g):
        return module_roundtrip(g, adjoint_module(g))

    gz, g5 = with_zero_pmap(l2(3)), l2(5)
    run = {
        "roundtrip_mat2_F5": lambda: roundtrip(dleib(as_dialgebra(matrix_assoc(5, 2)))),
        "roundtrip_gl2_ut2_F3": lambda: roundtrip(
            dleib(matrix_dialgebra(as_dialgebra(upper_triangular2(3)), 2))),
        "relations_l2_F3_zero_pmap": lambda: ulp_relations_check(gz, adjoint_module(gz),
                                                                 pmap="zero"),
        "relations_l2_F5_random3": lambda: ulp_relations_check(g5, random_module(g5, 3, 26)),
    }[name]
    out = run()
    assert _digest(out) == MODULE_RELATION_DIGESTS[name]
