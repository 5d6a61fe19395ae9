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
from rlk.algfile import format_algebra
from rlk.cli import main
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
from rlk.free_structures import (BASIS_SIZE_BOUND, _pmap_instances, truncated_ideal_quotient,
                                 ud_p, word_ambient)
from rlk.identities import check_leibniz

from helpers import (abelian, counting, l2, l2_dialgebra, matrix_assoc, primes_at_the_bound,
                     random_structure, residues_near_the_top, truncated_poly, upper_triangular2,
                     zinbiel_zero)
from oracles import (
    gauss_rank,
    ideal_rank_fixed_point,
    naive_basis_jacobson,
    naive_mat_mul,
    naive_module_relations,
    naive_multiply,
    naive_ulp_relations,
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


def test_a_large_truncated_envelope_stays_in_a_narrow_memory_budget():
    """ulp_truncated(L2/F2, d=6) has 5,461 words: an int64 projection alone is
    238 MB, the uint8 one 30 MB, and the relations are uint8 rows too."""
    tracemalloc.start()
    try:
        pres = ulp_truncated(l2(2), d=6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (pres.ambient.dim, pres.dimension, pres.projection.dtype) == (5461, 2, np.uint8)
    assert peak < 64 << 20


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
        h.update(out.projection.astype(np.int64).tobytes())
        h.update(repr(tuple(tuple(r.tolist()) for r in out.relations)).encode())
    return h.hexdigest()


# computed before the gates handed their grids on (ulp_truncated's since its
# relations became envelope._ulp_relations); a sampled gate (cap=1) hands
# nothing on, so the p-relations draw the basis and their own sample
SAMPLED_DIGESTS = {
    "ulp_truncated": "1a1929a5d3d0e14365cc0fee07baa2272c94872dcc59fb38d849ac058bf3cef8",
    "ud_p": "9104df1f123561c503f8a327d7bce9ff4c264df1ec6e21d75f7f1c82fbd6b686",
    "module_roundtrip": "f7b1490d654d7467ed7364f2c58666aee2971a543074402a22ab0bf38e619561",
}


@pytest.mark.parametrize("name", sorted(SAMPLED_DIGESTS))
def test_sampled_gates_leave_the_pmap_relations_as_they_were(name):
    ut2 = dleib(as_dialgebra(upper_triangular2(3)))
    run = {
        "ulp_truncated": lambda: ulp_truncated(l2(3), d=3, cap=1),
        "ud_p": lambda: ud_p(ut2, d=3, cap=1),
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


# -- ulp_truncated: pins that leave the relation list out ------------------------


def _ulp_files():
    """(name, algebra) of the `rlk envelope F ul` corpus: L2 at p = 2, 3, 5 and
    dleib outputs of the dialgebra suite."""
    return [(f"l2f{p}", l2(p)) for p in (2, 3, 5)] + [
        ("dleib-tp2-f2", dleib(as_dialgebra(truncated_poly(2, 2)))),
        ("dleib-ut2-f2", dleib(as_dialgebra(upper_triangular2(2)))),
        ("dleib-l2dias-f3", dleib(l2_dialgebra(3))),
        ("dleib-l2dias-f5", dleib(l2_dialgebra(5))),
    ]


# sha256 of (exit code, stdout with the path replaced, stderr) per run, taken
# when ulp_truncated still wrote one p-relation per element
ULP_CLI_DIGESTS = {
    "dleib-l2dias-f3 --format json":
        "57be1d45aa191e8348dcb4f71007962032b7dc130fea3fc0c08a6999fb96622f",
    "dleib-l2dias-f3 --mode sample --samples 5 --seed 2":
        "87ef5b07bd117bd3d0ea151cd03d6dce131b55b97427ea4e9786caf8cce01bd3",
    "dleib-l2dias-f3":
        "343a9af6f31d318990be909a07689e69c6f912d08e836052581034b890cf9a5d",
    "dleib-l2dias-f5 --format json":
        "f5707235d0c3c2b7631d831da3b9e35e8d6d9e1e11707dafec3a58b1cba60701",
    "dleib-l2dias-f5 --mode sample --samples 5 --seed 2":
        "c12bd578ca37550c04d0c49cd41ad29bfea246cbf9ea3df51e2a8e623da2c207",
    "dleib-l2dias-f5":
        "0234f2e62f02574fb6e813466354c29b5d015d164e1b31ea06ff9c143edd5d79",
    "dleib-tp2-f2 --degree 3 --format json":
        "5fa2fedc0aa3610bcdad84d7fc18f4f8ff705c5329fd8e6e3b2dde1a4b9be817",
    "dleib-tp2-f2 --format json":
        "6f7eeddf9255e856e872e46a1bdd4776ecf4ac308e44463d8f2b2bd7f659502e",
    "dleib-tp2-f2 --mode sample --samples 5 --seed 2":
        "02778d094fce1cfcadaf70b59f2126ae8eb9d0470196dcaba53da98d10054dcb",
    "dleib-tp2-f2":
        "8d46c20677b6d7553d6f9081d30f7ed7754e1929d0f252f36c589f33de90e019",
    "dleib-ut2-f2 --format json":
        "329c915077f21207d8526198cd71c682fd3a29a9303e1393b6896e122ab08f13",
    "dleib-ut2-f2 --mode sample --samples 5 --seed 2":
        "ad5e1d462b83b83c19aa79c0c40d4acd1d181b410fe7b49a4e4be12ad3ba252e",
    "dleib-ut2-f2":
        "a3ccc59c5a96b32848e5e58d53a01a1fff9501f618be25b39194fec7d20589b1",
    "l2f2 --degree 3 --format json":
        "48acca50f6791e17cb3bd77604c2f67d36efb2098335cb4ba09840f51856e517",
    "l2f2 --format json":
        "3c59d5df76e97414dabb13b9f8744ebbc64a743f58cc3150642182a1f02bb447",
    "l2f2 --mode sample --samples 5 --seed 2":
        "31a98e4ccf138c7213406c78ef0c19907db8dc8cfdefc3984c35342cc7037bd7",
    "l2f2":
        "745802164c357d5dad4b3c455f16ac4dd1088c342f6ee00f7282056910cb75c1",
    "l2f3 --degree 4":
        "f7c5f09dfbe49eb143b6e138d1e5d1b35bd5476debfaf6928e3ec3e1251ba2c8",
    "l2f3 --format json":
        "c286de6afe052d551519ebe98e35d1187cbf7bdfdb285b961eb959f7247616cc",
    "l2f3 --mode sample --samples 5 --seed 2":
        "bfc9bf7e6ee8130cb09acc2bad5f391ebed8dea7932807231aa93ed7aeb054b7",
    "l2f3":
        "a6db8c26e418e41943bc50b9160959bfa05d6fa4211201039b88f958db81e85c",
    "l2f5 --format json":
        "310454654929c2adb88845dd6ffbb0ecc44e1f2bdd192a6425a4a27dc401c7a4",
    "l2f5 --mode sample --samples 5 --seed 2":
        "3aa0cbc817bddb2c1d1d36d2f0dacc3fdc3bc6dce82a3b079109bb657f60cb05",
    "l2f5":
        "bf220d5c8305ed8d8bd14d3d544cd8c2d2799b15ecc13d2a75d55801f885991f",
}


def test_ulp_cli_reports_are_pinned(tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("RLK_CAP", raising=False)
    paths = {}
    for name, g in _ulp_files():
        paths[name] = tmp_path / f"{name}.alg"
        paths[name].write_text(format_algebra(g), encoding="utf-8")
    got = {}
    for run in ULP_CLI_DIGESTS:
        name, *flags = run.split()
        code = main(["envelope", str(paths[name]), "ul", *flags])
        captured = capsys.readouterr()
        parts = (str(code), captured.out.replace(str(paths[name]), "FILE"), captured.err)
        got[run] = hashlib.sha256("\0".join(parts).encode()).hexdigest()
    assert got == ULP_CLI_DIGESTS


def _presentation_digest(pres) -> str:
    """sha256 of to_dict() and the projection bytes: everything but the relations."""
    h = hashlib.sha256(json.dumps(pres.to_dict(), sort_keys=True).encode())
    h.update(pres.projection.astype(np.int64).tobytes())
    return h.hexdigest()


def _ulp_pinned_cases():
    """The ulp_truncated calls whose other pins hash the relation list too."""
    return {
        "l2_2_3": lambda: ulp_truncated(l2(2), d=3),
        "l2_2_5": lambda: ulp_truncated(l2(2), d=5),
        "l2_3_4": lambda: ulp_truncated(l2(3), d=4),
        "ab_2_2_3": lambda: ulp_truncated(abelian(2, 2, with_pmap=True), pmap="zero", d=3),
        "ab_3_1_4": lambda: ulp_truncated(abelian(3, 1, with_pmap=True), pmap="zero", d=4),
        "l2_3_3_sampled": lambda: ulp_truncated(l2(3), d=3, cap=1),
        "l2_2_2": lambda: ulp_truncated(l2(2)),
        "l2_2_3_sampled": lambda: ulp_truncated(l2(2), d=3, cap=1, seed=1, samples=5),
        "zero_dim": lambda: ulp_truncated(abelian(2, 0, with_pmap=True), pmap="zero", d=3),
    }


# taken when ulp_truncated still wrote one p-relation per element
ULP_PRESENTATION_DIGESTS = {
    "ab_2_2_3": "d67b487f17dbab06ea22ae067e351b962a9551e9daac176aabb12b396848bea8",
    "ab_3_1_4": "7527a59f162ed854884ff512fe3fdcb0427c4468db6ccc202d5602ff2ab8b130",
    "l2_2_2": "2861b5a1bfb97a95f4edf6d2814bc5b8cba9a019824b8a74a1b2d50685e0a3bc",
    "l2_2_3": "03ec5b2e8e85a68fe398af3aa9570ca611caecda44fd832aaac4914af24f8227",
    "l2_2_3_sampled": "38987308f325b8306ff560f8f19ea8305d970e04bd54d91510c9d097185ecf58",
    "l2_2_5": "08476af88e68ccd2a677c06ab6f3e329f19ff97b842bf8a832c3e149cbe1b409",
    "l2_3_3_sampled": "857c71899f3b7eb9983b91b1f70f05688438370294261d8ddbf261d3fad3b734",
    "l2_3_4": "5065e3e67a1c6eac4db1077927817fdbda130ee2c6b9c6937bfb96ae9e904bdc",
    "zero_dim": "2f56eee403b85a83666cb94c9045b4ae5faf90f1f664badadcf36ddc8db914b5",
}


@pytest.mark.parametrize("name", sorted(ULP_PRESENTATION_DIGESTS))
def test_ulp_presentations_are_pinned_without_their_relations(name):
    pres = _ulp_pinned_cases()[name]()
    assert _presentation_digest(pres) == ULP_PRESENTATION_DIGESTS[name]


def _oracle_presentation(g, pmap, d, cap, seed=0, samples=64):
    """truncated_ideal_quotient by naive_ulp_relations on ulp_truncated's rows."""
    X, PX, _ = _pmap_instances(g, pmap, cap, seed, samples)
    W = word_ambient(2 * g.dim, d, g.p)
    rels = naive_ulp_relations(g.structure("bracket").tolist(), g.dim, g.p,
                               X.tolist(), PX.tolist())
    return truncated_ideal_quotient(W, [{W.index[w]: a for w, a in r.items()} for r in rels])


def _planted(g, seed, pmap="frobenius"):
    """g with a TablePMap "planted": its `pmap` values, each shifted by a
    seeded random v with [u, v] = 0 for every u, so r_v = 0 and the operator
    condition the gate checks still holds."""
    p, n, c = g.p, g.dim, g.structure("bracket").tolist()
    rng = random.Random(seed)
    center = [v for v in itertools.product(range(p), repeat=n)
              if not any(sum(c[i][j][k] * v[j] for j in range(n)) % p
                         for i in range(n) for k in range(n))]
    X = g.elements_array()
    table = {tuple(x): tuple((a + b) % p for a, b in zip(fx, rng.choice(center)))
             for x, fx in zip(X.tolist(), g.apply_pmap_batch(pmap, X).tolist())}
    return g.extended(pmaps={"planted": TablePMap(table)})


def _ulp_oracle_cases():
    """(id, algebra, p-map): p**dim <= 729; planted maps with nonzero span delta,
    which on abelian2/F3 has dimension 2 and both letters change the quotient."""
    ut2 = dleib(as_dialgebra(upper_triangular2(2)))
    return [(f"l2f{p}", l2(p), "frobenius") for p in (2, 3, 5)] + [
        ("dleib-ut2-f2", ut2, "frobenius"),
        ("dleib-l2dias-f3", dleib(l2_dialgebra(3)), "frobenius"),
        ("dleib-tp2-f3", dleib(as_dialgebra(truncated_poly(3, 2))), "frobenius"),
        ("dleib-mat2-f2", dleib(as_dialgebra(matrix_assoc(2, 2))), "frobenius"),
        ("zero-dim", abelian(3, 0, with_pmap=True), "zero"),
        ("abelian3-f3", abelian(3, 3, with_pmap=True), "zero"),
    ] + [(f"planted-{name}-{seed}", _planted(g, seed), "planted")
         for name, g, seeds in (("l2f3", l2(3), (1, 2)), ("l2f5", l2(5), (1,)),
                                ("ut2-f2", ut2, (1, 2)))
         for seed in seeds] + [("planted-abelian2-f3-1", _planted(
             abelian(3, 2, with_pmap=True), 1, "zero"), "planted")]


ULP_ORACLE_CASES = _ulp_oracle_cases()


@pytest.mark.parametrize("name, g, pmap", ULP_ORACLE_CASES,
                         ids=[case[0] for case in ULP_ORACLE_CASES])
def test_ulp_truncated_matches_the_all_element_oracle(name, g, pmap):
    """Bracket families, one p-th power per basis letter and the letters of
    span delta give the same quotient as the bracket families and one
    word-expanded p-relation per row, at d = p and p + 1, exhaustive and
    sampled (cap=1)."""
    for d, cap in itertools.product((g.p, g.p + 1), (None, 1)):
        got, want = ulp_truncated(g, pmap, d=d, cap=cap), _oracle_presentation(g, pmap, d, cap)
        assert (got.normal_indices, got.ideal_rank) == (want.normal_indices, want.ideal_rank)
        assert np.array_equal(got.projection, want.projection)
    if name.startswith("planted"):
        p, c = g.p, g.structure("bracket").tolist()
        values = [g.apply_pmap(pmap, g.basis(i)) for i in range(g.dim)]
        delta = [[(a - b) % p for a, b in zip(g.apply_pmap(pmap, x), naive_basis_jacobson(
            lambda u, v: naive_multiply(c, u, v, p), values, x, p))]
                 for x in itertools.product(range(p), repeat=g.dim)]
        assert gauss_rank(delta, p) == (2 if "abelian" in name else 1)
