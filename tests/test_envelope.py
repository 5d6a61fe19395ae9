"""Two-sided modules, their operator relations, and the word envelope."""

import itertools

import numpy as np
import pytest

from rlk.algebra_core import Algebra, ZeroPMap
from rlk.dialgebra import as_dialgebra, dleib
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
from rlk.identities import check_leibniz

from helpers import abelian, l2, l2_dialgebra, truncated_poly
from oracles import (
    ideal_rank_fixed_point,
    naive_mat_mul,
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
