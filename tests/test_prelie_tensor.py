"""Tensor product of bracket and half-shuffle algebras: pre-Lie structure,
vanishing p-th powers, and the antisymmetrized restricted Lie bracket."""

import itertools

import numpy as np
import pytest

import rlk.algebra_core
import rlk.identities
import rlk.prelie_tensor
from rlk.algebra_core import Algebra, lie_basis_violation
from rlk.errors import UsageError
from rlk.free_structures import free_zinbiel
from rlk.identities import (
    CheckReport,
    Coverage,
    check_prelie,
    check_restricted_lie,
    check_restricted_prelie,
)
from rlk.prelie_tensor import (
    TensorAlgebraHandle,
    check_corollary,
    check_tensor_restricted,
    prelie_to_lie,
    tensor_pmap,
    tensor_pmap_factors,
    tensor_prelie,
)

from helpers import (
    abelian,
    all_elements,
    counting,
    l2,
    tensor_suite,
    truncated_poly,
    upper_triangular2,
    zinbiel_zero,
)
from oracles import naive_mat_pow


def l2_tensor(p, ngen=1, cap=3):
    return tensor_prelie(l2(p), free_zinbiel(ngen, cap, p))


# -- assembly -------------------------------------------------------------------


def test_product_structure_matches_naive_quadruple_loop():
    T = l2_tensor(2)
    g, R, A = T.gfactor, T.rfactor, T.product
    cg, cr = g.structure("bracket"), R.structure("zinbiel")
    c = A.structure("prelie")
    for i in range(g.dim):
        for j in range(R.dim):
            for k in range(g.dim):
                for l in range(R.dim):
                    for m in range(g.dim):
                        for n2 in range(R.dim):
                            want = (cg[i, k, m] * cr[j, l, n2]) % 2
                            got = c[T.pair_index(i, j), T.pair_index(k, l),
                                    T.pair_index(m, n2)]
                            assert got == want


def test_known_product_value():
    T = l2_tensor(2)
    u = T.pure(T.gfactor.basis(0), T.rfactor.basis(0))
    v = T.pure(T.gfactor.basis(1), T.rfactor.basis(0))
    w2 = T.rfactor.multiply("zinbiel", T.rfactor.basis(0), T.rfactor.basis(0))
    assert T.product.multiply("prelie", u, v) == (0, 1, 0, 0, 0, 0)
    assert T.product.multiply("prelie", u, v) == T.pure(T.gfactor.basis(0), w2)
    assert T.product.multiply("prelie", v, u) == T.product.zero()


def test_row_major_pairing():
    T = l2_tensor(3, ngen=1, cap=3)
    for i in range(2):
        for j in range(3):
            e = T.pure(T.gfactor.basis(i), T.rfactor.basis(j))
            assert e == T.product.basis(T.pair_index(i, j))
            assert T.pair_index(i, j) == i * 3 + j


def test_abelian_first_factor_gives_zero_product():
    T = tensor_prelie(abelian(3, 2), free_zinbiel(1, 3, 3))
    assert not T.product.structure("prelie").any()
    assert not T.product.structure("lie").any()


def test_prelie_verified_at_construction_over_suite():
    for g, R in tensor_suite():
        T = tensor_prelie(g, R)
        assert check_prelie(T.product, "prelie").status == "pass", T


def test_graded_second_factor_converted():
    direct = tensor_prelie(l2(2), free_zinbiel(1, 3, 2))
    dense = tensor_prelie(l2(2), free_zinbiel(1, 3, 2).to_algebra())
    assert np.array_equal(direct.product.structure("prelie"),
                          dense.product.structure("prelie"))


def test_factor_validation_errors():
    bad_bracket = truncated_poly(2, 3)
    g = Algebra(2, 3, {"bracket": bad_bracket.structure("assoc")})
    with pytest.raises(UsageError, match="not Leibniz"):
        tensor_prelie(g, free_zinbiel(1, 2, 2))
    bad_half = Algebra(2, 3, {"zinbiel": truncated_poly(2, 3).structure("assoc")})
    with pytest.raises(UsageError, match="not Zinbiel"):
        tensor_prelie(l2(2), bad_half)
    with pytest.raises(UsageError, match="characteristics differ"):
        tensor_prelie(l2(2), free_zinbiel(1, 2, 3))
    with pytest.raises(UsageError, match=r"2\*33 = 66 exceeds bound 64"):
        tensor_prelie(l2(2), zinbiel_zero(2, 33))


# -- formal p-th power ------------------------------------------------------------


def test_pmap_factors_frozen_values():
    T3 = tensor_prelie(l2(3), free_zinbiel(1, 4, 3))
    z, w = tensor_pmap_factors(T3, T3.gfactor.basis(1), T3.rfactor.basis(0))
    assert z == (0, 0)
    assert w == (0, 0, 0, 0)
    z, w = tensor_pmap_factors(T3, (1, 1), T3.rfactor.basis(0))
    assert z == (1, 0)
    assert w == (0, 0, 0, 0)
    T2 = l2_tensor(2)
    z, w = tensor_pmap_factors(T2, (1, 1), T2.rfactor.basis(0))
    assert z == (1, 0)
    assert w == (0, 0, 0)


def test_pmap_value_zero_with_vanishing_half_shuffle_factor():
    T = l2_tensor(2)
    for y in all_elements(2, 2):
        for b in all_elements(2, 3):
            z, w = tensor_pmap_factors(T, y, b)
            assert not any(w)
            assert tensor_pmap(T, y, b) == T.product.zero()
    T3 = tensor_prelie(l2(3), free_zinbiel(1, 3, 3))
    for i in range(2):
        for j in range(3):
            assert tensor_pmap(T3, T3.gfactor.basis(i), T3.rfactor.basis(j)) \
                == T3.product.zero()


def test_pmap_of_zero_is_zero():
    T = l2_tensor(2)
    assert tensor_pmap(T, T.gfactor.zero(), T.rfactor.zero()) == T.product.zero()


def test_pmap_single_argument_requires_purity():
    T = l2_tensor(2)
    u = T.pure((1, 1), (0, 1, 1))
    assert tensor_pmap(T, u) == T.product.zero()
    assert T.split_pure(u) == ((1, 1), (0, 1, 1))
    nonpure = T.product.add(T.pure((1, 0), (1, 0, 0)), T.pure((0, 1), (0, 1, 0)))
    with pytest.raises(UsageError, match="not a pure tensor"):
        tensor_pmap(T, nonpure)


def test_split_pure_roundtrip_exhaustive():
    T = l2_tensor(2)
    for y in all_elements(2, 2):
        for b in all_elements(2, 3):
            u = T.pure(y, b)
            y2, b2 = T.split_pure(u)
            assert T.pure(y2, b2) == u


def test_attached_formula_pmap_evaluates_and_extends():
    T = l2_tensor(2)
    A = T.product
    assert A.apply_pmap("tensor_p", T.pure((1, 1), (1, 1, 0))) == A.zero()
    nonpure = A.add(T.pure((1, 0), (1, 0, 0)), T.pure((0, 1), (0, 1, 0)))
    assert A.apply_pmap("tensor_p", nonpure) == A.zero()
    assert check_restricted_prelie(A, "tensor_p").status == "pass"
    assert check_restricted_prelie(A, "zero").status == "pass"


# -- operator vanishing ------------------------------------------------------------


def test_restricted_sweep_over_suite():
    for g, R in tensor_suite():
        T = tensor_prelie(g, R)
        rep = check_tensor_restricted(T, seed=1, samples=60)
        assert rep.status == "pass", (T, rep.to_dict())
        assert "zero extension" in rep.notes[1]


def test_operator_powers_against_naive_oracle():
    T = tensor_prelie(l2(3), free_zinbiel(1, 3, 3))
    A = T.product
    rng = np.random.default_rng(7)
    for _ in range(5):
        u = tuple(int(v) for v in rng.integers(0, 3, A.dim))
        Ru = A.right_mult_matrix("prelie", u)
        cube = naive_mat_pow([[int(x) for x in row] for row in Ru], 3, 3)
        assert all(all(v == 0 for v in row) for row in cube)


def test_ingredient_failures_reported_for_forged_handle():
    cz = np.zeros((1, 1, 1), dtype=np.int64)
    for p, tags in ((2, {"inner_square"}), (3, {"inner_square", "inner_antisym"})):
        c = np.ones((1, 1, 1), dtype=np.int64)
        gbad = Algebra(p, 1, {"bracket": c}, label=f"ee=e/F{p}")
        prod = Algebra(p, 1, {"prelie": cz.copy(), "lie": cz.copy()})
        T = TensorAlgebraHandle(gbad, zinbiel_zero(p, 1), prod)
        rep = check_tensor_restricted(T)
        assert rep.status == "fail"
        assert tags <= {w.inputs[0] for w in rep.witnesses}


# -- antisymmetrization ------------------------------------------------------------


def test_associative_commutator_bracket():
    A = upper_triangular2(3)
    L = prelie_to_lie(A, op="assoc")
    c = A.structure("assoc")
    assert np.array_equal(L.structure("lie"), (c - c.transpose(1, 0, 2)) % 3)
    assert set(L.op_names) == {"assoc", "lie"}


def test_antisymmetrize_rejects_non_prelie():
    R = free_zinbiel(2, 3, 3).to_algebra()
    with pytest.raises(UsageError, match="not pre-Lie"):
        prelie_to_lie(R, op="zinbiel")


def test_check_corollary_checks_the_lie_axioms_once(monkeypatch):
    T = l2_tensor(2)
    calls = {"lie": 0}
    for mod in (rlk.algebra_core, rlk.identities, rlk.prelie_tensor):
        monkeypatch.setattr(mod, "lie_basis_violation",
                            counting(calls, "lie", mod.lie_basis_violation))
    assert check_corollary(T, samples=20).ok()
    assert calls["lie"] == 1


def test_corollary_bracket_matches_independent_loop():
    T = l2_tensor(2)
    g, R, A = T.gfactor, T.rfactor, T.product
    cg, cr = g.structure("bracket"), R.structure("zinbiel")
    clie = A.structure("lie")
    for (i, j), (k, l) in itertools.product(
        itertools.product(range(g.dim), range(R.dim)), repeat=2
    ):
        want = np.zeros(A.dim, dtype=np.int64)
        for m in range(g.dim):
            for n2 in range(R.dim):
                idx = T.pair_index(m, n2)
                want[idx] = (cg[i, k, m] * cr[j, l, n2]
                             - cg[k, i, m] * cr[l, j, n2]) % 2
        assert np.array_equal(clie[T.pair_index(i, j), T.pair_index(k, l)], want)


def test_corollary_check_over_sample_pairs():
    for g, R in tensor_suite()[:8]:
        T = tensor_prelie(g, R)
        rep = check_corollary(T, seed=0, samples=40)
        assert rep.status == "pass", (T, rep.to_dict())
        assert "extended by the scalar and additivity rules" in rep.notes[0]
        assert "lie_p" in T.product.pmaps


def test_literal_zero_pmap_breaks_additivity_in_char_two():
    T = l2_tensor(2)
    rep = check_restricted_lie(T.product, "lie", "zero", samples=40)
    assert rep.status == "fail"
    assert any(w.inputs[0] == "axiom3" for w in rep.witnesses)
    check_corollary(T, samples=10)
    assert check_restricted_lie(T.product, "lie", "lie_p", samples=40).status \
        == "pass"
    # abelian bracket: no additivity correction, the literal zero map passes
    Ta = tensor_prelie(abelian(2, 2), zinbiel_zero(2, 2))
    assert check_restricted_lie(Ta.product, "lie", "zero").status == "pass"


def test_prelie_to_lie_accepts_handle():
    T = l2_tensor(2)
    L = prelie_to_lie(T)
    assert np.array_equal(L.structure("lie"), T.product.structure("lie"))


def test_suite_size_and_bounds():
    s = tensor_suite()
    assert len(s) >= 20
    assert all(g.dim * R.dim <= 64 for g, R in s)


def test_corollary_leaves_product_pmaps_unchanged():
    T = l2_tensor(2)
    before = dict(T.product.pmaps)
    assert check_corollary(T, samples=10).status == "pass"
    assert T.product.pmaps == before
    # a handle whose product lacks "lie_p": checked on a local extension
    prod = Algebra(2, T.product.dim,
                   {"prelie": T.product.structure("prelie"),
                    "lie": T.product.structure("lie")})
    forged = TensorAlgebraHandle(T.gfactor, T.rfactor, prod)
    rep = check_corollary(forged, samples=10)
    assert rep.to_dict() == check_corollary(T, samples=10).to_dict()
    assert prod.pmaps == {}


# -- reports handed on ---------------------------------------------------------------


def test_tensor_product_reports_are_its_prelie_check():
    for g, R in tensor_suite()[:6]:
        T = tensor_prelie(g, R)
        assert [r.to_dict() for r in T.product.reports] == [check_prelie(T.product).to_dict()]


def test_prelie_to_lie_reports_are_its_two_checks():
    for A, op in ((upper_triangular2(3), "assoc"), (l2_tensor(2), "prelie")):
        L = prelie_to_lie(A, op=op)
        base = A.product if isinstance(A, TensorAlgebraHandle) else A
        assert lie_basis_violation(L, "lie") is None
        lie_axioms = CheckReport(
            "lie_axioms", "pass", [], Coverage("exhaustive", L.dim ** 3), 0,
            ("alternating + antisymmetry + Jacobi on basis triples",))
        assert [r.to_dict() for r in L.reports] == [
            check_prelie(base, op).to_dict(), lie_axioms.to_dict()]
