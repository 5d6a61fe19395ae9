from __future__ import annotations

import itertools
import random

import numpy as np
import pytest

from rlk.algebra_core import Algebra, MatrixPowerPMap
from rlk.dialgebra import (
    Dialgebra,
    as_dialgebra,
    check_commutative_diagram,
    check_lemdias,
    dialgebra_from_operator,
    dleib,
    matrix_dialgebra,
    sweep_lemdias,
)
from rlk.errors import UsageError
from rlk.identities import check_dias, check_leibniz, check_restricted_leibniz

from helpers import (
    associative_suite,
    commutator_tensor,
    l2,
    l2_dialgebra,
    matrix_assoc,
    operator_family,
    truncated_poly,
    upper_triangular2,
)


def test_dialgebra_construction_verifies_axioms() -> None:
    a = truncated_poly(3, 2)
    with pytest.raises(UsageError, match="left_bar"):
        Dialgebra(3, 2, {"left": a.structure("assoc"),
                         "right": np.zeros((2, 2, 2), dtype=np.int64)})


def test_as_dialgebra_shares_the_product() -> None:
    a = upper_triangular2(5)
    D = as_dialgebra(a)
    assert np.array_equal(D.structure("left"), a.structure("assoc"))
    assert np.array_equal(D.structure("right"), a.structure("assoc"))


# -- dleib ----------------------------------------------------------------------


def test_dleib_of_associative_is_commutator_with_pth_power() -> None:
    for p in (2, 3):
        for a in associative_suite(p):
            L = dleib(as_dialgebra(a))
            assert np.array_equal(L.structure("bracket"), commutator_tensor(a))
            withpw = a.extended(pmaps={"pw": MatrixPowerPMap("assoc")})
            X = a.elements_array() if a.can_enumerate(2048) else a.sample_array(
                64, random.Random(3))
            assert np.array_equal(
                L.apply_pmap_batch("frobenius", X),
                withpw.apply_pmap_batch("pw", X),
            )


def test_dleib_of_l2_dialgebra_is_l2() -> None:
    for p in (2, 3, 5):
        L = dleib(l2_dialgebra(p))
        assert np.array_equal(L.structure("bracket"), l2(p).structure("bracket"))
        # the p-fold |- power is a |-> coefficient-of-f2 times f2
        for x in L.enumerate_elements():
            assert L.apply_pmap("frobenius", x) == (0, x[1])
        assert check_restricted_leibniz(L).ok()


def test_dleib_rejects_broken_operator_condition() -> None:
    # left = L2 bracket, right = 0 gives a Leibniz bracket whose p-fold
    # |- power (identically 0) is not a restricted p-map
    c = np.zeros((2, 2, 2), dtype=np.int64)
    c[0, 1, 0] = 1
    fake = Algebra(2, 2, {"left": c, "right": np.zeros_like(c)})
    with pytest.raises(UsageError, match="restricted"):
        dleib(fake)


def test_dleib_rejects_non_leibniz_bracket() -> None:
    c = np.zeros((2, 2, 2), dtype=np.int64)
    c[0, 0, 1] = 1
    c[1, 1, 0] = 1
    fake = Algebra(2, 2, {"left": c, "right": np.zeros_like(c)})
    # with |- zero the derived bracket x -| y - y |- x is c itself
    if check_leibniz(Algebra(2, 2, {"bracket": c})).ok():
        pytest.skip("fixture accidentally Leibniz")
    with pytest.raises(UsageError, match="Leibniz"):
        dleib(fake)


# -- power compatibility -----------------------------------------------------------


def test_lemdias_base_case_and_sweeps() -> None:
    D = l2_dialgebra(3)
    x, y = (1, 2), (2, 1)
    one = check_lemdias(D, x, y, 1)
    assert one.ok()
    assert one.coverage.count == 1
    for p in (2, 3):
        for a in associative_suite(p, max_dim=3):
            rep = sweep_lemdias(as_dialgebra(a))
            assert rep.ok()
            assert rep.coverage.count == a.dim * a.dim * (p + 1)


def test_lemdias_on_operator_dialgebras() -> None:
    rng = random.Random(19)
    for p in (2, 3):
        for a, dop, tag in operator_family(p):
            D = dialgebra_from_operator(a, dop, label=tag)
            x = tuple(rng.randrange(p) for _ in range(a.dim))
            y = tuple(rng.randrange(p) for _ in range(a.dim))
            assert check_lemdias(D, x, y, 3).ok()
            assert sweep_lemdias(D).ok()


def test_lemdias_detects_incompatible_powers() -> None:
    a = truncated_poly(3, 2)
    fake = Algebra(3, 2, {"left": a.structure("assoc"),
                          "right": np.zeros((2, 2, 2), dtype=np.int64)})
    rep = check_lemdias(fake, (1, 0), (1, 0), 2)
    assert rep.status == "fail"
    assert rep.witnesses[0].lhs == (1, 0)  # 1 -| (1 -| 1) = 1
    assert rep.witnesses[0].rhs == (0, 0)  # 1 -| (1 |- 1) = 1 -| 0


def test_lemdias_rejects_bad_power() -> None:
    with pytest.raises(UsageError):
        check_lemdias(l2_dialgebra(2), (1, 0), (0, 1), 0)


# -- matrix dialgebras ---------------------------------------------------------------


def test_matrix_dialgebra_n1_is_identity() -> None:
    D = l2_dialgebra(3)
    M = matrix_dialgebra(D, 1)
    assert np.array_equal(M.structure("left"), D.structure("left"))
    assert np.array_equal(M.structure("right"), D.structure("right"))


def test_matrix_dialgebra_follows_the_product_rule() -> None:
    """(E_ij a) o (E_kl b) = [j == k] E_il (a o b) entry by entry, at flat
    index (i*n + j)*dim + a, for n = 1, 2, 3 on a dim-3 dialgebra over F_5."""
    aug = np.zeros((3, 3), dtype=np.int64)
    aug[0, 0] = 1
    D = dialgebra_from_operator(truncated_poly(5, 3), aug)
    d = D.dim
    for n in (1, 2, 3):
        M = matrix_dialgebra(D, n)
        for name in ("left", "right"):
            c = D.structure(name).tolist()
            want = [[[0] * M.dim for _ in range(M.dim)] for _ in range(M.dim)]
            for i, j, k, l, a, b, e in itertools.product(
                    range(n), range(n), range(n), range(n), range(d), range(d), range(d)):
                if j == k:
                    want[(i * n + j) * d + a][(k * n + l) * d + b][(i * n + l) * d + e] = c[a][b][e]
            assert M.structure(name).tolist() == want, (n, name)


def test_gl2_of_ground_field_is_matrix_algebra() -> None:
    ground = as_dialgebra(truncated_poly(2, 1))
    M = matrix_dialgebra(ground, 2)
    expect = matrix_assoc(2, 2).structure("assoc")
    assert np.array_equal(M.structure("left"), expect)
    assert np.array_equal(M.structure("right"), expect)


def test_gl2_of_operator_fixture_is_restricted() -> None:
    a = truncated_poly(3, 2)
    aug = np.zeros((2, 2), dtype=np.int64)
    aug[0, 0] = 1
    D = dialgebra_from_operator(a, aug)
    M = matrix_dialgebra(D, 2)  # construction re-verifies check_dias
    L = dleib(M)  # runs both bracket and restrictedness checks
    assert check_restricted_leibniz(L, seed=5).ok()


def test_gl2_commutes_with_dleib() -> None:
    # bracket of gl_2(D) at (E_ij a, E_kl b) equals
    # [j == k] E_il (a -| b) - [l == i] E_kj (b |- a)
    D = l2_dialgebra(3)
    n, dd = 2, D.dim
    got = dleib(matrix_dialgebra(D, n)).structure("bracket")
    cl, cr = D.structure("left"), D.structure("right")
    dim = n * n * dd
    expect = np.zeros((dim, dim, dim), dtype=np.int64)

    def flat(i, j, a):
        return (i * n + j) * dd + a

    for i in range(n):
        for j in range(n):
            for k in range(n):
                for l in range(n):
                    for a in range(dd):
                        for b in range(dd):
                            row = np.zeros(dim, dtype=np.int64)
                            if j == k:
                                for e in range(dd):
                                    row[flat(i, l, e)] += cl[a, b, e]
                            if l == i:
                                for e in range(dd):
                                    row[flat(k, j, e)] -= cr[b, a, e]
                            expect[flat(i, j, a), flat(k, l, b)] = row % D.p
    assert np.array_equal(got, expect)


def test_matrix_dialgebra_size_bound() -> None:
    D = as_dialgebra(matrix_assoc(2, 2))
    with pytest.raises(UsageError, match="bound"):
        matrix_dialgebra(D, 5)
    with pytest.raises(UsageError):
        matrix_dialgebra(D, 0)


# -- operator dialgebras ----------------------------------------------------------


def test_operator_identity_reproduces_the_product() -> None:
    a = upper_triangular2(3)
    D = dialgebra_from_operator(a, np.eye(3, dtype=np.int64))
    assert np.array_equal(D.structure("left"), a.structure("assoc"))
    assert np.array_equal(D.structure("right"), a.structure("assoc"))
    L = dleib(D)
    assert np.array_equal(L.structure("bracket"), commutator_tensor(a))


def test_operator_zero_gives_zero_products() -> None:
    a = truncated_poly(5, 2)
    D = dialgebra_from_operator(a, np.zeros((2, 2), dtype=np.int64))
    assert not D.structure("left").any()
    assert not D.structure("right").any()
    L = dleib(D)
    for x in L.enumerate_elements():
        assert L.apply_pmap("frobenius", x) == L.zero()


def test_operator_augmentation_products() -> None:
    # D(alpha + beta t) = alpha: a -| b = b_0 a and a |- b = a_0 b
    a = truncated_poly(3, 2)
    aug = np.zeros((2, 2), dtype=np.int64)
    aug[0, 0] = 1
    D = dialgebra_from_operator(a, aug)
    assert D.multiply("left", (1, 2), (2, 1)) == (2, 1)  # (1+2t)(2) = 2+4t
    assert D.multiply("right", (1, 2), (2, 1)) == (2, 1)  # (1)(2+t)
    assert D.multiply("left", (0, 1), (0, 1)) == (0, 0)  # t * D(t) = 0


def test_operator_family_all_valid() -> None:
    for p in (2, 3, 5):
        for a, dop, tag in operator_family(p):
            D = dialgebra_from_operator(a, dop, label=tag)
            assert dleib(D) is not None


def test_operator_condition_rejected_with_witness() -> None:
    a = Algebra(3, 2, {"assoc": np.array(
        [[[1, 0], [0, 0]], [[0, 0], [0, 0]]], dtype=np.int64)})
    # diagonal algebra with a unipotent mix: D e_1 = e_0 + e_1 breaks
    # (Da)(Db) = D(a(Db)) at the basis pair (1, 0)
    d2 = Algebra(3, 2, {"assoc": np.array(
        [[[1, 0], [0, 0]], [[0, 0], [0, 1]]], dtype=np.int64)})
    dop = np.array([[1, 1], [0, 1]], dtype=np.int64)
    with pytest.raises(UsageError, match="operator condition"):
        dialgebra_from_operator(d2, dop)
    del a


def test_operator_rejects_non_associative_base() -> None:
    # (e0 e0) e1 = 0 but e0 (e0 e1) = e1 under the L2 bracket
    bad = Algebra(3, 2, {"assoc": l2(3).structure("bracket")})
    with pytest.raises(UsageError, match="associative"):
        dialgebra_from_operator(bad, np.eye(2, dtype=np.int64))


def test_operator_rejects_bad_shape() -> None:
    with pytest.raises(UsageError, match="shape"):
        dialgebra_from_operator(truncated_poly(2, 2), np.eye(3, dtype=np.int64))


# -- the two paths agree ------------------------------------------------------------


def test_commutative_diagram_on_suite() -> None:
    count = 0
    for p in (2, 3):
        for a in associative_suite(p):
            rep = check_commutative_diagram(a)
            assert rep.ok(), (a.label, rep.witnesses[:1])
            count += 1
    assert count >= 10


def test_commutative_diagram_one_dim_ground_field() -> None:
    rep = check_commutative_diagram(truncated_poly(2, 1))
    assert rep.ok()
    assert rep.coverage.kind == "exhaustive"
    assert rep.coverage.count == 1 + 2  # dim^2 bracket pairs + 2 elements


def test_commutative_diagram_rejects_non_associative() -> None:
    bad = Algebra(3, 2, {"assoc": l2(3).structure("bracket")})
    with pytest.raises(UsageError, match="not associative"):
        check_commutative_diagram(bad)


# -- reports handed on ---------------------------------------------------------------


def _dicts(reports):
    return [r.to_dict() for r in reports]


def test_dialgebra_reports_are_its_dias_check() -> None:
    base = upper_triangular2(3)
    endo = np.diag([1, 0, 1]).astype(np.int64)
    for D in (as_dialgebra(base), matrix_dialgebra(as_dialgebra(truncated_poly(2, 2)), 2),
              dialgebra_from_operator(base, endo), l2_dialgebra(3)):
        assert _dicts(D.reports) == _dicts([check_dias(D)]), D.label


def test_dleib_reports_are_its_two_checks() -> None:
    for D, cap, seed, samples in ((as_dialgebra(upper_triangular2(3)), None, 0, 400),
                                  (l2_dialgebra(5), 1, 7, 30)):
        L = dleib(D, cap=cap, seed=seed, samples=samples)
        assert _dicts(L.reports) == _dicts([
            check_leibniz(L),
            check_restricted_leibniz(L, "frobenius", cap=cap, seed=seed, samples=samples),
        ])
        assert L.reports[1].coverage.kind == ("exhaustive" if cap is None else "sampled")
