from __future__ import annotations

import random

import numpy as np
import pytest

from rlk.algebra_core import (
    Algebra,
    BasisJacobsonPMap,
    MatrixPowerPMap,
    RightPowerPMap,
    TablePMap,
    ZeroPMap,
    enumeration_cap,
    lie_basis_violation,
    stack_mat_pow,
)
from rlk.errors import UsageError

from helpers import all_elements, l2, random_structure, truncated_poly
from oracles import naive_mat_pow, naive_multiply


def test_l2_multiply_example() -> None:
    alg = l2(3)
    assert alg.multiply("bracket", (2, 1), (0, 1)) == (2, 0)
    assert alg.multiply("bracket", (0, 1), (1, 0)) == (0, 0)


def test_right_mult_matrix_examples() -> None:
    alg = l2(3)
    r_e2 = alg.right_mult_matrix("bracket", (0, 1))
    assert r_e2.tolist() == [[1, 0], [0, 0]]
    r_e1 = alg.right_mult_matrix("bracket", (1, 0))
    assert r_e1.tolist() == [[0, 0], [0, 0]]


def test_left_mult_matrix_example() -> None:
    alg = l2(3)
    l_e1 = alg.left_mult_matrix("bracket", (1, 0))
    # columns are [e1, e1] = 0 and [e1, e2] = e1
    assert l_e1.tolist() == [[0, 1], [0, 0]]


def test_multiply_matches_naive_oracle() -> None:
    rng = random.Random(23)
    for p in (2, 3, 5):
        for _ in range(20):
            dim = rng.randrange(1, 5)
            c = random_structure(p, dim, rng)
            alg = Algebra(p, dim, {"mul": c})
            for _ in range(10):
                x = tuple(rng.randrange(p) for _ in range(dim))
                y = tuple(rng.randrange(p) for _ in range(dim))
                assert alg.multiply("mul", x, y) == naive_multiply(c.tolist(), x, y, p)


def test_mult_matrices_agree_with_multiply() -> None:
    rng = random.Random(29)
    p, dim = 5, 4
    alg = Algebra(p, dim, {"mul": random_structure(p, dim, rng)})
    for _ in range(20):
        x = tuple(rng.randrange(p) for _ in range(dim))
        y = tuple(rng.randrange(p) for _ in range(dim))
        rm = alg.right_mult_matrix("mul", x)
        lm = alg.left_mult_matrix("mul", x)
        assert tuple((rm @ np.array(y)) % p) == alg.multiply("mul", y, x)
        assert tuple((lm @ np.array(y)) % p) == alg.multiply("mul", x, y)


def test_batch_helpers_match_single() -> None:
    rng = random.Random(31)
    p, dim = 3, 3
    alg = Algebra(p, dim, {"mul": random_structure(p, dim, rng)})
    X = alg.sample_array(25, rng)
    Y = alg.sample_array(25, rng)
    Z = alg.multiply_batch("mul", X, Y)
    S = alg.right_mult_stack("mul", X)
    L = alg.left_mult_stack("mul", X)
    for n in range(25):
        x, y = tuple(int(v) for v in X[n]), tuple(int(v) for v in Y[n])
        assert tuple(int(v) for v in Z[n]) == alg.multiply("mul", x, y)
        assert np.array_equal(S[n], alg.right_mult_matrix("mul", x))
        assert np.array_equal(L[n], alg.left_mult_matrix("mul", x))


def test_stack_mat_pow() -> None:
    rng = random.Random(41)
    p = 5
    stack = np.array(
        [[[rng.randrange(p) for _ in range(3)] for _ in range(3)] for _ in range(7)]
    )
    out = stack_mat_pow(stack, 4, p)
    for n in range(7):
        assert out[n].tolist() == naive_mat_pow(stack[n].tolist(), 4, p)


def test_enumeration_order_and_array() -> None:
    alg = l2(3)
    elems = list(alg.enumerate_elements())
    assert len(elems) == 9
    assert elems[0] == (0, 0)
    assert elems[1] == (0, 1)
    assert elems[-1] == (2, 2)
    assert elems == all_elements(3, 2)
    arr = alg.elements_array()
    assert [tuple(int(v) for v in row) for row in arr] == elems


def test_enumeration_cap_and_env(monkeypatch) -> None:
    alg = Algebra(2, 17, {"mul": np.zeros((17, 17, 17), dtype=np.int64)})
    assert not alg.can_enumerate()
    with pytest.raises(UsageError):
        alg.enumerate_elements()
    assert alg.can_enumerate(1 << 17)
    monkeypatch.setenv("RLK_CAP", str(1 << 18))
    assert enumeration_cap() == 1 << 18
    assert alg.can_enumerate()
    monkeypatch.setenv("RLK_CAP", "bogus")
    with pytest.raises(UsageError):
        enumeration_cap()


def test_dim_zero_algebra() -> None:
    alg = Algebra(3, 0, {"mul": np.zeros((0, 0, 0), dtype=np.int64)})
    assert list(alg.enumerate_elements()) == [()]
    assert alg.multiply("mul", (), ()) == ()
    assert alg.elements_array().shape == (1, 0)


def test_rightpower_exponent_one_is_identity() -> None:
    alg = l2(3).extended(pmaps={"id": RightPowerPMap("bracket", 1)})
    for x in alg.enumerate_elements():
        assert alg.apply_pmap("id", x) == x


def test_matrixpower_on_truncated_poly() -> None:
    alg = truncated_poly(3, 2).extended(pmaps={"cube": MatrixPowerPMap("assoc")})
    # (a + b t)^3 = a^3 = a in F_3[t]/(t^2)
    for a in range(3):
        for b in range(3):
            assert alg.apply_pmap("cube", (a, b)) == (a, 0)


def test_rightpower_matches_repeated_multiply() -> None:
    rng = random.Random(43)
    p, dim = 3, 3
    alg = Algebra(
        p, dim, {"mul": random_structure(p, dim, rng)},
        {"pw": RightPowerPMap("mul")},
    )
    X = alg.sample_array(40, rng)
    batch = alg.apply_pmap_batch("pw", X)
    for n in range(40):
        x = tuple(int(v) for v in X[n])
        v = x
        for _ in range(p - 1):
            v = alg.multiply("mul", v, x)
        assert alg.apply_pmap("pw", x) == v
        assert tuple(int(e) for e in batch[n]) == v


def test_zero_pmap() -> None:
    alg = l2(5).extended(pmaps={"z": ZeroPMap()})
    assert alg.apply_pmap("z", (4, 3)) == (0, 0)
    assert not alg.apply_pmap_batch("z", alg.elements_array()).any()


def test_table_validation() -> None:
    with pytest.raises(UsageError):
        l2(2).extended(pmaps={"bad": TablePMap({(0, 0): (0, 0)})})
    with pytest.raises(UsageError):
        l2(2).extended(
            pmaps={"bad": TablePMap({(a, b): (0,) for a in range(2) for b in range(2)})}
        )
    with pytest.raises(UsageError):
        l2(2).extended(
            pmaps={"bad": TablePMap({(a, b): (0, 3) for a in range(2) for b in range(2)})}
        )


def test_basisjacobson_requires_lie_bracket() -> None:
    with pytest.raises(UsageError):
        l2(3).extended(
            pmaps={"bj": BasisJacobsonPMap("bracket", [(0, 0), (0, 0)])}
        )


def test_basisjacobson_on_abelian_is_semilinear() -> None:
    from helpers import abelian

    p = 3
    alg = abelian(p, 2).extended(
        pmaps={"bj": BasisJacobsonPMap("bracket", [(0, 1), (1, 0)])}
    )
    # all s_i vanish, so f(a e1 + b e2) = a^p (0,1) + b^p (1,0)
    for a in range(p):
        for b in range(p):
            expect = (
                pow(b, p, p) % p,
                pow(a, p, p) % p,
            )
            assert alg.apply_pmap("bj", (a, b)) == expect


def test_lie_basis_violation_witnesses() -> None:
    assert lie_basis_violation(l2(3), "bracket") == ("antisymmetry", 0, 1)
    c = np.zeros((1, 1, 1), dtype=np.int64)
    c[0, 0, 0] = 1
    alg = Algebra(3, 1, {"b": c})
    assert lie_basis_violation(alg, "b") == ("alternating", 0, 0)


def test_validation_errors() -> None:
    with pytest.raises(UsageError):
        Algebra(4, 1, {"m": np.zeros((1, 1, 1))})
    with pytest.raises(UsageError):
        Algebra(3, 2, {"m": np.zeros((2, 2, 3))})
    with pytest.raises(UsageError):
        Algebra(3, -1, {})
    with pytest.raises(UsageError):
        Algebra(2_147_483_647, 2, {"m": np.zeros((2, 2, 2))})
    alg = l2(3)
    with pytest.raises(UsageError):
        alg.multiply("nope", (0, 0), (0, 0))
    with pytest.raises(UsageError):
        alg.apply_pmap("nope", (0, 0))
    with pytest.raises(UsageError):
        alg.multiply("bracket", (0, 0, 0), (0, 0))
    with pytest.raises(UsageError):
        alg.basis(2)
    with pytest.raises(UsageError):
        Algebra(3, 1, {"": np.zeros((1, 1, 1))})


def test_structure_constants_reduced_and_frozen() -> None:
    c = np.full((1, 1, 1), 7, dtype=np.int64)
    alg = Algebra(3, 1, {"m": c})
    assert alg.structure("m")[0, 0, 0] == 1
    with pytest.raises(ValueError):
        alg.structure("m")[0, 0, 0] = 2


def test_extended_does_not_mutate_original() -> None:
    base = l2(3)
    ext = base.extended(pmaps={"z": ZeroPMap()}, label="ext")
    assert "z" not in base.pmaps
    assert "z" in ext.pmaps
    with pytest.raises(TypeError):
        base.pmaps["z"] = ZeroPMap()
    assert base.label != ext.label
    assert np.array_equal(base.structure("bracket"), ext.structure("bracket"))


def test_element_reduction() -> None:
    alg = l2(3)
    assert alg.element((-1, 7)) == (2, 1)


def test_stack_mat_pow_matches_naive_for_small_exponents() -> None:
    rng = random.Random(43)
    for p in (2, 3, 5, 7):
        stack = np.array(
            [[[rng.randrange(p) for _ in range(3)] for _ in range(3)] for _ in range(4)]
        )
        for n in range(9):
            out = stack_mat_pow(stack, n, p)
            for k in range(4):
                assert out[k].tolist() == naive_mat_pow(stack[k].tolist(), n, p), (p, n)


def test_stack_mat_pow_rejects_negative_exponent() -> None:
    with pytest.raises(UsageError, match="negative"):
        stack_mat_pow(np.eye(2, dtype=np.int64)[None], -1, 5)
