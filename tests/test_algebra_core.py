from __future__ import annotations

import itertools
import math
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
from oracles import (naive_mat_pow, naive_multiply, square_multiply_mat_pow,
                     trial_division_is_prime)


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


def _naive_mult_matrices(c, x, p):
    """Right and left multiplication matrices of x, column by column from
    the triple-loop product: column i is e_i * x, resp. x * e_i."""
    dim = len(x)
    basis = [tuple(int(i == j) for j in range(dim)) for i in range(dim)]
    right = [naive_multiply(c, e, x, p) for e in basis]
    left = [naive_multiply(c, x, e, p) for e in basis]
    return [list(row) for row in zip(*right)], [list(row) for row in zip(*left)]


def test_mult_matrices_agree_with_multiply() -> None:
    rng = random.Random(29)
    p, dim = 5, 4
    c = random_structure(p, dim, rng)
    alg = Algebra(p, dim, {"mul": c})
    for _ in range(20):
        x = tuple(rng.randrange(p) for _ in range(dim))
        y = tuple(rng.randrange(p) for _ in range(dim))
        rm = alg.right_mult_matrix("mul", x)
        lm = alg.left_mult_matrix("mul", x)
        assert (rm.tolist(), lm.tolist()) == _naive_mult_matrices(c.tolist(), x, p)
        assert tuple((rm @ np.array(y)) % p) == naive_multiply(c.tolist(), y, x, p)
        assert tuple((lm @ np.array(y)) % p) == naive_multiply(c.tolist(), x, y, p)


def test_batch_helpers_match_single() -> None:
    rng = random.Random(31)
    p, dim = 3, 3
    c = random_structure(p, dim, rng)
    alg = Algebra(p, dim, {"mul": c})
    X = alg.sample_array(25, rng)
    Y = alg.sample_array(25, rng)
    Z = alg.multiply_batch("mul", X, Y)
    S = alg.right_mult_stack("mul", X)
    L = alg.left_mult_stack("mul", X)
    for n in range(25):
        x, y = tuple(int(v) for v in X[n]), tuple(int(v) for v in Y[n])
        assert tuple(int(v) for v in Z[n]) == naive_multiply(c.tolist(), x, y, p)
        assert (S[n].tolist(), L[n].tolist()) == _naive_mult_matrices(c.tolist(), x, p)


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
    c = random_structure(p, dim, rng)
    alg = Algebra(p, dim, {"mul": c}, {"pw": RightPowerPMap("mul")})
    X = alg.sample_array(40, rng)
    batch = alg.apply_pmap_batch("pw", X)
    for n in range(40):
        x = tuple(int(v) for v in X[n])
        v = x
        for _ in range(p - 1):
            v = naive_multiply(c.tolist(), v, x, p)
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


# -- exact at a modulus next to the int64 bound ---------------------------------

# the largest prime p with 3 * (p - 1)**2 < 2**62, the bound that
# _check_modulus_bound puts on 3-dimensional algebras
BIG_P = 1239850223


def _naive_right_power(c, x, n, p):
    v = x
    for _ in range(n - 1):
        v = naive_multiply(c, v, x, p)
    return v


def _naive_lie_violation(c, p):
    """lie_basis_violation's witness, searched in the same order by loops."""
    n = len(c)
    for i in range(n):
        if any(c[i][i]):
            return ("alternating", i, i)
    for i, j in itertools.product(range(n), repeat=2):
        if any((a + b) % p for a, b in zip(c[i][j], c[j][i])):
            return ("antisymmetry", i, j)
    for i, j, k in itertools.product(range(n), repeat=3):
        jac = [0] * n
        for x, y, z in ((i, j, k), (j, k, i), (k, i, j)):
            inner = c[x][y]
            for m in range(n):
                for out in range(n):
                    jac[out] = (jac[out] + inner[m] * c[m][z][out]) % p
        if any(jac):
            return ("jacobi", i, j, k)
    return None


def test_single_element_views_and_powers_exact_near_modulus_bound() -> None:
    rng = random.Random("views-near-bound")
    p, dim = BIG_P, 3
    c = random_structure(p, dim, rng)
    pmaps = {f"pw{n}": RightPowerPMap("mul", n) for n in range(1, 6)}
    alg = Algebra(p, dim, {"mul": c}, pmaps)
    X = alg.sample_array(6, rng)
    for n in range(1, 6):
        powers = alg.right_power_batch("mul", X, n)
        for row, power in zip(X.tolist(), powers.tolist()):
            x = tuple(row)
            want = _naive_right_power(c.tolist(), x, n, p)
            assert tuple(power) == alg.apply_pmap(f"pw{n}", x) == want
            assert pmaps[f"pw{n}"].apply(alg, x) == want
    for x, y in zip(X.tolist(), X[::-1].tolist()):
        assert alg.multiply("mul", x, y) == naive_multiply(c.tolist(), x, y, p)
        right, left = _naive_mult_matrices(c.tolist(), tuple(x), p)
        assert alg.right_mult_matrix("mul", x).tolist() == right
        assert alg.left_mult_matrix("mul", x).tolist() == left


def test_table_gather_exact_near_modulus_bound() -> None:
    rng = random.Random("table-near-bound")
    p, dim = BIG_P, 3
    alg = Algebra(p, dim, {"mul": np.zeros((dim, dim, dim), dtype=np.int64)})
    box = list(itertools.product(range(2), repeat=dim))
    table = {k: tuple(rng.randrange(p - 8, p) for _ in range(dim)) for k in box}
    pm = TablePMap(table)
    rows = [box[rng.randrange(len(box))] for _ in range(20)]
    got = pm.apply_batch(alg, np.array(rows, dtype=np.int64))
    assert [tuple(v) for v in got.tolist()] == [table[k] for k in rows]
    assert [pm.apply(alg, k) for k in rows] == [table[k] for k in rows]
    with pytest.raises(RuntimeError, match=r"no entry for \(0, 1, 1239850222\)"):
        pm.apply_batch(alg, np.array([[0, 0, 1], [0, 1, p - 1]], dtype=np.int64))


def test_lie_basis_violation_exact_near_modulus_bound() -> None:
    rng = random.Random("lie-near-bound")
    p, dim = BIG_P, 3
    cross = np.zeros((dim, dim, dim), dtype=np.int64)
    a = rng.randrange(1, p)
    for i, j, k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        cross[i, j, k], cross[j, i, k] = a, p - a
    cases = [cross]
    for _ in range(4):
        c = np.zeros((dim, dim, dim), dtype=np.int64)
        for i, j in itertools.combinations(range(dim), 2):
            c[i, j] = [rng.randrange(p) for _ in range(dim)]
            c[j, i] = (-c[i, j]) % p
        cases.append(c)
    cases.append(random_structure(p, dim, rng))
    found = []
    for c in cases:
        want = _naive_lie_violation(c.tolist(), p)
        assert lie_basis_violation(Algebra(p, dim, {"b": c}), "b") == want
        found.append(want if want is None else want[0])
    assert found[0] is None and "jacobi" in found


def _primes_at_the_bound(dim):
    """(p, q): p the largest prime and q the smallest prime with
    dim * (p - 1)**2 < 2**62 <= dim * (q - 1)**2."""
    top = 1 + math.isqrt(((1 << 62) - 1) // dim)  # largest admitted p
    p, q = top, top + 1
    while not trial_division_is_prime(p):
        p -= 1
    while not trial_division_is_prime(q):
        q += 1
    return p, q


def _random_prime_below(top, rng):
    p = top - rng.randrange(1 << 20)
    while not trial_division_is_prime(p):
        p -= 1
    return p


@pytest.mark.parametrize("dim", [2, 4])
def test_kernels_exact_at_random_primes_under_the_modulus_bound(dim) -> None:
    """multiply_batch, right_mult_stack and stack_mat_pow(., p, p) against
    Python-int loops, at random primes within 2**20 of the largest one that
    _check_modulus_bound admits at this dim, on random reduced inputs, so that
    every contraction sums dim products next to (p - 1)**2.

    The Jacobson polarization kernel is left out: it runs p - 1 bracketing
    rounds, which for a prime near 2**31 is not feasible."""
    rng = random.Random(f"modulus-bound-{dim}")
    top, above = _primes_at_the_bound(dim)
    with pytest.raises(UsageError, match="too large"):
        Algebra(above, dim, {})
    for p in [top] + [_random_prime_below(top, rng) for _ in range(2)]:
        c = random_structure(p, dim, rng)
        alg = Algebra(p, dim, {"mul": c})
        X, Y = alg.sample_array(8, rng), alg.sample_array(8, rng)
        C = c.tolist()
        got = alg.multiply_batch("mul", X, Y).tolist()
        assert got == [list(naive_multiply(C, x, y, p)) for x, y in zip(X.tolist(), Y.tolist())]
        stack = alg.right_mult_stack("mul", X)
        assert stack.tolist() == [_naive_mult_matrices(C, tuple(x), p)[0] for x in X.tolist()]
        mats = np.concatenate([stack, np.array(
            [[[rng.randrange(p) for _ in range(dim)] for _ in range(dim)] for _ in range(4)],
            dtype=np.int64)])
        assert stack_mat_pow(mats, p, p).tolist() == [
            square_multiply_mat_pow(m, p, p) for m in mats.tolist()]


# -- one kernel per operation ----------------------------------------------------


def test_power_and_tensor_paths_make_no_per_element_calls(monkeypatch, tmp_path) -> None:
    from rlk.algfile import format_algebra
    from rlk.cli import main
    from rlk.dialgebra import as_dialgebra, check_lemdias, dleib
    from rlk.free_structures import check_ud_unit, free_zinbiel
    from rlk.identities import sweep_dleib_jacobson
    from rlk.prelie_tensor import check_corollary, check_tensor_restricted, tensor_prelie

    from helpers import count_per_element_calls, l2_dialgebra, upper_triangular2

    g, R = l2(3), free_zinbiel(2, 2, 3).to_algebra()
    T = tensor_prelie(g, R)
    paths = []
    for name, alg in (("g.alg", g), ("r.alg", R)):
        paths.append(tmp_path / name)
        paths[-1].write_text(format_algebra(alg), encoding="utf-8")
    D = l2_dialgebra(3)
    ut2 = dleib(as_dialgebra(upper_triangular2(2)))
    calls = count_per_element_calls(monkeypatch)
    assert check_tensor_restricted(T).ok()
    assert check_corollary(T, samples=40).ok()
    assert main(["derive", "tensor-prelie", str(paths[0]), str(paths[1]),
                 "--out", str(tmp_path / "t.alg")]) == 0
    assert check_lemdias(D, (1, 2), (2, 1), 3).ok()
    assert sweep_dleib_jacobson(D, samples=50).ok()
    assert check_ud_unit(ut2, d=2).status != "fail"
    assert calls == {"multiply": 0, "apply": 0}
