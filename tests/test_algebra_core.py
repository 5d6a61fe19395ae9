from __future__ import annotations

import ast
import dataclasses
import itertools
import math
import random
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from rlk import algebra_core
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
from rlk.dialgebra import as_dialgebra, dialgebra_from_operator, dleib, sweep_lemdias
from rlk import identities
from rlk.envelope import (LeibnizModule, adjoint_module, check_module_axioms,
                          check_restricted_module)
from rlk.errors import UsageError
from rlk.free_structures import free_zinbiel
from rlk.identities import (WITNESS_LIMIT, Witness, check_dias, check_leibniz,
                            check_restricted_leibniz)
from rlk.prelie_tensor import TensorAlgebraHandle, check_tensor_restricted, tensor_prelie

from helpers import all_elements, l2, matrix_assoc, random_structure, truncated_poly
from oracles import (naive_mat_mul, naive_mat_pow, naive_module_sides, naive_multiply,
                     naive_trilinear_sides, operator_sweep_report, square_multiply_mat_pow,
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
                assert alg.sub(x, y) == tuple((a - b) % p for a, b in zip(x, y))
                assert alg.add(alg.sub(x, y), y) == x


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


def _gl2_sum(p, copies):
    """gl_2 + ... + gl_2 (`copies` blocks of dim 4): the commutator bracket,
    the block-diagonal associative product, and the basis values e_i^p."""
    d, c = 4 * copies, matrix_assoc(p, 2).structure("assoc")
    assoc = np.zeros((d, d, d), dtype=np.int64)
    for b in range(0, d, 4):
        assoc[b:b + 4, b:b + 4, b:b + 4] = c
    alg = Algebra(p, d, {"assoc": assoc})
    values = [tuple(int(v) for v in row)
              for row in alg.right_power_batch("assoc", np.eye(d, dtype=np.int64), p)]
    return (assoc - assoc.transpose(1, 0, 2)) % p, assoc, values


def test_basis_jacobson_past_the_cut_builds_no_table(monkeypatch) -> None:
    """dim 40 at p = 3 has 64,000 words, past _JACOBSON_WORDS, so apply_batch
    takes the per-coordinate route without building a table; its values are
    still x^p in gl_2 + ... + gl_2."""
    p = 3
    comm, assoc, values = _gl2_sum(p, 10)
    assert 40 ** p > algebra_core._JACOBSON_WORDS
    alg = Algebra(p, 40, {"bracket": comm, "assoc": assoc},
                  {"jac": BasisJacobsonPMap("bracket", values)})

    def refuse(c, p):
        raise AssertionError("a Jacobson table was built past the cut")

    monkeypatch.setattr(algebra_core, "_jacobson_table", refuse)
    X = alg.sample_array(6, random.Random(1))
    assert np.array_equal(alg.apply_pmap_batch("jac", X), alg.right_power_batch("assoc", X, p))
    assert alg._tables == {}


def test_jacobson_table_is_read_only_and_kept_per_algebra() -> None:
    """The compiled table is sealed, kept by the algebra out of its repr and
    reports, and shared with a _with_pmaps copy; a new algebra, from
    `extended` or the constructor, builds its own."""
    comm, _, values = _gl2_sum(3, 1)
    alg = Algebra(3, 4, {"bracket": comm}, {"jac": BasisJacobsonPMap("bracket", values)})
    before = repr(alg)
    idx, G = alg.jacobson_table("bracket")
    for table in (idx, G):
        with pytest.raises(ValueError, match="read-only"):
            table[0, 0] = 1
    assert alg.jacobson_table("bracket")[1] is G
    assert repr(alg) == before and alg.reports == () and alg == alg
    assert alg._with_pmaps(alg.pmaps).jacobson_table("bracket")[1] is G
    other = alg.extended(ops={"bracket": np.zeros((4, 4, 4), dtype=np.int64)})
    assert other.jacobson_table("bracket")[1] is not G
    assert not other.jacobson_table("bracket")[1].any()
    assert Algebra(3, 4, dict(alg.ops)).jacobson_table("bracket")[1] is not G


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


def test_derived_copies_carry_no_reports() -> None:
    """A report speaks only for the object whose construction ran it: copies
    made by extended and _with_pmaps start with none."""
    assert l2(3).reports == ()
    D = as_dialgebra(truncated_poly(3, 2))
    L = dleib(D)
    T = tensor_prelie(l2(2), free_zinbiel(1, 2, 2))
    for built in (D, L, T.product):
        assert built.reports
        assert built.extended(label="copy").reports == ()
        assert built.extended(pmaps={"z": ZeroPMap()}).reports == ()
        assert built._with_pmaps({}).reports == ()
        assert built.reports  # the original keeps its own


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


def _primes_at_the_bound(bound, dim):
    """(p, q): p the largest prime and q the smallest prime with
    dim * (p - 1)**2 < bound <= dim * (q - 1)**2."""
    top = 1 + math.isqrt((bound - 1) // dim)  # largest p under the bound
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


def _residues_near_the_top(p, shape, rng):
    """Residues within 8 of p - 1, odd and even: a contraction of them sums
    dim products next to (p - 1)**2, so at the prime just past a float
    switch many of its totals are odd integers past 2**24 or 2**53."""
    return np.array([p - 1 - rng.randrange(8) for _ in range(math.prod(shape))],
                    dtype=np.int64).reshape(shape)


def _bound_primes(dim, rng):
    """The primes of the modulus-bound tests at this dim, after checking
    that _check_modulus_bound refuses the prime past its bound."""
    top, above = _primes_at_the_bound(1 << 62, dim)
    with pytest.raises(UsageError, match="too large"):
        Algebra(above, dim, {})
    switch, past = _primes_at_the_bound(1 << 53, dim)
    return ([top, switch, past, *_primes_at_the_bound(1 << 24, dim)]
            + [_random_prime_below(top, rng) for _ in range(2)])


@pytest.mark.parametrize("dim", [2, 4])
def test_kernels_exact_at_random_primes_under_the_modulus_bound(dim, monkeypatch) -> None:
    """multiply_batch, right_mult_stack, left_mult_stack, stack_mat_pow(., p, p)
    and LeibnizModule.right_stack against Python-int loops, on random reduced
    inputs and on inputs next to p - 1, at:

    - the largest prime that _check_modulus_bound admits at this dim, and two
      random primes within 2**20 of it (int64 products next to 2**62);
    - the largest prime with dim * (p - 1)**2 < 2**53 (float64 products next
      to 2**53) and the next prime above it (int64 products just past 2**53,
      where float64 would round);
    - the same pair at 2**24 (float32 products next to 2**24, and float64
      products just past it, where float32 would round).

    Products this small stay in int64 under the small-product cut, so the
    cut is set to 0 here and the modulus alone picks the route of every
    product but the mat-vecs and vec-mat stacks.  The Jacobson polarization
    kernel is left out: it runs p - 1 bracketing rounds, which for a prime
    near 2**31 is not feasible."""
    monkeypatch.setattr(algebra_core, "_SMALL_PRODUCT", 0)
    rng = random.Random(f"modulus-bound-{dim}")
    for p in _bound_primes(dim, rng):
        c = _residues_near_the_top(p, (dim, dim, dim), rng)
        alg = Algebra(p, dim, {"mul": c})
        X = np.concatenate([alg.sample_array(4, rng), _residues_near_the_top(p, (4, dim), rng)])
        Y = np.concatenate([alg.sample_array(4, rng), _residues_near_the_top(p, (4, dim), rng)])
        C = c.tolist()
        got = alg.multiply_batch("mul", X, Y)
        assert got.dtype == np.int64
        assert got.tolist() == [list(naive_multiply(C, x, y, p)) for x, y in zip(X.tolist(), Y.tolist())]
        naive = [_naive_mult_matrices(C, tuple(x), p) for x in X.tolist()]
        stack = alg.right_mult_stack("mul", X)
        assert stack.dtype == np.int64
        assert stack.tolist() == [right for right, _ in naive]
        assert alg.left_mult_stack("mul", X).tolist() == [left for _, left in naive]
        mats = np.concatenate([stack, np.array(
            [[[rng.randrange(p) for _ in range(dim)] for _ in range(dim)] for _ in range(4)],
            dtype=np.int64), _residues_near_the_top(p, (4, dim, dim), rng)])
        assert stack_mat_pow(mats, p, p).tolist() == [
            square_multiply_mat_pow(m, p, p) for m in mats.tolist()]
        mdim = dim  # the module bound is the algebra's
        right = _residues_near_the_top(p, (dim, mdim, mdim), rng)
        M = LeibnizModule(alg, mdim, np.zeros_like(right), right)
        A = right.tolist()
        assert M.right_stack(X).tolist() == [
            [[sum(x[i] * A[i][r][s] for i in range(dim)) % p for s in range(mdim)]
             for r in range(mdim)] for x in X.tolist()]


def _operands_summing_to(totals, p, k):
    """(A, B): an (n, 2, k) and an (n, k, 2) stack of residues whose item
    products hold one total in all four entries, summed as (p - 1)**2 as
    often as it fits, then (p - 1) * u and a last v; so a total may be at
    most (k - 1) * (p - 1)**2 - 1."""
    n = len(totals)
    A = np.zeros((n, 2, k), dtype=np.int64)
    B = np.zeros((n, k, 2), dtype=np.int64)
    for t, x in enumerate(totals):
        full, rest = divmod(x, (p - 1) ** 2)
        assert full <= k - 2
        a = [p - 1] * full + [rest // (p - 1), rest % (p - 1)]
        b = [p - 1] * (full + 1) + [1]
        A[t, :, :len(a)] = a
        B[t, :len(b), :] = np.array(b)[:, None]
    return A, B


@pytest.mark.parametrize("bits", [24, 53])
def test_float_reduction_exact_next_to_multiples_of_p(bits, monkeypatch) -> None:
    """_matmul_mod's float route on totals k*p - 1, k*p and k*p + 1 up to
    just below 2**bits, for the largest primes p with
    k_dim * (p - 1)**2 < 2**bits at several contracted lengths k_dim, and
    for the prime just past that switch; each must come back as the Python
    remainder.  A reduction by a multiply with 1/p, or a float32 product
    past 2**24, gets some of them wrong."""
    monkeypatch.setattr(algebra_core, "_SMALL_PRODUCT", 0)
    rng = random.Random(f"float-reduction-{bits}")
    for k_dim in (16, 64, 256):
        for p in _primes_at_the_bound(1 << bits, k_dim):
            top = (k_dim - 1) * (p - 1) ** 2 - 1
            ks = {top // p - 1 - i for i in range(16)}
            ks |= {rng.randrange(top // (2 * p), top // p) for _ in range(48)}
            totals = [k * p + d for k in sorted(ks) for d in (-1, 0, 1)]
            A, B = _operands_summing_to(totals, p, k_dim)
            got = algebra_core._matmul_mod(A, B, p)
            assert got.dtype == np.int64
            assert got.tolist() == [[[x % p] * 2] * 2 for x in totals], (p, k_dim)


@pytest.mark.parametrize("dim", [2, 4])
def test_right_power_batch_matches_python_loop(dim, monkeypatch) -> None:
    """right_power_batch (r_x built once, then mat-vecs, or r_x**(n-1) from
    stack_mat_pow for large n) against Python ints at n = 1, 2 and p for
    p = 2, 3, 5 and 7, and at n = 1, 2, 5 and p at the primes of the
    modulus-bound tests.  Below n = 8 the oracle is repeated products; at
    n = p there, where p - 1 loop products are too many, it is
    r_x**(p-1) x with the power from square_multiply_mat_pow.  At these n
    every call takes at most 2 * n.bit_length() + 2 _matmul_mod calls.  The
    small-product cut is set to 0, so r_x and its powers take the float
    routes below 2**24 and 2**53."""
    monkeypatch.setattr(algebra_core, "_SMALL_PRODUCT", 0)
    calls, matmul_mod = [], algebra_core._matmul_mod
    monkeypatch.setattr(algebra_core, "_matmul_mod",
                        lambda *args: calls.append(1) or matmul_mod(*args))
    rng = random.Random(f"right-power-{dim}")
    for p in [2, 3, 5, 7, *_bound_primes(dim, rng)]:
        c = _residues_near_the_top(p, (dim, dim, dim), rng) % p
        alg = Algebra(p, dim, {"mul": c})
        X = np.concatenate([alg.sample_array(6, rng),
                            _residues_near_the_top(p, (4, dim), rng) % p])
        for n in ((1, 2, p) if p < 8 else (1, 2, 5, p)):
            if n < 8:
                want = [list(_naive_right_power(c.tolist(), tuple(x), n, p)) for x in X.tolist()]
            else:
                want = []
                for x in X.tolist():
                    R = square_multiply_mat_pow(_naive_mult_matrices(c.tolist(), x, p)[0],
                                                n - 1, p)
                    want.append([sum(a * b for a, b in zip(row, x)) % p for row in R])
            calls.clear()
            got = alg.right_power_batch("mul", X, n)
            assert got.dtype == np.int64
            assert got.tolist() == want, (p, n)
            assert len(calls) <= 2 * n.bit_length() + 2, (p, n)


@pytest.mark.parametrize("p", [37, 1_000_003])
def test_right_power_batch_takes_stack_mat_pow_past_the_matvec_cut(p, monkeypatch) -> None:
    """n - 1 = _MATVEC_POWERS takes mat-vecs only and one more takes one
    stack_mat_pow; both agree with repeated Python-int products."""
    pows, mat_pow = [], algebra_core.stack_mat_pow
    monkeypatch.setattr(algebra_core, "stack_mat_pow",
                        lambda *args: pows.append(args[1]) or mat_pow(*args))
    rng = random.Random(f"matvec-cut-{p}")
    for dim in (2, 3):
        c = _residues_near_the_top(p, (dim, dim, dim), rng) % p
        alg = Algebra(p, dim, {"mul": c})
        X = alg.sample_array(5, rng)
        for n in (algebra_core._MATVEC_POWERS + 1, algebra_core._MATVEC_POWERS + 2):
            pows.clear()
            got = alg.right_power_batch("mul", X, n)
            assert pows == ([] if n - 1 == algebra_core._MATVEC_POWERS else [n - 1])
            assert got.tolist() == [list(_naive_right_power(c.tolist(), tuple(x), n, p))
                                    for x in X.tolist()], (dim, n)


@pytest.mark.parametrize("p", [5, 1_000_003])
def test_right_power_batch_chunk_fits_its_entry_budget(p, monkeypatch) -> None:
    """right_power_batch at n = 64, past _MATVEC_POWERS, in chunks of 256
    rows gives what it gives in one chunk, and what it holds besides its input and output (one reduced copy
    of the input, and per chunk r_x, the two stacks of stack_mat_pow and the
    float copies inside _matmul_mod) fits the reduced copy plus sixteen
    _CHUNK_ENTRIES int64 entries and a fixed allowance; the whole
    (N, dim, dim) stack at once overshoots that several times over."""
    rng = random.Random(f"power-chunk-{p}")
    dim, N = 4, 8192
    c = np.array([[[rng.randrange(p) for _ in range(dim)] for _ in range(dim)]
                  for _ in range(dim)], dtype=np.int64)
    alg = Algebra(p, dim, {"mul": c})
    X = alg.sample_array(N, rng)
    whole = alg.right_power_batch("mul", X, 64)
    monkeypatch.setattr(algebra_core, "_CHUNK_ENTRIES", 256 * dim * dim)
    tracemalloc.start()
    try:
        got = alg.right_power_batch("mul", X, 64)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert got.tolist() == whole.tolist()
    assert peak - held <= X.nbytes + 16 * 8 * algebra_core._CHUNK_ENTRIES + (1 << 16)


def test_word_action_table_matches_per_word_composition(monkeypatch) -> None:
    """envelope._word_action against a plain-Python composition of each word,
    on random modules at p = 2, 3, 5 and at the primes of the modulus-bound
    tests.  The words share prefixes and repeat letters; the table must hold
    exactly the relation words, every single letter and the empty word.  Each
    module is run with the default cuts and twice with the small-product cut
    at 0, in chunks of one word and in chunks of two words, so that the
    stacks also take the float routes below 2**24 and 2**53 and prefixes
    cross chunks; the one-word floor, and a full chunk of two words, must
    run there.
    _relation_failures must count every nonzero relation and keep the first
    WITNESS_LIMIT."""
    from rlk import envelope
    from rlk.envelope import _relation_failures, _word_action

    rng = random.Random("word-action")
    n, mdim = 2, 3
    primes = [2, 3, 5, *_primes_at_the_bound(1 << 62, mdim)[:1],
              *_primes_at_the_bound(1 << 53, mdim), *_primes_at_the_bound(1 << 24, mdim)]
    cuts = [(algebra_core._SMALL_PRODUCT, envelope._CHUNK_ENTRIES), (0, 2 * mdim * mdim),
            (0, 12 * mdim * mdim)]
    chunk_words, matmul_mod = [], envelope._matmul_mod
    monkeypatch.setattr(envelope, "_matmul_mod",
                        lambda A, B, p: chunk_words.append(len(A)) or matmul_mod(A, B, p))
    for p, (small_product, chunk) in itertools.product(primes, cuts):
        monkeypatch.setattr(algebra_core, "_SMALL_PRODUCT", small_product)
        monkeypatch.setattr(envelope, "_CHUNK_ENTRIES", chunk)
        chunk_words.clear()
        g = Algebra(p, n, {})
        left, right = (_residues_near_the_top(p, (n, mdim, mdim), rng) for _ in range(2))
        M = LeibnizModule(g, mdim, left, right)
        stem = [rng.randrange(2 * n) for _ in range(3)]
        words = [tuple(stem[:k]) + tuple(rng.randrange(2 * n) for _ in range(extra))
                 for k in range(4) for extra in (0, 1, 2, 4)]
        words += [(0,) * 5, (2 * n - 1,) * 3, (1, 1, 2, 1, 1)]
        terms = [("t", (i,), [(w, rng.randrange(1, p)) for w in words[i % 7::7]])
                 for i in range(WITNESS_LIMIT + 4)]
        table = _word_action(M, terms)
        if small_product == 0:  # the one-word floor, or a full two-word chunk, ran
            assert max(chunk_words) == {2 * mdim * mdim: 1, 12 * mdim * mdim: 2}[chunk], p
        mats = left.tolist() + right.tolist()
        kept = {(), *words, *((i,) for i in range(2 * n))}
        composed = {(): [[int(r == c) for c in range(mdim)] for r in range(mdim)]}
        for w in sorted({w[:k] for w in kept for k in range(1, len(w) + 1)}, key=len):
            composed[w] = naive_mat_mul(mats[w[-1]], composed[w[:-1]], p)
        assert {w: op.tolist() for w, op in table.items()} == {
            w: m for w, m in composed.items() if w in kept}, p
        values = [[[sum(c * composed[w][r][s] for w, c in ws) % p for s in range(mdim)]
                   for r in range(mdim)] for _tag, _key, ws in terms]
        failing = [(key, v) for (_tag, key, _ws), v in zip(terms, values) if any(map(any, v))]
        failures, witnesses = _relation_failures(table, terms, ("x",), p)
        assert failures == len(failing) > WITNESS_LIMIT, p
        assert [(w.inputs, w.lhs.tolist()) for w in witnesses] == [
            (("x", "t") + key, v) for key, v in failing[:WITNESS_LIMIT]]


@pytest.mark.parametrize("p", [5, 1_000_003])
def test_word_action_chunk_fits_its_entry_budget(p, monkeypatch) -> None:
    """Everything one chunk of _word_action holds besides the table it
    returns (two int64 operand stacks, their float32 or float64 copies, the
    product and its result) fits _CHUNK_ENTRIES int64 entries, plus a fixed
    allowance for the Python lists and tuples of one word length.  Every
    word up to length 5 on 4 letters names a relation, so no operator is
    dropped and the table at the end holds every operator ever computed;
    sizing the chunk by one operand stack overshoots the budget two to
    four times over."""
    from rlk import envelope

    monkeypatch.setattr(envelope, "_CHUNK_ENTRIES", 1 << 16)
    rng = random.Random(f"word-chunk-{p}")
    n, mdim = 2, 10
    left, right = (np.array([[[rng.randrange(p) for _ in range(mdim)] for _ in range(mdim)]
                             for _ in range(n)], dtype=np.int64) for _ in range(2))
    M = LeibnizModule(Algebra(p, n, {}), mdim, left, right)
    words = [w for k in range(1, 6) for w in itertools.product(range(2 * n), repeat=k)]
    terms = [("t", (i,), [(w, 1)]) for i, w in enumerate(words)]
    tracemalloc.start()
    try:
        table = envelope._word_action(M, terms)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(table) == len(words) + 1
    assert peak - held <= 8 * envelope._CHUNK_ENTRIES + (1 << 16)


DIAS_AXIOMS = ("assoc_left", "assoc_right", "left_bar", "middle", "right_bar")


def _inverse_mod(P, p):
    """P**-1 mod p by Gauss-Jordan elimination, or None if P is singular."""
    n = len(P)
    rows = [list(row) + [int(r == k) for k in range(n)] for r, row in enumerate(P)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if rows[r][col] % p), None)
        if pivot is None:
            return None
        rows[col], rows[pivot] = rows[pivot], rows[col]
        inv = pow(rows[col][col], -1, p)
        rows[col] = [v * inv % p for v in rows[col]]
        for r in range(n):
            if r != col and rows[r][col]:
                f = rows[r][col]
                rows[r] = [(v - f * w) % p for v, w in zip(rows[r], rows[col])]
    return [row[n:] for row in rows]


def _dense_basis(dim, p, rng):
    """(P, Q): a random invertible matrix with entries near p - 1, and its
    inverse; the basis f_a = sum_i P[i][a] e_i spreads 0/1 structure
    constants into residues of every size."""
    while True:
        P = _residues_near_the_top(p, (dim, dim), rng).tolist()
        Q = _inverse_mod(P, p)
        if Q is not None:
            return P, Q


def _in_basis(c, P, Q, p):
    """Structure constants of c (nested lists) in the basis f_a = sum_i P[i][a] e_i."""
    n = range(len(P))
    half = [[[sum(P[i][a] * P[j][b] * c[i][j][k] for i in n for j in n) % p
              for k in n] for b in n] for a in n]
    return [[[sum(half[a][b][k] * Q[t][k] for k in n) % p for t in n]
             for b in n] for a in n]


def _failures(names, sides, triples):
    """{inputs: (lhs, rhs)} of every failing triple and axiom; inputs lead
    with the axiom name when there are several axioms."""
    out = {}
    for i, j, k in triples:
        for name, (lhs, rhs) in zip(names, sides(i, j, k)):
            if lhs != rhs:
                out[(name,) * (len(names) > 1) + (i, j, k)] = (lhs, rhs)
    return out


def _assert_report_matches(rep, failures):
    assert rep.failure_count == len(failures)
    assert len(rep.witnesses) == min(len(failures), 16)
    for w in rep.witnesses:
        assert failures[w.inputs] == (w.lhs, w.rhs)


@pytest.mark.parametrize("dim", [2, 4])
def test_sweeps_exact_at_random_primes_under_the_modulus_bound(dim, monkeypatch) -> None:
    """The basis sweeps that contract structure tensors with each other
    against plain-Python loops, at the primes of the kernel test above:
    check_leibniz, check_dias, lie_basis_violation, check_module_axioms,
    sweep_lemdias and dialgebra_from_operator.

    Each passing input is a known Lie or associative algebra (and the
    augmentation on F_p[t]/t**dim) written in a dense random basis, where a
    sum that rounded would make it fail.  Each failing input has random
    residues next to p - 1, and its failure count and witnesses must be the
    loops'.  As in the kernel test, the small-product cut is set to 0."""
    monkeypatch.setattr(algebra_core, "_SMALL_PRODUCT", 0)
    rng = random.Random(f"sweeps-bound-{dim}")
    basis = [tuple(int(i == j) for j in range(dim)) for i in range(dim)]
    triples = list(itertools.product(range(dim), repeat=3))
    if dim == 2:
        lie0 = [[[0, 0], [1, 0]], [[-1, 0], [0, 0]]]  # [e_0, e_1] = e_0
    else:
        c = matrix_assoc(2, 2).structure("assoc")  # 0/1 constants, the same over every F_p
        lie0 = (c - c.transpose(1, 0, 2)).tolist()  # gl_2
    assoc0 = truncated_poly(2, dim).structure("assoc").tolist()
    for p in _bound_primes(dim, rng):
        P, Q = _dense_basis(dim, p, rng)
        lie, assoc = _in_basis(lie0, P, Q, p), _in_basis(assoc0, P, Q, p)
        big = [_residues_near_the_top(p, (dim, dim, dim), rng).tolist() for _ in range(2)]

        g = Algebra(p, dim, {"bracket": np.array(lie)})
        assert lie_basis_violation(g, "bracket") is None
        assert check_leibniz(g).failure_count == 0
        anti = [[[(a - b) % p for a, b in zip(big[0][i][j], big[0][j][i])]
                 for j in range(dim)] for i in range(dim)]
        assert (lie_basis_violation(Algebra(p, dim, {"b": np.array(anti)}), "b")
                == _naive_lie_violation(anti, p))
        bad = Algebra(p, dim, {"bracket": np.array(big[0])})
        _assert_report_matches(check_leibniz(bad), _failures(
            ("leibniz",), lambda i, j, k: naive_trilinear_sides(
                "leibniz", {"bracket": big[0]}, p, basis[i], basis[j], basis[k]), triples))

        D = Algebra(p, dim, {"left": np.array(assoc), "right": np.array(assoc)})
        assert check_dias(D).failure_count == 0
        ops = {"left": big[0], "right": big[1]}
        bad = Algebra(p, dim, {n: np.array(c) for n, c in ops.items()})
        _assert_report_matches(check_dias(bad), _failures(
            DIAS_AXIOMS, lambda i, j, k: naive_trilinear_sides(
                "dias", ops, p, basis[i], basis[j], basis[k]), triples))

        assert check_module_axioms(g, adjoint_module(g)).failure_count == 0
        L, R = (_residues_near_the_top(p, (dim, dim, dim), rng).tolist() for _ in range(2))
        failures = {}
        for i, j in itertools.product(range(dim), repeat=2):
            sides = naive_module_sides(lie, L, R, p, i, j)
            for (axiom, (lhs, rhs)), s in itertools.product(
                    zip(("m_first", "m_middle", "m_last"), sides), range(dim)):
                col = (tuple(r[s] for r in lhs), tuple(r[s] for r in rhs))
                if col[0] != col[1]:
                    failures[(axiom, i, j, s)] = col
        _assert_report_matches(check_module_axioms(
            g, LeibnizModule(g, dim, np.array(L), np.array(R))), failures)

        failures = {}
        for n in range(1, 4):
            for i, j in itertools.product(range(dim), repeat=2):
                powers = [basis[j], basis[j]]
                for _ in range(n - 1):
                    powers = [naive_multiply(c, v, basis[j], p) for c, v in zip(big, powers)]
                lhs, rhs = (naive_multiply(big[0], basis[i], v, p) for v in powers)
                if lhs != rhs:
                    failures[(i, j, n)] = (lhs, rhs)
        _assert_report_matches(sweep_lemdias(bad, nmax=3), failures)

        A = Algebra(p, dim, {"assoc": np.array(assoc)})
        aug = [[int(r == k == 0) for k in range(dim)] for r in range(dim)]
        Dop = naive_mat_mul(naive_mat_mul(Q, aug, p), P, p)
        got = dialgebra_from_operator(A, np.array(Dop))
        cols = [tuple(row[j] for row in Dop) for j in range(dim)]  # D e_j
        assert got.structure("left").tolist() == [
            [list(naive_multiply(assoc, basis[i], cols[j], p)) for j in range(dim)]
            for i in range(dim)]
        assert got.structure("right").tolist() == [
            [list(naive_multiply(assoc, cols[i], basis[j], p)) for j in range(dim)]
            for i in range(dim)]
        Dop[dim - 1][0] = (Dop[dim - 1][0] + 1) % p
        with pytest.raises(UsageError) as err:
            dialgebra_from_operator(A, np.array(Dop))
        assert str(err.value) == _naive_operator_rejection(assoc, Dop, p)


class _NearTopPMap:
    """x -> (p - 1 - x_j % 8)_j: p-map values next to p - 1 whatever x is."""

    def apply_batch(self, alg, X):
        return alg.p - 1 - X % 8

    def validate(self, alg):
        pass


@dataclasses.dataclass(frozen=True)
class _ShiftedPMap:
    """The values of `pmap` plus p, in [p, 2p): the same residues, unreduced."""

    pmap: object

    def apply_batch(self, alg, X):
        return self.pmap.apply_batch(alg, X) + alg.p

    def validate(self, alg):
        self.pmap.validate(alg)


def _restricted_sweep_inputs(dim, p, rng):
    """[(algebra, {pmap name: (p-map, its value on a list x)})] for the
    operator-sweep exactness test: the commutator of an associative algebra
    in a dense random basis (the row of 2x2 matrices at dim 2, M_2 at dim 4),
    restricted with x -> x**p and failing with x -> x*x; and the Leibniz
    bracket [x, y] = s(x) s(y) v with s the coordinate sum and
    v = (p - 1, ..., p - 1, dim - 1), so s(v) = 0 and r_x**2 = 0, whose
    structure constants sit at p - 1: restricted with the zero map and
    failing with p-map values next to p - 1, so its sums reach the bound."""
    if dim == 2:
        assoc0 = [[[1, 0], [0, 1]], [[0, 0], [0, 0]]]  # E11 E11 = E11, E11 E12 = E12
    else:
        assoc0 = matrix_assoc(2, 2).structure("assoc").tolist()
    P, Q = _dense_basis(dim, p, rng)
    assoc = _in_basis(assoc0, P, Q, p)
    lie = [[[(a - b) % p for a, b in zip(assoc[i][j], assoc[j][i])] for j in range(dim)]
           for i in range(dim)]

    def power(x):
        R = [[sum(x[j] * assoc[i][j][k] for j in range(dim)) % p for i in range(dim)]
             for k in range(dim)]
        return [sum(a * b for a, b in zip(row, x)) % p
                for row in square_multiply_mat_pow(R, p - 1, p)]

    v = [p - 1] * (dim - 1) + [dim - 1]
    rank_one = [[list(v) for _ in range(dim)] for _ in range(dim)]
    return [
        (Algebra(p, dim, {"bracket": np.array(lie), "assoc": np.array(assoc)}),
         {"frobenius": (MatrixPowerPMap(), power),
          "square": (RightPowerPMap("assoc", 2),
                     lambda x: list(naive_multiply(assoc, x, x, p)))}),
        (Algebra(p, dim, {"bracket": np.array(rank_one)}),
         {"zero": (ZeroPMap(), lambda x: [0] * dim),
          "near_top": (_NearTopPMap(), lambda x: [p - 1 - a % 8 for a in x])}),
    ]


@pytest.mark.parametrize("dim", [2, 4])
def test_operator_sweeps_exact_at_the_float_switches(dim, monkeypatch) -> None:
    """check_restricted_leibniz, check_restricted_module on the adjoint
    module, and the axiom-2 sweep of check_restricted_lie against loops, at
    the primes of the kernel test: the largest prime the modulus bound
    admits, and the primes on both sides of 2**53 and of 2**24, where the
    sweep's residues change dtype.  Every report must be the loop oracle's,
    passing on the restricted p-maps and failing on the others, also when p
    is added to every p-map value, which the sweep must reduce.  The axiom-2
    sweep is called as check_restricted_lie calls it, since the whole check
    takes p - 1 rounds per scalar and per Jacobson term.  A float32 product
    past 2**24 (or float64 past 2**53) gets some of them wrong.  Sweeps this
    small stay in int64 under the small-product cut, so the cut is set to 0
    here, as in the kernel test."""
    monkeypatch.setattr(algebra_core, "_SMALL_PRODUCT", 0)
    rng = random.Random(f"operator-bound-{dim}")
    samples, seed = 6, 3
    for p in _bound_primes(dim, rng):
        draw = random.Random(seed)
        rows = [[draw.randrange(p) for _ in range(dim)] for _ in range(samples)]
        coverage = {"kind": "sampled", "count": samples, "seed": seed}
        for g, pmaps in _restricted_sweep_inputs(dim, p, rng):
            pmaps.update({f"{name}+p": (_ShiftedPMap(pm), value)
                          for name, (pm, value) in list(pmaps.items())})
            g = g.extended(pmaps={name: pm for name, (pm, _) in pmaps.items()})
            c = g.structure("bracket").tolist()
            ops = [[[c[i][j][k] for i in range(dim)] for k in range(dim)] for j in range(dim)]
            statuses = []
            for name, (_, value) in pmaps.items():
                values = [value(x) for x in rows]
                want = operator_sweep_report("restricted_leibniz", ops, p, rows, values,
                                             samples, coverage)
                rep = check_restricted_leibniz(g, name, seed=seed, samples=samples)
                assert rep.to_dict() == want, (p, name)
                statuses.append(rep.status)
                rep = check_restricted_module(g, adjoint_module(g), name, seed=seed,
                                              samples=samples)
                assert rep.to_dict() == operator_sweep_report(
                    "restricted_module", ops, p, rows, values, samples, coverage,
                    swap=True), (p, name)
                if "assoc" in g.ops:  # a Lie bracket
                    X = np.array(rows, dtype=np.int64)
                    count, found = identities._operator_failures(
                        g.right_ops("bracket"), p, X, g.apply_pmap_batch(name, X), ("axiom2",))
                    got = identities._report("restricted_leibniz", found, count,
                                             identities.Coverage("sampled", samples, seed))
                    assert got.to_dict() == operator_sweep_report(
                        "restricted_leibniz", ops, p, rows, values, samples, coverage,
                        ("axiom2",)), (p, name)
            assert statuses == ["pass", "fail", "pass", "fail"], p


def _naive_tensor_restricted(T, p, seed, samples):
    """check_tensor_restricted's failures by loops, in its collection order:
    (failure count, to_dict() of the first WITNESS_LIMIT witnesses as a
    report sorts them), with every p-th operator power and the p-fold
    half-shuffle power of each f_j from square_multiply_mat_pow."""
    cg, cr, cp = (T.gfactor.structure("bracket").tolist(), T.rfactor.structure("zinbiel").tolist(),
                  T.product.structure("prelie").tolist())
    n, m = len(cg), len(cr)

    def basis(d):
        return [tuple(int(i == j) for j in range(d)) for i in range(d)]

    def pth_right_power(c, x):
        return square_multiply_mat_pow(_naive_mult_matrices(c, tuple(x), p)[0], p, p)

    found = []
    eg = basis(n)
    B = {(k, i, j): naive_multiply(cg, eg[k], naive_multiply(cg, eg[i], eg[j], p), p)
         for k, i, j in itertools.product(range(n), repeat=3)}
    for k, i, j in itertools.product(range(n), repeat=3):
        if any((a + b) % p for a, b in zip(B[k, i, j], B[k, j, i])):
            found.append((("inner_antisym", k, i, j), B[k, i, j], [-v % p for v in B[k, j, i]]))
    for k, i in itertools.product(range(n), repeat=2):
        if any(B[k, i, i]):
            found.append((("inner_square", k, i), B[k, i, i], [0] * n))
    zero = [[0] * (n * m)] * (n * m)
    for u, e in enumerate(basis(n * m)):
        if any(map(any, Rp := pth_right_power(cp, e))):
            found.append((("basis_operator", u), Rp, zero))
    W = [[sum(a * b for a, b in zip(row, f)) % p for row in pth_right_power(cr, f)]
         for f in basis(m)]  # f_j half-shuffled by itself p times: p + 1 factors
    found += [(("power_factor", i, j), W[j], [0] * m)
              for i in range(n) for j in range(m) if any(W[j])]
    rng = random.Random(seed)
    for _ in range(samples):
        x = tuple(rng.randrange(p) for _ in range(n * m))
        if any(map(any, Rp := pth_right_power(cp, x))):
            found.append((("sampled_operator", x), Rp, zero))
    kept = sorted(found[:WITNESS_LIMIT], key=lambda w: tuple(repr(part) for part in w[0]))
    return len(found), [Witness(*w).to_dict() for w in kept]


def test_check_tensor_restricted_exact_at_random_primes_under_the_modulus_bound(
        monkeypatch) -> None:
    """check_tensor_restricted at the primes of the modulus-bound tests:

    - L2 (x) the 2-dim free Zinbiel algebra, both written in dense random
      bases and assembled by tensor_prelie, passes at the primes of its
      product dimension 4, where a sum that rounded would leave a nonzero
      p-th power;
    - a handle forged from random residues next to p - 1 (a dim-3 bracket,
      a dim-2 half-shuffle and a dim-6 product), and the same handle with
      the zero bracket, have the failure count and witnesses of Python-int
      loops at the primes of dim 6.

    The p-fold powers at these primes take stack_mat_pow, on the r_x**p
    sweeps and on the power factors of right_power_batch.  As in the kernel
    test, the small-product cut is set to 0."""
    monkeypatch.setattr(algebra_core, "_SMALL_PRODUCT", 0)
    rng = random.Random("tensor-restricted-bound")
    lie0 = [[[0, 0], [1, 0]], [[-1, 0], [0, 0]]]  # [e_0, e_1] = e_0
    zinbiel0 = [[[0, 1], [0, 0]], [[0, 0], [0, 0]]]  # x < x = xx
    for p in _bound_primes(4, rng):
        g, R = (Algebra(p, 2, {op: np.array(_in_basis(c, *_dense_basis(2, p, rng), p))})
                for op, c in (("bracket", lie0), ("zinbiel", zinbiel0)))
        rep = check_tensor_restricted(tensor_prelie(g, R), seed=p % 97)
        assert rep.ok() and rep.coverage.count == 8 + 4 + 4 + 4 + 400, p
    for p in _bound_primes(6, rng):
        g, R, A = (_residues_near_the_top(p, (d, d, d), rng) for d in (3, 2, 6))
        # the zero bracket passes both bracket facts, which leaves the
        # witnesses to the operator powers and the power factors
        for cg in (g, np.zeros_like(g)):
            T = TensorAlgebraHandle(Algebra(p, 3, {"bracket": cg}),
                                    Algebra(p, 2, {"zinbiel": R}), Algebra(p, 6, {"prelie": A}))
            seed = p % 89
            rep = check_tensor_restricted(T, seed=seed, samples=8)
            assert (rep.failure_count, [w.to_dict() for w in rep.witnesses]) == (
                _naive_tensor_restricted(T, p, seed, 8)), p


def _naive_operator_rejection(c, Dop, p):
    """dialgebra_from_operator's message for an operator it must reject,
    searched in the same order by loops."""
    dim = len(Dop)
    basis = [tuple(int(i == j) for j in range(dim)) for i in range(dim)]
    cols = [tuple(row[j] for row in Dop) for j in range(dim)]

    def op(v):
        return tuple(sum(Dop[r][k] * v[k] for k in range(dim)) % p for r in range(dim))

    def mul(u, v):
        return naive_multiply(c, u, v, p)

    for tag, other in (("(Da)(Db)", lambda i, j: mul(cols[i], cols[j])),
                       ("D((Da)b)", lambda i, j: op(mul(cols[i], basis[j])))):
        for i, j in itertools.product(range(dim), repeat=2):
            if op(mul(basis[i], cols[j])) != other(i, j):
                return f"operator condition D(a(Db)) = {tag} fails at basis pair {(i, j)}"
    raise AssertionError("the operator satisfies the condition")


@pytest.mark.parametrize("p", [2, 3, 5, 7, 31, 1_239_850_223, (1 << 31) - 1])
def test_sample_array_draws_as_randrange_does(p) -> None:
    """The vectorized draw returns the coefficients of the one-at-a-time
    randrange loop and leaves the generator in the same state."""
    dim = 1 if p > 1 << 30 else 3
    alg = Algebra(p, dim, {})
    for n in (0, 1, 7, 1000):
        fast, slow = random.Random(f"draw-{p}-{n}"), random.Random(f"draw-{p}-{n}")
        got = alg.sample_array(n, fast)
        want = [[slow.randrange(p) for _ in range(dim)] for _ in range(n)]
        assert got.dtype == np.int64 and got.shape == (n, dim)
        assert got.tolist() == want
        assert fast.getstate() == slow.getstate()


_BOUNDS = sorted({1, 2, 3, 4, 5} | {(1 << k) + e for k in range(1, 17) for e in (-1, 0, 1)})


def test_randrange_array_draws_as_randrange_does() -> None:
    """The array draw returns what one rng.randrange(bound) call per entry
    returns, and leaves the generator in the same state, for bounds 1 to
    2**16 + 1 around every power of two; a bound of 2**32 is refused unless
    nothing is drawn (a dim-0 algebra may have any prime below 2**64)."""
    for bound in _BOUNDS:
        for n in (0, 1, 300):
            fast, slow = random.Random(f"rr-{bound}-{n}"), random.Random(f"rr-{bound}-{n}")
            got = algebra_core._randrange_array(fast, bound, n)
            assert got.dtype == np.int64
            assert got.tolist() == [slow.randrange(bound) for _ in range(n)]
            assert fast.getstate() == slow.getstate()
    with pytest.raises(AssertionError):
        algebra_core._randrange_array(random.Random(0), 1 << 32, 1)
    assert algebra_core._randrange_array(random.Random(0), (1 << 61) - 1, 0).shape == (0,)


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


# -- one exact contraction path ---------------------------------------------------

# Functions that may contract without _matmul_mod, each with its reason.
_CONTRACTION_EXEMPT = {
    # decides how residues are multiplied exactly
    "algebra_core._matmul_mod",
    # index arithmetic on keys, not residues
    "algebra_core.TablePMap._slots",
}


def _summed_contractions(tree, module):
    """(enclosing qualified name, line) of every `@`, np.matmul, np.dot,
    np.tensordot and index-summing np.einsum in a module's syntax tree."""
    found = []

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = f"{scope}.{node.name}"
        hit = (isinstance(node, (ast.BinOp, ast.AugAssign))
               and isinstance(node.op, ast.MatMult))
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            name = node.func.attr
            hit = hit or name in ("matmul", "dot", "tensordot")
            if name == "einsum":
                spec = node.args[0].value if isinstance(node.args[0], ast.Constant) else None
                if not isinstance(spec, str):
                    hit = True  # subscripts not readable: treated as summing
                else:
                    ins, _, out = spec.replace(" ", "").partition("->")
                    letters = [c for c in ins if c.isalpha()]
                    summed = (set(letters) - set(out) if "->" in spec
                              else {c for c in letters if letters.count(c) > 1})
                    hit = hit or bool(summed)
        if hit:
            found.append((scope, node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(tree, module)
    return found


def test_every_summed_contraction_goes_through_matmul_mod() -> None:
    """Outside _matmul_mod and the exempt functions, src/rlk multiplies
    residues only through _matmul_mod: no `@`, matmul, dot, tensordot or
    einsum that sums an index.  Every exemption is still in use."""
    found = []
    for path in sorted(Path(algebra_core.__file__).parent.glob("*.py")):
        found += _summed_contractions(ast.parse(path.read_text(encoding="utf-8")), path.stem)

    def exempt(scope):
        return next((e for e in _CONTRACTION_EXEMPT if scope == e or scope.startswith(e + ".")),
                    None)

    assert [(scope, line) for scope, line in found if exempt(scope) is None] == []
    assert {exempt(scope) for scope, _ in found} == _CONTRACTION_EXEMPT
