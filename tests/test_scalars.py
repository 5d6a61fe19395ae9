from __future__ import annotations

import math
import random

import pytest

from rlk.errors import DomainError, UsageError
from rlk.scalars import LambdaPoly, inv_mod, is_prime, lambda_poly_bracket, validate_prime

from oracles import brute_inv, brute_is_prime, trial_division_is_prime


def test_is_prime_matches_brute_force() -> None:
    for n in range(-3, 500):
        assert is_prime(n) == brute_is_prime(n), n


def test_is_prime_large_values() -> None:
    assert is_prime(2_147_483_647)
    assert not is_prime(2_147_483_647 - 1)


def test_is_prime_matches_trial_division_below_10_5() -> None:
    assert [n for n in range(100_000) if is_prime(n) != trial_division_is_prime(n)] == []


def _chernick_carmichael(at_least: int) -> tuple:
    """The least Carmichael number (6k+1)(12k+1)(18k+1) >= at_least whose
    three factors the trial-division oracle finds prime, with its factors."""
    k = 1
    while (6 * k + 1) * (12 * k + 1) * (18 * k + 1) < at_least:
        k += 1
    while not all(trial_division_is_prime(f * k + 1) for f in (6, 12, 18)):
        k += 1
    return 6 * k + 1, 12 * k + 1, 18 * k + 1


def test_is_prime_near_2_31_2_32_and_2_61() -> None:
    """Every n in a window about 2**31 and 2**32 against the trial-division
    oracle; then composites built to fool weaker tests, each a product of
    factors the oracle finds prime: Carmichael numbers past 2**31, 2**32 and
    2**61, F5 = 2**32 + 1 and the least strong pseudoprimes to bases 2-7
    (3215031751) and 2-23 (3825123056546413051, past 2**61)."""
    for base in (1 << 31, 1 << 32):
        window = range(base - 300, base + 300)
        assert [n for n in window if is_prime(n) != trial_division_is_prime(n)] == []
    composites = [_chernick_carmichael(1 << e) for e in (31, 32, 61)]
    composites += [(641, 6700417), (151, 751, 28351), (149491, 747451, 34233211)]
    for factors in composites:
        assert all(trial_division_is_prime(f) for f in factors)
        n = math.prod(factors)
        assert pow(2, n - 1, n) == 1  # a Fermat liar to base 2
        assert not is_prime(n), n
    assert is_prime((1 << 61) - 1) and is_prime((1 << 31) - 1)
    assert not is_prime(((1 << 61) - 1) ** 2)


def test_inv_examples() -> None:
    assert inv_mod(2, 5) == 3
    for p in (2, 3, 5, 101):
        for a in range(1, 2 * p):
            if a % p:
                assert inv_mod(a, p) == brute_inv(a % p, p)


def test_domain_and_usage_errors() -> None:
    with pytest.raises(DomainError):
        inv_mod(0, 5)
    with pytest.raises(DomainError):
        inv_mod(10, 5)
    with pytest.raises(UsageError):
        validate_prime(6)
    with pytest.raises(UsageError):
        validate_prime(True)
    with pytest.raises(UsageError, match=r"below 2\*\*64, got a 65-bit int"):
        validate_prime((1 << 64) + 13)
    assert validate_prime((1 << 61) - 1) == (1 << 61) - 1


# -- lambda polynomials -------------------------------------------------------


def _scalar_carrier(p):
    bracket = lambda u, v: ((u[0] * v[0]) % p,)
    add = lambda u, v: (((u[0] + v[0]) % p),)
    zero = (0,)
    return bracket, add, zero


def test_lambda_poly_zero_bracket_gives_zero() -> None:
    bracket = lambda u, v: (0,)
    add = lambda u, v: ((u[0] + v[0]) % 5,)
    P = LambdaPoly([(1,)])
    Q = LambdaPoly([(2,), (3,)])
    assert lambda_poly_bracket(P, Q, bracket, add, (0,)).coeffs == ()


def test_lambda_poly_degree_one_times_degree_one() -> None:
    # P = lambda*a, Q = lambda*b on the 1-dim algebra e*e = e: product is
    # lambda^2 * (a*b)
    p = 7
    bracket, add, zero = _scalar_carrier(p)
    P = LambdaPoly([zero, (3,)])
    Q = LambdaPoly([zero, (4,)])
    R = lambda_poly_bracket(P, Q, bracket, add, zero)
    assert R.coeffs == (zero, zero, (12 % p,))


def test_lambda_poly_matches_naive_convolution() -> None:
    rng = random.Random(3)
    p = 5
    bracket, add, zero = _scalar_carrier(p)
    for _ in range(50):
        pc = [(rng.randrange(p),) for _ in range(rng.randrange(1, 5))]
        qc = [(rng.randrange(p),) for _ in range(rng.randrange(1, 5))]
        R = lambda_poly_bracket(LambdaPoly(pc), LambdaPoly(qc), bracket, add, zero)
        naive = [0] * (len(pc) + len(qc) - 1)
        for i, a in enumerate(pc):
            for j, b in enumerate(qc):
                naive[i + j] = (naive[i + j] + a[0] * b[0]) % p
        while naive and naive[-1] == 0:
            naive.pop()
        assert R.coeffs == tuple((v,) for v in naive)


def test_lambda_poly_coeff_beyond_degree() -> None:
    P = LambdaPoly([(1,)])
    assert P.coeff(5, (0,)) == (0,)
