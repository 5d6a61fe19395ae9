from __future__ import annotations

import random

import pytest

from rlk.errors import DomainError, UsageError
from rlk.scalars import LambdaPoly, inv_mod, is_prime, lambda_poly_bracket, validate_prime

from oracles import brute_inv, brute_is_prime


def test_is_prime_matches_brute_force() -> None:
    for n in range(-3, 500):
        assert is_prime(n) == brute_is_prime(n), n


def test_is_prime_large_values() -> None:
    assert is_prime(2_147_483_647)
    assert not is_prime(2_147_483_647 - 1)


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
