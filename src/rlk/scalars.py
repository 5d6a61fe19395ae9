"""Prime-field scalars and polynomials in a formal variable lambda.

All arithmetic is exact: residues are plain Python ints in [0, p), inverses
go through pow(a, -1, p), and nothing ever touches floating point.  LambdaPoly
is a polynomial whose coefficients live in an arbitrary bilinear carrier
(vectors, scalars), multiplied by convolution through a caller-supplied
bracket.  The Jacobson polarization coefficients are computed by
`algebra_core.jacobson_terms_batch(p, X, Y, right_stack)`, which applies the
right-bracket operators of x and y to the coefficient vectors; LambdaPoly and
lambda_poly_bracket stay only because perfbench/tracer.py patches them by name.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DomainError, UsageError


# id -> weakref of each array _seal made; numpy cannot tell if views are writable
_SEALED = {}


def _seal(a: np.ndarray) -> np.ndarray:
    """`a` (copied if a view) read-only and marked: no writable alias exists."""
    a = a if a.base is None else a.copy()
    a.flags.writeable = False
    _SEALED[id(a)] = weakref.ref(a, lambda _, key=id(a): _SEALED.pop(key, None))
    return a


def _sealed(a: np.ndarray) -> bool:
    return (ref := _SEALED.get(id(a))) is not None and ref() is a and not a.flags.writeable


def _freeze(obj, **fields) -> None:
    """Set fields of a frozen dataclass from its __post_init__.  An array is
    stored sealed, copied first unless _seal made it, so no caller keeps a
    writable alias.  It lives below algebra_core, so no import makes a cycle."""
    for name, value in fields.items():
        if isinstance(value, np.ndarray) and not _sealed(value):
            value = _seal(value.copy())
        object.__setattr__(obj, name, value)


# Moduli are refused from here on before any primality test; the int64
# kernels refuse far smaller ones (Algebra's bound stops near 2**31 at dim 1).
MODULUS_BOUND = 1 << 64
_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


@lru_cache(maxsize=4096)
def is_prime(n: int) -> bool:
    """Miller-Rabin to the first twelve prime bases, which is deterministic
    for n < 318665857834031151167461 (about 3.2 * 10**23, past 2**78)."""
    if n < 2:
        return False
    for q in _WITNESSES:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _WITNESSES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def validate_prime(p: int) -> int:
    is_int = isinstance(p, int) and not isinstance(p, bool)
    if is_int and p >= MODULUS_BOUND:
        raise UsageError(f"modulus must be below 2**64, got a {p.bit_length()}-bit int")
    if not is_int or not is_prime(p):
        raise UsageError(f"modulus must be prime, got {p!r}")
    return p


def inv_mod(a: int, p: int) -> int:
    if a % p == 0:
        raise DomainError("inverse of zero")
    return pow(a, -1, p)


@dataclass(frozen=True, slots=True)
class LambdaPoly:
    """Polynomial in lambda with coefficients in an arbitrary carrier.

    Coefficients are stored lowest degree first, as a tuple; trailing zeros
    (detected by equality with the carrier's zero) are kept as-is unless a
    zero value is supplied to normalize().
    """

    coeffs: tuple

    def __post_init__(self):
        _freeze(self, coeffs=tuple(self.coeffs))

    def coeff(self, i, zero):
        """Coefficient of lambda**i, or the supplied zero beyond the degree."""
        if 0 <= i < len(self.coeffs):
            return self.coeffs[i]
        return zero

    def normalize(self, zero) -> "LambdaPoly":
        cs = list(self.coeffs)
        while cs and cs[-1] == zero:
            cs.pop()
        return LambdaPoly(cs)


def lambda_poly_bracket(P: LambdaPoly, Q: LambdaPoly, bracket, add, zero) -> LambdaPoly:
    """Convolution product: coefficient k of the result is
    sum over i+j=k of bracket(P_i, Q_j).  Degrees add."""
    if not P.coeffs or not Q.coeffs:
        return LambdaPoly([])
    out = [zero] * (len(P.coeffs) + len(Q.coeffs) - 1)
    for i, pi in enumerate(P.coeffs):
        if pi == zero:
            continue
        for j, qj in enumerate(Q.coeffs):
            if qj == zero:
                continue
            out[i + j] = add(out[i + j], bracket(pi, qj))
    return LambdaPoly(out).normalize(zero)
