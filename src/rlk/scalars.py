"""Prime-field scalars and polynomials in a formal variable lambda.

All arithmetic is exact: residues are plain Python ints in [0, p), inverses
go through pow(a, -1, p), and nothing ever touches floating point.  LambdaPoly
is the small workhorse behind the Jacobson polarization coefficients: a
polynomial whose coefficients live in an arbitrary bilinear carrier (vectors,
scalars), multiplied by convolution through a caller-supplied bracket.
"""

from __future__ import annotations

from functools import lru_cache

from .errors import DomainError, UsageError


@lru_cache(maxsize=4096)
def is_prime(n: int) -> bool:
    """Deterministic trial division; intended range n <= 2**31."""
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def validate_prime(p: int) -> int:
    if not isinstance(p, int) or isinstance(p, bool) or not is_prime(p):
        raise UsageError(f"modulus must be prime, got {p!r}")
    return p


def inv_mod(a: int, p: int) -> int:
    if a % p == 0:
        raise DomainError("inverse of zero")
    return pow(a, -1, p)


class LambdaPoly:
    """Polynomial in lambda with coefficients in an arbitrary carrier.

    Coefficients are stored lowest degree first; trailing zeros (detected by
    equality with the carrier's zero) are kept as-is unless a zero value is
    supplied to normalize().
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        self.coeffs = tuple(coeffs)

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

    def __eq__(self, other) -> bool:
        return isinstance(other, LambdaPoly) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        return f"LambdaPoly({list(self.coeffs)!r})"


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
