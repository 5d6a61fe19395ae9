"""Fixture builders shared across test modules."""

import dataclasses
import itertools
import math

import numpy as np

from rlk.algebra_core import Algebra, TablePMap, ZeroPMap
from rlk.dialgebra import Dialgebra, as_dialgebra, dialgebra_from_operator, dleib, matrix_dialgebra

from oracles import trial_division_is_prime


@dataclasses.dataclass(frozen=True)
class ShiftedPMap:
    """The values of `pmap` plus p, in [p, 2p): the same residues, unreduced."""

    pmap: object

    def apply_batch(self, alg, X):
        return self.pmap.apply_batch(alg, X) + alg.p

    def validate(self, alg):
        self.pmap.validate(alg)


def l2(p, with_pmap=True):
    """Two-dimensional Leibniz algebra: [e1, e2] = e1, all else zero.

    The attached table p-map sends a*e1 + b*e2 to b*e2, which satisfies the
    operator condition for every p."""
    c = np.zeros((2, 2, 2), dtype=np.int64)
    c[0, 1, 0] = 1
    pmaps = {}
    if with_pmap:
        table = {
            (a, b): (0, b) for a in range(p) for b in range(p)
        }
        pmaps["frobenius"] = TablePMap(table)
    return Algebra(p, 2, {"bracket": c}, pmaps, label=f"L2/F{p}")


def abelian(p, dim, with_pmap=False):
    c = np.zeros((dim, dim, dim), dtype=np.int64)
    pmaps = {"zero": ZeroPMap()} if with_pmap else {}
    return Algebra(p, dim, {"bracket": c}, pmaps, label=f"abelian{dim}/F{p}")


def truncated_poly(p, n):
    """F_p[t]/(t^n), basis 1, t, ..., t^(n-1)."""
    c = np.zeros((n, n, n), dtype=np.int64)
    for i in range(n):
        for j in range(n):
            if i + j < n:
                c[i, j, i + j] = 1
    return Algebra(p, n, {"assoc": c}, label=f"F{p}[t]/t^{n}")


def diagonal_assoc(p, k):
    """F_p x ... x F_p componentwise."""
    c = np.zeros((k, k, k), dtype=np.int64)
    for i in range(k):
        c[i, i, i] = 1
    return Algebra(p, k, {"assoc": c}, label=f"diag{k}/F{p}")


def matrix_assoc(p, n):
    """Full n x n matrix algebra, basis E_uv at index u*n + v."""
    d = n * n
    c = np.zeros((d, d, d), dtype=np.int64)
    for u in range(n):
        for v in range(n):
            for w in range(n):
                for z in range(n):
                    if v == w:
                        c[u * n + v, w * n + z, u * n + z] = 1
    return Algebra(p, d, {"assoc": c}, label=f"mat{n}/F{p}")


def upper_triangular2(p):
    """Upper triangular 2x2 matrices, basis E11, E12, E22."""
    idx = {(0, 0): 0, (0, 1): 1, (1, 1): 2}
    c = np.zeros((3, 3, 3), dtype=np.int64)
    for (u, v), i in idx.items():
        for (w, z), j in idx.items():
            if v == w and (u, z) in idx:
                c[i, j, idx[(u, z)]] = 1
    return Algebra(p, 3, {"assoc": c}, label=f"ut2/F{p}")


def commutator_tensor(alg, op="assoc"):
    c = alg.structure(op)
    return (c - c.transpose(1, 0, 2)) % alg.p


def associative_suite(p, max_dim=4):
    """Verified associative fixtures of dims 1..max_dim over F_p."""
    out = [truncated_poly(p, n) for n in range(1, max_dim + 1)]
    out.extend(diagonal_assoc(p, k) for k in range(2, max_dim + 1))
    if max_dim >= 3:
        out.append(upper_triangular2(p))
    if max_dim >= 4:
        out.append(matrix_assoc(p, 2))
    return out


def l2_dialgebra(p):
    """Two-dimensional dialgebra whose derived bracket is the L2 bracket.

    f1 -| f2 = f1, f2 -| f2 = f2, f2 |- f2 = f2, all other products zero;
    concretely the span of E12 and E22 in upper-triangular matrices with the
    products X -| Y = X diag(Y) and X |- Y = diag(X) Y."""
    cl = np.zeros((2, 2, 2), dtype=np.int64)
    cl[0, 1, 0] = 1
    cl[1, 1, 1] = 1
    cr = np.zeros((2, 2, 2), dtype=np.int64)
    cr[1, 1, 1] = 1
    return Dialgebra(p, 2, {"left": cl, "right": cr}, label=f"l2dias/F{p}")


def operator_family(p):
    """(A, Dop, label) triples satisfying D(a(Db)) = (Da)(Db) = D((Da)b).

    Five distinct operator kinds: identity, zero, augmentation on truncated
    polynomials, multiplication by a central idempotent, and an idempotent
    algebra endomorphism (diagonal projection of triangular matrices)."""
    a = truncated_poly(p, 3)
    aug = np.zeros((3, 3), dtype=np.int64)
    aug[0, 0] = 1
    return [
        (a, np.eye(3, dtype=np.int64), "id"),
        (a, np.zeros((3, 3), dtype=np.int64), "zero"),
        (a, aug, "augmentation"),
        (diagonal_assoc(p, 3), np.diag([1, 1, 0]).astype(np.int64), "central-idem"),
        (upper_triangular2(p), np.diag([1, 0, 1]).astype(np.int64), "diag-endo"),
    ]


def dialgebra_suite(primes=(2, 3, 5), with_gl2=True):
    """Verified dialgebras: associative-as-dialgebra fixtures of dims 1..4,
    five operator constructions, the L2-like dialgebra — and gl_2 of each."""
    base = []
    for p in primes:
        base.extend(as_dialgebra(a) for a in associative_suite(p))
        base.extend(
            dialgebra_from_operator(a, dop, label=f"{a.label}+{tag}")
            for a, dop, tag in operator_family(p)
        )
        base.append(l2_dialgebra(p))
    if with_gl2:
        base.extend([matrix_dialgebra(D, 2) for D in base])
    return base


def random_structure(p, dim, rng):
    return np.array(
        [[[rng.randrange(p) for _ in range(dim)] for _ in range(dim)] for _ in range(dim)],
        dtype=np.int64,
    )


def all_elements(p, dim):
    return list(itertools.product(range(p), repeat=dim))


def zinbiel_zero(p, dim):
    """Zero half-shuffle product (trivially Zinbiel)."""
    c = np.zeros((dim, dim, dim), dtype=np.int64)
    return Algebra(p, dim, {"zinbiel": c}, label=f"zinbiel0_{dim}/F{p}")


def tensor_suite(max_product_dim=64):
    """Verified (Leibniz, Zinbiel) pairs for tensor product sweeps; >= 20
    pairs across p in {2, 3, 5} with product dimensions within the bound."""
    from rlk.free_structures import free_zinbiel

    pairs = []
    for p in (2, 3, 5):
        gs = [l2(p), abelian(p, 2)]
        if p <= 3:
            gs.append(dleib(as_dialgebra(truncated_poly(p, 3))))
            gs.append(dleib(l2_dialgebra(p)))
        rs = [
            free_zinbiel(1, 3, p).to_algebra(),
            free_zinbiel(2, 2, p).to_algebra(),
            zinbiel_zero(p, 2),
        ]
        for g in gs:
            for R in rs:
                if g.dim * R.dim <= max_product_dim:
                    pairs.append((g, R))
    return pairs


def counting(calls, key, fn):
    """fn, adding 1 to calls[key] on every call."""
    def wrapper(*args, **kwargs):
        calls[key] += 1
        return fn(*args, **kwargs)
    return wrapper


def count_per_element_calls(monkeypatch):
    """Count Algebra.multiply and p-map apply calls from here on; returns the
    live {"multiply": n, "apply": n} dict."""
    from rlk.algebra_core import BasisJacobsonPMap, RightPowerPMap
    from rlk.prelie_tensor import TensorFormulaPMap

    calls = {"multiply": 0, "apply": 0}
    monkeypatch.setattr(Algebra, "multiply", counting(calls, "multiply", Algebra.multiply))
    for cls in (ZeroPMap, RightPowerPMap, TablePMap, BasisJacobsonPMap, TensorFormulaPMap):
        monkeypatch.setattr(cls, "apply", counting(calls, "apply", cls.apply))
    return calls


def primes_at_the_bound(bound, dim):
    """(p, q): p the largest prime and q the smallest prime with
    dim * (p - 1)**2 < bound <= dim * (q - 1)**2."""
    top = 1 + math.isqrt((bound - 1) // dim)  # largest p under the bound
    p, q = top, top + 1
    while not trial_division_is_prime(p):
        p -= 1
    while not trial_division_is_prime(q):
        q += 1
    return p, q


def residues_near_the_top(p, shape, rng):
    """Residues within 8 of p - 1, odd and even: a contraction of them sums
    dim products next to (p - 1)**2, so at the prime just past a float
    switch many of its totals are odd integers past 2**24 or 2**53."""
    return np.array([p - 1 - rng.randrange(8) for _ in range(math.prod(shape))],
                    dtype=np.int64).reshape(shape)
