"""Finite-dimensional algebras over F_p given by structure-constant tensors.

An Algebra owns a prime p, a dimension, named bilinear products (each a
(dim, dim, dim) int64 tensor c with e_i * e_j = sum_k c[i,j,k] e_k), and
named p-maps.  Elements are plain tuples of ints reduced mod p; operator
matrices use the column convention (column i is the image of e_i), so a
matrix acts on coefficient column vectors from the left.

Arithmetic is exact: every contraction sums dim terms of products of two
reduced residues, and construction rejects moduli large enough for that to
overflow int64.
"""

from __future__ import annotations

import copy
import os
import random
from types import MappingProxyType

import numpy as np

from .errors import UsageError
from .scalars import inv_mod, validate_prime

DEFAULT_CAP = 1 << 16
# Largest carrier dimension given a dense (dim, dim, dim) structure tensor
# from outside: algebra files and free algebras made dense.
DENSE_DIM_BOUND = 160
# entries one chunk of a batched kernel may stack at once
_CHUNK_ENTRIES = 1 << 21

Element = tuple


def enumeration_cap(explicit=None) -> int:
    """Effective enumeration cap: explicit argument, else RLK_CAP, else 2**16."""
    if explicit is not None:
        if explicit < 1:
            raise UsageError(f"cap must be positive, got {explicit}")
        return int(explicit)
    env = os.environ.get("RLK_CAP")
    if env is not None:
        try:
            cap = int(env)
        except ValueError:
            raise UsageError(f"RLK_CAP must be an integer, got {env!r}") from None
        if cap < 1:
            raise UsageError(f"RLK_CAP must be positive, got {cap}")
        return cap
    return DEFAULT_CAP


def _tup(row) -> tuple:
    return tuple(int(v) for v in row)


def _apply_one_row(pmap, alg: "Algebra", x) -> Element:
    """A p-map's value at one element: a one-row call of its apply_batch."""
    return _tup(pmap.apply_batch(alg, np.asarray(x, dtype=np.int64)[None])[0])


def _check_modulus_bound(p: int, dim: int) -> None:
    # one contracted index at a time: sums of dim products of reduced residues
    if dim and dim * (p - 1) * (p - 1) >= 1 << 62:
        raise UsageError(f"modulus {p} too large for exact int64 kernels at dim {dim}")


class ZeroPMap:
    """x -> 0."""

    variant = "zero"

    apply = _apply_one_row

    def apply_batch(self, alg: "Algebra", X: np.ndarray) -> np.ndarray:
        return np.zeros_like(X)

    def validate(self, alg: "Algebra") -> None:
        pass

    def __eq__(self, other):
        return isinstance(other, ZeroPMap)

    def __repr__(self):
        return "ZeroPMap()"


class RightPowerPMap:
    """x -> (((x*x)*x)...*x), `exponent` factors of x under the named product.

    exponent=None means the algebra's p.  exponent=1 is the identity map.
    """

    variant = "rightpower"

    def __init__(self, op: str, exponent=None):
        if exponent is not None and exponent < 1:
            raise UsageError(f"rightpower exponent must be >= 1, got {exponent}")
        self.op = op
        self.exponent = exponent

    def _n(self, alg: "Algebra") -> int:
        return alg.p if self.exponent is None else self.exponent

    apply = _apply_one_row

    def apply_batch(self, alg: "Algebra", X: np.ndarray) -> np.ndarray:
        return alg.right_power_batch(self.op, X, self._n(alg))

    def validate(self, alg: "Algebra") -> None:
        alg.structure(self.op)

    def __eq__(self, other):
        return (
            isinstance(other, RightPowerPMap)
            and self.op == other.op
            and self.exponent == other.exponent
        )

    def __repr__(self):
        return f"RightPowerPMap({self.op!r}, {self.exponent!r})"


class MatrixPowerPMap(RightPowerPMap):
    """x -> x**p under an associative product (p-th power)."""

    variant = "matrixpower"

    def __init__(self, op: str = "assoc"):
        super().__init__(op, None)

    def __eq__(self, other):
        return isinstance(other, MatrixPowerPMap) and self.op == other.op

    def __repr__(self):
        return f"MatrixPowerPMap({self.op!r})"


class TablePMap:
    """Explicit value table; the domain must cover all p**dim elements.

    `__init__` also lays the values out once as an array indexed by the key
    read in base `radix` (one past the largest key entry: p for a table that
    passes `validate`), with a mask of the keys present, so `apply_batch` is
    one gather."""

    variant = "table"

    def __init__(self, mapping: dict):
        self.mapping = {tuple(k): tuple(v) for k, v in mapping.items()}
        # no row has an entry in a table that is empty, of mixed arity, or
        # scattered over a key box much larger than itself
        self._radix, self._width = 1, -1
        self._present = np.zeros(1, dtype=bool)
        self._values = np.zeros((1, 0), dtype=np.int64)
        keys, values = list(self.mapping), list(self.mapping.values())
        if len({len(k) for k in keys}) != 1 or len({len(v) for v in values}) != 1:
            return
        K = np.array(keys, dtype=np.int64)
        radix = int(K.max(initial=0)) + 1
        if K.min(initial=0) < 0 or radix ** K.shape[1] > max(len(keys), DEFAULT_CAP):
            return
        self._radix, self._width = radix, K.shape[1]
        slots = self._slots(K)
        self._present = np.zeros(radix ** self._width, dtype=bool)
        self._present[slots] = True
        self._values = np.zeros((self._present.size, len(values[0])), dtype=np.int64)
        self._values[slots] = values

    def _slots(self, X: np.ndarray) -> np.ndarray:
        return X @ self._radix ** np.arange(self._width - 1, -1, -1, dtype=np.int64)

    apply = _apply_one_row

    def apply_batch(self, alg: "Algebra", X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=np.int64)
        found = np.zeros(X.shape[0], dtype=bool)
        slots = np.zeros(X.shape[0], dtype=np.int64)
        if X.shape[1] == self._width:
            inside = ((X >= 0) & (X < self._radix)).all(axis=1)
            slots = np.where(inside, self._slots(X), 0)
            found = inside & self._present[slots]
        if not found.all():
            raise RuntimeError(f"table pmap has no entry for {_tup(X[np.argmin(found)])}")
        return self._values[slots]

    def validate(self, alg: "Algebra") -> None:
        count = alg.p ** alg.dim
        if count > enumeration_cap():
            raise UsageError(f"table pmap needs p**dim <= cap, got {count}")
        if len(self.mapping) != count:
            raise UsageError(
                f"table pmap covers {len(self.mapping)} of {count} elements"
            )
        for k, v in self.mapping.items():
            if len(k) != alg.dim or len(v) != alg.dim:
                raise UsageError(f"table pmap entry of wrong arity: {k} -> {v}")
            if any(not (0 <= c < alg.p) for c in k) or any(not (0 <= c < alg.p) for c in v):
                raise UsageError(f"table pmap entry not reduced mod {alg.p}: {k} -> {v}")

    def __eq__(self, other):
        return isinstance(other, TablePMap) and self.mapping == other.mapping

    def __repr__(self):
        return f"TablePMap(<{len(self.mapping)} entries>)"


class BasisJacobsonPMap:
    """p-map determined by its values on basis elements of a Lie bracket.

    Extension rule: (a x)^[p] = a**p x^[p] and
    (x + y)^[p] = x^[p] + y^[p] + sum_i s_i(x, y), recursing over the basis
    expansion in index order.  Only valid on brackets passing the Lie checks,
    which is enforced when the map is attached to an algebra.
    """

    variant = "basisjacobson"

    def __init__(self, bracket: str, values):
        self.bracket = bracket
        self.values = tuple(tuple(v) for v in values)

    apply = _apply_one_row

    def apply_batch(self, alg: "Algebra", X: np.ndarray) -> np.ndarray:
        """One basis coordinate i at a time across all rows: add a**p e_i^[p]
        for the coefficient a of e_i (a**p == a in F_p), then the Jacobson
        terms s_k(a e_i, rest) on the rows whose rest past i is nonzero."""
        p = alg.p
        rest = np.array(X, dtype=np.int64) % p
        acc = np.zeros_like(rest)
        values = np.array(self.values, dtype=np.int64).reshape(alg.dim, alg.dim)
        for i in range(alg.dim):
            a = rest[:, i].copy()
            rest[:, i] = 0
            acc += a[:, None] * values[i]
            rows = np.flatnonzero((a != 0) & rest.any(axis=1))
            if rows.size:
                head = np.zeros((rows.size, alg.dim), dtype=np.int64)
                head[:, i] = a[rows]
                acc[rows] += sum(jacobson_terms_batch(
                    p, head, rest[rows],
                    lambda V: alg.right_mult_stack(self.bracket, V)))
            acc %= p
        return acc

    def validate(self, alg: "Algebra") -> None:
        if len(self.values) != alg.dim:
            raise UsageError(
                f"basisjacobson pmap has {len(self.values)} values for dim {alg.dim}"
            )
        for v in self.values:
            if len(v) != alg.dim or any(not (0 <= c < alg.p) for c in v):
                raise UsageError(f"basisjacobson value not a reduced element: {v}")
        bad = lie_basis_violation(alg, self.bracket)
        if bad is not None:
            raise UsageError(
                f"basisjacobson pmap needs a Lie bracket; {bad[0]} fails at {bad[1:]}"
            )

    def __eq__(self, other):
        return (
            isinstance(other, BasisJacobsonPMap)
            and self.bracket == other.bracket
            and self.values == other.values
        )

    def __repr__(self):
        return f"BasisJacobsonPMap({self.bracket!r}, {list(self.values)!r})"


class Algebra:
    """Immutable structure-constant algebra over F_p; `pmaps` is a read-only
    mapping of names to p-maps."""

    def __init__(self, p: int, dim: int, ops: dict, pmaps=None, label: str = ""):
        validate_prime(p)
        if not isinstance(dim, int) or dim < 0:
            raise UsageError(f"dim must be a nonnegative int, got {dim!r}")
        _check_modulus_bound(p, dim)
        self.p = p
        self.dim = dim
        self.label = label
        self._ops = {}
        for name, tensor in ops.items():
            if not name:
                raise UsageError("empty op name")
            t = np.asarray(tensor, dtype=np.int64)
            if t.shape != (dim, dim, dim):
                raise UsageError(
                    f"op {name!r} has shape {t.shape}, expected {(dim, dim, dim)}"
                )
            t = t % p
            t.flags.writeable = False
            self._ops[name] = t
        self.pmaps = MappingProxyType(dict(pmaps or {}))
        for name, pm in self.pmaps.items():
            if not name:
                raise UsageError("empty pmap name")
            pm.validate(self)

    # -- carrier ----------------------------------------------------------

    @property
    def op_names(self):
        return tuple(sorted(self._ops))

    def structure(self, op: str) -> np.ndarray:
        try:
            return self._ops[op]
        except KeyError:
            raise UsageError(
                f"unknown op {op!r}; available: {', '.join(self.op_names) or '(none)'}"
            ) from None

    def element(self, coeffs) -> Element:
        coeffs = tuple(int(c) % self.p for c in coeffs)
        if len(coeffs) != self.dim:
            raise UsageError(f"element of length {len(coeffs)} in dim {self.dim}")
        return coeffs

    def zero(self) -> Element:
        return (0,) * self.dim

    def basis(self, i: int) -> Element:
        if not 0 <= i < self.dim:
            raise UsageError(f"basis index {i} out of range for dim {self.dim}")
        return tuple(1 if j == i else 0 for j in range(self.dim))

    def add(self, x: Element, y: Element) -> Element:
        return tuple((a + b) % self.p for a, b in zip(x, y))

    def sub(self, x: Element, y: Element) -> Element:
        return tuple((a - b) % self.p for a, b in zip(x, y))

    def scale(self, a: int, x: Element) -> Element:
        a %= self.p
        return tuple((a * c) % self.p for c in x)

    # -- products and operators -------------------------------------------
    #
    # The batch kernels below are the one place each operation is computed;
    # the single-element methods are one-row calls of them.

    def _one_row(self, kernel, op: str, *xs):
        """kernel(op, ...) on each element as a (1, dim) row, first row out;
        the op is looked up first, so it is reported before a bad element."""
        self.structure(op)
        rows = []
        for x in xs:
            v = np.asarray(x, dtype=np.int64)
            if v.shape != (self.dim,):
                raise UsageError(f"element of shape {v.shape} in dim {self.dim}")
            rows.append(v[None] % self.p)
        return kernel(op, *rows)[0]

    def multiply(self, op: str, x: Element, y: Element) -> Element:
        return _tup(self._one_row(self.multiply_batch, op, x, y))

    def multiply_batch(self, op: str, X: np.ndarray, Y: np.ndarray) -> np.ndarray:
        """Row-wise products of two (N, dim) coefficient arrays."""
        c = self.structure(op)
        t = np.tensordot(X % self.p, c, axes=(1, 0)) % self.p  # (N, j, k)
        return np.einsum("njk,nj->nk", t, Y % self.p) % self.p

    def right_power_batch(self, op: str, X: np.ndarray, n: int) -> np.ndarray:
        """Row-wise n-fold right powers (((x*x)*x)...*x), n >= 1, of an
        (N, dim) coefficient array."""
        V = X % self.p
        for _ in range(n - 1):
            V = self.multiply_batch(op, V, X)
        return V

    def right_mult_matrix(self, op: str, x: Element) -> np.ndarray:
        """Matrix of y -> y * x; column i is e_i * x."""
        return self._one_row(self.right_mult_stack, op, x)

    def left_mult_matrix(self, op: str, x: Element) -> np.ndarray:
        """Matrix of y -> x * y; column j is x * e_j."""
        return self._one_row(self.left_mult_stack, op, x)

    def right_mult_stack(self, op: str, X: np.ndarray) -> np.ndarray:
        """(N, dim, dim) stack of right-multiplication matrices."""
        c = self.structure(op)
        m = np.tensordot(X % self.p, c, axes=(1, 1)) % self.p  # (n, i, k)
        return m.transpose(0, 2, 1)

    def left_mult_stack(self, op: str, X: np.ndarray) -> np.ndarray:
        c = self.structure(op)
        m = np.tensordot(X % self.p, c, axes=(1, 0)) % self.p  # (n, j, k)
        return m.transpose(0, 2, 1)

    # -- p-maps -------------------------------------------------------------

    def pmap(self, name: str):
        try:
            return self.pmaps[name]
        except KeyError:
            raise UsageError(
                f"unknown pmap {name!r}; available: {', '.join(sorted(self.pmaps)) or '(none)'}"
            ) from None

    def apply_pmap(self, name: str, x: Element) -> Element:
        return _apply_one_row(self.pmap(name), self, self.element(x))

    def apply_pmap_batch(self, name: str, X: np.ndarray) -> np.ndarray:
        return self.pmap(name).apply_batch(self, np.asarray(X, dtype=np.int64) % self.p)

    # -- enumeration ---------------------------------------------------------

    def element_count(self) -> int:
        return self.p ** self.dim

    def can_enumerate(self, cap=None) -> bool:
        return self.element_count() <= enumeration_cap(cap)

    def enumerate_elements(self, cap=None):
        """All p**dim elements as tuples, in the order of elements_array."""
        return map(_tup, self.elements_array(cap))

    def elements_array(self, cap=None) -> np.ndarray:
        """(p**dim, dim) array of all elements in lexicographic coefficient order."""
        if not self.can_enumerate(cap):
            raise UsageError(
                f"{self.element_count()} elements exceed cap {enumeration_cap(cap)}"
            )
        n = self.element_count()
        idx = np.arange(n, dtype=np.int64)
        cols = [
            (idx // self.p ** (self.dim - 1 - k)) % self.p for k in range(self.dim)
        ]
        if not cols:
            return np.zeros((1, 0), dtype=np.int64)
        return np.stack(cols, axis=1)

    def sample_array(self, n: int, rng: random.Random) -> np.ndarray:
        return np.array(
            [[rng.randrange(self.p) for _ in range(self.dim)] for _ in range(n)],
            dtype=np.int64,
        )

    # -- derived copies ------------------------------------------------------

    def extended(self, ops=None, pmaps=None, label=None) -> "Algebra":
        """New algebra on the same carrier with extra/overridden ops or pmaps."""
        new_ops = dict(self._ops)
        new_ops.update(ops or {})
        new_pmaps = dict(self.pmaps)
        new_pmaps.update(pmaps or {})
        return Algebra(
            self.p,
            self.dim,
            new_ops,
            new_pmaps,
            self.label if label is None else label,
        )

    def _with_pmaps(self, pmaps) -> "Algebra":
        """The same algebra carrying exactly `pmaps`, which are not validated
        again: each must already be known valid on these ops."""
        new = copy.copy(self)
        new.pmaps = MappingProxyType(dict(pmaps))
        return new

    def __repr__(self):
        tag = f" {self.label!r}" if self.label else ""
        return f"Algebra(p={self.p}, dim={self.dim}, ops={list(self.op_names)}{tag})"


def stack_mat_pow(stack: np.ndarray, n: int, p: int) -> np.ndarray:
    """Batched matrix power of a (N, d, d) stack mod p."""
    if n < 0:
        raise UsageError("negative matrix power")
    N, d, _ = stack.shape
    # square and multiply from the lowest set bit: n = 2 costs one matmul
    out, base = None, stack % p
    while n:
        if n & 1:
            out = base if out is None else np.matmul(out, base) % p
        n >>= 1
        if n:
            base = np.matmul(base, base) % p
    if out is None:
        return np.broadcast_to(np.eye(d, dtype=np.int64), (N, d, d)).copy()
    return out


def jacobson_terms_batch(p: int, X: np.ndarray, Y: np.ndarray, right_stack) -> list:
    """s_1..s_{p-1} for every row pair (x, y) of two (N, dim) arrays, each
    as an (N, dim) array: i*s_i is the coefficient of lambda**(i-1) in the
    (p-1)-fold right bracketing of x by (lambda x + y).

    `right_stack(V)` maps (M, dim) rows v to the (M, dim, dim) reduced
    operators u -> [u, v].  Each chunk of rows takes r_y and r_x from one
    call; each round then updates the coefficients P_k of lambda**k by
    batched mat-vecs, P'_k = r_y P_k + r_x P_{k-1}, each product reduced mod
    p before the sum, so no entry passes dim*(p-1)**2 + p.  A chunk stacks
    at most _CHUNK_ENTRIES // (2 p dim**2) rows."""
    N, d = X.shape
    out = [np.zeros((N, d), dtype=np.int64) for _ in range(p - 1)]
    block = max(1, _CHUNK_ENTRIES // max(1, 2 * p * d * d))
    for lo in range(0, N, block):
        x, y = X[lo:lo + block] % p, Y[lo:lo + block] % p
        n = x.shape[0]
        R = right_stack(np.concatenate([y, x])).reshape(2, 1, n, d, d)
        P = x[None]  # P[k] is the coefficient of lambda**k
        for _ in range(p - 1):
            B = np.matmul(R, P[None, ..., None])[..., 0] % p  # (2, k, n, d)
            nxt = np.zeros((P.shape[0] + 1, n, d), dtype=np.int64)
            nxt[:-1] += B[0]
            nxt[1:] += B[1]
            P = nxt % p
        for i in range(1, p):
            out[i - 1][lo:lo + n] = (inv_mod(i, p) * P[i - 1]) % p
    return out


def lie_basis_violation(alg: Algebra, op: str):
    """None if `op` is alternating, antisymmetric and Jacobi on the basis,
    else a witness tuple (kind, i, j[, k])."""
    c = alg.structure(op)
    p = alg.p
    for i in range(alg.dim):
        if np.any(c[i, i] % p):
            return ("alternating", i, i)
    anti = (c + c.transpose(1, 0, 2)) % p
    bad = np.argwhere(anti.any(axis=2))
    if bad.size:
        i, j = (int(v) for v in bad[0])
        return ("antisymmetry", i, j)
    # [[x,y],z] + [[y,z],x] + [[z,x],y] on basis triples, one contraction at a time
    t1 = np.einsum("ijm,mkl->ijkl", c, c) % p
    jac = (t1 + t1.transpose(1, 2, 0, 3) + t1.transpose(2, 0, 1, 3)) % p
    bad = np.argwhere(jac.any(axis=3))
    if bad.size:
        i, j, k = (int(v) for v in bad[0])
        return ("jacobi", i, j, k)
    return None
