"""Finite-dimensional algebras over F_p given by structure-constant tensors.

An Algebra owns a prime p, a dimension, named bilinear products (each a
(dim, dim, dim) int64 tensor c with e_i * e_j = sum_k c[i,j,k] e_k), and
named p-maps.  Elements are plain tuples of ints reduced mod p; operator
matrices use the column convention (column i is the image of e_i), so a
matrix acts on coefficient column vectors from the left.

Arithmetic is exact: every contraction sums dim terms of products of two
reduced residues, and construction rejects moduli large enough for that to
overflow int64.  Every summed contraction runs through `_matmul_mod`, which
takes its route from the shapes and the modulus it is given: float BLAS where
that is exact and repays the casts (`_residue_dtype`), reduced mod p before
the one cast back, else int64; float operands come back in their own dtype.
"""

from __future__ import annotations

import copy
import os
import random
from collections.abc import Mapping
from dataclasses import dataclass, field
from types import MappingProxyType

import numpy as np

from .errors import UsageError
from .scalars import _freeze, _seal, _sealed, inv_mod, validate_prime

DEFAULT_CAP = 1 << 16
# Largest carrier dimension given a dense (dim, dim, dim) structure tensor
# from outside: algebra files and free algebras made dense.
DENSE_DIM_BOUND = 160
# entries one chunk of a batched kernel may stack at once
_CHUNK_ENTRIES = 1 << 21
# entries one block of a blocked kernel computes at once, sized to stay in cache
_BLOCK_ENTRIES = 1 << 15
# multiply-adds below which _matmul_mod stays in int64 (measured crossover: 2-6 k)
_SMALL_PRODUCT = 1 << 12
# powers right_power_batch takes as mat-vecs; past it stack_mat_pow is faster
# (measured crossover: 2-32 at dims 2-16 and 1-8,192 rows, BENCH_17.json)
_MATVEC_POWERS = 32
# words dim**p below which BasisJacobsonPMap compiles its bracket's Jacobson polynomial;
# past it the build outweighs a first call's polarizations (README "Performance")
_JACOBSON_WORDS = 1 << 12

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


def _randrange_array(rng: random.Random, bound: int, n: int) -> np.ndarray:
    """n int64 draws of rng.randrange(bound), 0 < bound < 2**32 unless n is 0,
    leaving rng as the one-at-a-time loop leaves it.

    randrange(bound) takes the top bound.bit_length() bits of Mersenne Twister
    words until one is below bound.  getrandbits(32 m) hands out the next m
    words little-endian first, so the words still needed are drawn at once and
    the rejected ones dropped, until every draw is in."""
    assert not n or 0 < bound < 1 << 32, bound
    shift, parts, got = 32 - bound.bit_length(), [np.zeros(0, dtype=np.uint32)], 0
    while got < n:
        raw = rng.getrandbits(32 * (n - got)).to_bytes(4 * (n - got), "little")
        words = np.frombuffer(raw, dtype="<u4") >> shift
        parts.append(words[words < bound])
        got += parts[-1].size
    return np.concatenate(parts).astype(np.int64)


def _apply_one_row(pmap, alg: "Algebra", x) -> Element:
    """A p-map's value at one element: a one-row call of its apply_batch."""
    return _tup(pmap.apply_batch(alg, np.asarray(x, dtype=np.int64)[None])[0])


def _check_modulus_bound(p: int, dim: int) -> None:
    # one contracted index at a time: sums of dim products of reduced residues
    # must fit int64; _residue_dtype takes float32 below 2**24, float64 below 2**53
    if dim and dim * (p - 1) * (p - 1) >= 1 << 62:
        raise UsageError(f"modulus {p} too large for exact int64 kernels at dim {dim}")


def _residue_dtype(k: int, p: int, work: int):
    """The dtype of products that sum k products of residues mod p, `work`
    multiply-adds in all: float32 while k * (p - 1)**2 < 2**24, float64 below
    2**53, else int64, which also takes work below _SMALL_PRODUCT."""
    bound = k * (p - 1) ** 2 if work >= _SMALL_PRODUCT else 1 << 53
    return np.float32 if bound < 1 << 24 else np.float64 if bound < 1 << 53 else np.int64


def _blocks(m: int, table: int) -> tuple:
    """(chunk, block): rows of m x m operators that fit _CHUNK_ENTRIES and _BLOCK_ENTRIES,
    but a block is the chunk if the operator table of `table` entries overflows a block."""
    size = max(1, m * m)
    chunk = max(1, _CHUNK_ENTRIES // size)
    return chunk, chunk if table > _BLOCK_ENTRIES else max(1, min(chunk, _BLOCK_ENTRIES // size))


def operator_stack(ops: np.ndarray, X: np.ndarray, p: int) -> np.ndarray:
    """(N, m, m) stack of sum_j x_j ops[j] mod p, one per row x of a reduced
    (N, k) array X, for a reduced (k, m, m) stack ops; in X's dtype if float."""
    k, m, _ = ops.shape
    return _matmul_mod(X, ops.reshape(k, m * m), p).reshape(len(X), m, m)


def _matmul_mod(A: np.ndarray, B: np.ndarray, p: int) -> np.ndarray:
    """np.matmul(A, B) % p for reduced operands whose sums stay below
    _check_modulus_bound's 2**62, in A's dtype: int64, or a float dtype that
    _residue_dtype gave for contractions at least this long.

    For int64 A, int64 (reduced in place) takes mat-vecs and what
    _residue_dtype keeps in int64, as do object operands past p = 2**27;
    the rest is cast once to float BLAS.

    Exact: with m = 24 or 53 significand bits, every partial sum is an
    integer below 2**m, so no summation order, FMA or thread split can round
    it.  For an integer 0 <= x < 2**m, x/p lies at least 1/p below
    floor(x/p) + 1, and half an ulp of x/p is at most (x/p) / 2**m < 1/p, so
    fl(x/p) (true division, not a multiply by 1/p) has the same floor; the
    product and difference that follow are integers below 2**m, exact too."""
    dtype = (A.dtype.type if A.dtype.kind == "f" else np.int64 if B.shape[-1] == 1
             else _residue_dtype(A.shape[-1], p, A.size * B.shape[-1]))
    if dtype is np.int64:
        res = np.matmul(A, B)
        res %= p
        return res
    Af = A.astype(dtype, copy=False)
    out = np.matmul(Af, Af if B is A else B.astype(dtype, copy=False))
    del Af
    _float_mod(out, p)
    return out if A.dtype.type is dtype else out.astype(np.int64)


def _float_mod(a: np.ndarray, p: int) -> np.ndarray:
    """a % p in place for a float array of nonnegative integers below 2**24 (float32)
    or 2**53 (float64), exact by _matmul_mod's proof, and faster than numpy's %."""
    q = a / p
    np.floor(q, out=q)
    q *= p
    a -= q
    return a


@dataclass(frozen=True)
class ZeroPMap:
    """x -> 0."""

    variant = "zero"

    apply = _apply_one_row

    def apply_batch(self, alg: "Algebra", X: np.ndarray) -> np.ndarray:
        return np.zeros_like(X)

    def validate(self, alg: "Algebra") -> None:
        pass


@dataclass(frozen=True)
class RightPowerPMap:
    """x -> (((x*x)*x)...*x), `exponent` factors of x under the named product.

    exponent=None means the algebra's p.  exponent=1 is the identity map.
    """

    variant = "rightpower"

    op: str
    exponent: int | None = None

    def __post_init__(self):
        if self.exponent is not None and self.exponent < 1:
            raise UsageError(f"rightpower exponent must be >= 1, got {self.exponent}")

    apply = _apply_one_row

    def apply_batch(self, alg: "Algebra", X: np.ndarray) -> np.ndarray:
        n = alg.p if self.exponent is None else self.exponent
        return alg.right_power_batch(self.op, X, n)

    def validate(self, alg: "Algebra") -> None:
        alg.structure(self.op)


@dataclass(frozen=True)
class MatrixPowerPMap(RightPowerPMap):
    """x -> x**p under an associative product (p-th power)."""

    variant = "matrixpower"

    op: str = "assoc"
    exponent: None = field(default=None, init=False, repr=False)


@dataclass(frozen=True)
class TablePMap:
    """Explicit value table; the domain must cover all p**dim elements.

    `mapping` is read-only.  `__post_init__` also lays the values out once
    as a read-only array indexed by the key read in base `radix` (one past
    the largest key entry: p for a table that passes `validate`), with a
    mask of the keys present, so `apply_batch` is one gather."""

    variant = "table"

    mapping: Mapping

    def __post_init__(self):
        mapping = {tuple(k): tuple(v) for k, v in self.mapping.items()}
        keys, values = list(mapping), list(mapping.values())
        # no row has an entry in a table that is empty, of mixed arity, or
        # scattered over a key box much larger than itself
        radix, width = 1, -1
        present, table = np.zeros(1, dtype=bool), np.zeros((1, 0), dtype=np.int64)
        if len({len(k) for k in keys}) == 1 == len({len(v) for v in values}):
            K = np.array(keys, dtype=np.int64)
            box = (int(K.max(initial=0)) + 1, K.shape[1])
            if K.min(initial=0) >= 0 and box[0] ** box[1] <= max(len(keys), DEFAULT_CAP):
                radix, width = box
                slots = self._slots(K, radix, width)
                present = np.zeros(radix ** width, dtype=bool)
                present[slots] = True
                table = np.zeros((present.size, len(values[0])), dtype=np.int64)
                table[slots] = values
        _freeze(self, mapping=MappingProxyType(mapping), _radix=radix, _width=width,
                _present=_seal(present), _values=_seal(table))

    @staticmethod
    def _slots(X: np.ndarray, radix: int, width: int) -> np.ndarray:
        return X @ radix ** np.arange(width - 1, -1, -1, dtype=np.int64)

    apply = _apply_one_row

    def apply_batch(self, alg: "Algebra", X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=np.int64)
        found = np.zeros(X.shape[0], dtype=bool)
        slots = np.zeros(X.shape[0], dtype=np.int64)
        if X.shape[1] == self._width:
            inside = ((X >= 0) & (X < self._radix)).all(axis=1)
            slots = np.where(inside, self._slots(X, self._radix, self._width), 0)
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

    def __repr__(self):
        return f"TablePMap(<{len(self.mapping)} entries>)"


@dataclass(frozen=True)
class BasisJacobsonPMap:
    """p-map determined by its values on basis elements of a Lie bracket.

    Extension rule: (a x)^[p] = a**p x^[p] and
    (x + y)^[p] = x^[p] + y^[p] + sum_i s_i(x, y) over the basis expansion in
    index order, compiled into one polynomial (`_jacobson_table`) on small
    brackets.  Only valid on Lie brackets, checked when the map is attached.
    """

    variant = "basisjacobson"

    bracket: str
    values: tuple

    def __post_init__(self):
        _freeze(self, values=tuple(tuple(v) for v in self.values))

    apply = _apply_one_row

    def apply_batch(self, alg: "Algebra", X: np.ndarray) -> np.ndarray:
        """x^[p] = sum_i a_i e_i^[p] + sum_i sum_k s_k(a_i e_i, sum_{j>i} a_j e_j) on the
        rows x = sum_i a_i e_i of X (a**p == a in F_p).  While 2 <= dim and dim**p <
        _JACOBSON_WORDS, a block of rows at a time is [x, mono(x)] [values; G] for the
        compiled table (idx, G) of Algebra.jacobson_table: a float64 gather of the p
        factors, their product reduced mod p, one GEMM.  Past it, one _matmul_mod and
        one jacobson_terms_batch call over every (row, i) with a_i and its tail nonzero."""
        p, d = alg.p, alg.dim
        rest = np.array(X, dtype=np.int64) % p
        values = np.array(self.values, dtype=np.int64).reshape(d, d)
        if d >= 2 and d ** min(p, 64) < _JACOBSON_WORDS:
            idx, G = alg.jacobson_table(self.bracket)
            xf = rest.astype(np.float64)
            coeffs, chunk = np.concatenate([values, G]), max(1, _BLOCK_ENTRIES // idx.size)
            for lo in range(0, len(xf), chunk):
                x = xf[lo:lo + chunk]
                # p factors below p: (p-1)**p < 2**53, as p <= 11 under the cut
                mono = _float_mod(x[:, idx.T].prod(axis=1), p)
                rest[lo:lo + chunk] = _matmul_mod(np.concatenate([x, mono], axis=1), coeffs, p)
            return rest
        nz = rest != 0
        tail = np.zeros_like(nz)  # tail[n, i]: some coordinate of row n past i is nonzero
        tail[:, :-1] = np.logical_or.accumulate(nz[:, :0:-1], axis=1)[:, ::-1]
        rows, cols = np.nonzero(nz & tail)
        at = np.arange(d) - cols[:, None]  # 0 at the pair's coordinate i, > 0 past it
        terms = jacobson_terms_batch(p, np.where(at == 0, rest[rows], 0),
                                     np.where(at > 0, rest[rows], 0), alg.right_ops(self.bracket))
        out = _matmul_mod(rest, values, p)
        np.add.at(out, rows, sum(terms))
        return out % p

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


@dataclass(frozen=True, eq=False, repr=False)
class Algebra:
    """Immutable structure-constant algebra over F_p.  `ops` and `pmaps` are
    read-only mappings of names to reduced read-only tensors and to p-maps.
    `reports` holds the passing reports of the checks its construction ran
    on its own ops, in the order they ran; it is empty unless a verified
    construction made this very object."""

    p: int
    dim: int
    ops: Mapping
    pmaps: Mapping = None
    label: str = ""
    reports: tuple = field(default=(), init=False)

    def __post_init__(self):
        p, dim = validate_prime(self.p), self.dim
        if not isinstance(dim, int) or dim < 0:
            raise UsageError(f"dim must be a nonnegative int, got {dim!r}")
        _check_modulus_bound(p, dim)
        ops = {}
        for name, tensor in self.ops.items():
            if not name:
                raise UsageError("empty op name")
            t = np.asarray(tensor, dtype=np.int64)
            if t.shape != (dim, dim, dim):
                raise UsageError(f"op {name!r} has shape {t.shape}, expected {(dim, dim, dim)}")
            # kept if sealed and reduced (a negative reads as >= 2**63 in uint64)
            if not _sealed(t) or t.size and not (
                    int(np.maximum.reduce(t.view(np.uint64), axis=None)) < p):
                t = _seal(t % p)
            ops[name] = t
        _freeze(self, ops=MappingProxyType(ops),
                pmaps=MappingProxyType(dict(self.pmaps or {})), _tables={})
        for name, pm in self.pmaps.items():
            if not name:
                raise UsageError("empty pmap name")
            pm.validate(self)

    # -- carrier ----------------------------------------------------------

    @property
    def op_names(self):
        return tuple(sorted(self.ops))

    def structure(self, op: str) -> np.ndarray:
        try:
            return self.ops[op]
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
        """Row-wise products x * y = r_y x of two (N, dim) coefficient arrays."""
        R = self.right_mult_stack(op, Y)
        return _matmul_mod(R, (X % self.p)[..., None], self.p)[..., 0]

    def right_power_batch(self, op: str, X: np.ndarray, n: int) -> np.ndarray:
        """Row-wise n-fold right powers r_x**(n-1) x, n >= 1, of an (N, dim) array, per _blocks
        block: n - 1 int64 mat-vecs, or past _MATVEC_POWERS one by stack_mat_pow's r_x**(n-1)."""
        p, d, V = self.p, self.dim, X % self.p
        block = _blocks(d, d ** 3)[1]
        T = self.right_ops(op).astype(_residue_dtype(d, p, min(len(V), block) * d ** 3), order="C")
        for lo in range(0, len(V) if n > 1 else 0, block):
            v = V[lo:lo + block]
            R, steps = operator_stack(T, v.astype(T.dtype), p).astype(np.int64), n - 1
            if steps > _MATVEC_POWERS:
                R, steps = stack_mat_pow(R, steps, p), 1
            for _ in range(steps):
                v = _matmul_mod(R, v[..., None], p)[..., 0]
            V[lo:lo + block] = v
        return V

    def right_mult_matrix(self, op: str, x: Element) -> np.ndarray:
        """Matrix of y -> y * x; column i is e_i * x."""
        return self._one_row(self.right_mult_stack, op, x)

    def left_mult_matrix(self, op: str, x: Element) -> np.ndarray:
        """Matrix of y -> x * y; column j is x * e_j."""
        return self._one_row(self.left_mult_stack, op, x)

    def right_ops(self, op: str) -> np.ndarray:
        """Read-only (dim, dim, dim) stack of the r_{e_j}: r_x = sum_j x_j right_ops[j]."""
        return self.structure(op).transpose(1, 2, 0)  # [j, k, i] = c_ij^k

    def right_mult_stack(self, op: str, X: np.ndarray) -> np.ndarray:
        """(N, dim, dim) stack of right-multiplication matrices."""
        return operator_stack(self.right_ops(op), X % self.p, self.p)

    def left_mult_stack(self, op: str, X: np.ndarray) -> np.ndarray:
        return operator_stack(self.structure(op).transpose(0, 2, 1), X % self.p, self.p)

    def jacobson_table(self, op: str) -> tuple:
        """_jacobson_table of the named bracket, built on first use and kept,
        read-only, for this algebra and the _with_pmaps copies that share its ops."""
        if op not in self._tables:
            self._tables[op] = _jacobson_table(self.structure(op), self.p)
        return self._tables[op]

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
        """(n, dim) coefficients drawn row by row as rng.randrange(p) would
        draw them one at a time, leaving rng in the same state."""
        return _randrange_array(rng, self.p, n * self.dim).reshape(n, self.dim)

    # -- derived copies ------------------------------------------------------

    def extended(self, ops=None, pmaps=None, label=None) -> "Algebra":
        """New algebra on the same carrier with extra/overridden ops or pmaps."""
        return Algebra(self.p, self.dim, {**self.ops, **(ops or {})},
                       {**self.pmaps, **(pmaps or {})},
                       self.label if label is None else label)

    def _with_pmaps(self, pmaps, reports=()) -> "Algebra":
        """A copy of this algebra carrying exactly `pmaps` and `reports`.  The
        p-maps are not validated again: each must already be known valid on
        these ops, and each report must be of a check run on them."""
        new = copy.copy(self)
        _freeze(new, pmaps=MappingProxyType(dict(pmaps)), reports=tuple(reports))
        return new

    def __repr__(self):
        tag = f" {self.label!r}" if self.label else ""
        return f"Algebra(p={self.p}, dim={self.dim}, ops={list(self.op_names)}{tag})"


def stack_mat_pow(stack: np.ndarray, n: int, p: int) -> np.ndarray:
    """Batched matrix power of a reduced (N, d, d) stack mod p, in the
    stack's dtype; n = 1 returns the stack itself."""
    if n < 0:
        raise UsageError("negative matrix power")
    N, d, _ = stack.shape
    # square and multiply from the lowest set bit: n = 2 costs one matmul
    out, base = None, stack
    while n:
        if n & 1:
            out = base if out is None else _matmul_mod(out, base, p)
        n >>= 1
        if n:
            base = _matmul_mod(base, base, p)
    if out is None:
        return np.broadcast_to(np.eye(d, dtype=stack.dtype), (N, d, d)).copy()
    return out


def jacobson_terms_batch(p: int, X: np.ndarray, Y: np.ndarray, ops: np.ndarray) -> list:
    """s_1..s_{p-1} for every row pair (x, y) of two (N, dim) arrays, each
    as an (N, dim) array: i*s_i is the coefficient of lambda**(i-1) in the
    (p-1)-fold right bracketing of x by (lambda x + y).

    `ops` is the bracket's reduced (dim, dim, dim) right-operator table, laid
    out like Algebra.right_ops: r_v = sum_j v_j ops[j] is u -> [u, v].  Each
    _blocks block of rows, counting the r_y and the r_x stack, builds both
    with one operator_stack; each round then updates the coefficients P_k of
    lambda**k by batched mat-vecs, P'_k = r_y P_k + r_x P_{k-1}, each product
    reduced mod p before the sum, so no entry passes dim*(p-1)**2 + p."""
    N, d = X.shape
    out = [np.zeros((N, d), dtype=np.int64) for _ in range(p - 1)]
    block = max(1, _blocks(d, ops.size)[1] // 2)
    for lo in range(0, N, block):
        x, y = X[lo:lo + block] % p, Y[lo:lo + block] % p
        n = x.shape[0]
        R = operator_stack(ops, np.concatenate([y, x]), p).reshape(2, 1, n, d, d)
        P = x[None]  # P[k] is the coefficient of lambda**k
        for _ in range(p - 1):
            B = _matmul_mod(R, P[None, ..., None], p)[..., 0]  # (2, k, n, d)
            nxt = np.zeros((P.shape[0] + 1, n, d), dtype=np.int64)
            nxt[:-1] += B[0]
            nxt[1:] += B[1]
            P = nxt % p
        for i in range(1, p):
            out[i - 1][lo:lo + n] = (inv_mod(i, p) * P[i - 1]) % p
    return out


def _jacobson_table(c: np.ndarray, p: int) -> tuple:
    """(idx, G), read-only: sum_i sum_k s_k(a_i e_i, sum_{j>i} a_j e_j) = mono(x) G
    for the bracket of a reduced (d, d, d) tensor c, where mono(x) holds, per row
    of the (M, p) array idx, the product of the coordinates that row names.

    The (p-1)-fold right bracketing of a_i e_i by lambda a_i e_i + tail sums,
    over the words w in {i, ..., d-1}**(p-1), (c(w)+1)**-1 a_i a_w1...a_w(p-1)
    [[e_i, e_w1], ..., e_w(p-1)], c(w) the count of i in w; c(w) = p - 1 goes
    with lambda**(p-1), which no s_k takes.  Words of one sorted multiset share a row."""
    d = c.shape[0]
    B = np.eye(d, dtype=np.int64)
    for _ in range(p - 1):  # row (i, w_1, ..., w_t) in C order is [[e_i, e_w1], ..., e_wt]
        B = _matmul_mod(B, c.reshape(d, d * d), p).reshape(-1, d)
    W = np.indices((d,) * p).reshape(p, -1)
    count = (W[1:] == W[0]).sum(axis=0)
    keep = np.flatnonzero((W[1:] >= W[0]).all(axis=0) & (count < p - 1))
    inverse = np.array([0] + [inv_mod(k, p) for k in range(1, p)], dtype=np.int64)
    key = np.ravel_multi_index(np.sort(W[:, keep], axis=0), (d,) * p)
    G = np.zeros((d ** p, d), dtype=np.int64)
    np.add.at(G, key, inverse[count[keep] + 1, None] * B[keep])
    rows = np.flatnonzero(np.bincount(key, minlength=d ** p))
    return _seal(np.stack(np.unravel_index(rows, (d,) * p), axis=1)), _seal(G[rows] % p)


def _basis_triples(ca: np.ndarray, cb: np.ndarray, p: int, form: str) -> np.ndarray:
    """t[i, j, k] = (e_i a e_j) b e_k for form "(xy)z", e_i a (e_j b e_k) for
    "x(yz)": a reduced (n, d, d, d) tensor, one GEMM, where a and b multiply
    by the structure tensors ca (its n rows give i) and cb (d, d, d)."""
    n, d = ca.shape[0], cb.shape[0]
    if form == "(xy)z":
        return _matmul_mod(ca.reshape(n * d, d), cb.reshape(d, d * d), p).reshape(n, d, d, d)
    t = _matmul_mod(cb.reshape(d * d, d), ca.transpose(1, 0, 2).reshape(d, n * d), p)
    return t.reshape(d, d, n, d).transpose(2, 0, 1, 3)


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
    # [[x,y],z] + [[y,z],x] + [[z,x],y] on basis triples
    t1 = _basis_triples(c, c, p, "(xy)z")
    jac = (t1 + t1.transpose(1, 2, 0, 3) + t1.transpose(2, 0, 1, 3)) % p
    bad = np.argwhere(jac.any(axis=3))
    if bad.size:
        i, j, k = (int(v) for v in bad[0])
        return ("jacobi", i, j, k)
    return None
