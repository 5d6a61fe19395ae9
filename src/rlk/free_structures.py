"""Degree-truncated free algebras on monomial bases and exact quotients.

Three monomial families share one sparse carrier class:

- dias: monomials (left word, center letter, right word) with
  (u, a, v) -| (u', a', v') = (u, a, v u' a' v') and
  (u, a, v) |- (u', a', v') = (u a v u', a', v');
- assoc: plain words under concatenation, optionally with the empty word
  as a unit;
- zinbiel: nonempty words under the half-shuffle
  u < v = first(u) . (rest(u) shuffled with v).

Products whose combined degree exceeds the cap return zero and add one to
the ambient's monotone `overflows` count (a cached product counts again);
`check_zinbiel_factorial` reads the count before and after its own products
and reports "inconclusive" rather than "pass" whenever it moved, and `ud_p`
notes when building its relations moved it.  Elements are sparse
{basis index: coefficient} dicts over F_p.

`truncated_ideal_quotient` closes a relation list under all degree-one
multiplications (which generate every sandwich for words and dialgebras;
half-shuffle monomials also take right products by longer monomials, see
its docstring) through lazily filled per-multiplier product tables,
row-reduces exactly over F_p (new pivot rows from `RowReducer.insert` join
the closure's frontier), and returns the surviving monomial basis with the
fully reduced ideal rows and an idempotent projection.
`ud_p` instantiates the enveloping-diassociative quotient on top of it,
through the envelope front end it shares with `envelope.ulp_truncated`
(ambient, gate, p-map instances, relation rows, quotient); `das_quotient`
the one-generator quotient by -| = |-.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter, deque
from dataclasses import dataclass, field
from functools import lru_cache
from types import MappingProxyType

import numpy as np

from .algebra_core import DENSE_DIM_BOUND, Algebra
from .errors import UsageError
from .identities import (
    _AXIOMS,
    CheckReport,
    Coverage,
    Witness,
    _bracketing,
    _grid,
    _keep,
    _report,
    _require,
    _restricted_leibniz,
)
from .linalg import RowReducer
from .scalars import _freeze, _seal, validate_prime

BASIS_SIZE_BOUND = 20000

_KIND_OPS = {
    "dias": ("left", "right"),
    "assoc": ("concat",),
    "zinbiel": ("zinbiel",),
}


@lru_cache(maxsize=None)
def _shuffle(u: tuple, v: tuple) -> tuple:
    """All interleavings of u and v with multiplicities, as ((word, mult), ...)."""
    if not u:
        return ((v, 1),)
    if not v:
        return ((u, 1),)
    out = {}
    for w, m in _shuffle(u[1:], v):
        key = (u[0],) + w
        out[key] = out.get(key, 0) + m
    for w, m in _shuffle(u, v[1:]):
        key = (v[0],) + w
        out[key] = out.get(key, 0) + m
    return tuple(sorted(out.items()))


def _mono_degree(kind: str, mono) -> int:
    if kind == "dias":
        left, _center, right = mono
        return len(left) + 1 + len(right)
    return len(mono)


def basis_size(kind: str, ngen: int, degree_cap: int, unital: bool = False) -> int:
    """Monomial count in closed form (sum of n * ngen**n for dias, of ngen**n
    for words, from n = 0 when unital); UsageError at the first degree whose
    running total passes BASIS_SIZE_BOUND, so no huge count is ever formed."""
    size = 0
    for n in range(0 if unital else 1, (degree_cap if ngen else 0) + 1):
        size += (n if kind == "dias" else 1) * ngen ** n
        if size > BASIS_SIZE_BOUND:
            raise UsageError(
                f"{size} monomials up to degree {n} exceed bound {BASIS_SIZE_BOUND}"
            )
    return size


class GradedBasisAlgebra:
    """Sparse algebra on all monomials of degree <= degree_cap."""

    def __init__(self, kind: str, ngen: int, degree_cap: int, p: int,
                 unital: bool = False, label: str = ""):
        if kind not in _KIND_OPS:
            raise UsageError(f"unknown monomial family {kind!r}")
        if ngen < 0:
            raise UsageError(f"generator count must be >= 0, got {ngen}")
        if degree_cap < 1:
            raise UsageError(f"degree cap must be >= 1, got {degree_cap}")
        if unital and kind != "assoc":
            raise UsageError("only word algebras can adjoin a unit")
        validate_prime(p)
        self.kind = kind
        self.ngen = ngen
        self.degree_cap = degree_cap
        self.p = p
        self.unital = unital
        self.label = label
        self.overflows = 0  # products truncated by the cap, cache hits included
        basis_size(kind, ngen, degree_cap, unital)
        self.basis = tuple(self._enumerate_basis())
        self.index = {m: i for i, m in enumerate(self.basis)}
        self.degrees = tuple(_mono_degree(kind, m) for m in self.basis)
        self._product_cache = {}

    # -- basis ------------------------------------------------------------

    def _enumerate_basis(self):
        g = self.ngen
        d = self.degree_cap if g else 0
        if self.kind == "dias":
            for n in range(1, d + 1):
                for k in range(n):
                    for left in itertools.product(range(g), repeat=k):
                        for center in range(g):
                            for right in itertools.product(range(g), repeat=n - 1 - k):
                                yield (left, center, right)
        else:
            start = 0 if self.unital else 1
            for n in range(start, d + 1):
                yield from itertools.product(range(g), repeat=n)

    @property
    def dim(self) -> int:
        return len(self.basis)

    @property
    def op_names(self):
        return _KIND_OPS[self.kind]

    def dims_by_degree(self) -> dict:
        return dict(Counter(self.degrees))

    def generator_index(self, i: int) -> int:
        if not 0 <= i < self.ngen:
            raise UsageError(f"generator {i} out of range for {self.ngen}")
        mono = ((), i, ()) if self.kind == "dias" else (i,)
        return self.index[mono]

    # -- elements ---------------------------------------------------------

    def zero(self) -> dict:
        return {}

    def basis_elt(self, i: int) -> dict:
        return {i: 1}

    def generator(self, i: int) -> dict:
        return {self.generator_index(i): 1}

    def add(self, x: dict, y: dict) -> dict:
        out = dict(x)
        for i, c in y.items():
            v = (out.get(i, 0) + c) % self.p
            if v:
                out[i] = v
            else:
                out.pop(i, None)
        return out

    def sub(self, x: dict, y: dict) -> dict:
        return self.add(x, {i: (-c) % self.p for i, c in y.items()})

    def scale(self, a: int, x: dict) -> dict:
        a %= self.p
        return {i: (a * c) % self.p for i, c in x.items() if (a * c) % self.p}

    def dense(self, x: dict) -> np.ndarray:
        v = np.zeros(self.dim, dtype=np.int64 if self.p < 1 << 63 else np.uint64)
        for i, c in x.items():
            v[i] = c % self.p
        return v

    def from_dense(self, v) -> dict:
        return {i: int(c) % self.p for i, c in enumerate(v) if int(c) % self.p}

    # -- products -----------------------------------------------------------

    def mono_product(self, op: str, i: int, j: int):
        """Product of basis monomials as ((index, coeff), ...); () on overflow."""
        key = (op, i, j)
        hit = self._product_cache.get(key)
        if hit is not None:
            if hit == () and self.degrees[i] + self.degrees[j] > self.degree_cap:
                self.overflows += 1
            return hit
        if op not in self.op_names:
            raise UsageError(f"unknown op {op!r} for {self.kind} monomials")
        over = self.degrees[i] + self.degrees[j] > self.degree_cap
        self.overflows += over
        out = self._product_cache[key] = () if over else self._mono_terms(op, i, j)
        return out

    def _mono_terms(self, op: str, i: int, j: int) -> tuple:
        """The monomial product rule, for a valid op within the cap; uncached, uncounted."""
        mi, mj = self.basis[i], self.basis[j]
        if self.kind == "dias":
            ul, uc, ur = mi
            vl, vc, vr = mj
            if op == "left":
                mono = (ul, uc, ur + vl + (vc,) + vr)
            else:
                mono = (ul + (uc,) + ur + vl, vc, vr)
            return ((self.index[mono], 1),)
        if self.kind == "assoc":
            return ((self.index[mi + mj], 1),)
        head, tail = mi[0], mi[1:]
        terms = {}
        for w, m in _shuffle(tail, mj):
            c = m % self.p
            if c:
                terms[self.index[(head,) + w]] = c
        return tuple(sorted(terms.items()))

    def product(self, op: str, x: dict, y: dict) -> dict:
        out = {}
        for i, ci in x.items():
            for j, cj in y.items():
                for k, m in self.mono_product(op, i, j):
                    v = (out.get(k, 0) + ci * cj * m) % self.p
                    if v:
                        out[k] = v
                    else:
                        out.pop(k, None)
        return out

    def power(self, op: str, x: dict, n: int) -> dict:
        if n < 1:
            raise UsageError(f"power must be >= 1, got {n}")
        v = x
        for _ in range(n - 1):
            if not v:  # 0 * x is 0 and touches no product, so no overflow either
                break
            v = self.product(op, v, x)
        return v

    # -- conversions -----------------------------------------------------------

    def to_algebra(self) -> Algebra:
        """Dense structure-constant copy (dimensions up to DENSE_DIM_BOUND)."""
        if self.dim > DENSE_DIM_BOUND:
            raise UsageError(f"dim {self.dim} exceeds dense bound {DENSE_DIM_BOUND}")
        ops = {}
        for op in self.op_names:
            c = np.zeros((self.dim, self.dim, self.dim), dtype=np.int64)
            for i in range(self.dim):
                for j in range(self.dim):
                    for k, m in self.mono_product(op, i, j):
                        c[i, j, k] = m
            ops[op] = c
        return Algebra(self.p, self.dim, ops, label=self.label)

    def __repr__(self):
        tag = f" {self.label!r}" if self.label else ""
        return (
            f"GradedBasisAlgebra({self.kind}, ngen={self.ngen}, "
            f"cap={self.degree_cap}, p={self.p}, dim={self.dim}{tag})"
        )


def free_dias(ngen: int, degree_cap: int, p: int) -> GradedBasisAlgebra:
    """Free diassociative algebra truncated above degree_cap."""
    return GradedBasisAlgebra(
        "dias", ngen, degree_cap, p, label=f"free_dias({ngen},{degree_cap})/F{p}"
    )


def free_zinbiel(ngen: int, degree_cap: int, p: int) -> GradedBasisAlgebra:
    """Free half-shuffle algebra truncated above degree_cap."""
    return GradedBasisAlgebra(
        "zinbiel", ngen, degree_cap, p, label=f"free_zinbiel({ngen},{degree_cap})/F{p}"
    )


def word_ambient(ngen: int, degree_cap: int, p: int, unital: bool = True,
                 label: str = "") -> GradedBasisAlgebra:
    """Free associative words, with the empty word as unit by default."""
    return GradedBasisAlgebra("assoc", ngen, degree_cap, p, unital=unital,
                              label=label or f"words({ngen},{degree_cap})/F{p}")


# -- in-range axiom sweeps ---------------------------------------------------------


def _inrange_triples(F: GradedBasisAlgebra):
    d = F.degree_cap
    by_deg = {}
    for i, deg in enumerate(F.degrees):
        by_deg.setdefault(deg, []).append(i)
    degs = sorted(by_deg)
    for a in degs:
        for b in degs:
            for c in degs:
                if a + b + c > d:
                    continue
                yield from itertools.product(by_deg[a], by_deg[b], by_deg[c])


def _inrange_sweep(F: GradedBasisAlgebra, kind: str, ops: dict) -> CheckReport:
    """Every axiom of identities._AXIOMS[kind], with `ops` mapping roles to
    product names, on every basis triple whose total degree fits the cap
    (larger triples only constrain truncated-away components); a failing
    triple (i, j, k) is keyed (axiom name, i, j, k), or (i, j, k) when the
    identity has one axiom."""
    if F.kind != kind:
        raise UsageError(f"expected {kind} monomials, got {F.kind}")
    axioms = _AXIOMS[kind]

    def mul(role, u, v):
        return F.product(ops[role], u, v)

    def side(terms, xyz):
        total = {}
        for sign, form, pair in terms:
            t = _bracketing(mul, form, pair, xyz)
            total = F.add(total, t) if sign > 0 else F.sub(total, t)
        return total

    witnesses, failures, count = [], 0, 0
    # no overflow to count: no bracketing of a triple with a + b + c <= cap overflows
    for i, j, k in _inrange_triples(F):
        xyz = (F.basis_elt(i), F.basis_elt(j), F.basis_elt(k))
        count += 1
        for name, lhs_terms, rhs_terms in axioms:
            lhs, rhs = side(lhs_terms, xyz), side(rhs_terms, xyz)
            if lhs != rhs:
                key = (name,) if len(axioms) > 1 else ()
                failures += _keep(witnesses, [key + (i, j, k)], lambda *inputs: Witness(
                    inputs, sorted(lhs.items()), sorted(rhs.items())))
    return _report(kind, witnesses, failures,
                   Coverage("exhaustive", len(axioms) * count),
                   ("in-range basis triples only",))


def check_dias_free(F: GradedBasisAlgebra) -> CheckReport:
    """The five diassociative axioms on in-range basis triples."""
    return _inrange_sweep(F, "dias", {"l": "left", "r": "right"})


def check_zinbiel_free(F: GradedBasisAlgebra) -> CheckReport:
    """(a<b)<c = a<(b<c) + a<(c<b) on in-range basis triples."""
    return _inrange_sweep(F, "zinbiel", {"o": "zinbiel"})


def check_zinbiel_factorial(F: GradedBasisAlgebra, a: dict, b: dict,
                            n: int) -> CheckReport:
    """Left-iterated (..(a<b)<b..)<b with n factors equals n! a<(b<(..<b)), so
    it vanishes from n = p on, where n! is 0 mod p."""
    if n < 1:
        raise UsageError(f"power must be >= 1, got {n}")
    op, before = "zinbiel", F.overflows
    lhs = F.product(op, a, b)
    for _ in range(n - 1):
        lhs = F.product(op, lhs, b)
    nest = b
    for _ in range(n - 1):
        nest = F.product(op, b, nest)
    rhs = F.scale(math.factorial(n) % F.p, F.product(op, a, nest))
    if F.overflows != before:
        return _report(
            "zinbiel_factorial", [], 0, Coverage("exhaustive", 1),
            (f"truncation above degree {F.degree_cap} touched the inputs",),
            inconclusive=True,
        )
    witnesses = [] if lhs == rhs else [
        Witness(("fold", n), sorted(lhs.items()), sorted(rhs.items()))]
    return _report("zinbiel_factorial", witnesses, len(witnesses), Coverage("exhaustive", 1))


# -- truncated ideal quotients --------------------------------------------------------


@dataclass(frozen=True, eq=False)
class QuotientPresentation:
    """F divided by an ideal: the normal-form basis indices of F, the read-only
    idempotent projection onto their span and the relation rows, both in the
    narrowest unsigned dtype that holds p - 1 (cast before doing arithmetic with
    them), and the fully reduced ideal rows, pivot column -> {column: coeff}."""

    ambient: GradedBasisAlgebra
    relations: tuple
    normal_indices: tuple
    projection: np.ndarray
    ideal_rank: int
    reduced_rows: MappingProxyType = field(repr=False)
    notes: tuple = ()

    def __post_init__(self):
        _freeze(self, projection=np.asarray(self.projection), reduced_rows=MappingProxyType(
            {c: MappingProxyType(dict(row)) for c, row in self.reduced_rows.items()}))

    @property
    def dimension(self) -> int:
        return len(self.normal_indices)

    @property
    def normal_basis(self) -> tuple:
        return tuple(self.ambient.basis[i] for i in self.normal_indices)

    def degree_table(self) -> dict:
        return dict(Counter(self.ambient.degrees[i] for i in self.normal_indices))

    def project(self, x) -> np.ndarray:
        """Canonical representative (ambient coordinates on the normal basis): x minus
        x_c times the reduced row of each pivot c, one pass over the support of x in
        Python ints mod p; int64, or uint64 past p = 2**63."""
        p, rows, out = self.ambient.p, self.reduced_rows, [0] * self.ambient.dim
        for j, c in x.items() if isinstance(x, dict) else enumerate(x.tolist()):
            c = int(c) % p
            out[j] += c
            if c and j in rows:
                for k, a in rows[j].items():
                    out[k] -= c * a
        return np.array([c % p for c in out], dtype=np.int64 if p < 1 << 63 else np.uint64)

    def to_dict(self) -> dict:
        return {
            "ambient_dim": self.ambient.dim,
            "dimension": self.dimension,
            "ideal_rank": self.ideal_rank,
            "degree_table": {str(k): v for k, v in sorted(self.degree_table().items())},
            "normal_basis": [str(m) for m in self.normal_basis],
            "notes": list(self.notes),
        }


def truncated_ideal_quotient(F: GradedBasisAlgebra, relations,
                             notes=()) -> QuotientPresentation:
    """Quotient of F by the two-sided truncated ideal of the relations.

    The span is closed under multiplication by degree-one monomials on both
    sides of every product.  For words and dialgebras the compatibility
    axioms reduce arbitrary sandwiches to such compositions, so the closure
    is the full truncated ideal.  Half-shuffles give L_{a<b} = L_a (L_b + R_b),
    but of the right products only R_c R_b = R_{b<c} + R_{c<b}, so there the
    span is also closed under R_m for every monomial m below the cap's degree
    (x < (y < z) is in the ideal of x).  A frontier row x is multiplied, for
    each op and multiplier m, as m x or x m, through a table per (op, m, side)
    of the terms of m j (or j m), filled by _mono_terms when basis index j is
    first reached; each term of x whose degree plus m's passes the cap
    overflows once per table.
    """
    p, dim = F.p, F.dim
    rr = RowReducer(p, dim)
    frontier = deque()
    rels = [r if isinstance(r, dict) else F.from_dense(r) for r in relations]
    for v in rels:
        if row := rr.add(v):
            frontier.append(row)
    cap, degrees, overflows = F.degree_cap, F.degrees, 0
    gens = list(map(F.generator_index, range(F.ngen)))
    # (room, tables): a table (op, m, left side?, j -> terms of m op j or j op m) serves
    # the terms j of degree at most room, the most for which m j and j m fit the cap
    rooms = [(cap - 1, [(op, g, left, {}) for op in F.op_names for g in gens
                        for left in (True, False)])]
    if F.kind == "zinbiel":
        rooms += [(cap - k, [(op, m, False, {}) for op in F.op_names for m in range(dim)
                             if degrees[m] == k]) for k in range(2, cap)]
    while frontier:
        x = frontier.popleft()
        for room, group in rooms:
            inside = [(j, c) for j, c in x.items() if degrees[j] <= room]
            overflows += (len(x) - len(inside)) * len(group)
            for op, m, left, table in group if inside else ():
                prod = {}
                for j, c in inside:
                    terms = table.get(j)
                    if terms is None:
                        terms = table[j] = (F._mono_terms(op, m, j) if left
                                            else F._mono_terms(op, j, m))
                    for k, t in terms:
                        prod[k] = prod.get(k, 0) + c * t
                prod = {k: v % p for k, v in prod.items() if v % p}
                if prod and (row := rr.insert(prod)):
                    frontier.append(row)
    F.overflows += overflows
    rows, dtype = rr.reduced_rows(), np.min_scalar_type(p - 1)
    normal = tuple(i for i in range(dim) if i not in rows)
    R = np.zeros((len(rels), dim), dtype)
    for i, v in enumerate(rels):
        for k, c in v.items():
            R[i, k] = int(c) % p
    projection = np.zeros((dim, dim), dtype)
    projection[list(normal), list(normal)] = 1
    for pc, row in rows.items():
        for k, c in row.items():
            if k != pc:
                projection[k, pc] = -c % p
    return QuotientPresentation(F, tuple(_seal(R)), normal, _seal(projection), rr.rank,
                                rows, tuple(notes))


# -- enveloping diassociative quotient -------------------------------------------------


def _hat(F: GradedBasisAlgebra, x) -> dict:
    return {F.generator_index(i): c % F.p for i, c in enumerate(x) if c % F.p}


def _pmap_instances(g: Algebra, pmap: str, cap, seed, samples, gate=None):
    """Element rows X for p-power relations: everything if enumerable, else
    basis vectors plus a seeded sample (p-maps are not linear); returned with
    their p-map values PX, from one batch call, and a note.  A restricted
    gate's (report, grid, values) with exhaustive coverage is used as it is."""
    swept = gate is not None and gate[0].coverage.kind == "exhaustive"
    X, coverage = (gate[1], gate[0].coverage) if swept else _grid(g, cap, seed, samples)
    if coverage.kind == "exhaustive":
        note = f"p-relations on all {g.element_count()} elements"
    else:
        basis = sorted(g.basis(i) for i in range(g.dim))
        rows = list(dict.fromkeys(basis + [tuple(x) for x in X.tolist()]))
        X = np.array(rows, dtype=np.int64).reshape(len(rows), g.dim)
        note = f"p-relations sampled on {len(rows)} elements (seed {seed})"
    PX = gate[2] if swept else g.apply_pmap_batch(pmap, X)
    return X, PX, note


def _ud_relations(g: Algebra, F: GradedBasisAlgebra, X, PX):
    """ud_p's generators as sparse rows of F: embedded bracket values minus the derived
    brackets e_i -| e_j - e_j |- e_i on basis pairs, then embedded p-map values PX
    minus p-fold |- powers on the rows of X."""
    brackets = g.structure("bracket").tolist()
    for i, j in itertools.product(range(g.dim), repeat=2):
        gi, gj = F.generator(i), F.generator(j)
        yield F.sub(_hat(F, brackets[i][j]),
                    F.sub(F.product("left", gi, gj), F.product("right", gj, gi)))
    for x, fx in zip(X.tolist(), PX.tolist()):
        xh = _hat(F, x)
        yield F.sub(_hat(F, fx), F.power("right", xh, g.p) if xh else F.zero())


def _envelope_quotient(F: GradedBasisAlgebra, g: Algebra, pmap: str, cap, seed, samples,
                       relations, notes=()) -> QuotientPresentation:
    """The envelope front end of ud_p and ulp_truncated, past their fresh ambient F, which
    they build first so an oversized one is refused before the sweep: the restricted
    Leibniz gate, the _pmap_instances rows, and F divided by the nonzero rows of
    relations(g, F, X, PX).  Its notes are `notes`, the instances' note and, when
    building the relations overflowed F, the truncation note."""
    gate = _restricted_leibniz(g, pmap, cap, seed)
    _require(gate[0], "input is not restricted Leibniz")
    X, PX, note = _pmap_instances(g, pmap, cap, seed, samples, gate)
    rels = [rel for rel in relations(g, F, X, PX) if rel]
    notes += (note,)
    if F.overflows:  # F is fresh, so every overflow is the relations'
        notes += (f"truncation above degree {F.degree_cap} touched the relations",)
    return truncated_ideal_quotient(F, rels, notes=notes)


def ud_p(g: Algebra, pmap: str = "frobenius", d: int = 3, cap=None, seed: int = 0,
         samples: int = 64) -> QuotientPresentation:
    """Enveloping diassociative quotient of the free dialgebra on g's basis.

    Relations: embedded bracket values minus derived brackets on basis pairs,
    and embedded p-map values minus p-fold |- powers on the instantiated
    element set.  A note says when the cap d cut one of them (d < max(p, 2)).
    """
    return _envelope_quotient(free_dias(g.dim, d, g.p), g, pmap, cap, seed, samples,
                              _ud_relations)


# -- both-products-identified quotient --------------------------------------------------


def das_quotient(F: GradedBasisAlgebra) -> QuotientPresentation:
    """Quotient of a one-generator free dialgebra by -| = |-: the relations are
    u -| v - u |- v on every pair of basis monomials, so every mixed power of the
    generator has the image of its plain power, and the quotient is the truncated
    polynomials on it."""
    if F.kind != "dias":
        raise UsageError(f"expected dias monomials, got {F.kind}")
    if F.ngen != 1:
        raise UsageError(f"expected one generator, got {F.ngen}")
    e = F.basis_elt
    rels = [rel for i, j in itertools.product(range(F.dim), repeat=2)
            if (rel := F.sub(F.product("left", e(i), e(j)), F.product("right", e(i), e(j))))]
    return truncated_ideal_quotient(F, rels, notes=("identify -| with |-",))
