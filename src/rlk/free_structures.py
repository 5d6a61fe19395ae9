"""Degree-truncated free algebras on monomial bases and exact quotients.

Three monomial families share one sparse carrier class:

- dias: monomials (left word, center letter, right word) with
  (u, a, v) -| (u', a', v') = (u, a, v u' a' v') and
  (u, a, v) |- (u', a', v') = (u a v u', a', v');
- assoc: plain words under concatenation, optionally with the empty word
  as a unit;
- zinbiel: nonempty words under the half-shuffle
  u < v = first(u) . (rest(u) shuffled with v).

Products whose combined degree exceeds the cap return zero and set a sticky
overflow flag; checks probe the flag and report "inconclusive" rather than
"pass" whenever truncation touched their inputs.  Elements are sparse
{basis index: coefficient} dicts over F_p.

`truncated_ideal_quotient` spans the two-sided ideal of a relation list by
closing under all degree-one multiplications (the compatibility axioms make
those generate every sandwich), row-reduces exactly over F_p, and returns
the surviving monomial basis with an idempotent projection.  `ud_p` and
`das_quotient` instantiate the enveloping-diassociative and
both-products-identified quotients on top of it.
"""

from __future__ import annotations

import itertools
import math
import random
from collections import Counter, deque
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .algebra_core import DENSE_DIM_BOUND, Algebra, _tup
from .errors import UsageError
from .identities import (
    _AXIOMS,
    CheckReport,
    Coverage,
    WITNESS_LIMIT,
    Witness,
    _bracketing,
    _keep,
    _report,
    _require,
    check_restricted_leibniz,
)
from .linalg import RowReducer
from .scalars import validate_prime

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
        self.overflow = False
        basis_size(kind, ngen, degree_cap, unital)
        self.basis = list(self._enumerate_basis())
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
        v = np.zeros(self.dim, dtype=np.int64)
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
                self.overflow = True
            return hit
        if op not in self.op_names:
            raise UsageError(f"unknown op {op!r} for {self.kind} monomials")
        mi, mj = self.basis[i], self.basis[j]
        if self.degrees[i] + self.degrees[j] > self.degree_cap:
            self.overflow = True
            self._product_cache[key] = ()
            return ()
        if self.kind == "dias":
            ul, uc, ur = mi
            vl, vc, vr = mj
            if op == "left":
                mono = (ul, uc, ur + vl + (vc,) + vr)
            else:
                mono = (ul + (uc,) + ur + vl, vc, vr)
            out = ((self.index[mono], 1),)
        elif self.kind == "assoc":
            out = ((self.index[mi + mj], 1),)
        else:
            head, tail = mi[0], mi[1:]
            terms = {}
            for w, m in _shuffle(tail, mj):
                c = m % self.p
                if c:
                    terms[self.index[(head,) + w]] = c
            out = tuple(sorted(terms.items()))
        self._product_cache[key] = out
        return out

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


class OverflowProbe:
    """Scoped view of the sticky overflow flag.

    Inside the scope the flag starts clear so `triggered` reflects only the
    guarded computation; on exit the sticky flag keeps any prior state.
    """

    def __init__(self, F: GradedBasisAlgebra):
        self.F = F
        self.triggered = False

    def __enter__(self):
        self._prior = self.F.overflow
        self.F.overflow = False
        return self

    def __exit__(self, *exc):
        self.triggered = self.F.overflow
        self.F.overflow = self.F.overflow or self._prior
        return False


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
    with OverflowProbe(F) as probe:
        for i, j, k in _inrange_triples(F):
            xyz = (F.basis_elt(i), F.basis_elt(j), F.basis_elt(k))
            count += 1
            for name, lhs_terms, rhs_terms in axioms:
                lhs, rhs = side(lhs_terms, xyz), side(rhs_terms, xyz)
                if lhs != rhs:
                    failures += 1
                    if len(witnesses) < WITNESS_LIMIT:
                        key = (name,) if len(axioms) > 1 else ()
                        witnesses.append(Witness(key + (i, j, k), sorted(lhs.items()),
                                                 sorted(rhs.items())))
    notes = ("in-range basis triples only",)
    if probe.triggered:
        notes += ("overflow during sweep",)
    return _report(kind, witnesses, failures,
                   Coverage("exhaustive", len(axioms) * count), notes,
                   inconclusive=probe.triggered)


def check_dias_free(F: GradedBasisAlgebra) -> CheckReport:
    """The five diassociative axioms on in-range basis triples."""
    return _inrange_sweep(F, "dias", {"l": "left", "r": "right"})


def check_zinbiel_free(F: GradedBasisAlgebra) -> CheckReport:
    """(a<b)<c = a<(b<c) + a<(c<b) on in-range basis triples."""
    return _inrange_sweep(F, "zinbiel", {"o": "zinbiel"})


def check_zinbiel_factorial(F: GradedBasisAlgebra, a: dict, b: dict,
                            n: int) -> CheckReport:
    """Left-iterated (..(a<b)<b..)<b with n factors equals n! a<(b<(..<b)),
    and vanishes outright when n equals the characteristic."""
    if n < 1:
        raise UsageError(f"power must be >= 1, got {n}")
    op = "zinbiel"
    with OverflowProbe(F) as probe:
        lhs = F.product(op, a, b)
        for _ in range(n - 1):
            lhs = F.product(op, lhs, b)
        nest = b
        for _ in range(n - 1):
            nest = F.product(op, b, nest)
        rhs = F.scale(math.factorial(n) % F.p, F.product(op, a, nest))
    witnesses, failures = [], 0
    if probe.triggered:
        return _report(
            "zinbiel_factorial", [], 0, Coverage("exhaustive", 1),
            (f"truncation above degree {F.degree_cap} touched the inputs",),
            inconclusive=True,
        )
    if lhs != rhs:
        failures += 1
        witnesses.append(Witness(("fold", n), sorted(lhs.items()), sorted(rhs.items())))
    if n % F.p == 0 and lhs:
        failures += 1
        witnesses.append(Witness(("vanishing", n), sorted(lhs.items()), []))
    return _report("zinbiel_factorial", witnesses, failures, Coverage("exhaustive", 1))


# -- truncated ideal quotients --------------------------------------------------------


@dataclass
class QuotientPresentation:
    ambient: GradedBasisAlgebra
    relations: tuple
    normal_indices: tuple
    projection: np.ndarray
    ideal_rank: int
    notes: tuple = ()

    @property
    def dimension(self) -> int:
        return len(self.normal_indices)

    @property
    def normal_basis(self) -> tuple:
        return tuple(self.ambient.basis[i] for i in self.normal_indices)

    def degree_table(self) -> dict:
        return dict(Counter(self.ambient.degrees[i] for i in self.normal_indices))

    def project(self, x) -> np.ndarray:
        """Canonical representative (ambient coordinates on the normal basis)."""
        v = x if isinstance(x, np.ndarray) else self.ambient.dense(x)
        return (self.projection @ (v % self.ambient.p)) % self.ambient.p

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
    sides of every product; the compatibility axioms of each monomial family
    reduce arbitrary sandwiches to such compositions, so the closure is the
    full truncated ideal.
    """
    p, dim = F.p, F.dim
    rr = RowReducer(p, dim)
    frontier = deque()
    dense_rels = []
    for r in relations:
        v = r if isinstance(r, dict) else F.from_dense(r)
        dense_rels.append(tuple(F.dense(v).tolist()))
        if rr.add(v):
            frontier.append(rr.rows[-1])
    gens = [F.generator(i) for i in range(F.ngen)]
    while frontier:
        x = frontier.popleft()
        for op in F.op_names:
            for g in gens:
                for prod in (F.product(op, g, x), F.product(op, x, g)):
                    if prod and rr.add(prod):
                        frontier.append(rr.rows[-1])
    normal = tuple(i for i in range(dim) if i not in rr.pivot_of_col)
    projection = np.eye(dim, dtype=np.int64)
    for pc, row in rr.reduced_rows().items():
        for k, c in row.items():
            projection[k, pc] = -c % p
        projection[pc, pc] = 0
    return QuotientPresentation(
        F, tuple(dense_rels), normal, projection, rr.rank, tuple(notes)
    )


# -- enveloping diassociative quotient -------------------------------------------------


def _hat(F: GradedBasisAlgebra, x) -> dict:
    return {F.generator_index(i): c % F.p for i, c in enumerate(x) if c % F.p}


def _pmap_instances(g: Algebra, pmap: str, cap, seed, samples):
    """Element set for p-power relations: everything if enumerable, else
    basis vectors plus a seeded sample (p-maps are not linear); returned with
    the p-map values of those elements, from one batch call, and a note."""
    if g.can_enumerate(cap):
        out = g.elements_array(cap).tolist()
        note = f"p-relations on all {g.element_count()} elements"
    else:
        rng = random.Random(seed)
        seen = {tuple(g.basis(i)) for i in range(g.dim)}
        out = list(sorted(seen))
        for _ in range(samples):
            x = tuple(rng.randrange(g.p) for _ in range(g.dim))
            if x not in seen:
                seen.add(x)
                out.append(x)
        note = f"p-relations sampled on {len(out)} elements (seed {seed})"
    X = np.array(out, dtype=np.int64).reshape(len(out), g.dim)
    return out, g.apply_pmap_batch(pmap, X).tolist(), note


def _ud_pairs(F: GradedBasisAlgebra, g: Algebra, pmap, cap, seed, samples):
    """(key, embedded value, its image under the derived operations) for the
    bracket on basis pairs and the p-map on the instantiated elements, and
    the note saying which elements those are."""
    brackets = g.structure("bracket").tolist()
    pairs = []
    for i in range(g.dim):
        gi = F.generator(i)
        for j in range(g.dim):
            gj = F.generator(j)
            pairs.append((("bracket", i, j), _hat(F, brackets[i][j]),
                          F.sub(F.product("left", gi, gj), F.product("right", gj, gi))))
    instances, values, note = _pmap_instances(g, pmap, cap, seed, samples)
    for x, fx in zip(instances, values):
        xh = _hat(F, x)
        pairs.append((("pmap", tuple(x)), _hat(F, fx),
                      F.power("right", xh, g.p) if xh else F.zero()))
    return pairs, note


def _ud_presentation(g: Algebra, pmap: str, d: int, cap, seed, samples):
    """ud_p's presentation, the relation pairs of _ud_pairs it divides out,
    and whether truncation touched the build of those pairs."""
    _require(check_restricted_leibniz(g, pmap, cap=cap, seed=seed),
             "input is not restricted Leibniz")
    F = free_dias(g.dim, d, g.p)
    with OverflowProbe(F) as probe:
        pairs, note = _ud_pairs(F, g, pmap, cap, seed, samples)
    rels = [rel for _key, target, image in pairs if (rel := F.sub(target, image))]
    return truncated_ideal_quotient(F, rels, notes=(note,)), pairs, probe.triggered


def ud_p(g: Algebra, pmap: str = "frobenius", d: int = 3, cap=None, seed: int = 0,
         samples: int = 64) -> QuotientPresentation:
    """Enveloping diassociative quotient of the free dialgebra on g's basis.

    Relations: embedded bracket values minus derived brackets on basis pairs,
    and embedded p-map values minus p-fold |- powers on the instantiated
    element set.
    """
    return _ud_presentation(g, pmap, d, cap, seed, samples)[0]


def check_ud_unit(g: Algebra, pmap: str = "frobenius", d: int = 3, cap=None,
                  seed: int = 0, samples: int = 64) -> CheckReport:
    """The degree-one embedding respects brackets on basis pairs and p-maps
    on the instantiated elements, inside the quotient."""
    pres, pairs, touched = _ud_presentation(g, pmap, d, cap, seed, samples)
    witnesses = []
    # projections are ambient-dim vectors, so only the kept ones are made again
    failures = _keep(
        witnesses,
        [(key, lhs, rhs) for key, lhs, rhs in pairs
         if not np.array_equal(pres.project(lhs), pres.project(rhs))],
        lambda key, lhs, rhs: Witness(key, _tup(pres.project(lhs)), _tup(pres.project(rhs))))
    # the pairs' note, then the presentation's notes, which start with it
    notes = pres.notes[:1] + pres.notes
    if touched:
        notes += (f"truncation above degree {d} touched the sweep",)
    return _report("ud_unit", witnesses, failures,
                   Coverage("exhaustive", len(pairs)), notes,
                   inconclusive=touched)


# -- both-products-identified quotient --------------------------------------------------


def das_quotient(F: GradedBasisAlgebra, nfold=None):
    """Quotient of a one-generator free dialgebra by -| = |-, plus the check
    that every mixed nfold-power pattern of the generator shares one image.

    Returns (presentation, CheckReport)."""
    if F.kind != "dias":
        raise UsageError(f"expected dias monomials, got {F.kind}")
    if F.ngen != 1:
        raise UsageError(f"expected one generator, got {F.ngen}")
    n = F.p if nfold is None else nfold
    if n < 2:
        raise UsageError(f"power must be >= 2, got {n}")
    rels = []
    for i in range(F.dim):
        for j in range(F.dim):
            rel = F.sub(
                F.product("left", F.basis_elt(i), F.basis_elt(j)),
                F.product("right", F.basis_elt(i), F.basis_elt(j)),
            )
            if rel:
                rels.append(rel)
    pres = truncated_ideal_quotient(F, rels, notes=("identify -| with |-",))
    x = F.generator(0)
    images = []
    with OverflowProbe(F) as probe:
        for pattern in itertools.product(("left", "right"), repeat=n - 1):
            v = x
            for op in pattern:
                v = F.product(op, v, x)
            images.append((pattern, pres.project(v)))
    witnesses = []
    base = images[0][1]
    failures = _keep(witnesses, [(pattern, img) for pattern, img in images[1:]
                                 if not np.array_equal(img, base)],
                     lambda pattern, img: Witness((pattern,), _tup(img), _tup(base)))
    notes = (f"{len(images)} patterns of {n} factors",)
    if probe.triggered:
        notes += ("power exceeded the degree cap",)
    report = _report("das_mixed_powers", witnesses, failures,
                     Coverage("exhaustive", len(images)), notes,
                     inconclusive=probe.triggered)
    return pres, report
