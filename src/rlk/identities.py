"""Identity checkers producing structured CheckReports.

Trilinear identities are swept over basis triples (sufficient by linearity;
the equivalence is spot-checked by the sampled mode).  Restrictedness
conditions involve p-maps, which are not linear, so those sweeps range over
all elements up to the enumeration cap and fall back to seeded sampling.

Reports are exact: status is "fail" iff witnesses exist, the total failure
count is never truncated even though at most 16 witnesses are stored, and
coverage records either exhaustive(count) or sampled(count, seed).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

import numpy as np

from .algebra_core import (
    _CHUNK_ENTRIES,
    _EXACT,
    Algebra,
    Element,
    _basis_triples,
    _blocks,
    _check_jacobson_row,
    _float_mod,
    _matmul_mod,
    _randrange_array,
    _residue_dtype,
    _tup,
    jacobson_terms_batch,
    lie_basis_violation,
    operator_stack,
    stack_mat_pow,
)
from .errors import UsageError
from .scalars import _freeze, _seal

WITNESS_LIMIT = 16
# axiom-3 pairs of check_restricted_lie: all of them up to this many, else sampled
PAIR_BUDGET = 4096


def _jsonable(v):
    if isinstance(v, np.ndarray):
        return [[int(e) for e in row] for row in np.atleast_2d(v)]
    if isinstance(v, (list, tuple)):
        return [_jsonable(e) for e in v]
    return v


def _frozen(side):
    """A witness side with every list in it turned into a tuple (_freeze seals arrays)."""
    return tuple(map(_frozen, side)) if isinstance(side, (list, tuple)) else side


@dataclass(frozen=True)
class Witness:
    """A failing input and its two sides.  It compares and hashes by its to_dict()
    form, held frozen in `_form`, so sides held as sealed arrays compare by entry."""

    inputs: tuple = field(compare=False)
    lhs: object = field(compare=False)
    rhs: object = field(compare=False)
    _form: tuple = field(init=False, repr=False)

    def __post_init__(self):
        _freeze(self, lhs=_frozen(self.lhs), rhs=_frozen(self.rhs))
        _freeze(self, _form=_frozen(tuple(self.to_dict().values())))

    def to_dict(self):
        return {
            "inputs": _jsonable(self.inputs),
            "lhs": _jsonable(self.lhs),
            "rhs": _jsonable(self.rhs),
        }


@dataclass(frozen=True)
class Coverage:
    kind: str  # "exhaustive" | "sampled"
    count: int
    seed: int | None = None

    def to_dict(self):
        d = {"kind": self.kind, "count": self.count}
        if self.kind == "sampled":
            d["seed"] = self.seed
        return d


@dataclass(frozen=True)
class CheckReport:
    identity: str
    status: str  # "pass" | "fail" | "inconclusive"
    witnesses: tuple = ()
    coverage: Coverage = Coverage("exhaustive", 0)
    failure_count: int = 0
    notes: tuple = ()

    def __post_init__(self):
        _freeze(self, witnesses=tuple(self.witnesses), notes=tuple(self.notes))

    def ok(self) -> bool:
        return self.status == "pass"

    def to_dict(self):
        return {
            "identity": self.identity,
            "status": self.status,
            "failure_count": self.failure_count,
            "witnesses": [w.to_dict() for w in self.witnesses],
            "coverage": self.coverage.to_dict(),
            "notes": list(self.notes),
        }


def _witness_key(w: Witness):
    return tuple(repr(part) for part in w.inputs)


def _report(identity, witnesses, failure_count, coverage, notes=(), inconclusive=False):
    witnesses = sorted(witnesses, key=_witness_key)[:WITNESS_LIMIT]
    if failure_count:
        status = "fail"
    elif inconclusive:
        status = "inconclusive"
    else:
        status = "pass"
    return CheckReport(identity, status, witnesses, coverage, failure_count, notes)


def _keep(witnesses, rows, witness, room=None) -> int:
    """Append witness(*row) for the first `room` of the failing rows (by
    default, up to WITNESS_LIMIT witnesses kept in all); returns the number
    of rows, which is the failure count they add."""
    room = WITNESS_LIMIT - len(witnesses) if room is None else room
    for row in rows[:max(0, room)]:
        witnesses.append(witness(*row))
    return len(rows)


def _sampling(samples: int, seed) -> random.Random:
    """The generator of a sweep of `samples` draws; fewer than 1 would sweep nothing and pass."""
    if samples < 1:
        raise UsageError(f"samples must be positive, got {samples}")
    return random.Random(seed)


def _require(report: CheckReport, what: str, error=UsageError) -> CheckReport:
    """The report if it passes; else raise error("<what> (witness <the first
    witness's inputs>)")."""
    if not report.ok():
        w = report.witnesses[0].inputs if report.witnesses else ()
        raise error(f"{what} (witness {w})")
    return report


# -- trilinear sweeps --------------------------------------------------------

# Each axiom is (name, lhs, rhs), each side a list of signed bracketings
# (sign, form, ops) whose first sign is +.  The form is "(xy)z" or "x(yz)",
# or either with y and z exchanged; x stays first in every identity rlk
# checks.  ops names the first and the second product as they are written,
# by the roles of the checker's op names: "o" for the one product, "l" for
# -| and "r" for |-.
_AXIOMS = {
    "leibniz": [("leibniz", [(1, "x(yz)", "oo")],
                 [(1, "(xy)z", "oo"), (-1, "(xz)y", "oo")])],
    "dias": [
        ("assoc_left", [(1, "(xy)z", "ll")], [(1, "x(yz)", "ll")]),
        ("assoc_right", [(1, "(xy)z", "rr")], [(1, "x(yz)", "rr")]),
        ("left_bar", [(1, "x(yz)", "ll")], [(1, "x(yz)", "lr")]),
        ("middle", [(1, "(xy)z", "rl")], [(1, "x(yz)", "rl")]),
        ("right_bar", [(1, "(xy)z", "lr")], [(1, "(xy)z", "rr")]),
    ],
    "zinbiel": [("zinbiel", [(1, "(xy)z", "oo")],
                 [(1, "x(yz)", "oo"), (1, "x(zy)", "oo")])],
    "prelie": [("prelie", [(1, "(xy)z", "oo"), (-1, "x(yz)", "oo")],
                [(1, "(xz)y", "oo"), (-1, "x(zy)", "oo")])],
}
_UNSWAPPED = {"(xy)z": "(xy)z", "x(yz)": "x(yz)", "(xz)y": "(xy)z", "x(zy)": "x(yz)"}


def _bracketing(mul, form, pair, xyz):
    """One bracketing of an _AXIOMS side, where mul(role, u, v) multiplies
    by the product of that role and xyz holds the values of x, y and z."""
    a, b = pair
    x, u, v = (xyz["xyz".index(c)] for c in form if c in "xyz")
    if form[0] == "(":
        return mul(b, mul(a, x, u), v)
    return mul(a, x, mul(b, u, v))


def _trilinear_sweep(alg, identity, ops, mode, seed, samples):
    """Every axiom of `identity`, with `ops` mapping roles to op names.

    Mode "basis" sweeps all basis triples, one GEMM per bracketing and chunk
    of first indices, and keeps each axiom's first WITNESS_LIMIT failing
    triples in row order, whatever the chunks.  Mode "sampled" draws x, y, z
    one coefficient at a time, runs a chunk of triples at once through
    multiply_batch, and keeps the first WITNESS_LIMIT failures in sample
    order, axioms in table order.  Every bracketing is reduced mod p before
    the signed sums, which keeps the arithmetic exact wherever
    _check_modulus_bound admits the algebra."""
    C = {role: alg.structure(name) for role, name in ops.items()}
    p, d = alg.p, alg.dim
    axioms = _AXIOMS[identity]

    def tag(name):
        return (name,) if len(axioms) > 1 else ()

    def side(terms, bracketing):
        total = bracketing(*terms[0][1:])
        for sign, form, pair in terms[1:]:
            t = bracketing(form, pair)
            total = total + t if sign > 0 else total - t
        return total % p if len(terms) > 1 else total

    witnesses, failures = [], 0
    if mode == "basis":
        block, kept = max(1, _CHUNK_ENTRIES // max(1, d ** 3)), {name: [] for name, *_ in axioms}
        for lo in range(0, d, block):
            for name, lhs_terms, rhs_terms in axioms:
                cache = {}

                def bracketing(form, pair):
                    a, b = pair
                    base = _UNSWAPPED[form]
                    if (base, a, b) not in cache:
                        cache[base, a, b] = _basis_triples(C[a][lo:lo + block], C[b], p, base)
                    t = cache[base, a, b]
                    return t if base == form else t.transpose(0, 2, 1, 3)

                lhs, rhs = side(lhs_terms, bracketing), side(rhs_terms, bracketing)
                bad = (lhs != rhs).any(axis=3)
                # argwhere costs several count_nonzero calls, and most sweeps pass
                failures += _keep(
                    kept[name], np.argwhere(bad) if np.count_nonzero(bad) else (),
                    lambda i, j, k: Witness(tag(name) + (int(i) + lo, int(j), int(k)),
                                            _tup(lhs[i, j, k]), _tup(rhs[i, j, k])))
        witnesses = [w for ws in kept.values() for w in ws]
        coverage = Coverage("exhaustive", len(axioms) * d ** 3)
    elif mode == "sampled":
        rng = _sampling(samples, seed)
        block = max(1, _CHUNK_ENTRIES // max(1, d * d))

        def mul(role, U, V):
            return alg.multiply_batch(ops[role], U, V)

        for lo in range(0, samples, block):
            n = min(block, samples - lo)
            T = alg.sample_array(3 * n, rng).reshape(n, 3, d)

            def bracketing(form, pair):
                return _bracketing(mul, form, pair, T.swapaxes(0, 1))

            sides = [(side(lhs_terms, bracketing), side(rhs_terms, bracketing))
                     for _, lhs_terms, rhs_terms in axioms]
            bad = np.stack([(lhs != rhs).any(axis=1) for lhs, rhs in sides], axis=1)
            failures += _keep(witnesses, np.argwhere(bad), lambda s, k: Witness(
                tag(axioms[k][0]) + tuple(_tup(v) for v in T[s]),
                _tup(sides[k][0][s]), _tup(sides[k][1][s])))
        coverage = Coverage("sampled", len(axioms) * samples, seed)
    else:
        raise UsageError(f"unknown mode {mode!r}")
    return _report(identity, witnesses, failures, coverage)


def check_leibniz(alg: Algebra, mode: str = "basis", seed: int = 0,
                  samples: int = 200) -> CheckReport:
    """[x,[y,z]] = [[x,y],z] - [[x,z],y] for the op "bracket"."""
    return _trilinear_sweep(alg, "leibniz", {"o": "bracket"}, mode, seed, samples)


def check_dias(alg: Algebra, mode: str = "basis", seed: int = 0,
               samples: int = 200) -> CheckReport:
    """Ops "left" and "right" associative plus the three mixed axioms."""
    return _trilinear_sweep(alg, "dias", {"l": "left", "r": "right"}, mode, seed, samples)


def check_zinbiel(alg: Algebra, mode: str = "basis", seed: int = 0,
                  samples: int = 200) -> CheckReport:
    """(a<b)<c = a<(b<c) + a<(c<b) for the op "zinbiel"."""
    return _trilinear_sweep(alg, "zinbiel", {"o": "zinbiel"}, mode, seed, samples)


def check_prelie(alg: Algebra, op: str = "prelie", mode: str = "basis",
                 seed: int = 0, samples: int = 200) -> CheckReport:
    """Right-symmetric associator: (x,y,z) - (x,z,y) vanishes, where
    (x,y,z) = {x{y}}-associator {x,y},z} - {x,{y,z}}."""
    return _trilinear_sweep(alg, "prelie", {"o": op}, mode, seed, samples)


# -- Jacobson polarization ----------------------------------------------------


def jacobson_si(alg: Algebra, bracket: str, x: Element, y: Element) -> list:
    """Polarization coefficients s_1..s_{p-1} of the named bracket."""
    XY = np.array([alg.element(x), alg.element(y)], dtype=np.int64)
    terms = jacobson_terms_batch(alg.p, XY[:1], XY[1:], alg.right_ops(bracket))
    return list(map(tuple, terms[:, 0].tolist()))


# -- restrictedness sweeps -----------------------------------------------------


def _grid(alg: Algebra, cap, seed, samples):
    """(X, Coverage) over all elements when p**dim fits the cap, else sampled."""
    if alg.can_enumerate(cap):
        X = alg.elements_array(cap)
        return X, Coverage("exhaustive", X.shape[0])
    X = alg.sample_array(samples, _sampling(samples, seed))
    return X, Coverage("sampled", samples, seed)


def _operator_failures(ops, p, X, PX, tag=()):
    """(count, witnesses) of rows x of X with r_x**p != r_{f(x)}, f(x) the row of PX and r_x =
    sum_j x_j ops[j] for a reduced (k, m, m) stack, each _blocks block cast to
    _residue_dtype(max(k, m), p, N m**3); the witnesses, int64 sides, are the first
    WITNESS_LIMIT failing rows in row order, whatever the blocks.
    A float block compares by one reduction of r_x**p + c p - r_{f(x)}, c p > r_{f(x)}'s bound.
    X and PX must hold reduced rows, entries in [0, p), as _grid, _pmap_instances and
    Algebra.apply_pmap_batch give them."""
    k, m, _ = ops.shape
    T = ops.astype(_residue_dtype(max(k, m), p, len(X) * m ** 3), order="C")
    block, witnesses, failures = _blocks(m, T.size), [], 0
    for lo in range(0, X.shape[0], block):
        Rp, Rf = (operator_stack(T, V[lo:lo + block].astype(T.dtype, copy=False), p)
                  for V in (X, PX))
        bf = k * (p - 1) ** 2  # the bounds of r_{f(x)} and of r_x**p
        Rp, bp = stack_mat_pow(Rp, p, p, bf)
        if bp + bf + p >= _EXACT[T.dtype.type]:  # the shift below must stay exact
            bf = p - 1
            _float_mod(Rp, p)
            _float_mod(Rf, p)
        D = _float_mod(Rp + (bf // p + 1) * p - Rf, p) if T.dtype.kind == "f" else Rp != Rf
        failures += _keep(witnesses, np.argwhere(D.any(axis=(1, 2))), lambda n: Witness(
            tag + (_tup(X[lo + n]),), *((S[n] % p).astype(np.int64) for S in (Rp, Rf))))
    return failures, witnesses


def _restricted_pass(alg: Algebra, ops, pmap, identity, cap, seed, samples, tag=()):
    """(report, X, PX) of the one restricted pass: the _grid X of alg, its p-map values PX
    from one batch, and the report, named identity, of _operator_failures of the stack ops."""
    X, coverage = _grid(alg, cap, seed, samples)
    PX = alg.apply_pmap_batch(pmap, X)
    failures, witnesses = _operator_failures(ops, alg.p, X, PX, tag)
    return _report(identity, witnesses, failures, coverage), X, PX


def _require_leibniz(alg: Algebra, what: str) -> CheckReport:
    """The leibniz report alg holds (dleib makes one; check_leibniz reads op "bracket",
    which no copy keeping the reports changes), else check_leibniz(alg), required to pass."""
    held = next((rep for rep in alg.reports if rep.identity == "leibniz"), None)
    return _require(held or check_leibniz(alg), what)


def _restricted_leibniz(alg: Algebra, pmap: str, cap, seed, samples=400):
    """check_restricted_leibniz's report, with the grid and p-map values it swept."""
    _require_leibniz(alg, "bracket 'bracket' is not Leibniz")
    return _restricted_pass(alg, alg.right_ops("bracket"), pmap, "restricted_leibniz",
                            cap, seed, samples)


def check_restricted_leibniz(alg: Algebra, pmap: str = "frobenius", cap=None,
                             seed: int = 0, samples: int = 400) -> CheckReport:
    """Right multiplications satisfy r_x**p = r_{x^[p]}; "bracket" must be Leibniz."""
    return _restricted_leibniz(alg, pmap, cap, seed, samples)[0]


def check_restricted_prelie(alg: Algebra, pmap: str = "zero", cap=None,
                            seed: int = 0, samples: int = 400) -> CheckReport:
    """R_a**p = R_{a^{p}} for right multiplications of the pre-Lie op "prelie"."""
    _require(check_prelie(alg), "op 'prelie' is not pre-Lie")
    return _restricted_pass(alg, alg.right_ops("prelie"), pmap, "restricted_prelie",
                            cap, seed, samples)[0]


def check_restricted_lie(alg: Algebra, bracket: str = "bracket", pmap: str = "pmap",
                         cap=None, seed: int = 0, samples: int = 200) -> CheckReport:
    """The three restricted-Lie axioms for the named p-map.

    1. (a x)^[p] = a**p x^[p] for every scalar a;
    2. r_{y^[p]} = r_y**p as operators (equivalently [x, y^[p]] is the p-fold
       right bracketing of x by y for every x);
    3. (x+y)^[p] = x^[p] + y^[p] + sum_i s_i(x, y).
    Pairs for axiom 3 are enumerated when their number fits PAIR_BUDGET,
    otherwise sampled with the given seed.  On an exhaustive grid (every element,
    in lexicographic order) the p-map's values at 0, a x and x + y are rows of the
    restricted pass's one batch, found by np.ravel_multi_index; else one batch each.
    """
    bad = lie_basis_violation(alg, bracket)
    if bad is not None:
        raise UsageError(f"bracket {bracket!r} is not Lie: {bad[0]} fails at {bad[1:]}")
    p, d = alg.p, alg.dim
    _check_jacobson_row(p, d)  # axiom 3's rows, refused before axiom 1's p - 2 passes
    # axiom 2, the operator condition, is the pass's own sweep
    rep, X, PX = _restricted_pass(alg, alg.right_ops(bracket), pmap, "restricted_lie",
                                  cap, seed, samples, ("axiom2",))
    N, coverage, failures = X.shape[0], rep.coverage, rep.failure_count
    witnesses = list(rep.witnesses)

    def pmap_at(V):  # the p-map at the reduced rows V
        if coverage.kind == "sampled":
            return alg.apply_pmap_batch(pmap, V)
        return PX[np.ravel_multi_index(V.T, (p,) * d) if d else np.zeros(len(V), dtype=int)]

    # axiom 1: semilinearity in scalars; 0^[p] is shared by every row of the grid
    got0 = _tup(pmap_at(np.zeros((1, d), dtype=np.int64))[0])
    if any(got0):
        failures += N
        witnesses.append(Witness(("axiom1", 0, alg.zero()), got0, alg.zero()))
    for a in range(2, p):
        expect = (a * PX) % p  # a**p = a in F_p
        got = pmap_at((a * X) % p)
        failures += _keep(witnesses, np.argwhere(((got - expect) % p).any(axis=1)),
                          lambda n: Witness(("axiom1", a, _tup(X[n])), _tup(got[n]),
                                            _tup(expect[n])), WITNESS_LIMIT)

    # axiom 3: Jacobson sum over pairs
    if N * N <= PAIR_BUDGET:
        pair_cov = Coverage("exhaustive", N * N)
        I, J = np.repeat(np.arange(N), N), np.tile(np.arange(N), N)
    else:
        rng = _sampling(samples, seed + 1)
        npairs = min(PAIR_BUDGET, samples)
        I, J = _randrange_array(rng, N, 2 * npairs).reshape(npairs, 2).T
        pair_cov = Coverage("sampled", npairs, seed + 1)
    S = pmap_at((X[I] + X[J]) % p)
    terms = jacobson_terms_batch(p, X[I], X[J], alg.right_ops(bracket))
    rhs = (PX[I] + PX[J] + terms.sum(axis=0)) % p
    failures += _keep(witnesses, np.argwhere((S != rhs).any(axis=1)), lambda n: Witness(
        ("axiom3", _tup(X[I[n]]), _tup(X[J[n]])), _tup(S[n]), _tup(rhs[n])),
        3 * WITNESS_LIMIT - len(witnesses))
    notes = (
        f"elements {coverage.kind}({coverage.count})",
        f"axiom3 pairs {pair_cov.kind}({pair_cov.count})",
    )
    exhaustive = coverage.kind == pair_cov.kind == "exhaustive"
    total = Coverage("exhaustive" if exhaustive else "sampled",
                     coverage.count * p + coverage.count + pair_cov.count,
                     None if exhaustive else seed)
    return _report("restricted_lie", witnesses, failures, total, notes)


# -- derived-bracket Jacobson proposition --------------------------------------


def _derived_bracket(D: Algebra) -> np.ndarray:
    """Sealed, reduced table of D's derived bracket [a, b] = a -| b - b |- a."""
    return _seal((D.structure("left") - D.structure("right").transpose(1, 0, 2)) % D.p)


def _dleib_jacobson_sides(D: Algebra, c: np.ndarray, T: np.ndarray):
    """Both sides of [z,(x+y)^[p]] = [z,x^[p]] + [z,y^[p]] + [z, sum_i s_i(x,y)]
    for the reduced (N, 3, dim) triples (z, x, y) of T, the derived bracket's
    table c and the p-fold right-product power as p-map; [z, .] is l_z."""
    p, (Z, X, Y) = D.p, T.swapaxes(0, 1)
    power = D.right_power_batch("right", np.concatenate([(X + Y) % p, X, Y]), p)
    s_sum = jacobson_terms_batch(p, X, Y, c.transpose(1, 2, 0)).sum(axis=0) % p
    V = np.stack([*np.split(power, 3), s_sum], axis=2)  # (N, dim, 4): the four v
    B = _matmul_mod(operator_stack(c.transpose(0, 2, 1), Z, p), V, p)
    return B[..., 0], B[..., 1:].sum(axis=2) % p


def check_dleib_jacobson_bracket(D: Algebra, z: Element, x: Element,
                                 y: Element) -> CheckReport:
    """[z,(x+y)^[p]] = [z,x^[p]] + [z,y^[p]] + [z, sum_i s_i(x,y)] in the
    derived bracket structure of a diassociative algebra, where the p-map is
    the p-fold right-product power."""
    z, x, y = D.element(z), D.element(x), D.element(y)
    lhs, rhs = _dleib_jacobson_sides(D, _derived_bracket(D), np.array([[z, x, y]], dtype=np.int64))
    lhs, rhs = _tup(lhs[0]), _tup(rhs[0])
    witnesses = [] if lhs == rhs else [Witness((z, x, y), lhs, rhs)]
    return _report("dleib_jacobson_bracket", witnesses, len(witnesses),
                   Coverage("exhaustive", 1))


def sweep_dleib_jacobson(D: Algebra, samples: int = 1000, seed: int = 0) -> CheckReport:
    """check_dleib_jacobson_bracket on seeded random triples, drawn z, x, y
    one coefficient at a time and evaluated a _blocks block of triples at once."""
    rng = _sampling(samples, seed)
    d, c = D.dim, _derived_bracket(D)
    block = _blocks(d, c.size)
    witnesses, failures = [], 0
    for lo in range(0, samples, block):
        T = D.sample_array(3 * min(block, samples - lo), rng).reshape(-1, 3, d)
        lhs, rhs = _dleib_jacobson_sides(D, c, T)
        failures += _keep(witnesses, np.argwhere((lhs != rhs).any(axis=1)), lambda n: Witness(
            tuple(_tup(v) for v in T[n]), _tup(lhs[n]), _tup(rhs[n])))
    return _report(
        "dleib_jacobson_bracket", witnesses, failures, Coverage("sampled", samples, seed)
    )
