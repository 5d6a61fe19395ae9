"""Diassociative algebras and their derived structures.

A dialgebra carries two associative products "left" (-|) and "right" (|-)
tied by three compatibility axioms; construction verifies all five and an
invalid dialgebra never circulates.  `dleib` derives the bracket
[x, y] = x -| y  -  y |- x together with the p-fold |- power map and
verifies both the bracket identity and the operator condition before
returning.  `matrix_dialgebra` builds gl_n with entrywise sums of the two
products, `dialgebra_from_operator` realizes the pair a -| b = a(Db),
a |- b = (Da)b for a multiplicative-enough operator D, and
`check_commutative_diagram` confirms that commutator-plus-power-map and
dialgebra-then-dleib give the same structure on an associative algebra.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra_core import Algebra, Element, RightPowerPMap, _basis_triples, _matmul_mod, _tup
from .errors import UsageError
from .identities import (
    CheckReport,
    Coverage,
    WITNESS_LIMIT,
    Witness,
    _derived_bracket,
    _grid,
    _keep,
    _operator_condition_sweep,
    _report,
    check_dias,
    check_leibniz,
)
from .scalars import _freeze, _seal

MATRIX_DIM_BOUND = 96


@dataclass(frozen=True, eq=False, repr=False)
class Dialgebra(Algebra):
    """Algebra whose "left"/"right" ops are verified diassociative; its
    `reports` are (the passing check_dias report,)."""

    def __post_init__(self):
        super().__post_init__()
        rep = check_dias(self)
        if not rep.ok():
            w = rep.witnesses[0]
            raise UsageError(
                f"not a dialgebra: axiom {w.inputs[0]} fails at basis triple "
                f"{w.inputs[1:]} ({w.lhs} != {w.rhs})"
            )
        _freeze(self, reports=(rep,))


def as_dialgebra(alg: Algebra) -> Dialgebra:
    """Associative algebra viewed as a dialgebra with -| = |- = "assoc"."""
    c = alg.structure("assoc")
    return Dialgebra(alg.p, alg.dim, {"left": c, "right": c}, label=alg.label)


def _first_mismatch(a: np.ndarray, b: np.ndarray):
    """Leading indices of the first row where the reduced tensors a and b
    differ, or None."""
    bad = np.argwhere((a != b).any(axis=-1))
    return tuple(int(v) for v in bad[0]) if bad.size else None


def dleib(D: Algebra, cap=None, seed: int = 0, samples: int = 400) -> Algebra:
    """Derived bracket x -| y - y |- x with the p-fold |- power map.

    The result carries ops "bracket", "left", "right" on the same carrier
    and the p-map "frobenius"; the Leibniz identity and the operator
    condition r_x**p = r_{x^[p]} are each checked once before returning, and
    their passing reports are its `reports` (leibniz, restricted_leibniz).
    """
    out = Algebra(D.p, D.dim, {"bracket": _derived_bracket(D), "left": D.structure("left"),
                               "right": D.structure("right")},
                  {"frobenius": RightPowerPMap("right")},
                  label=f"dleib({D.label})" if D.label else "dleib")
    leib = check_leibniz(out)
    if not leib.ok():
        w = leib.witnesses[0]
        raise UsageError(
            f"derived bracket is not Leibniz at basis triple {w.inputs}: "
            f"{w.lhs} != {w.rhs}"
        )
    rep = _operator_condition_sweep(out, "bracket", "frobenius", "restricted_leibniz",
                                    cap, seed, samples)
    if not rep.ok():
        w = rep.witnesses[0]
        raise UsageError(
            f"p-fold right power is not a restricted p-map; witness x = {w.inputs[0]}"
        )
    return out._with_pmaps(out.pmaps, (leib, rep))


# -- iterated-power compatibility ------------------------------------------------


def check_lemdias(D: Algebra, x: Element, y: Element, n: int) -> CheckReport:
    """x -| (n-fold -| power of y)  ==  x -| (n-fold |- power of y)."""
    if n < 1:
        raise UsageError(f"power must be >= 1, got {n}")
    x, y = D.element(x), D.element(y)
    Y = np.array([y], dtype=np.int64)
    powers = np.concatenate([D.right_power_batch(op, Y, n) for op in ("left", "right")])
    X = np.array([x, x], dtype=np.int64)
    lhs, rhs = (_tup(v) for v in D.multiply_batch("left", X, powers))
    witnesses = [] if lhs == rhs else [Witness((x, y, n), lhs, rhs)]
    return _report("lemdias", witnesses, len(witnesses), Coverage("exhaustive", 1))


def sweep_lemdias(D: Algebra, nmax=None) -> CheckReport:
    """check_lemdias over all basis pairs and all powers 1..nmax (default p+1)."""
    if nmax is None:
        nmax = D.p + 1
    p, d = D.p, D.dim
    VL = VR = eye = np.eye(d, dtype=np.int64)
    witnesses, failures = [], 0
    for n in range(1, nmax + 1):
        if n > 1:
            VL = D.multiply_batch("left", VL, eye)
            VR = D.multiply_batch("right", VR, eye)
        # T[i, j] = e_i -| v_j, v_j the j-th power row
        TL = D.right_mult_stack("left", VL).transpose(2, 0, 1)
        TR = D.right_mult_stack("left", VR).transpose(2, 0, 1)
        failures += _keep(witnesses, np.argwhere(((TL - TR) % p).any(axis=2)),
                          lambda i, j: Witness((int(i), int(j), n), _tup(TL[i, j]),
                                               _tup(TR[i, j])), WITNESS_LIMIT)
    return _report("lemdias", witnesses, failures,
                   Coverage("exhaustive", d * d * nmax))


# -- matrix dialgebras -------------------------------------------------------------


def matrix_dialgebra(D: Algebra, n: int) -> Dialgebra:
    """gl_n(D): matrices over D with entrywise-sum products for -| and |-.

    Basis (i, j, a) -> E_ij e_a at flat index (i*n + j)*dim(D) + a; the
    product rule is (E_ij a) o (E_kl b) = [j == k] E_il (a o b).
    """
    if n < 1:
        raise UsageError(f"matrix size must be >= 1, got {n}")
    dim = n * n * D.dim
    if dim > MATRIX_DIM_BOUND:
        raise UsageError(f"gl_{n} carrier has dim {dim} > bound {MATRIX_DIM_BOUND}")
    E = np.eye(n, dtype=np.int64)
    ops = {name: _seal(np.einsum("im,jk,lq,abc->ijaklbmqc", E, E, E, D.structure(name))
                       .reshape(dim, dim, dim)) for name in ("left", "right")}
    label = f"gl_{n}({D.label})" if D.label else f"gl_{n}"
    return Dialgebra(D.p, dim, ops, label=label)


# -- operator dialgebras ------------------------------------------------------------


def _assoc_violation(alg: Algebra):
    c = alg.structure("assoc")
    return _first_mismatch(_basis_triples(c, c, alg.p, "(xy)z"),
                           _basis_triples(c, c, alg.p, "x(yz)"))


def dialgebra_from_operator(A: Algebra, Dop, label=None) -> Dialgebra:
    """Dialgebra a -| b = a(Db), a |- b = (Da)b on the associative op "assoc".

    Requires D(a(Db)) = (Da)(Db) = D((Da)b) for all basis pairs (the
    condition is bilinear, so basis pairs suffice); rejected with the first
    failing pair otherwise.
    """
    bad = _assoc_violation(A)
    if bad is not None:
        raise UsageError(f"base product not associative at basis triple {bad}")
    p = A.p
    Dm = np.asarray(Dop, dtype=np.int64) % p
    if Dm.shape != (A.dim, A.dim):
        raise UsageError(f"operator matrix of shape {Dm.shape} on dim {A.dim}")
    # the rows of Dm.T are the images D e_j
    cl = A.right_mult_stack("assoc", Dm.T).transpose(2, 0, 1)  # e_i (D e_j)
    cr = A.left_mult_stack("assoc", Dm.T).transpose(0, 2, 1)  # (D e_i) e_j
    t1 = _matmul_mod(cl, Dm.T, p)  # D(a(Db))
    t3 = _matmul_mod(cr, Dm.T, p)  # D((Da)b)
    t2 = _matmul_mod(Dm.T, cr, p)  # (Da)(Db)
    for other, tag in ((t2, "(Da)(Db)"), (t3, "D((Da)b)")):
        w = _first_mismatch(t1, other)
        if w is not None:
            raise UsageError(
                f"operator condition D(a(Db)) = {tag} fails at basis pair {w[:2]}"
            )
    return Dialgebra(
        p,
        A.dim,
        {"left": _seal(cl), "right": _seal(cr)},
        label=(A.label + "+op" if A.label else "operator") if label is None else label,
    )


# -- the two paths from associative algebras ------------------------------------------


def check_commutative_diagram(A: Algebra, cap=None, seed: int = 0,
                              samples: int = 400) -> CheckReport:
    """Commutator bracket + p-th power of "assoc" matches as_dialgebra
    followed by dleib.

    Compares bracket structure constants entry for entry and p-map values on
    all enumerated (or sampled) elements.
    """
    bad = _assoc_violation(A)
    if bad is not None:
        raise UsageError(f"product not associative at basis triple {bad}")
    p = A.p
    c = A.structure("assoc")
    commutator = (c - c.transpose(1, 0, 2)) % p
    derived = dleib(as_dialgebra(A), cap=cap, seed=seed, samples=samples)
    bracket = derived.structure("bracket")
    witnesses = []
    failures = _keep(witnesses, np.argwhere(((commutator - bracket) % p).any(axis=2)),
                     lambda i, j: Witness(("bracket", int(i), int(j)), _tup(commutator[i, j]),
                                          _tup(bracket[i, j])), WITNESS_LIMIT)
    X, coverage = _grid(A, cap, seed, samples)
    P1 = A.right_power_batch("assoc", X, p)
    P2 = derived.apply_pmap_batch("frobenius", X)
    failures += _keep(witnesses, np.argwhere(((P1 - P2) % p).any(axis=1)),
                      lambda i: Witness(("pmap", _tup(X[i])), _tup(P1[i]), _tup(P2[i])),
                      WITNESS_LIMIT)
    notes = (
        f"bracket pairs exhaustive({A.dim * A.dim})",
        f"pmap values {coverage.kind}({coverage.count})",
    )
    total = Coverage(
        coverage.kind,
        A.dim * A.dim + coverage.count,
        coverage.seed,
    )
    return _report("commutative_diagram", witnesses, failures, total, notes)
