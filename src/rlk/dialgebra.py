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

import numpy as np

from .algebra_core import Algebra, Element, RightPowerPMap, _tup
from .errors import UsageError
from .identities import (
    CheckReport,
    Coverage,
    WITNESS_LIMIT,
    Witness,
    _grid,
    _keep,
    _operator_condition_sweep,
    _report,
    check_dias,
    check_leibniz,
)

MATRIX_DIM_BOUND = 96


class Dialgebra(Algebra):
    """Algebra whose "left"/"right" ops are verified diassociative; the
    passing check_dias report is kept as `dias_report`."""

    def __init__(self, p, dim, ops, pmaps=None, label=""):
        super().__init__(p, dim, ops, pmaps, label)
        rep = check_dias(self)
        if not rep.ok():
            w = rep.witnesses[0]
            raise UsageError(
                f"not a dialgebra: axiom {w.inputs[0]} fails at basis triple "
                f"{w.inputs[1:]} ({w.lhs} != {w.rhs})"
            )
        self.dias_report = rep


def as_dialgebra(alg: Algebra) -> Dialgebra:
    """Associative algebra viewed as a dialgebra with -| = |- = "assoc"."""
    c = alg.structure("assoc")
    return Dialgebra(alg.p, alg.dim, {"left": c, "right": c}, label=alg.label)


def _first_tensor_mismatch(a: np.ndarray, b: np.ndarray, p: int):
    bad = np.argwhere(((a - b) % p).any(axis=2))
    if bad.size:
        return tuple(int(v) for v in bad[0])
    return None


def dleib(D: Algebra, cap=None, seed: int = 0, samples: int = 400) -> Algebra:
    """Derived bracket x -| y - y |- x with the p-fold |- power map.

    The result carries ops "bracket", "left", "right" on the same carrier
    and the p-map "frobenius"; the Leibniz identity and the operator
    condition r_x**p = r_{x^[p]} are each checked once before returning.
    """
    return _dleib_reports(D, cap, seed, samples)[0]


def _dleib_reports(D: Algebra, cap, seed: int, samples: int):
    """dleib's algebra and its passing (leibniz, restricted_leibniz) reports."""
    cl = D.structure("left")
    cr = D.structure("right")
    bracket = (cl - cr.transpose(1, 0, 2)) % D.p
    out = Algebra(
        D.p,
        D.dim,
        {"bracket": bracket, "left": cl, "right": cr},
        {"frobenius": RightPowerPMap("right")},
        label=f"dleib({D.label})" if D.label else "dleib",
    )
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
    return out, (leib, rep)


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
    cl = D.structure("left")
    p, d = D.p, D.dim
    eye = np.eye(d, dtype=np.int64)
    VL = eye.copy()
    VR = eye.copy()
    witnesses, failures = [], 0
    for n in range(1, nmax + 1):
        if n > 1:
            VL = D.multiply_batch("left", VL, eye)
            VR = D.multiply_batch("right", VR, eye)
        TL = np.einsum("jm,imk->ijk", VL, cl) % p
        TR = np.einsum("jm,imk->ijk", VR, cl) % p
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
    ops = {}
    for name in ("left", "right"):
        c = D.structure(name)
        big = np.zeros((dim, dim, dim), dtype=np.int64)
        for i in range(n):
            for j in range(n):
                row = (i * n + j) * D.dim
                for l in range(n):
                    col = (j * n + l) * D.dim
                    out = (i * n + l) * D.dim
                    big[row:row + D.dim, col:col + D.dim,
                        out:out + D.dim] = c
        ops[name] = big
    label = f"gl_{n}({D.label})" if D.label else f"gl_{n}"
    return Dialgebra(D.p, dim, ops, label=label)


# -- operator dialgebras ------------------------------------------------------------


def _assoc_violation(alg: Algebra):
    c = alg.structure("assoc")
    p = alg.p
    resid = (np.einsum("ijm,mkl->ijkl", c, c) % p
             - np.einsum("jkm,iml->ijkl", c, c) % p) % p
    bad = np.argwhere(resid.any(axis=3))
    if bad.size:
        return tuple(int(v) for v in bad[0])
    return None


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
    c = A.structure("assoc")
    cl = np.einsum("mj,imk->ijk", Dm, c) % p  # e_i (D e_j)
    cr = np.einsum("mi,mjk->ijk", Dm, c) % p  # (D e_i) e_j
    t1 = np.einsum("km,ijm->ijk", Dm, cl) % p  # D(a(Db))
    t3 = np.einsum("km,ijm->ijk", Dm, cr) % p  # D((Da)b)
    half = np.einsum("mi,mlk->ilk", Dm, c) % p
    t2 = np.einsum("lj,ilk->ijk", Dm, half) % p  # (Da)(Db)
    for other, tag in ((t2, "(Da)(Db)"), (t3, "D((Da)b)")):
        w = _first_tensor_mismatch(t1, other, p)
        if w is not None:
            raise UsageError(
                f"operator condition D(a(Db)) = {tag} fails at basis pair {w[:2]}"
            )
    return Dialgebra(
        p,
        A.dim,
        {"left": cl, "right": cr},
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
