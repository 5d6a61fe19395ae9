"""Tensor product of a bracket algebra with a half-shuffle algebra.

Over one prime field, a bracket [.,.] satisfying the Leibniz identity on g
and a half-shuffle product a ≺ b satisfying the Zinbiel identity on R combine
on g ⊗ R into

    {x⊗a, y⊗b} = [x,y] ⊗ (a ≺ b),

whose associator is right-symmetric (pre-Lie).  Antisymmetrizing yields a Lie
bracket with the closed form [x⊗a, y⊗b] = [x,y]⊗(a≺b) − [y,x]⊗(b≺a).

In characteristic p both structures are restricted with vanishing p-th-power
data.  The formal p-th power of a pure tensor y⊗b factors componentwise: the
bracket factor is the p-fold left-iterated bracket of y with itself, and the
half-shuffle factor is b half-shuffled by itself through p successive right
factors.  The half-shuffle factor collapses to p! times a right-nested
product by the factorial identity, so it is identically zero mod p;
`tensor_pmap` computes both factors exactly and asserts the vanishing instead
of hard-coding it.  Consequently every pure tensor has p-th power 0, and the
p-th power of the right-multiplication operator of any element — pure or not
— is the zero matrix, which `check_tensor_restricted` verifies.

A p-th-power map must be defined on the whole space, not only on pure
tensors.  The assembled product algebra carries three:

- "tensor_p": the formula evaluator — pure tensors (detected by rank-one
  factorization) take the asserted-zero formula value; everything else takes
  the recorded extension value 0, consistent with R_u^p = 0 = R_0.
- "zero": the literal zero map.
- "lie_p": zero on every basis element, extended through the scalar and
  additivity rules of the antisymmetrized bracket.

For the antisymmetrized bracket the literal zero map is *not* restricted —
the additivity correction sum reduces to the bracket itself in characteristic
2 — so `check_corollary` checks "lie_p" instead and records that choice in
its notes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra_core import (
    Algebra,
    BasisJacobsonPMap,
    ZeroPMap,
    _apply_one_row,
    _basis_triples,
    _tup,
    lie_basis_violation,
    stack_mat_pow,
)
from .errors import DomainError, UsageError
from .free_structures import GradedBasisAlgebra
from .identities import (
    CheckReport,
    Coverage,
    Witness,
    _keep,
    _operator_failures,
    _report,
    _require,
    _require_leibniz,
    check_prelie,
    check_restricted_lie,
    check_zinbiel,
)
from .scalars import _seal, inv_mod

import random

PRODUCT_DIM_BOUND = 64


def _split_pure(g: Algebra, R: Algebra, U):
    """Factor each row u of U as y⊗b: y is the column of u's coefficient
    matrix through its first nonzero entry, and b is that entry's row scaled
    to 1 there (0⊗0 for u = 0).  Returns (Y, B, pure), where pure marks the
    rows whose coefficient matrix has rank at most one."""
    p = g.p
    M = (np.asarray(U, dtype=np.int64) % p).reshape(-1, g.dim, R.dim)
    N, flat = M.shape[0], M.reshape(M.shape[0], -1)
    if not flat.size:  # no coefficients, so every row is 0 = 0⊗0
        return np.zeros((N, g.dim), np.int64), np.zeros((N, R.dim), np.int64), np.ones(N, bool)
    first = np.argmax(flat != 0, axis=1)
    I0, J0 = np.divmod(first, R.dim)
    rows = np.arange(N)
    leads, where = np.unique(flat[rows, first], return_inverse=True)
    inv = np.array([inv_mod(int(a), p) if a else 0 for a in leads], dtype=np.int64)
    Y = M[rows, :, J0]
    B = (M[rows, I0, :] * inv[where.reshape(N)][:, None]) % p
    pure = (np.einsum("ni,nj->nij", Y, B) % p == M).all(axis=(1, 2))
    return Y, B, pure


def _power_factors(g: Algebra, R: Algebra, Y, B):
    """The two factors of the formal p-th power of y⊗b, for the rows y of Y
    and b of B: the p-fold left-iterated bracket of y, and b right
    half-shuffled by itself p times (p! times a right-nested product,
    hence 0)."""
    p = g.p
    return g.right_power_batch("bracket", Y, p), R.right_power_batch("zinbiel", B, p + 1)


def _formula_values(g: Algebra, R: Algebra, Y, B):
    """The formal p-th powers of the pure tensors y⊗b, one per row pair of Y
    and B, as outer products of their two factors, with the vanishing of
    the half-shuffle factor asserted."""
    Z, W = _power_factors(g, R, Y, B)
    bad = np.flatnonzero(W.any(axis=1))
    if bad.size:
        n = bad[0]
        raise DomainError(
            f"half-shuffle factor of the p-th power failed to vanish at "
            f"{(_tup(Y[n]), _tup(B[n]))}: got {_tup(W[n])}"
        )
    return np.einsum("ni,nj->nij", Z, W).reshape(len(Z), g.dim * R.dim) % g.p


@dataclass(frozen=True)
class TensorFormulaPMap:
    """Formal p-th power attached to an assembled tensor product algebra.

    Pure tensors evaluate the factored formula with the half-shuffle factor's
    vanishing asserted; non-pure elements take the recorded whole-space
    extension value 0 (consistent with R_u^p = 0 for every u)."""

    variant = "tensorformula"

    gfactor: Algebra
    rfactor: Algebra

    apply = _apply_one_row

    def apply_batch(self, alg: Algebra, X: np.ndarray) -> np.ndarray:
        g, R = self.gfactor, self.rfactor
        Y, B, pure = _split_pure(g, R, X)
        out = np.zeros((pure.size, alg.dim), dtype=np.int64)
        out[pure] = _formula_values(g, R, Y[pure], B[pure])
        return out

    def validate(self, alg: Algebra) -> None:
        if alg.dim != self.gfactor.dim * self.rfactor.dim:
            raise UsageError(
                f"tensor formula pmap expects dim "
                f"{self.gfactor.dim * self.rfactor.dim}, algebra has {alg.dim}"
            )
        if alg.p != self.gfactor.p:
            raise UsageError("tensor formula pmap characteristic mismatch")


@dataclass(frozen=True)
class TensorAlgebraHandle:
    """Assembled g⊗R with its factors: g's op "bracket" and R's op "zinbiel".

    `product` is an Algebra of dimension dim(g)·dim(R) with ops "prelie" and
    "lie" and p-maps "tensor_p", "zero" and "lie_p"; basis index (i, j) ↦
    i·dim(R)+j (row-major pairing e_i ⊗ f_j).  A product built by
    tensor_prelie has `reports` (the passing check_prelie report,)."""

    gfactor: Algebra
    rfactor: Algebra
    product: Algebra

    def pair_index(self, i: int, j: int) -> int:
        return i * self.rfactor.dim + j

    def pure(self, y, b):
        """The element y⊗b of the product algebra."""
        y = self.gfactor.element(y)
        b = self.rfactor.element(b)
        v = np.outer(y, b).ravel() % self.product.p
        return tuple(int(c) for c in v)

    def split_pure(self, u):
        """Inverse of `pure` up to scalar regrouping; raises on non-pure input."""
        Y, B, pure = _split_pure(self.gfactor, self.rfactor, [self.product.element(u)])
        if not pure[0]:
            raise UsageError("element is not a pure tensor")
        return _tup(Y[0]), _tup(B[0])


def tensor_prelie(g: Algebra, R) -> TensorAlgebraHandle:
    """Assemble the pre-Lie product {x⊗a, y⊗b} = [x,y]⊗(a≺b) on g⊗R, from
    g's op "bracket" and R's op "zinbiel".

    R may be a dense Algebra or a graded word algebra (converted via
    to_algebra).  Both factor identities are verified before assembly and the
    right-symmetry of the assembled associator is verified after."""
    if isinstance(R, GradedBasisAlgebra):
        R = R.to_algebra()
    if g.p != R.p:
        raise UsageError(f"factor characteristics differ: {g.p} vs {R.p}")
    pdim = g.dim * R.dim
    if pdim > PRODUCT_DIM_BOUND:
        raise UsageError(
            f"product dimension {g.dim}*{R.dim} = {pdim} exceeds bound {PRODUCT_DIM_BOUND}"
        )
    _require_leibniz(g, "first factor is not Leibniz")
    _require(check_zinbiel(R), "second factor is not Zinbiel")
    p = g.p
    cg = g.structure("bracket")
    cr = R.structure("zinbiel")
    prelie = _seal(np.einsum("ikm,jln->ijklmn", cg, cr).reshape(pdim, pdim, pdim) % p)
    lie = _seal((prelie - prelie.transpose(1, 0, 2)) % p)
    product = Algebra(
        p, pdim, {"prelie": prelie, "lie": lie},
        label=f"tensor({g.label},{R.label})",
    )
    rep = _require(check_prelie(product), "assembled product is not pre-Lie", DomainError)
    # attached once pre-Lie is known, which makes "lie" a Lie bracket, so
    # lie_p is valid without a Lie check of its own (check_corollary runs one)
    product = product._with_pmaps({
        "tensor_p": TensorFormulaPMap(g, R),
        "zero": ZeroPMap(),
        "lie_p": BasisJacobsonPMap("lie", [product.zero()] * pdim),
    }, (rep,))
    return TensorAlgebraHandle(g, R, product)


def _pure_rows(T: TensorAlgebraHandle, y, b):
    """y and b as one-row arrays; a single product element is split first."""
    if b is None:
        y, b = T.split_pure(y)
    return (np.array([T.gfactor.element(y)], dtype=np.int64),
            np.array([T.rfactor.element(b)], dtype=np.int64))


def tensor_pmap(T: TensorAlgebraHandle, y, b=None):
    """Formal p-th power of the pure tensor y⊗b (y in g, b in R), or of a
    single product element that must factor as a pure tensor.

    Evaluates both factors of the factored formula exactly and asserts that
    the half-shuffle factor vanishes; the returned element is therefore 0.
    Non-pure single-element input is a usage error: the formula is defined on
    pure tensors only, and the whole-space extension is owned by the p-maps
    attached to the product algebra."""
    Y, B = _pure_rows(T, y, b)
    return _tup(_formula_values(T.gfactor, T.rfactor, Y, B)[0])


def tensor_pmap_factors(T: TensorAlgebraHandle, y, b=None):
    """Both factors of the formal p-th power of y⊗b, exactly as computed:
    (p-fold left-iterated bracket of y, p-fold right half-shuffle of b)."""
    Y, B = _pure_rows(T, y, b)
    Z, W = _power_factors(T.gfactor, T.rfactor, Y, B)
    return _tup(Z[0]), _tup(W[0])


def check_tensor_restricted(T: TensorAlgebraHandle, seed: int = 0,
                            samples: int = 400) -> CheckReport:
    """R_u^p = 0 for the pre-Lie product: exhaustively on basis pure tensors
    and on sampled general elements, plus the two bracket facts the vanishing
    rests on — [x,[y,z]] = −[x,[z,y]] and [x,[y,y]] = 0 in g — and the
    asserted-zero formula value on every basis pure tensor."""
    g, R, A = T.gfactor, T.rfactor, T.product
    p = A.p
    witnesses = []

    cg = g.structure("bracket")
    B = _basis_triples(cg, cg, p, "x(yz)")  # B[k, i, j] = [e_k, [e_i, e_j]]
    anti = (B + B.transpose(0, 2, 1, 3)) % p
    failures = _keep(witnesses, np.argwhere(anti.any(axis=3)), lambda k, i, j: Witness(
        ("inner_antisym", int(k), int(i), int(j)), _tup(B[k, i, j]),
        tuple(int(-v) % p for v in B[k, j, i])))
    idx = np.arange(g.dim)
    sq = B[:, idx, idx, :]
    failures += _keep(witnesses, np.argwhere(sq.any(axis=2)), lambda k, i: Witness(
        ("inner_square", int(k), int(i)), _tup(sq[k, i]), g.zero()))

    Rp = stack_mat_pow(A.right_ops("prelie"), p, p)  # r_{e_u}**p
    failures += _keep(witnesses, np.argwhere(Rp.any(axis=(1, 2))), lambda u: Witness(
        ("basis_operator", int(u)), Rp[u], np.zeros_like(Rp[u])))

    # the factors of e_i⊗f_j are those of e_i and of f_j
    _, W = _power_factors(g, R, np.eye(g.dim, dtype=np.int64), np.eye(R.dim, dtype=np.int64))
    pairs = [(i, int(j)) for i in range(g.dim) for j in np.flatnonzero(W.any(axis=1))]
    failures += _keep(witnesses, pairs, lambda i, j: Witness(
        ("power_factor", i, j), _tup(W[j]), R.zero()))

    X = A.sample_array(samples, random.Random(seed))
    failed, found = _operator_failures(A.right_ops("prelie"), p, X, np.zeros_like(X),
                                       ("sampled_operator",))
    failures += failed
    _keep(witnesses, [(w.inputs, w.lhs, w.rhs) for w in found], Witness)
    count = g.dim ** 3 + g.dim ** 2 + A.dim + g.dim * R.dim + samples

    notes = (
        f"general-element operators sampled({samples}) seed {seed}",
        "whole-space p-th-power data recorded as the zero extension",
    )
    return _report("tensor_restricted", witnesses, failures,
                   Coverage("sampled", count, seed), notes)


def prelie_to_lie(A, op: str = "prelie") -> Algebra:
    """Antisymmetrize a pre-Lie product into a Lie bracket "lie".

    Accepts a tensor handle or any Algebra whose named op passes the
    right-symmetric associator check; the returned algebra carries both ops,
    and the antisymmetrized bracket is verified alternating + Jacobi.  Its
    `reports` are the two passing reports (prelie, lie_axioms)."""
    alg = A.product if isinstance(A, TensorAlgebraHandle) else A
    rep = _require(check_prelie(alg, op), f"op {op!r} is not pre-Lie")
    c = alg.structure(op)
    lie = (c - c.transpose(1, 0, 2)) % alg.p
    result = alg.extended(ops={"lie": lie}, label=f"lie({alg.label})")
    viol = lie_basis_violation(result, "lie")
    if viol is not None:
        raise DomainError(f"antisymmetrization failed the Lie checks: {viol}")
    return result._with_pmaps(result.pmaps, (rep, _report(
        "lie_axioms", [], 0, Coverage("exhaustive", result.dim ** 3),
        ("alternating + antisymmetry + Jacobi on basis triples",))))


def check_corollary(T: TensorAlgebraHandle, seed: int = 0,
                    samples: int = 200, cap=None) -> CheckReport:
    """The closed-form bracket [x⊗a,y⊗b] = [x,y]⊗(a≺b) − [y,x]⊗(b≺a) equals
    the antisymmetrized pre-Lie product structure-constant for
    structure-constant; the bracket passes alternating/antisymmetry/Jacobi;
    and the three restricted-bracket axioms hold for the p-th-power map that
    is zero on every basis pure tensor and extended by the scalar and
    additivity rules."""
    g, R, A = T.gfactor, T.rfactor, T.product
    p, d = A.p, A.dim
    cg = g.structure("bracket")
    cr = R.structure("zinbiel")
    direct = (
        np.einsum("ikm,jln->ijklmn", cg, cr)
        - np.einsum("kim,ljn->ijklmn", cg, cr)
    ).reshape(d, d, d) % p
    clie = A.structure("lie")
    witnesses = []
    bad = np.argwhere(((direct - clie) % p).any(axis=2))
    failures = _keep(witnesses, bad, lambda u, v: Witness(
        ("corollary_bracket", int(u), int(v)), _tup(direct[u, v]), _tup(clie[u, v])))

    if "lie_p" not in A.pmaps:  # a handle not built by tensor_prelie
        A = A.extended(pmaps={"lie_p": BasisJacobsonPMap("lie", [A.zero()] * d)})
    # raises unless "lie" passes the Lie checks, which the + 1 below counts
    rep = check_restricted_lie(A, "lie", "lie_p", cap=cap, seed=seed,
                               samples=samples)
    failures += rep.failure_count
    _keep(witnesses, [(w.inputs, w.lhs, w.rhs) for w in rep.witnesses], Witness)

    notes = (
        "p-th-power data: zero on every basis pure tensor, extended by the "
        "scalar and additivity rules (the literal zero map breaks additivity "
        "whenever the bracket is nonzero in characteristic 2)",
    ) + rep.notes
    kind = rep.coverage.kind
    cov = Coverage(kind, d * d + 1 + rep.coverage.count,
                   None if kind == "exhaustive" else seed)
    return _report("corollary", witnesses, failures, cov, notes)
