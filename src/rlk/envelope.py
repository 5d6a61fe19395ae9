"""Two-sided module theory for restricted brackets and its word envelope.

A module over a bracket algebra g carries per-basis action matrices for
[e_i, m] (left) and [m, e_i] (right), extended linearly in the g argument.
Three compatibility identities tie the actions to the bracket — one for each
slot the module element can occupy inside a nested bracket — and a restricted
module additionally satisfies: acting by x^[p] on the right equals the p-fold
right action by x.

Both checks run on stacks of matrices.  The identities are evaluated on
every basis pair at once (`_module_sides`); the p-power condition is the
operator sweep that restricted algebras use (`identities._restricted_pass`),
fed with the module's `right_action` stack.  Module matrix products sum mdim
terms, so the module dimension is bounded by the modulus as an algebra's is.

The same conditions can be phrased as operator identities in the free unital
word algebra on 2·dim(g) letters (letter i acts as [e_i, -], letter dim+i as
[-, e_i], words compose as m·(uv) = (m·u)·v):

- r_[x,y] = r_x r_y - r_y r_x          (right bracket compatibility)
- l_[x,y] = l_x r_y - r_y l_x          (left bracket compatibility)
- (r_y + l_y) l_x = 0                  (mixed annihilation)
- r_{x^[p]} = r_x^p                    (p-power compatibility)

The first two signs are derived from the module identities; subtracting
both composites instead gives a genuinely different relation, which fails on
L2 in odd characteristic and agrees with these mod 2.  `ulp_truncated` divides
the truncated word algebra by the ideal they span, from 3·dim² + 2·dim at most.
On a module they are the module identities regrouped and the p-power sweep,
which `ulp_relations_check` and `module_roundtrip` read.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .algebra_core import (Algebra, BasisJacobsonPMap, _check_modulus_bound, _matmul_mod, _tup,
                           operator_stack)
from .errors import UsageError
from .free_structures import QuotientPresentation, _envelope_quotient, _pmap_instances, word_ambient
from .identities import (
    _CHUNK_ENTRIES,
    WITNESS_LIMIT,
    Coverage,
    CheckReport,
    Witness,
    _keep,
    _operator_failures,
    _report,
    _require,
    _require_leibniz,
    _restricted_pass,
)
from .linalg import RowReducer
from .scalars import _freeze, _seal

MODULE_AXIOMS = ("m_first", "m_middle", "m_last")
_BRACKET_FAMILIES = ("r_bracket", "l_bracket", "l_kills_symmetrized")


@dataclass(frozen=True, eq=False)
class LeibnizModule:
    """Module carrier: left_action[i] realizes m -> [e_i, m] and
    right_action[i] realizes m -> [m, e_i], both in column convention and
    held as read-only (dim, mdim, mdim) stacks reduced mod p."""

    over: Algebra
    mdim: int
    left_action: np.ndarray
    right_action: np.ndarray
    label: str = ""

    def __post_init__(self):
        p, n = self.over.p, self.over.dim
        if self.mdim < 0:
            raise UsageError(f"module dimension must be >= 0, got {self.mdim}")
        _check_modulus_bound(p, self.mdim)
        shape = (n, self.mdim, self.mdim)
        for name in ("left_action", "right_action"):
            mats = np.asarray(getattr(self, name), dtype=np.int64) % p
            if mats.shape != shape:
                raise UsageError(
                    f"{name} must have shape {shape}, got {mats.shape}"
                )
            _freeze(self, **{name: _seal(mats)})  # fresh from % p, so not copied

    def right_stack(self, X: np.ndarray) -> np.ndarray:
        """(N, mdim, mdim) stack of the matrices of m -> [m, x], one per row x of X."""
        return operator_stack(self.right_action, X % self.over.p, self.over.p)


def adjoint_module(g: Algebra) -> LeibnizModule:
    """g acting on itself: left_action[i] = [e_i, -], right_action[i] = [-, e_i]."""
    left = g.structure("bracket").transpose(0, 2, 1)
    return LeibnizModule(g, g.dim, left, g.right_ops("bracket"), label=f"adjoint({g.label})")


def zero_module(g: Algebra, mdim: int) -> LeibnizModule:
    if mdim < 0:
        raise UsageError(f"module dimension must be >= 0, got {mdim}")
    zeros = np.zeros((g.dim, mdim, mdim), dtype=np.int64)
    return LeibnizModule(g, mdim, zeros, zeros.copy(),
                         label=f"zero{mdim}({g.label})")


def _module_sides(g: Algebra, M: LeibnizModule):
    """(I, J, sides) per chunk of basis pairs (e_I[b], e_J[b]): the reduced
    (lhs, rhs) stacks of the MODULE_AXIOMS identities, column m at basis vector m."""
    p, n, L, R = g.p, g.dim, M.left_action, M.right_action
    brackets = g.structure("bracket").reshape(n * n, n)
    # about 22 (pairs, mdim, mdim) arrays are alive at once: a chunk's 12 stacks and
    # the sides and 3 relation stacks _module_relations holds of the last chunk
    block = max(1, _CHUNK_ENTRIES // max(1, 22 * M.mdim ** 2))
    for lo in range(0, n * n, block):
        I, J = np.divmod(np.arange(lo, min(lo + block, n * n)), n)
        br = brackets[lo:lo + block]
        Lbr = operator_stack(L, br, p)
        Rbr = M.right_stack(br)
        Li, Ri, Lj, Rj = L[I], R[I], L[J], R[J]
        RjLi = _matmul_mod(Rj, Li, p)
        yield I, J, [  # in MODULE_AXIOMS order
            (Rbr, (_matmul_mod(Rj, Ri, p) - _matmul_mod(Ri, Rj, p)) % p),
            (_matmul_mod(Li, Rj, p), (RjLi - Lbr) % p),
            (_matmul_mod(Li, Lj, p), (Lbr - RjLi) % p),
        ]


def check_module_axioms(g: Algebra, M: LeibnizModule) -> CheckReport:
    """The three nested-bracket identities, one per module slot, on all basis
    pairs of g with every module basis vector covered through the matrices:

    - m first:  [m,[x,y]] = [[m,x],y] - [[m,y],x]
    - m middle: [x,[m,y]] = [[x,m],y] - [[x,y],m]
    - m last:   [x,[y,m]] = [[x,y],m] - [[x,m],y]
    """
    if M.over is not g:
        raise UsageError("module is attached to a different algebra")
    _require_leibniz(g, "underlying bracket fails its identity")
    witnesses, failures = [], 0
    for I, J, sides in _module_sides(g, M):
        bad = np.stack([((lhs - rhs) % g.p).any(axis=1) for lhs, rhs in sides], axis=1)
        failures += _keep(witnesses, np.argwhere(bad), lambda b, a, m: Witness(
            (MODULE_AXIOMS[a], int(I[b]), int(J[b]), int(m)),
            _tup(sides[a][0][b, :, m]), _tup(sides[a][1][b, :, m])))
    return _report("module_axioms", witnesses, failures,
                   Coverage("exhaustive", g.dim ** 2 * len(MODULE_AXIOMS) * M.mdim))


def check_restricted_module(g: Algebra, M: LeibnizModule, pmap: str = "frobenius",
                            cap=None, seed: int = 0, samples: int = 400) -> CheckReport:
    """r_{x^[p]} equals r_x^p as matrices, swept over elements of g (the
    p-map is not linear, so basis pairs do not suffice).  Each witness is
    (x,) with lhs r_{x^[p]} and rhs r_x^p; the first 16 failures in element
    order are kept."""
    return _restricted_module(g, M, pmap, cap, seed, samples)[0]


def _restricted_module(g: Algebra, M: LeibnizModule, pmap: str, cap, seed, samples=400):
    """check_restricted_module's report, with the grid and p-map values it swept."""
    _require(check_module_axioms(g, M), "module identities fail")
    X, PX, cov, failures, found = _restricted_pass(g, M.right_action, pmap, cap, seed, samples)
    witnesses = []
    _keep(witnesses, [(w.inputs, w.rhs, w.lhs) for w in found], Witness)
    return _report("restricted_module", witnesses, failures, cov), X, PX


# -- relation words ------------------------------------------------------------


def _ulp_relations(g: Algebra, W, X, PX):
    """ulp_truncated's generators as sparse rows of W, letter i acting as e_i on the
    left and n+i on the right: the bracket families on basis pairs, r_{e_i^[p]} -
    r_{e_i}^p per basis vector, and letters spanning delta(x) = x^[p] - J(x) on the
    rows x of X (p-map values PX), J the BasisJacobsonPMap of the basis p-values."""
    p, n = g.p, g.dim

    def row(terms):  # summed mod p, as the same word can occur twice
        out = {}
        for word, c in terms:
            out = W.add(out, {W.index[word]: c})
        return out

    brackets = g.structure("bracket").tolist()
    for i, j in itertools.product(range(n), repeat=2):
        br = [(k, c) for k, c in enumerate(brackets[i][j]) if c]
        yield row([((n + k,), c) for k, c in br] + [((n + i, n + j), -1), ((n + j, n + i), 1)])
        yield row([((k,), c) for k, c in br] + [((i, n + j), -1), ((n + j, i), 1)])
        yield row([((n + j, i), 1), ((j, i), 1)])
    values = PX[[np.flatnonzero((X == e).all(axis=1))[0] for e in np.eye(n, dtype=int)]].tolist()
    for i, v in enumerate(values):
        yield row([((n + k,), c) for k, c in enumerate(v) if c] + [((n + i,) * p, -1)])
    delta = (PX - BasisJacobsonPMap("bracket", values).apply_batch(g, X)) % p
    span = RowReducer(p, n)
    for v in delta[delta.any(axis=1)]:
        if new := span.add(v):
            yield row([((n + k,), c) for k, c in new.items()])
        if span.rank == n:
            break


def _module_relations(g, M, pmap, cap, seed, samples, key_prefix=(), gate=None):
    """(failure count, witnesses keyed key_prefix + (tag,) + key, relation count,
    note) of the four relation families on M; a witness is (key, operator, zero).
    On a module the bracket families are the identities of _module_sides, as
    lhs - rhs, in (pair, family) order; for x = e_i, y = e_j:

    - r_bracket = r_[x,y] - r_x r_y + r_y r_x: m first's
    - l_bracket = l_[x,y] - l_x r_y + r_y l_x: m middle's
    - l_kills_symmetrized = (r_y + l_y) l_x: m middle's plus m last's

    r_{x^[p]} - r_x^p is the operator sweep of M.right_action on the
    _pmap_instances rows.  A passing gate has proved the bracket families,
    and the power family too when it swept the same, exhaustive, rows."""
    X, PX, note = _pmap_instances(g, pmap, cap, seed, samples, gate)
    failures, witnesses = 0, []
    for I, J, sides in _module_sides(g, M) if gate is None else ():
        ops = np.stack([lhs - rhs for lhs, rhs in sides], axis=1)
        ops[:, 2] += ops[:, 1]
        ops %= g.p
        failures += _keep(witnesses, np.argwhere(ops.any(axis=(2, 3))), lambda b, t: Witness(
            key_prefix + (_BRACKET_FAMILIES[t], int(I[b]), int(J[b])), ops[b, t],
            np.zeros_like(ops[b, t])))
    if gate is None or gate[0].coverage.kind != "exhaustive":
        found, kept = _operator_failures(M.right_action, g.p, X, PX, key_prefix + ("r_power",))
        witnesses += [Witness(w.inputs, (w.rhs - w.lhs) % g.p, np.zeros_like(w.lhs))
                      for w in kept[:WITNESS_LIMIT - len(witnesses)]]
        failures += found
    return failures, witnesses, len(_BRACKET_FAMILIES) * g.dim ** 2 + len(X), note


def ulp_relations_check(g: Algebra, M: LeibnizModule, pmap: str = "frobenius",
                        cap=None, seed: int = 0, samples: int = 400) -> CheckReport:
    """Each relation word family, with the derived signs, evaluated as
    operators on the module and asserted zero."""
    if M.over is not g:
        raise UsageError("module is attached to a different algebra")
    failures, witnesses, count, note = _module_relations(g, M, pmap, cap, seed, samples)
    return _report("ulp_relations", witnesses, failures,
                   Coverage("exhaustive", count), ("derived signs", note))


def ulp_truncated(g: Algebra, pmap: str = "frobenius", d: int = None, cap=None,
                  seed: int = 0, samples: int = 64) -> QuotientPresentation:
    """Degree-truncated word envelope: the free unital word algebra on 2·dim(g)
    letters divided by the two-sided ideal of the four relation families (derived
    signs), from the generators of _ulp_relations.  For d >= p that is the ideal of
    the bracket families and every r_{x^[p]} - r_x^p: in the word algebra Jacobson's
    formula gives r_x^p = sum x_i r_{e_i}^p + Lie words in the r_{e_i}, each a letter
    modulo bracket relations sandwiched to length <= p <= d, which truncation leaves
    whole, so r_{x^[p]} - r_x^p = r_{delta(x)} + sum x_i (r_{e_i^[p]} - r_{e_i}^p)
    and each set lies in the other's truncated ideal.  J nests brackets to the right,
    the formula to the left; they differ by span{[y, y]}, whose letters are the
    (i, i) r_bracket rows and the (i, j) plus (j, i) ones.  An oversized ambient is
    refused before the sweep."""
    d = g.p if d is None else d
    if d < g.p:
        raise UsageError(f"degree cap {d} is below the characteristic {g.p}")
    W = word_ambient(2 * g.dim, d, g.p, label=f"ul_words({g.label})")
    letters = f"letters 0..{g.dim - 1} act on the left, {g.dim}..{2 * g.dim - 1} on the right"
    return _envelope_quotient(W, g, pmap, cap, seed, samples, _ulp_relations, (letters,))


def module_roundtrip(g: Algebra, M: LeibnizModule, pmap: str = "frobenius",
                     cap=None, seed: int = 0, samples: int = 64) -> CheckReport:
    """Module -> word action -> module: every relation word must act as zero,
    and letter i (n+i) must read left_action[i] (right_action[i]) back.  The
    gate, check_restricted_module, proves all 3·dim**2 + |X| + 2·dim counted
    items: a bracket relation is m first's or m middle's identity, or the sum
    of m middle's and m last's, on a basis pair; a letter acts by the module's
    own matrix; r_{x^[p]} - r_x^p is the restricted condition at x, swept
    again only when a sampled gate swept other rows."""
    gate = _restricted_module(g, M, pmap, cap, seed)
    _require(gate[0], "module is not restricted")
    failures, witnesses, count, note = _module_relations(
        g, M, pmap, cap, seed, samples, ("relation",), gate)
    return _report("module_roundtrip", witnesses, failures,
                   Coverage("exhaustive", count + 2 * g.dim), (note,))
