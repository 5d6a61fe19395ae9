"""Two-sided module theory for restricted brackets and its word envelope.

A module over a bracket algebra g carries per-basis action matrices for
[e_i, m] (left) and [m, e_i] (right), extended linearly in the g argument.
Three compatibility identities tie the actions to the bracket — one for each
slot the module element can occupy inside a nested bracket — and a restricted
module additionally satisfies: acting by x^[p] on the right equals the p-fold
right action by x.

Both checks run on stacks of matrices.  The identities are evaluated on
every basis pair at once, with [e_i, e_j] read from the structure tensor;
the p-power condition is the operator sweep that restricted algebras use
(`identities._restricted_pass`), fed with the module's `right_action` stack.
Module matrix products sum mdim terms, so the module dimension is bounded
by the modulus as an algebra's dimension is.

The same conditions can be phrased as operator identities in the free unital
word algebra on 2·dim(g) letters (letter i acts as [e_i, -], letter dim+i as
[-, e_i], words compose as m·(uv) = (m·u)·v):

- r_[x,y] = r_x r_y - r_y r_x          (right bracket compatibility)
- l_[x,y] = l_x r_y - r_y l_x          (left bracket compatibility)
- (r_y + l_y) l_x = 0                  (mixed annihilation)
- r_{x^[p]} = r_x^p                    (p-power compatibility)

The first two signs are derived from the module identities; subtracting
both composites instead gives a genuinely different relation, which fails
on L2 in odd characteristic and agrees with these mod 2.  `ulp_truncated`
divides the degree-truncated word algebra by the two-sided ideal these
relations span; `module_roundtrip` and `ulp_relations_check` confirm that
each acts as zero on a module, the bracket families through a table of word
operators and the p-power family as the operator sweep of `right_action`.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .algebra_core import Algebra, _check_modulus_bound, _matmul_mod, _tup, operator_stack
from .errors import UsageError
from .free_structures import (
    QuotientPresentation,
    _pmap_instances,
    truncated_ideal_quotient,
    word_ambient,
)
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
    _restricted_leibniz,
    _restricted_pass,
)
from .scalars import _freeze, _seal

MODULE_AXIOMS = ("m_first", "m_middle", "m_last")


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
    zeros = np.zeros((g.dim, mdim, mdim), dtype=np.int64)
    return LeibnizModule(g, mdim, zeros, zeros.copy(),
                         label=f"zero{mdim}({g.label})")


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
    p, n, L, R = g.p, g.dim, M.left_action, M.right_action
    brackets = g.structure("bracket").reshape(n * n, n)
    witnesses, failures = [], 0
    # about 16 (pairs, mdim, mdim) arrays are alive at once in a chunk
    block = max(1, _CHUNK_ENTRIES // max(1, 16 * M.mdim ** 2))
    for lo in range(0, n * n, block):
        I, J = np.divmod(np.arange(lo, min(lo + block, n * n)), n)
        br = brackets[lo:lo + block]
        Lbr = operator_stack(L, br, p)
        Rbr = M.right_stack(br)
        Li, Ri, Lj, Rj = L[I], R[I], L[J], R[J]
        RjLi = _matmul_mod(Rj, Li, p)
        sides = [  # in MODULE_AXIOMS order
            (Rbr, (_matmul_mod(Rj, Ri, p) - _matmul_mod(Ri, Rj, p)) % p),
            (_matmul_mod(Li, Rj, p), (RjLi - Lbr) % p),
            (_matmul_mod(Li, Lj, p), (Lbr - RjLi) % p),
        ]
        bad = np.stack([((lhs - rhs) % p).any(axis=1) for lhs, rhs in sides], axis=1)
        failures += _keep(witnesses, np.argwhere(bad), lambda b, a, m: Witness(
            (MODULE_AXIOMS[a], int(I[b]), int(J[b]), int(m)),
            _tup(sides[a][0][b, :, m]), _tup(sides[a][1][b, :, m])))
    return _report("module_axioms", witnesses, failures,
                   Coverage("exhaustive", n * n * len(MODULE_AXIOMS) * M.mdim))


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


def _bracket_terms(g: Algebra):
    """The three bracket families on basis pairs as (tag, key, [(word, coeff),
    ...]) triples; letter i acts as e_i on the left, letter n+i on the right."""
    p, n = g.p, g.dim
    brackets = g.structure("bracket").tolist()
    out = []
    for i, j in itertools.product(range(n), repeat=2):
        br = [(k, c % p) for k, c in enumerate(brackets[i][j]) if c % p]
        out += [("r_bracket", (i, j), [((n + k,), c) for k, c in br]
                 + [((n + i, n + j), -1), ((n + j, n + i), 1)]),
                ("l_bracket", (i, j), [((k,), c) for k, c in br]
                 + [((i, n + j), -1), ((n + j, i), 1)]),
                ("l_kills_symmetrized", (i, j), [((n + j, i), 1), ((j, i), 1)])]
    return out


def _power_terms(g: Algebra, X, PX):
    """r_{x^[p]} - r_x^p on the rows x of X (p-map values PX), r_x^p expanded
    into its |supp x|**p words: generators of ulp_truncated's ideal alone."""
    p, n = g.p, g.dim
    for x, fx in zip(map(tuple, X.tolist()), PX.tolist()):
        support = [(n + k, v % p) for k, v in enumerate(x) if v % p]
        yield ("r_power", (x,), [((n + k,), c % p) for k, c in enumerate(fx) if c % p]
               + [(tuple(k for k, _ in f), -math.prod(v for _, v in f) % p)
                  for f in itertools.product(support, repeat=p)])


def _word_action(M: LeibnizModule, terms) -> dict:
    """Word -> operator on M for 1, every letter and every relation word:
    letter i acts by left_action[i], letter n+i by right_action[i], composed
    in reading order a word length at a time, in chunks fitting _CHUNK_ENTRIES
    at six operators a word (int64 operands, float copies, product, result).
    A prefix no relation names is dropped once used.  Bracket-family words
    have length <= 2: at most 4·dim**2 + 2·dim + 1 operators are kept."""
    mats = np.concatenate([M.left_action, M.right_action])
    keep = {w for _tag, _key, ws in terms for w, _c in ws} | {(i,) for i in range(len(mats))}
    words = keep | {w[:k] for w in keep for k in range(1, len(w))}
    table = {(): np.eye(M.mdim, dtype=np.int64)}
    step = max(1, _CHUNK_ENTRIES // max(1, 6 * M.mdim ** 2))
    for k in range(1, max(map(len, words), default=0) + 1):
        ws = [w for w in words if len(w) == k]
        for chunk in (ws[c:c + step] for c in range(0, len(ws), step)):
            table.update(zip(chunk, _matmul_mod(mats[[w[-1] for w in chunk]], np.stack(
                [table[w[:-1]] for w in chunk]), M.over.p)))
        for w in {w[:-1] for w in ws} - keep - {()}:
            del table[w]
    return table


def _relation_failures(table, terms, key_prefix, p):
    """Failure count of the relations (sums of coeff * table[word]) and
    witnesses keyed key_prefix + (tag,) + key for the first WITNESS_LIMIT."""
    failures, witnesses = 0, []
    for tag, key, words in terms:
        op = np.zeros_like(table[()])
        for word, coeff in words:
            op = (op + coeff * table[word]) % p
        failures += bool(op.any())
        if op.any() and len(witnesses) < WITNESS_LIMIT:
            witnesses.append(Witness(key_prefix + (tag,) + key, op, np.zeros_like(op)))
    return failures, witnesses


def _module_relations(g, M, pmap, cap, seed, samples, key_prefix=(), gate=None):
    """(failure count, witnesses keyed key_prefix + (tag,) + key, relation
    count, _word_action table, note) of the four relation families on M.  The
    p-power words sum to r_{x^[p]} - r_x^p on M: that family is the operator
    sweep of M.right_action (witness lhs r_{x^[p]} - r_x^p, rhs zero), or the
    passing gate's own sweep when it swept the same, exhaustive, rows."""
    X, PX, note = _pmap_instances(g, pmap, cap, seed, samples, gate)
    terms = _bracket_terms(g)
    table = _word_action(M, terms)
    failures, witnesses = _relation_failures(table, terms, key_prefix, g.p)
    if gate is None or gate[0].coverage.kind != "exhaustive":
        found, kept = _operator_failures(M.right_action, g.p, X, PX, key_prefix + ("r_power",))
        witnesses += [Witness(w.inputs, (w.rhs - w.lhs) % g.p, np.zeros_like(w.lhs))
                      for w in kept[:WITNESS_LIMIT - len(witnesses)]]
        failures += found
    return failures, witnesses, len(terms) + len(X), table, note


def ulp_relations_check(g: Algebra, M: LeibnizModule, pmap: str = "frobenius",
                        cap=None, seed: int = 0, samples: int = 400) -> CheckReport:
    """Each relation word family, with the derived signs, evaluated as
    operators on the module and asserted zero."""
    if M.over is not g:
        raise UsageError("module is attached to a different algebra")
    failures, witnesses, count, _table, note = _module_relations(g, M, pmap, cap, seed, samples)
    return _report("ulp_relations", witnesses, failures,
                   Coverage("exhaustive", count), ("derived signs", note))


def ulp_truncated(g: Algebra, pmap: str = "frobenius", d: int = None, cap=None,
                  seed: int = 0, samples: int = 64) -> QuotientPresentation:
    """Degree-truncated word envelope: the free unital word algebra on
    2·dim(g) letters divided by the two-sided ideal of the four relation
    families (derived signs).  An oversized ambient is refused before the sweep."""
    d = g.p if d is None else d
    if d < g.p:
        raise UsageError(
            f"degree cap {d} is below the characteristic {g.p}"
        )
    W = word_ambient(2 * g.dim, d, g.p, label=f"ul_words({g.label})")
    gate = _restricted_leibniz(g, pmap, cap, seed)
    _require(gate[0], "input is not restricted Leibniz")
    X, PX, note = _pmap_instances(g, pmap, cap, seed, samples, gate)
    terms = _bracket_terms(g) + list(_power_terms(g, X, PX))
    rels = []
    for _tag, _key, words in terms:
        rel = {}
        for word, coeff in words:
            rel = W.add(rel, {W.index[word]: coeff})
        if rel:
            rels.append(rel)
    notes = (
        f"letters 0..{g.dim - 1} act on the left, "
        f"{g.dim}..{2 * g.dim - 1} on the right",
        note,
    )
    return truncated_ideal_quotient(W, rels, notes=notes)


def module_roundtrip(g: Algebra, M: LeibnizModule, pmap: str = "frobenius",
                     cap=None, seed: int = 0, samples: int = 64) -> CheckReport:
    """Module -> word action -> module.  The word action sends letter i to
    left_action[i] and letter n+i to right_action[i], composed in reading
    order; every relation word must act as the zero operator, and the
    single-letter words must read the original module back bit-exactly."""
    gate = _restricted_module(g, M, pmap, cap, seed)
    _require(gate[0], "module is not restricted")
    failures, witnesses, count, table, note = _module_relations(
        g, M, pmap, cap, seed, samples, ("relation",), gate)
    readback = [(("readback", tag, i), table[letter], original) for i in range(g.dim)
                for tag, original, letter in (("left", M.left_action[i], (i,)),
                                              ("right", M.right_action[i], (g.dim + i,)))]
    failures += _keep(witnesses, [r for r in readback if not np.array_equal(*r[1:])], Witness)
    return _report("module_roundtrip", witnesses, failures,
                   Coverage("exhaustive", count + 2 * g.dim), (note,))
