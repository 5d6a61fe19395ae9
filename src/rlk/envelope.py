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
(`identities._operator_failures`), fed with the module's `right_stack`.
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
relations span; `module_roundtrip` turns a module into a word action,
confirms every relation acts as zero, and reads the module back
bit-exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra_core import Algebra, _check_modulus_bound, _tup
from .errors import UsageError
from .free_structures import (
    QuotientPresentation,
    _pmap_instances,
    truncated_ideal_quotient,
    word_ambient,
)
from .identities import (
    _CHUNK_ENTRIES,
    Coverage,
    CheckReport,
    Witness,
    _grid,
    _keep,
    _operator_failures,
    _report,
    _require,
    check_leibniz,
    check_restricted_leibniz,
)

MODULE_AXIOMS = ("m_first", "m_middle", "m_last")


@dataclass
class LeibnizModule:
    """Module carrier: left_action[i] realizes m -> [e_i, m] and
    right_action[i] realizes m -> [m, e_i], both in column convention."""

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
            setattr(self, name, mats)

    def right_stack(self, X: np.ndarray) -> np.ndarray:
        """(N, mdim, mdim) stack of the matrices of m -> [m, x], one per row x
        of the (N, dim) coefficient array X."""
        p = self.over.p
        return np.tensordot(X % p, self.right_action, axes=(1, 0)) % p

    def __repr__(self):
        tag = f" {self.label!r}" if self.label else ""
        return (
            f"LeibnizModule(over={self.over.label!r}, mdim={self.mdim}{tag})"
        )


def adjoint_module(g: Algebra) -> LeibnizModule:
    """g acting on itself: left_action[i] = [e_i, -], right_action[i] = [-, e_i]."""
    c = g.structure("bracket")
    left = np.transpose(c, (0, 2, 1)) % g.p
    right = np.transpose(c, (1, 2, 0)) % g.p
    return LeibnizModule(g, g.dim, left, right, label=f"adjoint({g.label})")


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
    _require(check_leibniz(g), "underlying bracket fails its identity")
    p, n, L, R = g.p, g.dim, M.left_action, M.right_action
    brackets = g.structure("bracket").reshape(n * n, n)
    witnesses, failures = [], 0
    # about 16 (pairs, mdim, mdim) arrays are alive at once in a chunk
    block = max(1, _CHUNK_ENTRIES // max(1, 16 * M.mdim ** 2))
    for lo in range(0, n * n, block):
        I, J = np.divmod(np.arange(lo, min(lo + block, n * n)), n)
        br = brackets[lo:lo + block]
        Lbr = np.tensordot(br, L, axes=(1, 0)) % p
        Rbr = np.tensordot(br, R, axes=(1, 0)) % p
        Li, Ri, Lj, Rj = L[I], R[I], L[J], R[J]
        RjLi = Rj @ Li
        sides = [  # in MODULE_AXIOMS order
            (Rbr, (Rj @ Ri - Ri @ Rj) % p),
            ((Li @ Rj) % p, (RjLi - Lbr) % p),
            ((Li @ Lj) % p, (Lbr - RjLi) % p),
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
    _require(check_module_axioms(g, M), "module identities fail")
    X, coverage = _grid(g, cap, seed, samples)
    failures, found = _operator_failures(M.right_stack, M.mdim, g.p, X,
                                         g.apply_pmap_batch(pmap, X))
    witnesses = []
    _keep(witnesses, [(w.inputs, w.rhs, w.lhs) for w in found], Witness)
    return _report("restricted_module", witnesses, failures, coverage)


# -- relation words ------------------------------------------------------------


def _relation_terms(g: Algebra, pmap: str, cap, seed, samples):
    """The four relation families as (tag, key, [(word, coeff), ...]) triples,
    in letter convention: letter i = left action of e_i, letter n+i = right.
    Bilinear families are instantiated on basis pairs, the p-power family on
    enumerated or sampled elements of g."""
    p, n = g.p, g.dim
    brackets = g.structure("bracket").tolist()
    out = []
    for i in range(n):
        for j in range(n):
            br = brackets[i][j]
            rbr = [((n + k,), c % p) for k, c in enumerate(br) if c % p]
            lbr = [((k,), c % p) for k, c in enumerate(br) if c % p]
            out.append(("r_bracket", (i, j),
                        rbr + [((n + i, n + j), -1), ((n + j, n + i), 1)]))
            out.append(("l_bracket", (i, j),
                        lbr + [((i, n + j), -1), ((n + j, i), 1)]))
            out.append(("l_kills_symmetrized", (i, j),
                        [((n + j, i), 1), ((j, i), 1)]))
    instances, values, note = _pmap_instances(g, pmap, cap, seed, samples)
    for x, fx in zip(instances, values):
        x = tuple(int(v) for v in x)
        terms = [((n + k,), c % p) for k, c in enumerate(fx) if c % p]
        support = [(k, v % p) for k, v in enumerate(x) if v % p]
        power = {(): 1}
        for _ in range(p):
            nxt = {}
            for word, cw in power.items():
                for k, v in support:
                    key = word + (n + k,)
                    nxt[key] = (nxt.get(key, 0) + cw * v) % p
            power = {w: c for w, c in nxt.items() if c}
        terms += [(w, (-c) % p) for w, c in power.items()]
        out.append(("r_power", (x,), terms))
    return out, note


def _word_action(M: LeibnizModule):
    """Word -> operator on M: letter i acts by left_action[i], letter n+i by
    right_action[i], composed in reading order (the empty word is 1)."""
    p = M.over.p
    mats = np.concatenate([M.left_action, M.right_action]) % p
    eye = np.eye(M.mdim, dtype=np.int64)

    def act(word):
        acc = eye
        for letter in word:
            acc = (mats[letter] @ acc) % p
        return acc

    return act


def _relation_failures(act, terms, key_prefix, p):
    """Evaluate each relation as the sum of coeff * act(word) and collect
    the nonzero ones as (failure count, witnesses keyed key_prefix + (tag,)
    + key)."""
    def value(words):
        op = np.zeros_like(act(()))
        for word, coeff in words:
            op = (op + coeff * act(word)) % p
        return op

    def witness(tag, key, words):  # evaluated again for the few kept
        op = value(words)
        return Witness(key_prefix + (tag,) + key, op, np.zeros_like(op))

    witnesses = []
    failures = _keep(witnesses, [t for t in terms if value(t[2]).any()], witness)
    return failures, witnesses


def ulp_relations_check(g: Algebra, M: LeibnizModule, pmap: str = "frobenius",
                        cap=None, seed: int = 0, samples: int = 400) -> CheckReport:
    """Each relation word family, with the derived signs, evaluated as
    operators on the module and asserted zero."""
    if M.over is not g:
        raise UsageError("module is attached to a different algebra")
    terms, note = _relation_terms(g, pmap, cap, seed, samples)
    failures, witnesses = _relation_failures(_word_action(M), terms, (), g.p)
    notes = ("derived signs", note)
    return _report("ulp_relations", witnesses, failures,
                   Coverage("exhaustive", len(terms)), notes)


def ulp_truncated(g: Algebra, pmap: str = "frobenius", d: int = None, cap=None,
                  seed: int = 0, samples: int = 64) -> QuotientPresentation:
    """Degree-truncated word envelope: the free unital word algebra on
    2·dim(g) letters divided by the two-sided ideal of the four relation
    families (derived signs)."""
    d = g.p if d is None else d
    if d < g.p:
        raise UsageError(
            f"degree cap {d} is below the characteristic {g.p}"
        )
    _require(check_restricted_leibniz(g, pmap, cap=cap, seed=seed),
             "input is not restricted Leibniz")
    W = word_ambient(2 * g.dim, d, g.p, label=f"ul_words({g.label})")
    terms, note = _relation_terms(g, pmap, cap, seed, samples)
    rels = []
    for _tag, _key, words in terms:
        rel = {}
        for word, coeff in words:
            k = W.index[word]
            v = (rel.get(k, 0) + coeff) % g.p
            if v:
                rel[k] = v
            else:
                rel.pop(k, None)
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
    _require(check_restricted_module(g, M, pmap, cap=cap, seed=seed),
             "module is not restricted")
    p, n = g.p, g.dim
    act = _word_action(M)
    terms, note = _relation_terms(g, pmap, cap, seed, samples)
    failures, witnesses = _relation_failures(act, terms, ("relation",), p)
    readback = [(tag, i, act(letter), original % p)
                for i in range(n)
                for tag, original, letter in (("left", M.left_action[i], (i,)),
                                              ("right", M.right_action[i], (n + i,)))]
    failures += _keep(witnesses, [r for r in readback if not np.array_equal(r[2], r[3])],
                      lambda tag, i, back, original: Witness(("readback", tag, i), back, original))
    return _report("module_roundtrip", witnesses, failures,
                   Coverage("exhaustive", len(terms) + 2 * n), (note,))
