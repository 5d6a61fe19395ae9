"""Independent computations for the benchmark's output checks.

Nothing here imports rlk.  Structure constants are numpy int64 tensors
c[i, j, k] (e_i * e_j has coefficient c[i, j, k] on e_k), elements are
tuples of residues, and operator matrices use the column convention (column
i is the image of e_i), matching the file format the benchmark writes.
Most routines are plain Python loops on purpose: they should disagree with
the kernels when a kernel is wrong.
"""

from __future__ import annotations

import importlib.util
import itertools
import math
import random
from pathlib import Path

import numpy as np

# -- F_p linear algebra ---------------------------------------------------------

# The plain-Python products, powers, ranks and shuffles of the repository's
# test oracles (tests/oracles.py, loaded under another name since this module
# is also called `oracles`).


def _load_suite():
    path = Path(__file__).resolve().parent.parent / "tests" / "oracles.py"
    spec = importlib.util.spec_from_file_location("suite_oracles", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


suite = _load_suite()
multiply = suite.naive_multiply
mat_mul = suite.naive_mat_mul
mat_pow = suite.naive_mat_pow
rank_mod = suite.gauss_rank
shuffles = suite.naive_shuffle


def inv_mod(a: int, p: int) -> int:
    return suite.brute_inv(a % p, p)


def mat_inverse(m, p: int):
    """Gauss-Jordan inverse over F_p of a square list-of-lists; None if singular."""
    n = len(m)
    a = [[int(v) % p for v in row] + [int(i == j) for j in range(n)]
         for i, row in enumerate(m)]
    for col in range(n):
        piv = next((r for r in range(col, n) if a[r][col]), None)
        if piv is None:
            return None
        a[col], a[piv] = a[piv], a[col]
        inv = inv_mod(a[col][col], p)
        a[col] = [(v * inv) % p for v in a[col]]
        for r in range(n):
            f = a[r][col]
            if r != col and f:
                a[r] = [(x - f * y) % p for x, y in zip(a[r], a[col])]
    return [row[n:] for row in a]


def random_invertible(p: int, n: int, rng):
    while True:
        m = [[rng.randrange(p) for _ in range(n)] for _ in range(n)]
        inv = mat_inverse(m, p)
        if inv is not None:
            return np.array(m, dtype=np.int64), np.array(inv, dtype=np.int64)


def random_monomial(p: int, n: int, rng):
    """A permutation matrix with seeded nonzero scalars, and its inverse.  A
    change to such a basis keeps the zero pattern of structure constants."""
    perm = list(range(n))
    rng.shuffle(perm)
    m = [[0] * n for _ in range(n)]
    for i, j in enumerate(perm):
        m[i][j] = 1 + rng.randrange(p - 1)
    return np.array(m, dtype=np.int64), np.array(mat_inverse(m, p), dtype=np.int64)


# -- structure constants ----------------------------------------------------------


def change_basis(c: np.ndarray, S: np.ndarray, Sinv: np.ndarray, p: int) -> np.ndarray:
    """Constants in the basis f_a = sum_i S[i, a] e_i."""
    t = np.einsum("ia,ijk->ajk", S, c) % p
    t = np.einsum("jb,ajk->abk", S, t) % p
    return np.einsum("ck,abk->abc", Sinv, t) % p


def conjugate_operator(D: np.ndarray, S: np.ndarray, Sinv: np.ndarray, p: int) -> np.ndarray:
    return (Sinv @ D @ S) % p


def add(x, y, p: int) -> tuple:
    return tuple((a + b) % p for a, b in zip(x, y))


def scale(a: int, x, p: int) -> tuple:
    return tuple((a * v) % p for v in x)


def right_mult_matrix(c, x, p: int):
    """Matrix of y -> y * x (column i is e_i * x)."""
    dim = len(x)
    cols = [multiply(c, tuple(int(i == j) for j in range(dim)), x, p)
            for i in range(dim)]
    return [[cols[i][k] for i in range(dim)] for k in range(dim)]


def right_power(c, x, p: int) -> tuple:
    """((x * x) * x) ... with p factors."""
    v = x
    for _ in range(p - 1):
        v = multiply(c, v, x, p)
    return v


def to_lists(c: np.ndarray):
    return [[[int(v) for v in row] for row in plane] for plane in c]


# -- fixtures (associative algebras, dialgebras, Zinbiel, Leibniz) -----------------


def truncated_poly(n: int) -> np.ndarray:
    c = np.zeros((n, n, n), dtype=np.int64)
    for i in range(n):
        for j in range(n - i):
            c[i, j, i + j] = 1
    return c


def diagonal(k: int) -> np.ndarray:
    c = np.zeros((k, k, k), dtype=np.int64)
    for i in range(k):
        c[i, i, i] = 1
    return c


def upper_triangular2() -> np.ndarray:
    idx = {(0, 0): 0, (0, 1): 1, (1, 1): 2}
    c = np.zeros((3, 3, 3), dtype=np.int64)
    for (u, v), i in idx.items():
        for (w, z), j in idx.items():
            if v == w and (u, z) in idx:
                c[i, j, idx[(u, z)]] = 1
    return c


def matrix_assoc(n: int) -> np.ndarray:
    d = n * n
    c = np.zeros((d, d, d), dtype=np.int64)
    for u, v, z in itertools.product(range(n), repeat=3):
        c[u * n + v, v * n + z, u * n + z] = 1
    return c


def l2_dialgebra():
    """f1 -| f2 = f1, f2 -| f2 = f2, f2 |- f2 = f2; derived bracket [f1, f2] = f1."""
    cl = np.zeros((2, 2, 2), dtype=np.int64)
    cl[0, 1, 0] = 1
    cl[1, 1, 1] = 1
    cr = np.zeros((2, 2, 2), dtype=np.int64)
    cr[1, 1, 1] = 1
    return cl, cr


def l2_bracket() -> np.ndarray:
    c = np.zeros((2, 2, 2), dtype=np.int64)
    c[0, 1, 0] = 1
    return c


def operator_dialgebra(c: np.ndarray, D: np.ndarray, p: int):
    """a -| b = a(Db) and a |- b = (Da)b."""
    cl = np.einsum("mj,imk->ijk", D, c) % p
    cr = np.einsum("mi,mjk->ijk", D, c) % p
    return cl, cr


def derived_bracket(cl: np.ndarray, cr: np.ndarray, p: int) -> np.ndarray:
    """[x, y] = x -| y - y |- x."""
    return (cl - cr.transpose(1, 0, 2)) % p


def gl_n(c: np.ndarray, n: int) -> np.ndarray:
    """Matrices over an algebra: (E_ij a)(E_kl b) = [j == k] E_il (ab); basis
    (i, j, a) at index (i*n + j)*dim + a."""
    d = c.shape[0]
    big = np.zeros((n * n * d,) * 3, dtype=np.int64)
    for i, j, l in itertools.product(range(n), repeat=3):
        r, s, o = (i * n + j) * d, (j * n + l) * d, (i * n + l) * d
        big[r:r + d, s:s + d, o:o + d] = c
    return big


def free_zinbiel(ngen: int, cap: int, p: int) -> np.ndarray:
    """Half-shuffle u < v = u[0] (u[1:] shuffled with v) on nonempty words of
    length <= cap; products past the cap are zero."""
    words = [w for n in range(1, cap + 1)
             for w in itertools.product(range(ngen), repeat=n)]
    idx = {w: i for i, w in enumerate(words)}
    c = np.zeros((len(words),) * 3, dtype=np.int64)
    for u in words:
        for v in words:
            if len(u) + len(v) <= cap:
                for w, m in shuffles(u[1:], v).items():
                    c[idx[u], idx[v], idx[(u[0],) + w]] += m
    return c % p


# -- file format -------------------------------------------------------------------


def format_file(p: int, dim: int, ops: dict, pmap_lines=(), label: str = "") -> str:
    out = [f"label {label}"] if label else []
    out.append(f"p={p} dim={dim}")
    for name, c in ops.items():
        out.append(f"op {name}:")
        for i, j, k in zip(*np.nonzero(c % p)):
            out.append(f"{i} {j} {k} {int(c[i, j, k]) % p}")
    out.extend(pmap_lines)
    return "\n".join(out) + "\n"


def operator_block(D: np.ndarray) -> np.ndarray:
    """Operator matrix as the `endo` op: entry (i, 0, k) is D[k, i]."""
    n = D.shape[0]
    c = np.zeros((n, n, n), dtype=np.int64)
    c[:, 0, :] = D.T
    return c


def parse_ops(text: str) -> tuple:
    """(p, dim, {op name: tensor}, [pmap header lines]) of a derived file."""
    p = dim = None
    ops, pmaps, current = {}, [], None
    for raw in text.splitlines():
        row = raw.strip()
        if not row or row.startswith(("#", "label ")):
            continue
        if row.startswith("p="):
            head = dict(part.split("=") for part in row.split())
            p, dim = int(head["p"]), int(head["dim"])
        elif row.startswith("op "):
            current = np.zeros((dim, dim, dim), dtype=np.int64)
            ops[row[3:].rstrip(":").strip()] = current
        elif row.startswith("pmap "):
            pmaps.append(row)
            current = None
        elif current is not None:
            i, j, k, v = (int(t) for t in row.split())
            current[i, j, k] = v % p
    return p, dim, ops, pmaps


# -- Jacobson polarization ------------------------------------------------------------


def jacobson_terms(bracket, x, y, p: int) -> list:
    """s_1..s_{p-1}: i*s_i is the coefficient of lambda**(i-1) in the (p-1)-fold
    right bracketing of x by lambda*x + y.  The polynomial is a dict from
    degree to vector, expanded one bracketing at a time."""
    zero = tuple(0 for _ in x)
    poly = {0: tuple(x)}
    for _ in range(p - 1):
        nxt = {}
        for deg, v in poly.items():
            for shift, w in ((0, y), (1, x)):
                term = bracket(v, w)
                nxt[deg + shift] = add(nxt.get(deg + shift, zero), term, p)
        poly = nxt
    return [scale(inv_mod(i, p), poly.get(i - 1, zero), p) for i in range(1, p)]


# -- envelopes: evaluation, module action, sandwich ranks ----------------------------


def dias_evaluate(cl, cr, mono, p: int) -> tuple:
    """Image in a dialgebra of the free monomial (u, a, v) = u1 |- ... |- a -| ... -| vm."""
    left, center, right = mono
    dim = len(cl)
    basis = [tuple(int(i == j) for j in range(dim)) for i in range(dim)]
    val = basis[center]
    for letter in right:
        val = multiply(cl, val, basis[letter], p)
    for letter in reversed(left):
        val = multiply(cr, basis[letter], val, p)
    return val


def adjoint_actions(c) -> list:
    """Letter matrices on the adjoint module: letter i is m -> [e_i, m] and
    letter n+i is m -> [m, e_i]."""
    n = len(c)
    left = [[[c[i][m][k] for m in range(n)] for k in range(n)] for i in range(n)]
    right = [[[c[m][i][k] for m in range(n)] for k in range(n)] for i in range(n)]
    return left + right


def word_action(mats, word, p: int):
    """Operator of a word: letters act in reading order, m.(uv) = (m.u).v."""
    n = len(mats[0])
    acc = [[int(i == j) for j in range(n)] for i in range(n)]
    for letter in word:
        acc = mat_mul(mats[letter], acc, p)
    return acc


def projection_mismatches(images, projection: np.ndarray, p: int) -> int:
    """How many ambient basis vectors m have image(m) != image(P m), for a
    linear image given on the basis as an (N, ...) array."""
    img = np.asarray(images, dtype=np.int64).reshape(len(images), -1)
    projected = (projection.T.astype(np.int64) @ img) % p
    return int(np.count_nonzero((projected - img) % p, axis=1).astype(bool).sum())


def word_relations_abelian(n: int, p: int) -> list:
    """Relation families of the word envelope of the n-dim abelian algebra with
    the zero p-map, as dicts word -> coefficient: right brackets, left brackets,
    mixed annihilation, and the p-th powers of right letters."""
    rels = []
    for i, j in itertools.product(range(n), repeat=2):
        rels.append(_accumulate((((n + i, n + j), -1), ((n + j, n + i), 1))))
        rels.append({(i, n + j): -1, (n + j, i): 1})
        rels.append({(n + j, i): 1, (j, i): 1})
    for x in itertools.product(range(p), repeat=n):
        power = {(): 1}
        for _ in range(p):
            power = _accumulate((w + (n + k,), c * x[k])
                                for w, c in power.items() for k in range(n))
        rels.append({w: -c for w, c in power.items()})
    return rels


def dias_relations_abelian(n: int, p: int) -> list:
    """Relations of the diassociative envelope of the n-dim abelian algebra with
    the zero p-map: -(e_i -| e_j - e_j |- e_i) and -(p-fold |- power of x)."""
    rels = [{((), i, (j,)): -1, ((j,), i, ()): 1}
            for i, j in itertools.product(range(n), repeat=2)]
    for x in itertools.product(range(p), repeat=n):
        rels.append(_accumulate(
            ((tuple(seq[:-1]), seq[-1], ()), -math.prod(x[a] for a in seq))
            for seq in itertools.product(range(n), repeat=p)))
    return rels


def _accumulate(pairs) -> dict:
    out = {}
    for key, c in pairs:
        if c:
            out[key] = out.get(key, 0) + c
    return out


def word_product(u, v):
    return ((u + v, 1),)


def dias_products(m1, m2):
    """Both products of dias monomials: (u,a,v) -| (u',a',v') = (u, a, v u' a' v')
    and (u,a,v) |- (u',a',v') = (u a v u', a', v')."""
    (ul, uc, ur), (vl, vc, vr) = m1, m2
    return ((ul, uc, ur + vl + (vc,) + vr), 1), ((ul + (uc,) + ur + vl, vc, vr), 1)


def word_degree(w) -> int:
    return len(w)


def dias_degree(m) -> int:
    return len(m[0]) + 1 + len(m[2])


def sandwich_ranks(monomials, degree, products, relations, p: int) -> dict:
    """Per-degree rank of the two-sided ideal spanned by homogeneous relations
    in a truncated free algebra with the given monomial basis.  Degree k of
    the ideal is spanned by the degree-k relations and by x*m and m*x for
    every x in a lower degree of the ideal and every monomial m (all
    products), which is every sandwich."""
    by_deg = {}
    for m in monomials:
        by_deg.setdefault(degree(m), []).append(m)
    index = {k: {m: i for i, m in enumerate(ms)} for k, ms in by_deg.items()}
    basis = {}  # degree -> list of dict rows spanning the ideal there
    ranks = {}
    for k in sorted(by_deg):
        if k == 0:
            continue
        rows = []
        for r in relations:
            degs = {degree(m) for m, c in r.items() if c % p}
            if degs == {k}:
                rows.append(r)
        for j in range(1, k):
            for x in basis.get(j, ()):
                for m in by_deg.get(k - j, ()):
                    for a, b in ((x, {m: 1}), ({m: 1}, x)):
                        for out in _products(a, b, products, p):
                            rows.append(out)
        dense = []
        for r in rows:
            v = [0] * len(by_deg[k])
            for m, c in r.items():
                v[index[k][m]] = (v[index[k][m]] + c) % p
            if any(v):
                dense.append(v)
        rows = suite.gauss_echelon_rows(dense, p)
        ranks[k] = len(rows)
        basis[k] = [{by_deg[k][i]: v for i, v in enumerate(row) if v} for row in rows]
    return ranks


def _products(a: dict, b: dict, products, p: int):
    """Each product of two sparse elements, one dict per product operation."""
    outs = None
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            terms = products(m1, m2)
            if outs is None:
                outs = [{} for _ in terms]
            for out, (m, c) in zip(outs, terms):
                out[m] = (out.get(m, 0) + c * c1 * c2) % p
    return outs or []


# -- brute-force failure counts for planted violations --------------------------------


def count_operator_violations(bracket, table: dict, p: int) -> int:
    """Elements x with r_x**p != r_{f(x)} for a table p-map f."""
    c = to_lists(bracket)
    bad = 0
    for x, fx in table.items():
        if mat_pow(right_mult_matrix(c, x, p), p, p) != right_mult_matrix(c, fx, p):
            bad += 1
    return bad


def count_dleib_jacobson_failures(cl, cr, samples: int, seed: int, p: int) -> int:
    """Sampled triples (z, x, y) breaking [z,(x+y)^[p]] = [z,x^[p]] + [z,y^[p]]
    + [z, sum_i s_i(x, y)] for the derived bracket x -| y - y |- x and the p-fold
    |- power.  Triples are drawn in the kernel's order: random.Random(seed),
    then z, x, y, one coefficient at a time."""
    L, R = to_lists(cl), to_lists(cr)
    dim = len(L)

    def bracket(a, b):
        return add(multiply(L, a, b, p), scale(-1, multiply(R, b, a, p), p), p)

    rng = random.Random(seed)
    bad = 0
    for _ in range(samples):
        z, x, y = (tuple(rng.randrange(p) for _ in range(dim)) for _ in range(3))
        lhs = bracket(z, right_power(R, add(x, y, p), p))
        s = tuple(0 for _ in range(dim))
        for term in jacobson_terms(bracket, x, y, p):
            s = add(s, term, p)
        rhs = add(add(bracket(z, right_power(R, x, p)), bracket(z, right_power(R, y, p)), p),
                  bracket(z, s), p)
        bad += lhs != rhs
    return bad


def count_module_axiom_failures(bracket, left, right, p: int) -> int:
    """Columns m, per basis pair (i, j) and per slot, where a module breaks

    - m first:  [m,[x,y]] = [[m,x],y] - [[m,y],x]
    - m middle: [x,[m,y]] = [[x,m],y] - [[x,y],m]
    - m last:   [x,[y,m]] = [[x,y],m] - [[x,m],y]

    with left[i] the matrix of m -> [e_i, m] and right[i] that of m -> [m, e_i]."""
    c = to_lists(bracket)
    n = len(c)
    L = [[[int(v) for v in row] for row in mat] for mat in left]
    R = [[[int(v) for v in row] for row in mat] for mat in right]
    mdim = len(L[0]) if n else 0

    def combo(mats, coeffs):
        out = [[0] * mdim for _ in range(mdim)]
        for k, a in enumerate(coeffs):
            if a:
                for r in range(mdim):
                    for s in range(mdim):
                        out[r][s] = (out[r][s] + a * mats[k][r][s]) % p
        return out

    def sub(a, b):
        return [[(x - y) % p for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]

    bad = 0
    for i, j in itertools.product(range(n), repeat=2):
        br = tuple(c[i][j][k] % p for k in range(n))
        Lbr, Rbr = combo(L, br), combo(R, br)
        sides = (
            (Rbr, sub(mat_mul(R[j], R[i], p), mat_mul(R[i], R[j], p))),
            (mat_mul(L[i], R[j], p), sub(mat_mul(R[j], L[i], p), Lbr)),
            (mat_mul(L[i], L[j], p), sub(Lbr, mat_mul(R[j], L[i], p))),
        )
        for lhs, rhs in sides:
            diff = sub(lhs, rhs)
            bad += sum(1 for m in range(mdim) if any(diff[r][m] for r in range(mdim)))
    return bad
