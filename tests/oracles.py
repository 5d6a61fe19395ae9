"""Independent oracles for the test suite.

Everything here is deliberately naive (brute-force searches, triple loops,
pure-Python row echelon) and shares no code with the package kernels, so the
two sides can disagree when one of them is wrong.
"""

import itertools
import math


def brute_inv(a, p):
    for b in range(1, p):
        if (a * b) % p == 1:
            return b
    raise ValueError(f"no inverse for {a} mod {p}")


def brute_is_prime(n):
    return n >= 2 and all(n % d for d in range(2, n))


def trial_division_is_prime(n):
    """Primality by trial division up to the square root, for n up to ~2**32."""
    return n >= 2 and all(n % d for d in range(2, math.isqrt(n) + 1))


def naive_multiply(c, x, y, p):
    """Structure-constant product by triple loop; c indexed [i][j][k]."""
    dim = len(x)
    out = [0] * dim
    for i in range(dim):
        if not x[i]:
            continue
        for j in range(dim):
            if not y[j]:
                continue
            for k in range(dim):
                out[k] = (out[k] + x[i] * y[j] * c[i][j][k]) % p
    return tuple(out)


def naive_trilinear_sides(identity, ops, p, x, y, z):
    """[(lhs, rhs)] per axiom of a trilinear identity ("leibniz", "zinbiel",
    "prelie" or "dias", whose five axioms come in the order assoc_left,
    assoc_right, left_bar, middle, right_bar) at the tuples x, y, z, spelled
    out from the definitions; ops maps op names to nested-list structure
    constants."""
    def m(op, u, v):
        return naive_multiply(ops[op], u, v, p)

    def add(u, v):
        return tuple((a + b) % p for a, b in zip(u, v))

    def sub(u, v):
        return tuple((a - b) % p for a, b in zip(u, v))

    if identity == "leibniz":
        b = "bracket"
        return [(m(b, x, m(b, y, z)), sub(m(b, m(b, x, y), z), m(b, m(b, x, z), y)))]
    if identity == "zinbiel":
        o = "zinbiel"
        return [(m(o, m(o, x, y), z), add(m(o, x, m(o, y, z)), m(o, x, m(o, z, y))))]
    if identity == "prelie":
        o = "prelie"
        return [(sub(m(o, m(o, x, y), z), m(o, x, m(o, y, z))),
                 sub(m(o, m(o, x, z), y), m(o, x, m(o, z, y))))]
    lt, rt = "left", "right"
    return [
        (m(lt, m(lt, x, y), z), m(lt, x, m(lt, y, z))),
        (m(rt, m(rt, x, y), z), m(rt, x, m(rt, y, z))),
        (m(lt, x, m(lt, y, z)), m(lt, x, m(rt, y, z))),
        (m(lt, m(rt, x, y), z), m(rt, x, m(lt, y, z))),
        (m(rt, m(lt, x, y), z), m(rt, m(rt, x, y), z)),
    ]


def naive_mat_mul(a, b, p):
    n = len(a)
    m = len(b[0])
    inner = len(b)
    return [
        [sum(a[i][t] * b[t][j] for t in range(inner)) % p for j in range(m)]
        for i in range(n)
    ]


def naive_module_sides(c, L, R, p, i, j):
    """The three module identities (m first, m middle, m last) on the basis
    pair (e_i, e_j) as (lhs, rhs) matrix pairs, spelled out from the
    identities: column s is the identity at module basis vector s.  L[k] and
    R[k] are the matrices of m -> [e_k, m] and m -> [m, e_k]."""
    m = len(L[0])

    def combination(mats, x):
        return [[sum(a * mat[r][s] for a, mat in zip(x, mats)) % p for s in range(m)]
                for r in range(m)]

    def sub(a, b):
        return [[(u - v) % p for u, v in zip(ra, rb)] for ra, rb in zip(a, b)]

    Lbr, Rbr = combination(L, c[i][j]), combination(R, c[i][j])
    RjLi = naive_mat_mul(R[j], L[i], p)
    return [
        (Rbr, sub(naive_mat_mul(R[j], R[i], p), naive_mat_mul(R[i], R[j], p))),
        (naive_mat_mul(L[i], R[j], p), sub(RjLi, Lbr)),
        (naive_mat_mul(L[i], L[j], p), sub(Lbr, RjLi)),
    ]


def naive_mat_pow(mat, n, p):
    size = len(mat)
    out = [[1 if i == j else 0 for j in range(size)] for i in range(size)]
    for _ in range(n):
        out = naive_mat_mul(out, mat, p)
    return out


def square_multiply_mat_pow(mat, n, p):
    """mat**n by repeated squaring, every square and product a naive_mat_mul;
    usable where naive_mat_pow's n products are too many."""
    out = naive_mat_pow(mat, 0, p)
    while n:
        if n & 1:
            out = naive_mat_mul(out, mat, p)
        mat = naive_mat_mul(mat, mat, p)
        n >>= 1
    return out


def naive_module_relations(c, L, R, mdim, p, rows, values, key_prefix=(), limit=16):
    """The four relation families of the word envelope acting on a module,
    every relation a sum of words evaluated one word at a time.  Letter k
    acts by L[k] and letter n+k by R[k]; a word's operator composes its
    letters in reading order, the last letter's matrix leftmost; r_x^p is
    expanded into its |supp x|**p words of length p.  The relations are, on
    each basis pair (i, j) of the bracket with constants c, r_bracket,
    l_bracket and l_kills_symmetrized, then r_{f(x)} - r_x^p for each row x
    with its value f(x) in `values`.  Returns the number of relations not
    acting as zero and (key_prefix + (tag,) + key, operator, zero matrix)
    for the first `limit` of them, in that order."""
    n, mats = len(L), list(L) + list(R)
    zero = [[0] * mdim for _ in range(mdim)]

    def word(w):
        out = [[int(r == s) for s in range(mdim)] for r in range(mdim)]
        for letter in w if mdim else ():  # naive_mat_mul takes no 0 x 0 matrices
            out = naive_mat_mul(mats[letter], out, p)
        return out

    def total(terms):
        op = zero
        for w, coeff in terms:
            op = [[(a + coeff * b) % p for a, b in zip(ra, rb)] for ra, rb in zip(op, word(w))]
        return op

    relations = []
    for i, j in itertools.product(range(n), repeat=2):
        br = list(enumerate(c[i][j]))
        relations += [
            (("r_bracket", i, j), [((n + k,), a) for k, a in br]
             + [((n + i, n + j), -1), ((n + j, n + i), 1)]),
            (("l_bracket", i, j), [((k,), a) for k, a in br]
             + [((i, n + j), -1), ((n + j, i), 1)]),
            (("l_kills_symmetrized", i, j), [((n + j, i), 1), ((j, i), 1)]),
        ]
    for x, fx in zip(rows, values):
        # product() holds p copies of its pool even when the pool is empty
        support = [k for k in range(n) if x[k] % p]
        relations.append((("r_power", tuple(x)), [((n + k,), a) for k, a in enumerate(fx)] + [
            (tuple(n + k for k in w), -math.prod(x[k] for k in w))
            for w in (itertools.product(support, repeat=p) if support else ())]))
    failures, kept = 0, []
    for key, terms in relations:
        op = total(terms)
        if any(map(any, op)):
            failures += 1
            if len(kept) < limit:
                kept.append((tuple(key_prefix) + key, op, zero))
    return failures, kept


def naive_jacobson_terms(bracket, x, y, p):
    """s_1..s_{p-1} of a bilinear `bracket` on plain tuples: expand the
    (p-1)-fold right bracketing of x by lambda*x + y one bracketing at a
    time, keeping a dict degree -> vector, then divide the coefficient of
    lambda**(i-1) by i (inverse by brute search)."""
    zero = tuple(0 for _ in x)

    def add(u, v):
        return tuple((a + b) % p for a, b in zip(u, v))

    poly = {0: tuple(x)}
    for _ in range(p - 1):
        nxt = {}
        for deg, v in poly.items():
            nxt[deg] = add(nxt.get(deg, zero), bracket(v, y))
            nxt[deg + 1] = add(nxt.get(deg + 1, zero), bracket(v, x))
        poly = nxt
    return [
        tuple((brute_inv(i, p) * c) % p for c in poly.get(i - 1, zero))
        for i in range(1, p)
    ]


def naive_basis_jacobson(bracket, values, x, p):
    """x^[p] of the p-map with basis values `values`, extended one coordinate
    at a time by (a e_i + tail)^[p] = a**p e_i^[p] + tail^[p] +
    sum_k s_k(a e_i, tail), tail the coordinates past i, with the s_k from
    naive_jacobson_terms."""
    dim = len(x)
    out = (0,) * dim
    for i in range(dim):
        a = x[i] % p
        head = tuple(a if j == i else 0 for j in range(dim))
        tail = tuple(x[j] % p if j > i else 0 for j in range(dim))
        for v in [tuple(pow(a, p, p) * c for c in values[i])] + naive_jacobson_terms(
                bracket, head, tail, p):
            out = tuple((u + c) % p for u, c in zip(out, v))
    return out


def gauss_rank(rows, p):
    """Row-echelon rank over F_p on plain lists."""
    m = [list(r) for r in rows]
    if not m:
        return 0
    ncols = len(m[0])
    rank = 0
    for col in range(ncols):
        piv = None
        for r in range(rank, len(m)):
            if m[r][col] % p:
                piv = r
                break
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        inv = brute_inv(m[rank][col] % p, p)
        m[rank] = [(v * inv) % p for v in m[rank]]
        for r in range(len(m)):
            if r != rank and m[r][col] % p:
                f = m[r][col] % p
                m[r] = [(a - f * b) % p for a, b in zip(m[r], m[rank])]
        rank += 1
        if rank == len(m):
            break
    return rank


def gauss_nonpivot_columns(rows, p):
    """Columns without a pivot after full elimination, in order."""
    m = [list(r) for r in rows]
    ncols = len(m[0]) if m else 0
    pivots = []
    rank = 0
    for col in range(ncols):
        piv = None
        for r in range(rank, len(m)):
            if m[r][col] % p:
                piv = r
                break
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        inv = brute_inv(m[rank][col] % p, p)
        m[rank] = [(v * inv) % p for v in m[rank]]
        for r in range(len(m)):
            if r != rank and m[r][col] % p:
                f = m[r][col] % p
                m[r] = [(a - f * b) % p for a, b in zip(m[r], m[rank])]
        pivots.append(col)
        rank += 1
    return [c for c in range(ncols) if c not in pivots]


def gauss_echelon_rows(rows, p):
    """Reduced row-echelon rows (nonzero only) over F_p on plain lists."""
    m = [list(r) for r in rows]
    ncols = len(m[0]) if m else 0
    rank = 0
    for col in range(ncols):
        piv = None
        for r in range(rank, len(m)):
            if m[r][col] % p:
                piv = r
                break
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        inv = brute_inv(m[rank][col] % p, p)
        m[rank] = [(v * inv) % p for v in m[rank]]
        for r in range(len(m)):
            if r != rank and m[r][col] % p:
                f = m[r][col] % p
                m[r] = [(a - f * b) % p for a, b in zip(m[r], m[rank])]
        rank += 1
    return [r for r in m if any(v % p for v in r)]


def ideal_rank_fixed_point(tables, relations, p):
    """Rank of the smallest subspace containing `relations` that is closed
    under one-sided multiplication by EVERY basis element, for every dense
    structure table in `tables` (plain [i][j][k] lists).  Unlike the package
    engine this closes under all basis multiplications, not just degree-one
    generators, so it does not rely on any axiom of the ambient algebra."""
    rows = gauss_echelon_rows(relations, p)
    if not tables:
        return len(rows)
    dim = len(tables[0])
    while True:
        new_rows = [list(r) for r in rows]
        for c in tables:
            for r in rows:
                for i in range(dim):
                    left = [0] * dim
                    right = [0] * dim
                    for j in range(dim):
                        if not r[j]:
                            continue
                        for k in range(dim):
                            if c[i][j][k]:
                                left[k] = (left[k] + r[j] * c[i][j][k]) % p
                            if c[j][i][k]:
                                right[k] = (right[k] + r[j] * c[j][i][k]) % p
                    new_rows.append(left)
                    new_rows.append(right)
        reduced = gauss_echelon_rows(new_rows, p)
        if len(reduced) == len(rows):
            return len(rows)
        rows = reduced


def naive_word_tables(nletters, cap):
    """Free associative words of length <= cap on `nletters` letters: the
    word list, a word -> index map, and the concatenation table (products
    past the cap are zero) as the single dense [i][j][k] table."""
    words = [()]
    for n in range(1, cap + 1):
        words.extend(itertools.product(range(nletters), repeat=n))
    idx = {w: i for i, w in enumerate(words)}
    d = len(words)
    c = [[[0] * d for _ in range(d)] for _ in range(d)]
    for i, u in enumerate(words):
        for j, v in enumerate(words):
            if len(u) + len(v) <= cap:
                c[i][j][idx[u + v]] = 1
    return words, idx, [c]


def word_rows(idx, terms, p):
    """Dense relation rows from dicts word -> coefficient (zero rows dropped)."""
    dim = len(idx)
    rows = []
    for t in terms:
        row = [0] * dim
        for w, coeff in t.items():
            row[idx[w]] = (row[idx[w]] + coeff) % p
        if any(row):
            rows.append(row)
    return rows


def word_power_expansion(n):
    """(x+y)**n in the free associative algebra: all words of length n,
    each with coefficient 1, as a dict word -> 1 with letters 'x'/'y'."""
    return {w: 1 for w in itertools.product("xy", repeat=n)}


def naive_shuffle(u, v):
    """Shuffle product of two words by enumerating interleaving positions."""
    out = {}
    n, m = len(u), len(v)
    for positions in itertools.combinations(range(n + m), n):
        w = [None] * (n + m)
        ui = iter(u)
        vi = iter(v)
        pos = set(positions)
        for i in range(n + m):
            w[i] = next(ui) if i in pos else next(vi)
        w = tuple(w)
        out[w] = out.get(w, 0) + 1
    return out


def rewrite_words_fixed_point(words, rules):
    """Closure of a rewriting system on single words; rules map a subword to
    either None (kills the word) or a replacement subword.  Returns the set
    of normal forms reachable from `words`.  Only used for tiny systems."""
    normal = set()
    for w in words:
        current = tuple(w)
        changed = True
        dead = False
        while changed and not dead:
            changed = False
            for pat, rep in rules.items():
                k = len(pat)
                for i in range(len(current) - k + 1):
                    if current[i : i + k] == pat:
                        if rep is None:
                            dead = True
                        else:
                            current = current[:i] + tuple(rep) + current[i + k :]
                        changed = True
                        break
                if changed:
                    break
        if not dead:
            normal.add(current)
    return normal


def operator_sweep_report(identity, ops, p, rows, values, chunk_rows, coverage,
                          tag=(), swap=False, limit=16):
    """CheckReport.to_dict() of an operator sweep, by loops.  A row x fails
    when r_x**p differs from r_{f(x)}, where f(x) is the same row of `values`
    and r_x = sum_j x_j ops[j] for m x m matrices ops[j].  Each chunk of
    `chunk_rows` rows keeps its first `limit` failing rows in row order as
    witnesses (tag + (x,), r_x**p, r_{f(x)}), the two sides exchanged when
    `swap`; the report sorts them by the repr of their inputs and keeps
    `limit`.  `coverage` is the coverage dict the report must carry."""
    m = len(ops[0]) if ops else 0

    def operator(x):
        return [[sum(a * ops[j][r][s] for j, a in enumerate(x)) % p for s in range(m)]
                for r in range(m)]

    failures, kept = 0, []
    for start in range(0, len(rows), chunk_rows):
        found = 0
        for x, fx in zip(rows[start:start + chunk_rows], values[start:start + chunk_rows]):
            lhs, rhs = square_multiply_mat_pow(operator(x), p, p), operator(fx)
            if lhs != rhs:
                failures += 1
                found += 1
                if found <= limit:
                    kept.append((tuple(tag) + (tuple(x),), *((rhs, lhs) if swap else (lhs, rhs))))
    kept.sort(key=lambda w: tuple(repr(part) for part in w[0]))
    witnesses = [{"inputs": [list(part) if isinstance(part, tuple) else part for part in inputs],
                  "lhs": lhs, "rhs": rhs} for inputs, lhs, rhs in kept[:limit]]
    return {"identity": identity, "status": "fail" if failures else "pass",
            "failure_count": failures, "witnesses": witnesses, "coverage": coverage,
            "notes": []}


def naive_ulp_relations(c, n, p, rows, values):
    """The word envelope's relations spelled out, one p-relation per row:
    letter i is l_{e_i} and letter n + i is r_{e_i}; for every basis pair
    x = e_i, y = e_j the three bracket families
    r_[x,y] - r_x r_y + r_y r_x, l_[x,y] - l_x r_y + r_y l_x and (r_y + l_y) l_x,
    then r_{x^[p]} - r_x^p for each x of rows, x^[p] the matching row of
    values, with r_x^p expanded into the n**p words of its p-fold product.  Dicts word -> nonzero
    coefficient mod p, zero relations dropped; c is the nested-list bracket."""
    def relation(terms):
        rel = {}
        for word, coeff in terms:
            rel[word] = (rel.get(word, 0) + coeff) % p
        return {w: a for w, a in rel.items() if a}

    out = []
    for i in range(n):
        for j in range(n):
            br = [(k, c[i][j][k]) for k in range(n)]
            out.append(relation([((n + k,), a) for k, a in br]
                                + [((n + i, n + j), -1), ((n + j, n + i), 1)]))
            out.append(relation([((k,), a) for k, a in br]
                                + [((i, n + j), -1), ((n + j, i), 1)]))
            out.append(relation([((n + j, i), 1), ((j, i), 1)]))
    for x, fx in zip(rows, values):
        terms = [((n + k,), fx[k]) for k in range(n)]
        for word in itertools.product(range(n), repeat=p):
            coeff = 1
            for k in word:
                coeff *= x[k]
            terms.append((tuple(n + k for k in word), -coeff))
        out.append(relation(terms))
    return [rel for rel in out if rel]
