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


def naive_mat_mul(a, b, p):
    n = len(a)
    m = len(b[0])
    inner = len(b)
    return [
        [sum(a[i][t] * b[t][j] for t in range(inner)) % p for j in range(m)]
        for i in range(n)
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
