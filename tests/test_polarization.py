"""The batched Jacobson polarization kernel and the checks built on it,
against plain-Python recomputations and values pinned from the scalar
implementation they replaced."""

import hashlib
import json
import random

import numpy as np
import pytest

from rlk import algebra_core
from rlk.algebra_core import Algebra, BasisJacobsonPMap, TablePMap
from rlk.dialgebra import dleib, matrix_dialgebra
from rlk.identities import (
    WITNESS_LIMIT,
    check_dleib_jacobson_bracket,
    check_restricted_lie,
    jacobson_terms_batch,
    sweep_dleib_jacobson,
)

from helpers import (
    all_elements,
    commutator_tensor,
    counting,
    l2_dialgebra,
    matrix_assoc,
    random_structure,
    upper_triangular2,
)
from oracles import (gauss_echelon_rows, naive_basis_jacobson, naive_jacobson_terms,
                     naive_multiply)


def _random_basis(c, p, rng):
    """Structure constants of the same product in a random basis."""
    d = c.shape[0]
    while True:
        S = [[rng.randrange(p) for _ in range(d)] for _ in range(d)]
        aug = [row + [int(i == j) for j in range(d)] for i, row in enumerate(S)]
        ech = gauss_echelon_rows(aug, p)
        if len(ech) == d and all(ech[i][i] == 1 for i in range(d)):
            break
    S = np.array(S, dtype=np.int64)
    Sinv = np.array([row[d:] for row in ech], dtype=np.int64)
    return np.einsum("ai,bj,abm,km->ijk", S, S, c, Sinv) % p


def _brackets(p, rng):
    """(kind, tensor): Lie brackets (commutators of gl_2 and ut_2), non-Lie
    Leibniz brackets (derived brackets of the L2 dialgebra and of its gl_2),
    and one bracket with random constants, all in random bases."""
    lie = [commutator_tensor(matrix_assoc(p, 2)), commutator_tensor(upper_triangular2(p))]
    leib = [dleib(l2_dialgebra(p)).structure("bracket"),
            dleib(matrix_dialgebra(l2_dialgebra(p), 2)).structure("bracket")]
    out = [("lie", _random_basis(c, p, rng)) for c in lie]
    out += [("leibniz", _random_basis(c, p, rng)) for c in leib]
    out.append(("random", random_structure(p, 3, rng)))
    return out


def _random_rows(rng, p, n, d):
    return np.array([[rng.randrange(p) for _ in range(d)] for _ in range(n)], dtype=np.int64)


def _assert_rows_match_oracle(got, p, X, Y, bracket, kind):
    """got is the kernel's s_1..s_{p-1} for the row pairs of X and Y, and
    bracket(u, v) the plain-tuple bracket it should polarize."""
    n, d = X.shape
    assert len(got) == p - 1
    assert all(s.shape == (n, d) for s in got)
    for r in range(n):
        x, y = tuple(X[r].tolist()), tuple(Y[r].tolist())
        want = naive_jacobson_terms(bracket, x, y, p)
        assert [tuple(s[r].tolist()) for s in got] == want, (kind, x, y)


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11])
@pytest.mark.parametrize("n", [1, 37])
def test_jacobson_terms_batch_rows_match_oracle(p, n):
    rng = random.Random(1000 * p + n)
    for kind, c in _brackets(p, rng):
        d = c.shape[0]
        alg = Algebra(p, d, {"b": c})
        X, Y = _random_rows(rng, p, n, d), _random_rows(rng, p, n, d)
        got = jacobson_terms_batch(p, X, Y, alg.right_ops("b"))
        C = c.tolist()
        _assert_rows_match_oracle(got, p, X, Y, lambda u, v: naive_multiply(C, u, v, p), kind)


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_jacobson_terms_batch_on_the_derived_bracket_of_a_non_dias_pair(p):
    """The operator u -> u -| v - v |- u of two random products, which are
    not diassociative, so the derived bracket is not even Leibniz."""
    rng = random.Random(f"derived-{p}")
    cl, cr = random_structure(p, 3, rng), random_structure(p, 3, rng)
    X, Y = _random_rows(rng, p, 41, 3), _random_rows(rng, p, 41, 3)
    # [u, v] = u -| v - v |- u, laid out as right operators r_v
    got = jacobson_terms_batch(p, X, Y, ((cl - cr.transpose(1, 0, 2)) % p).transpose(1, 2, 0))
    L, R = cl.tolist(), cr.tolist()

    def bracket(u, v):
        a, b = naive_multiply(L, u, v, p), naive_multiply(R, v, u, p)
        return tuple((s - t) % p for s, t in zip(a, b))

    _assert_rows_match_oracle(got, p, X, Y, bracket, "derived")


def _power(C, x, p):
    v = x
    for _ in range(p - 1):
        v = naive_multiply(C, v, x, p)
    return v


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_basis_jacobson_batch_single_and_power_agree_on_gl2(p):
    A = matrix_assoc(p, 2)
    C = A.structure("assoc").tolist()
    values = [_power(C, A.basis(i), p) for i in range(A.dim)]
    alg = Algebra(p, A.dim, {"bracket": commutator_tensor(A)},
                  {"jac": BasisJacobsonPMap("bracket", values)})
    pm = alg.pmap("jac")
    elements = all_elements(p, A.dim)
    batch = pm.apply_batch(alg, np.array(elements, dtype=np.int64))
    for x, row in zip(elements, batch):
        assert tuple(row.tolist()) == pm.apply(alg, x) == _power(C, x, p), x


# a cut no word count reaches, and one every word count passes
_ROUTES = {"compiled": 1 << 62, "pair": 0}


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_basis_jacobson_routes_match_the_coordinate_oracle(p, monkeypatch):
    """On random alternating brackets of dims 1-6, with rows holding zeros,
    the compiled table, the per-coordinate polarizations and the plain-Python
    extension give the same values (dim 1 takes the per-coordinate route)."""
    rng = random.Random(p)
    for dim in range(1, 7):
        c = random_structure(p, dim, rng)
        c = (c - c.transpose(1, 0, 2)) % p
        values = [tuple(rng.randrange(p) for _ in range(dim)) for _ in range(dim)]
        pm = BasisJacobsonPMap("bracket", values)
        rows = [[rng.randrange(p) if rng.random() < 0.6 else 0 for _ in range(dim)]
                for _ in range(8)] + [[0] * dim, [p - 1] * dim]
        got = {}
        for route, cut in _ROUTES.items():
            monkeypatch.setattr(algebra_core, "_JACOBSON_WORDS", cut)
            alg = Algebra(p, dim, {"bracket": c})
            got[route] = pm.apply_batch(alg, np.array(rows, dtype=np.int64)).tolist()
            assert alg._tables.keys() == ({"bracket"} if route == "compiled" and dim > 1
                                          else set())
        C = c.tolist()
        want = [list(naive_basis_jacobson(lambda u, v: naive_multiply(C, u, v, p), values,
                                          tuple(x), p)) for x in rows]
        assert got["compiled"] == got["pair"] == want, (p, dim)


def _count_kernel_rows(monkeypatch):
    """The row count of every jacobson_terms_batch call BasisJacobsonPMap makes from here on."""
    calls, kernel = [], algebra_core.jacobson_terms_batch

    def wrapper(p, X, Y, ops):
        calls.append(len(X))
        return kernel(p, X, Y, ops)

    monkeypatch.setattr(algebra_core, "jacobson_terms_batch", wrapper)
    return calls


@pytest.mark.parametrize("p", [2, 3, 5])
def test_basis_jacobson_edges_without_pairs_match_the_oracle(p, monkeypatch):
    """Dims 0 and 1 (which only the one-call route serves), no rows at all,
    the zero row and rows whose only nonzero entry is the last coordinate
    give no (row, coordinate) pair: the one-call route makes one kernel call
    on no rows, and its values match the compiled route where dim >= 2 and
    the plain-Python extension everywhere."""
    rng = random.Random(f"edges-{p}")
    calls = _count_kernel_rows(monkeypatch)
    for dim in range(4):
        c = random_structure(p, dim, rng).reshape(dim, dim, dim)
        c = (c - c.transpose(1, 0, 2)) % p
        values = [tuple(rng.randrange(p) for _ in range(dim)) for _ in range(dim)]
        pm = BasisJacobsonPMap("bracket", values)
        lone = [[0] * dim] + [[0] * (dim - 1) + [a] for a in range(1, p)] if dim else [[]]
        C = c.tolist()
        for rows in ([], lone):
            X = np.array(rows, dtype=np.int64).reshape(len(rows), dim)
            got = {}
            for route, cut in _ROUTES.items():
                monkeypatch.setattr(algebra_core, "_JACOBSON_WORDS", cut)
                calls.clear()
                got[route] = pm.apply_batch(Algebra(p, dim, {"bracket": c}), X).tolist()
                assert calls == ([] if route == "compiled" and dim >= 2 else [0]), (route, dim)
            want = [list(naive_basis_jacobson(lambda u, v: naive_multiply(C, u, v, p), values,
                                              tuple(x), p)) for x in rows]
            assert got["compiled"] == got["pair"] == want, (p, dim, rows)


def test_one_kernel_call_per_apply_past_the_cut(monkeypatch):
    """Past the cut, apply_batch polarizes every (row, coordinate) pair with
    a_i and the tail past i nonzero in one jacobson_terms_batch call."""
    calls = _count_kernel_rows(monkeypatch)
    monkeypatch.setattr(algebra_core, "_JACOBSON_WORDS", _ROUTES["pair"])
    p = 3
    A = matrix_assoc(p, 2)
    C = A.structure("assoc").tolist()
    values = [_power(C, A.basis(i), p) for i in range(A.dim)]
    alg = Algebra(p, A.dim, {"bracket": commutator_tensor(A)},
                  {"jac": BasisJacobsonPMap("bracket", values)})
    X = np.array(all_elements(p, A.dim), dtype=np.int64)
    pairs = sum(int(x[i] != 0 and x[i + 1:].any()) for x in X for i in range(A.dim))
    calls.clear()
    got = alg.apply_pmap_batch("jac", X)
    assert calls == [pairs]
    assert [tuple(r) for r in got.tolist()] == [_power(C, tuple(x), p) for x in X.tolist()]
    assert alg.apply_pmap("jac", (1, 2, 0, 1)) == _power(C, (1, 2, 0, 1), p)
    assert calls == [pairs, 2]


@pytest.mark.parametrize("p", [2, 3, 5])
def test_planted_basis_value_fails_alike_on_both_routes(p, monkeypatch):
    """gl_2 with e_i^[p] = e_i^p except one shifted basis value: check_restricted_lie
    counts the same failures and keeps the same witnesses on either route
    (exhaustive axiom-3 pairs at p = 2, sampled ones at p = 3 and 5)."""
    A = matrix_assoc(p, 2)
    C = A.structure("assoc").tolist()
    values = [_power(C, A.basis(i), p) for i in range(A.dim)]
    values[1] = tuple((v + 1) % p for v in values[1])
    reports = {}
    for route, cut in _ROUTES.items():
        monkeypatch.setattr(algebra_core, "_JACOBSON_WORDS", cut)
        alg = Algebra(p, A.dim, {"bracket": commutator_tensor(A)},
                      {"jac": BasisJacobsonPMap("bracket", values)})
        reports[route] = check_restricted_lie(alg, "bracket", "jac", seed=3).to_dict()
    assert reports["compiled"]["failure_count"] > 0
    assert reports["compiled"] == reports["pair"]


def _naive_dleib_sweep(cl, cr, p, samples, seed):
    """Failure count and first WITNESS_LIMIT witnesses of the derived-bracket
    Jacobson identity, drawing z, x, y one coefficient at a time."""
    L, R = cl.tolist(), cr.tolist()
    d = len(L)

    def bracket(a, b):
        u, v = naive_multiply(L, a, b, p), naive_multiply(R, b, a, p)
        return tuple((s - t) % p for s, t in zip(u, v))

    def add(*vs):
        return tuple(sum(col) % p for col in zip(*vs))

    def power(x):
        return _power(R, x, p)

    rng = random.Random(seed)
    failures, witnesses = 0, []
    for _ in range(samples):
        z, x, y = (tuple(rng.randrange(p) for _ in range(d)) for _ in range(3))
        lhs = bracket(z, power(add(x, y)))
        s = add((0,) * d, *naive_jacobson_terms(bracket, x, y, p))
        rhs = add(bracket(z, power(x)), bracket(z, power(y)), bracket(z, s))
        if lhs != rhs:
            failures += 1
            if len(witnesses) < WITNESS_LIMIT:
                witnesses.append(((z, x, y), lhs, rhs))
    witnesses.sort(key=lambda w: tuple(repr(part) for part in w[0]))
    return failures, witnesses


@pytest.mark.parametrize("p", [2, 3, 5])
def test_sweep_dleib_jacobson_matches_scalar_recomputation(p, monkeypatch):
    """Also with blocks of a few rows, in the sweep and in the kernel; and
    neither check builds an Algebra for the derived bracket."""
    rng = random.Random(p)
    cl, cr = random_structure(p, 3, rng), random_structure(p, 3, rng)
    D = Algebra(p, 3, {"left": cl, "right": cr})
    failures, witnesses = _naive_dleib_sweep(cl, cr, p, 120, 9)
    assert failures > WITNESS_LIMIT
    builds = {"algebra": 0}
    monkeypatch.setattr(Algebra, "__post_init__",
                        counting(builds, "algebra", Algebra.__post_init__))
    for block_entries in (algebra_core._BLOCK_ENTRIES, 64):
        monkeypatch.setattr(algebra_core, "_BLOCK_ENTRIES", block_entries)
        rep = sweep_dleib_jacobson(D, samples=120, seed=9)
        assert rep.failure_count == failures
        assert [(w.inputs, w.lhs, w.rhs) for w in rep.witnesses] == witnesses
    for inputs, lhs, rhs in witnesses[:3]:
        single = check_dleib_jacobson_bracket(D, *inputs)
        assert single.failure_count == 1
        assert (single.witnesses[0].lhs, single.witnesses[0].rhs) == (lhs, rhs)
    assert builds["algebra"] == 0


def _perturbed_power_table(A, x0, delta):
    """x -> x**p on every element, except that each nonzero multiple a*x0
    maps to (a*x0)**p + a*delta.  With delta central this keeps axioms 1 and 2
    and breaks only additivity."""
    p, C = A.p, A.structure("assoc").tolist()
    table = {x: _power(C, x, p) for x in all_elements(p, A.dim)}
    for a in range(1, p):
        k = tuple(a * v % p for v in x0)
        table[k] = tuple((u + a * v) % p for u, v in zip(table[k], delta))
    return A.extended(ops={"bracket": commutator_tensor(A)},
                      pmaps={"tb": TablePMap(table)})


def _digest(rep):
    return hashlib.sha256(json.dumps(rep.to_dict(), sort_keys=True).encode()).hexdigest()


def test_restricted_lie_broken_table_pmap_matches_seed_exhaustive_pairs():
    alg = _perturbed_power_table(upper_triangular2(3), (0, 1, 1), (1, 0, 1))
    rep = check_restricted_lie(alg, "bracket", "tb", seed=4)
    assert rep.failure_count == 144
    assert rep.notes == ("elements exhaustive(27)", "axiom3 pairs exhaustive(729)")
    assert rep.witnesses[0].to_dict() == {
        "inputs": ["axiom3", [0, 0, 1], [0, 1, 0]], "lhs": [1, 1, 2], "rhs": [0, 1, 1],
    }
    assert len(rep.witnesses) == WITNESS_LIMIT
    assert _digest(rep) == "3c38855a55d28ada53c544bd570dbae9dc2d8c169e2209dd2e3baa1077d33ad9"
    # the count is the number of pairs breaking additivity, recomputed by hand
    p, f = 3, alg.pmap("tb").mapping
    C = alg.structure("bracket").tolist()
    bad = 0
    for x in all_elements(p, 3):
        for y in all_elements(p, 3):
            terms = naive_jacobson_terms(lambda u, v: naive_multiply(C, u, v, p), x, y, p)
            rhs = tuple(sum(col) % p for col in zip(f[x], f[y], *terms))
            bad += f[tuple((a + b) % p for a, b in zip(x, y))] != rhs
    assert bad == 144


def test_restricted_lie_broken_table_pmap_matches_seed_sampled_pairs():
    alg = _perturbed_power_table(matrix_assoc(3, 2), (0, 1, 2, 0), (1, 0, 0, 1))
    rep = check_restricted_lie(alg, "bracket", "tb", seed=4)
    assert rep.failure_count == 12
    assert rep.notes == ("elements exhaustive(81)", "axiom3 pairs sampled(200)")
    assert rep.witnesses[0].to_dict() == {
        "inputs": ["axiom3", [0, 0, 0, 2], [0, 1, 2, 1]],
        "lhs": [1, 2, 1, 1], "rhs": [0, 2, 1, 0],
    }
    assert _digest(rep) == "e8754f8e92484c52b63bef8b992d4ef5b42fe6d237dbd1bcedbcc31de7f36d85"
