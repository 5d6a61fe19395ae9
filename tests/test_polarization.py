"""The batched Jacobson polarization kernel and the checks built on it,
against plain-Python recomputations and values pinned from the scalar
implementation they replaced."""

import hashlib
import json
import random
import tracemalloc

import numpy as np
import pytest

from rlk import algebra_core, identities
from rlk.algebra_core import Algebra, BasisJacobsonPMap, TablePMap, ZeroPMap
from rlk.dialgebra import dleib, matrix_dialgebra
from rlk.errors import UsageError
from rlk.identities import (
    WITNESS_LIMIT,
    check_dleib_jacobson_bracket,
    check_restricted_lie,
    jacobson_si,
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
                     naive_multiply, trial_division_is_prime)


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


@pytest.mark.parametrize("p, dim", [(3, 3), (5, 2), (7, 3)])
def test_jacobson_blocks_keep_the_lambda_stacks_in_the_entry_budget(p, dim, monkeypatch):
    """With the entry budget patched down, a small-p call spans several blocks
    whose operator and lambda stacks fit the budget: the terms equal the
    one-block result, and the traced peak past the output arrays stays within
    the budget's int64 bytes (blocks of the _blocks rows alone overrun it)."""
    rng = random.Random(f"jacobson-blocks-{p}")
    ops = Algebra(p, dim, {"b": random_structure(p, dim, rng)}).right_ops("b")
    n = 600
    X, Y = _random_rows(rng, p, n, dim), _random_rows(rng, p, n, dim)
    blocks, stack = [], algebra_core.operator_stack
    monkeypatch.setattr(algebra_core, "operator_stack",
                        lambda *args: blocks.append(1) or stack(*args))
    want = jacobson_terms_batch(p, X, Y, ops)
    assert len(blocks) == 1
    budget = 1 << 14
    monkeypatch.setattr(algebra_core, "_CHUNK_ENTRIES", budget)
    tracemalloc.start()
    try:
        got = jacobson_terms_batch(p, X, Y, ops)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(blocks) > 2
    assert all(np.array_equal(a, b) for a, b in zip(got, want, strict=True))
    assert peak - (p - 1) * n * dim * 8 <= budget * 8


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


# -- check_restricted_lie on exhaustive grids ---------------------------------------


def _lie_l2(p):
    """The Lie bracket [e0, e1] = e0 = -[e1, e0]."""
    c = np.zeros((2, 2, 2), dtype=np.int64)
    c[0, 1, 0], c[1, 0, 0] = 1, p - 1
    return c


def _power_table(A):
    """x -> x**p on every element of the associative algebra A."""
    p, C = A.p, A.structure("assoc").tolist()
    return {x: _power(C, x, p) for x in all_elements(p, A.dim)}


def _not_semilinear(table, p):
    """table shifted by the last basis vector wherever the first nonzero
    coordinate of the key is 1, so (a x)^[p] != a**p x^[p] at such x, a > 1."""
    return {x: tuple((u + (next((c for c in x if c), 0) == 1) * (k == len(x) - 1)) % p
                     for k, u in enumerate(v)) for x, v in table.items()}


def _moved(table):
    """table with the first nonzero value swapped with the next different one."""
    keys = sorted(table)
    k0 = next(k for k in keys if any(table[k]))
    k1 = next(k for k in keys if k > k0 and table[k] != table[k0])
    return {**table, k0: table[k1], k1: table[k0]}


def _grid_cases():
    """(name, algebra with bracket "bracket" and p-map "f"): every element
    grid is exhaustive; axiom-3 pairs are too, except on gl_2 over F_3."""
    cases = {}
    ut2, gl2 = upper_triangular2(3), matrix_assoc(3, 2)
    for name, A, table in (("ut2-f3-axiom1", ut2, _not_semilinear(_power_table(ut2), 3)),
                           ("ut2-f3-moved", ut2, _moved(_power_table(ut2))),
                           ("gl2-f3-moved", gl2, _moved(_power_table(gl2)))):
        cases[name] = Algebra(3, A.dim, {"bracket": commutator_tensor(A)},
                              {"f": TablePMap(table)})
    for p in (5, 7):
        table = {(a, b): (0, b) for a in range(p) for b in range(p)}
        for kind, pm in (("jacobson", BasisJacobsonPMap("bracket", [(0, 0), (0, 1)])),
                         ("axiom1", TablePMap(_not_semilinear(table, p))),
                         ("moved", TablePMap(_moved(table)))):
            cases[f"l2-f{p}-{kind}"] = Algebra(p, 2, {"bracket": _lie_l2(p)}, {"f": pm})
    zero1 = np.zeros((1, 1, 1), dtype=np.int64)
    cases["dim1-f5-jacobson"] = Algebra(5, 1, {"bracket": zero1},
                                        {"f": BasisJacobsonPMap("bracket", [(2,)])})
    cases["dim1-f5-axiom1"] = Algebra(5, 1, {"bracket": zero1},
                                      {"f": TablePMap({(a,): (a * a % 5,) for a in range(5)})})
    cases["dim0-f3-zero"] = Algebra(3, 0, {"bracket": np.zeros((0, 0, 0), dtype=np.int64)},
                                    {"f": ZeroPMap()})
    return cases


# (failure count, witness kinds kept, digest), computed when every axiom
# evaluated the p-map on its own batch of elements
_GRID_PINS = {
    "ut2-f3-axiom1": (481, ["axiom1"],
                      "7f66427b40b9eca3c2bfc54200076baf06c842ea99e6e9e32c01fcbb22e2cd05"),
    "ut2-f3-moved": (146, ["axiom2", "axiom3"],
                     "21e14e393cbaff8f42e5f2b0b3f5a2cb095d3e8599068d03b6d6124c18146267"),
    "gl2-f3-moved": (17, ["axiom2", "axiom3"],
                     "96f5a343094e67617721e681cbbec94722e5484126cf473320651ab784265480"),
    "l2-f5-jacobson": (0, [], "ff19faaaaddd0e531a5607c085d38c11980c4ec16d1d19b7f598bc74350e18b8"),
    "l2-f5-axiom1": (466, ["axiom1"],
                     "f1b4b82146deca5d6a4ffae5aade0a3dff05975c3b20335dface2d5bf5fb35c2"),
    "l2-f5-moved": (353, ["axiom1", "axiom2"],
                    "ab337ed24bc335aa8bff421787f9efe22647b23b79ce2f2fada9cfa91a15d522"),
    "l2-f7-jacobson": (0, [], "dc4d97fc5a8f16672d5f191c6e26e0268c3e33e9422284fd0390c12c84542261"),
    "l2-f7-axiom1": (1468, ["axiom1"],
                     "6bb13a8ffa770d291df420bd23441e194f3d12521b5e5a513bfaa4646fcf2505"),
    "l2-f7-moved": (1017, ["axiom1"],
                    "30b75f1b07a89f5f318c211782b25192bbfefd8abf856dd97c1494412a11de16"),
    "dim1-f5-jacobson": (0, [],
                         "266818abd5a231a0c1cb5d7ab2d91e4bf5bd1bfe119a824d381418f7b7cbcade"),
    "dim1-f5-axiom1": (28, ["axiom1", "axiom3"],
                       "f1e8db10d5612ff556224dd68567b050cd471b2dfa95168ada82575f74149c45"),
    "dim0-f3-zero": (0, [], "1d29d8974429b8d4b0951e04a2b87bf21bf36210ec7d1984574461f9a9e3f65f"),
}


@pytest.mark.parametrize("name", sorted(_GRID_PINS))
def test_restricted_lie_on_exhaustive_grids_is_pinned(name):
    rep = check_restricted_lie(_grid_cases()[name], "bracket", "f", seed=11)
    kinds = sorted({w.inputs[0] for w in rep.witnesses})
    assert (rep.failure_count, kinds, _digest(rep)) == _GRID_PINS[name]


def _count_pmap_batches(monkeypatch):
    """Rows of every apply_batch call of a table or Jacobson p-map from here on."""
    calls = []
    for cls in (TablePMap, BasisJacobsonPMap):
        def wrapper(self, alg, X, _apply=cls.apply_batch):
            calls.append(len(X))
            return _apply(self, alg, X)
        monkeypatch.setattr(cls, "apply_batch", wrapper)
    return calls


@pytest.mark.parametrize("name", ["ut2-f3-moved", "gl2-f3-moved", "l2-f7-jacobson",
                                  "dim1-f5-axiom1"])
def test_restricted_lie_on_an_exhaustive_grid_makes_one_pmap_batch(name, monkeypatch):
    """Every element the axioms evaluate the p-map at is a grid row, so the
    one batch over the grid serves axioms 1, 2 and 3; a sampled grid still
    evaluates 0, each a x and each x + y through the p-map."""
    alg = _grid_cases()[name]
    calls = _count_pmap_batches(monkeypatch)
    check_restricted_lie(alg, "bracket", "f", seed=11)
    assert calls == [alg.element_count()]
    calls.clear()
    rep = check_restricted_lie(alg, "bracket", "f", cap=1, seed=11, samples=20)
    assert rep.coverage.kind == "sampled"
    assert calls == [20, 1] + [20] * (alg.p - 2) + [20 * 20]


# -- the kernel against the plain expansion ----------------------------------------


def _kernel_block(p, ops, monkeypatch):
    """Rows per block of jacobson_terms_batch: the rows of its first
    operator_stack call (which stacks y and x) on a long input."""
    rows, stack = [], algebra_core.operator_stack
    Z = np.zeros((1 << 12, ops.shape[0]), dtype=np.int64)
    with monkeypatch.context() as m:
        m.setattr(algebra_core, "operator_stack",
                  lambda o, V, q: rows.append(len(V) // 2) or stack(o, V, q))
        jacobson_terms_batch(p, Z, Z, ops)
    assert len(rows) > 1
    return rows[0]


@pytest.mark.parametrize("p", [2, 3, 5, 7, 13])
def test_jacobson_kernel_matches_the_plain_expansion(p, monkeypatch):
    """s_1..s_{p-1} as one (p - 1, N, dim) array, for N of 0, 1, one block
    and one block plus a row, at dims 1-6, on random brackets and rows that
    hold zeros (a zero row of x, of y, and zeros scattered through both).
    The block budget is patched down so that a block and one more row stay
    small enough for the plain expansion."""
    monkeypatch.setattr(algebra_core, "_BLOCK_ENTRIES", 1 << 8)
    rng = random.Random(f"kernel-{p}")
    for dim in range(1, 7):
        c = random_structure(p, dim, rng)
        c[rng.randrange(dim)] = 0
        ops = Algebra(p, dim, {"b": c}).right_ops("b")
        C = c.tolist()
        block = _kernel_block(p, ops, monkeypatch)
        for n in (0, 1, block, block + 1):
            X, Y = (np.array([[rng.randrange(p) if rng.random() < 0.7 else 0
                               for _ in range(dim)] for _ in range(n)],
                             dtype=np.int64).reshape(n, dim) for _ in range(2))
            X[:1], Y[1:2] = 0, 0
            got = jacobson_terms_batch(p, X, Y, ops)
            assert isinstance(got, np.ndarray) and got.shape == (p - 1, n, dim)
            assert got.dtype == np.int64
            for r in range(n):
                want = naive_jacobson_terms(lambda u, v: naive_multiply(C, u, v, p),
                                            tuple(X[r].tolist()), tuple(Y[r].tolist()), p)
                assert [tuple(s) for s in got[:, r].tolist()] == want, (dim, n, r)


def test_jacobson_kernel_past_2_24_takes_no_rows_at_no_cost():
    """At p = 2**24 + 43 the kernel runs p - 1 rounds a row, so only the empty
    batch is in reach: it is a (p - 1, 0, dim) array, made without a round."""
    p = (1 << 24) + 43
    assert trial_division_is_prime(p)
    ops = np.zeros((3, 3, 3), dtype=np.int64)
    got = jacobson_terms_batch(p, np.zeros((0, 3), dtype=np.int64),
                               np.zeros((0, 3), dtype=np.int64), ops)
    assert got.shape == (p - 1, 0, 3)


def test_jacobson_rows_past_the_entry_budget_are_refused(monkeypatch):
    """A row at p = 2**24 + 43 needs 4·dim·(dim + 2p) entries of stacks and p - 1
    rounds: the kernel refuses it before allocating, and check_restricted_lie
    refuses it before its restricted pass and axiom 1's p - 2 scalar passes.
    At p = 2,003 a row fits, and jacobson_si still runs: s(e_0, e_1) for
    [e_0, e_1] = e_0 is e_0 in s_1 alone."""
    p = (1 << 24) + 43
    ops = np.zeros((1, 1, 1), dtype=np.int64)
    with pytest.raises(UsageError, match="entries a row, past the budget"):
        jacobson_terms_batch(p, np.ones((1, 1), dtype=np.int64),
                             np.ones((1, 1), dtype=np.int64), ops)
    passes = {"_restricted_pass": 0}
    monkeypatch.setattr(identities, "_restricted_pass", counting(
        passes, "_restricted_pass", identities._restricted_pass))
    g = Algebra(p, 1, {"bracket": ops}, {"pmap": ZeroPMap()})
    with pytest.raises(UsageError, match="entries a row, past the budget"):
        check_restricted_lie(g)
    assert passes == {"_restricted_pass": 0}
    p = 2003
    c = np.zeros((2, 2, 2), dtype=np.int64)
    c[0, 1, 0], c[1, 0, 0] = 1, p - 1
    got = jacobson_si(Algebra(p, 2, {"bracket": c}), "bracket", (1, 0), (0, 1))
    assert got == [(1, 0)] + [(0, 0)] * (p - 2)
