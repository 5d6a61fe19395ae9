from __future__ import annotations

import itertools
import json
import random
import tracemalloc

import numpy as np
import pytest

from rlk import algebra_core, identities
from rlk.algebra_core import (Algebra, BasisJacobsonPMap, MatrixPowerPMap, RightPowerPMap,
                              TablePMap, ZeroPMap)
from rlk.dialgebra import as_dialgebra, dleib, matrix_dialgebra
from rlk.envelope import adjoint_module, check_restricted_module
from rlk.errors import UsageError
from rlk.free_structures import free_zinbiel
from rlk.identities import (
    check_dias,
    check_dleib_jacobson_bracket,
    check_leibniz,
    check_prelie,
    check_restricted_leibniz,
    check_restricted_lie,
    check_restricted_prelie,
    check_zinbiel,
    jacobson_si,
    sweep_dleib_jacobson,
)
from rlk.prelie_tensor import check_tensor_restricted, tensor_prelie

from helpers import (
    ShiftedPMap,
    abelian,
    associative_suite,
    commutator_tensor,
    l2,
    l2_dialgebra,
    matrix_assoc,
    random_structure,
    truncated_poly,
    upper_triangular2,
)
from oracles import operator_sweep_report


def as_dialgebra_ops(alg, op="assoc"):
    c = alg.structure(op)
    return {"left": c, "right": c}


def word_algebra(p, letters=2, cap=3):
    """Non-unital truncated free associative algebra on word basis, built
    here by hand so package free-algebra code is not involved."""
    words = []
    for n in range(1, cap + 1):
        words.extend(itertools.product(range(letters), repeat=n))
    index = {w: i for i, w in enumerate(words)}
    d = len(words)
    c = np.zeros((d, d, d), dtype=np.int64)
    for u in words:
        for v in words:
            if len(u) + len(v) <= cap:
                c[index[u], index[v], index[u + v]] = 1
    alg = Algebra(p, d, {"assoc": c})
    return alg, index


# -- trilinear checks ---------------------------------------------------------


def test_leibniz_on_l2_and_commutators() -> None:
    assert check_leibniz(l2(3)).ok()
    for p in (2, 3, 5):
        for a in associative_suite(p):
            alg = a.extended(ops={"bracket": commutator_tensor(a)})
            rep = check_leibniz(alg)
            assert rep.ok(), (a.label, rep.witnesses[:1])


def test_leibniz_failure_counts_are_exact() -> None:
    # [e_i, e_j] = e_0 for all i, j: every triple fails
    p, d = 2, 3
    c = np.zeros((d, d, d), dtype=np.int64)
    c[:, :, 0] = 1
    alg = Algebra(p, d, {"bracket": c})
    rep = check_leibniz(alg)
    assert rep.status == "fail"
    assert rep.failure_count == d ** 3
    assert len(rep.witnesses) <= 16
    assert rep.coverage.kind == "exhaustive" and rep.coverage.count == d ** 3
    # report survives json round-trip
    json.dumps(rep.to_dict())


def test_leibniz_sampled_mode_agrees_on_passing_algebras() -> None:
    rep = check_leibniz(l2(5), mode="sampled", seed=4, samples=300)
    assert rep.ok()
    assert rep.coverage.kind == "sampled"
    assert rep.coverage.seed == 4


def test_dias_on_associative_as_dialgebra() -> None:
    for p in (2, 3, 5):
        for a in associative_suite(p):
            D = Algebra(p, a.dim, as_dialgebra_ops(a), label=a.label)
            assert check_dias(D).ok()
            assert check_dias(D, mode="sampled", seed=1, samples=60).ok()


def test_dias_detects_broken_axiom() -> None:
    # left = truncated multiplication, right = zero: x -| (y |- z) is always 0
    # while x -| (y -| z) is not, so the left-side compatibility axiom fails
    a = truncated_poly(3, 2)
    D = Algebra(3, 2, {"left": a.structure("assoc"),
                       "right": np.zeros((2, 2, 2), dtype=np.int64)})
    rep = check_dias(D)
    assert rep.status == "fail"
    names = {w.inputs[0] for w in rep.witnesses}
    assert "left_bar" in names


def test_zinbiel_trivial_and_failing() -> None:
    z = Algebra(3, 1, {"zinbiel": np.zeros((1, 1, 1), dtype=np.int64)})
    assert check_zinbiel(z).ok()
    c = np.ones((1, 1, 1), dtype=np.int64)
    bad = Algebra(3, 1, {"zinbiel": c})
    rep = check_zinbiel(bad)
    assert rep.status == "fail"
    assert rep.witnesses[0].lhs == (1,)
    assert rep.witnesses[0].rhs == (2,)


def test_prelie_associative_always_passes() -> None:
    for p in (2, 3):
        for a in associative_suite(p):
            alg = a.extended(ops={"prelie": a.structure("assoc")})
            assert check_prelie(alg, "prelie").ok()


def test_prelie_detects_failure() -> None:
    c = np.zeros((2, 2, 2), dtype=np.int64)
    c[0, 1, 0] = 1
    c[1, 0, 1] = 1
    alg = Algebra(3, 2, {"prelie": c})
    rep = check_prelie(alg, "prelie")
    assert rep.status == "fail"
    assert rep.failure_count > 0


# -- Jacobson coefficients -----------------------------------------------------


def test_jacobson_si_p2_is_bracket() -> None:
    alg = l2(2)
    for x in alg.enumerate_elements():
        for y in alg.enumerate_elements():
            assert jacobson_si(alg, "bracket", x, y) == [alg.multiply("bracket", x, y)]


def test_jacobson_si_p3_closed_form_on_lie_bracket() -> None:
    rng = random.Random(51)
    a = matrix_assoc(3, 2)
    alg = a.extended(ops={"bracket": commutator_tensor(a)})
    br = lambda u, v: alg.multiply("bracket", u, v)
    for _ in range(40):
        x = tuple(rng.randrange(3) for _ in range(4))
        y = tuple(rng.randrange(3) for _ in range(4))
        s1, s2 = jacobson_si(alg, "bracket", x, y)
        assert s1 == br(br(x, y), y)
        assert s2 == alg.scale(2, br(br(x, y), x))


def test_jacobson_si_zero_y_vanishes() -> None:
    rng = random.Random(53)
    from helpers import random_structure

    for p in (2, 3, 5):
        c = random_structure(p, 3, rng)
        alg = Algebra(p, 3, {"b": c})
        x = tuple(rng.randrange(p) for _ in range(3))
        assert all(
            s == alg.zero() for s in jacobson_si(alg, "b", x, alg.zero())
        )


def test_jacobson_against_free_associative_expansion() -> None:
    # (x+y)^3 - x^3 - y^3 in the free associative algebra over F_3 equals
    # s_1 + s_2 computed from the commutator bracket: every mixed word of
    # length 3 appears with coefficient 1
    p = 3
    alg, index = word_algebra(p)
    br = commutator_tensor(alg, "assoc")
    alg = alg.extended(ops={"bracket": br})
    x = alg.basis(index[(0,)])
    y = alg.basis(index[(1,)])
    s = alg.zero()
    for term in jacobson_si(alg, "bracket", x, y):
        s = alg.add(s, term)
    expect = {
        w: 1
        for w in itertools.product((0, 1), repeat=3)
        if w not in ((0, 0, 0), (1, 1, 1))
    }
    got = {w: int(s[i]) for w, i in index.items() if s[i]}
    assert got == expect


def test_associative_power_identity_via_si() -> None:
    # (x+y)^p = x^p + y^p + sum s_i(x, y) with the commutator bracket,
    # exhaustively on 2-dim associative carriers for p in {2, 3}
    from helpers import diagonal_assoc

    for p in (2, 3):
        for a in (truncated_poly(p, 2), diagonal_assoc(p, 2)):
            alg = a.extended(
                ops={"bracket": commutator_tensor(a)},
                pmaps={"pw": MatrixPowerPMap("assoc")},
            )
            for x in alg.enumerate_elements():
                for y in alg.enumerate_elements():
                    lhs = alg.apply_pmap("pw", alg.add(x, y))
                    rhs = alg.add(alg.apply_pmap("pw", x), alg.apply_pmap("pw", y))
                    for term in jacobson_si(alg, "bracket", x, y):
                        rhs = alg.add(rhs, term)
                    assert lhs == rhs, (a.label, x, y)


# -- restrictedness ------------------------------------------------------------


def test_restricted_leibniz_l2() -> None:
    for p in (2, 3):
        rep = check_restricted_leibniz(l2(p))
        assert rep.ok()
        assert rep.coverage.kind == "exhaustive"
        assert rep.coverage.count == p ** 2


def test_restricted_leibniz_wrong_pmap_fails() -> None:
    alg = l2(2).extended(pmaps={"z": ZeroPMap()})
    rep = check_restricted_leibniz(alg, pmap="z")
    assert rep.status == "fail"
    xs = {w.inputs[0] for w in rep.witnesses}
    assert (0, 1) in xs or (1, 1) in xs


def test_restricted_leibniz_requires_leibniz() -> None:
    c = np.zeros((2, 2, 2), dtype=np.int64)
    c[0, 0, 1] = 1
    c[1, 1, 0] = 1
    alg = Algebra(2, 2, {"bracket": c}, {"z": ZeroPMap()})
    if check_leibniz(alg).ok():  # make sure the fixture is genuinely broken
        pytest.skip("fixture accidentally Leibniz")
    with pytest.raises(UsageError):
        check_restricted_leibniz(alg, pmap="z")


def test_restricted_prelie_on_associative() -> None:
    for p in (2, 3):
        a = truncated_poly(p, 3)
        alg = a.extended(
            ops={"prelie": a.structure("assoc")},
            pmaps={"pw": MatrixPowerPMap("assoc")},
        )
        assert check_restricted_prelie(alg, "pw").ok()


def test_restricted_lie_matrices_f2() -> None:
    a = matrix_assoc(2, 2)
    alg = a.extended(
        ops={"bracket": commutator_tensor(a)},
        pmaps={"pw": MatrixPowerPMap("assoc")},
    )
    rep = check_restricted_lie(alg, "bracket", "pw")
    assert rep.ok()
    assert "axiom3 pairs exhaustive(256)" in rep.notes


def test_restricted_lie_gl1_idempotent_carrier() -> None:
    a = truncated_poly(2, 1)
    alg = a.extended(
        ops={"bracket": commutator_tensor(a)},
        pmaps={"pw": MatrixPowerPMap("assoc")},
    )
    assert check_restricted_lie(alg, "bracket", "pw").ok()


def test_restricted_lie_constant_pmap_fails_axiom1() -> None:
    p = 3
    alg = abelian(p, 1).extended(
        pmaps={"const": TablePMap({(a,): (1,) for a in range(p)})}
    )
    rep = check_restricted_lie(alg, "bracket", "const")
    assert rep.status == "fail"
    assert any(w.inputs[0] == "axiom1" and w.inputs[1] == 0 for w in rep.witnesses)
    # the zero map's residues plus p, as a p-map from outside rlk may return them
    zero = BasisJacobsonPMap("bracket", ((0, 0), (0, 0)))
    alg = abelian(p, 2).extended(pmaps={"zero": zero, "zero+p": ShiftedPMap(zero)})
    rep = check_restricted_lie(alg, "bracket", "zero+p")
    assert rep.status == "pass"
    assert rep.to_dict() == check_restricted_lie(alg, "bracket", "zero").to_dict()


def test_restricted_lie_rejects_non_lie_bracket() -> None:
    with pytest.raises(UsageError):
        check_restricted_lie(l2(3), "bracket", "frobenius")


# -- derived-bracket Jacobson proposition ---------------------------------------


def test_dleib_jacobson_single_and_sweep() -> None:
    for p in (2, 3):
        for a in associative_suite(p, max_dim=3):
            D = Algebra(p, a.dim, as_dialgebra_ops(a), label=a.label)
            rng = random.Random(7)
            z, x, y = (
                tuple(rng.randrange(p) for _ in range(a.dim)) for _ in range(3)
            )
            assert check_dleib_jacobson_bracket(D, z, x, y).ok()
            rep = sweep_dleib_jacobson(D, samples=150, seed=11)
            assert rep.ok()
            assert rep.coverage.count == 150


@pytest.mark.parametrize("samples", [0, -5])
def test_sampled_sweeps_refuse_fewer_than_one_sample(samples) -> None:
    """A sampled sweep of no samples covers nothing, and it passed: the
    restricted pass's sampled grid, the sampled trilinear sweep,
    sweep_dleib_jacobson and the sampled axiom-3 pairs of
    check_restricted_lie (81 elements, so 6,561 pairs, past PAIR_BUDGET;
    it took one pair) and the sampled operators of check_tensor_restricted
    refuse the count.  Exhaustive grids draw nothing and ignore it."""
    alg, D = l2(3), l2_dialgebra(3)
    flat = abelian(3, 4).extended(pmaps={"zero": ZeroPMap()})
    T = tensor_prelie(l2(2), free_zinbiel(1, 3, 2))
    for sweep in (lambda: check_restricted_leibniz(alg, cap=1, samples=samples),
                  lambda: check_leibniz(alg, "sampled", samples=samples),
                  lambda: sweep_dleib_jacobson(D, samples=samples),
                  lambda: check_restricted_lie(flat, "bracket", "zero", samples=samples),
                  lambda: check_tensor_restricted(T, samples=samples)):
        with pytest.raises(UsageError, match=f"samples must be positive, got {samples}"):
            sweep()
    rep = check_restricted_leibniz(alg, samples=samples)
    assert rep.ok() and rep.coverage.to_dict() == {"kind": "exhaustive", "count": 9}
    assert check_leibniz(alg, samples=samples).ok()


def _planted(alg, seed):
    """alg with a TablePMap "planted" of random values, which fails the
    operator condition on most elements."""
    rng = random.Random(seed)
    table = {x: tuple(rng.randrange(alg.p) for _ in x)
             for x in itertools.product(range(alg.p), repeat=alg.dim)}
    return alg.extended(pmaps={"planted": TablePMap(table)}), table


@pytest.mark.parametrize("kind", ["exhaustive", "sampled"])
def test_operator_sweep_report_does_not_depend_on_the_block_split(kind, monkeypatch) -> None:
    """check_restricted_leibniz, check_restricted_module on the adjoint module
    and the axiom-2 sweep of check_restricted_lie (the restricted pass as that
    check calls it), with a planted p-map, on all 81 elements of
    dleib(M_2(F_3)) and on 160 sampled elements of dleib(ut_2(F_11)), whose
    witnesses' repr order is not their row order.  More than 16 rows fail,
    and every report is the loop oracle's, which keeps the first 16 failing
    rows of the grid: with the default constants, and with _CHUNK_ENTRIES
    at 20 rows' worth (the sampled grid is 8 such chunks) whether a
    compute block holds 7 rows, dim rows (the operator table just fits the
    budget), 20 rows (a budget of 1 entry, which the table overflows), or
    more rows than the grid, which _CHUNK_ENTRIES then bounds.  Witness sides
    are int64, so the JSON holds no float."""
    if kind == "exhaustive":
        base, seed, samples, cap = dleib(as_dialgebra(matrix_assoc(3, 2))), 0, 0, None
    else:
        base, seed, samples, cap = dleib(as_dialgebra(upper_triangular2(11))), 5, 160, 100
    alg, table = _planted(base, f"planted-{kind}")
    p, d = alg.p, alg.dim
    if kind == "exhaustive":
        rows = [list(x) for x in itertools.product(range(p), repeat=d)]
        coverage = {"kind": "exhaustive", "count": len(rows)}
    else:
        rng = random.Random(seed)
        rows = [[rng.randrange(p) for _ in range(d)] for _ in range(samples)]
        coverage = {"kind": "sampled", "count": samples, "seed": seed}
    c = alg.structure("bracket").tolist()
    ops = [[[c[i][j][k] for i in range(d)] for k in range(d)] for j in range(d)]
    values = [table[tuple(x)] for x in rows]
    assert identities._residue_dtype(d, p, len(rows) * d ** 3) is np.float32  # the float path
    sweeps = {
        "restricted_leibniz": lambda: check_restricted_leibniz(
            alg, "planted", cap=cap, seed=seed, samples=samples),
        "restricted_module": lambda: check_restricted_module(
            alg, adjoint_module(alg), "planted", cap=cap, seed=seed, samples=samples),
        "restricted_lie": lambda: identities._restricted_pass(
            alg, alg.right_ops("bracket"), "planted", "restricted_lie", cap, seed, samples,
            ("axiom2",))[0],
    }
    want = {
        "restricted_leibniz": operator_sweep_report(
            "restricted_leibniz", ops, p, rows, values, coverage),
        "restricted_module": operator_sweep_report(
            "restricted_module", ops, p, rows, values, coverage, swap=True),
        "restricted_lie": operator_sweep_report(
            "restricted_lie", ops, p, rows, values, coverage, ("axiom2",)),
    }
    assert all(rep["failure_count"] > 16 for rep in want.values())

    def reports():
        out = {}
        for name, sweep in sweeps.items():
            rep = sweep()
            assert all(w.lhs.dtype == w.rhs.dtype == np.int64 for w in rep.witnesses)
            assert "." not in json.dumps(rep.to_dict()["witnesses"])
            out[name] = rep.to_dict()
        return out

    assert reports() == want
    monkeypatch.setattr(algebra_core, "_CHUNK_ENTRIES", 20 * d * d)
    for block in (7 * d * d, d ** 3, 1, 2 * len(rows) * d * d):
        monkeypatch.setattr(algebra_core, "_BLOCK_ENTRIES", block)
        assert reports() == want, block


@pytest.mark.parametrize("dim, rows, block", [(8, 6561, 512), (40, 100, 100)])
def test_operator_blocks_span_the_chunk_once_the_table_overflows_a_block(
        dim, rows, block, monkeypatch) -> None:
    """The p-map values (right_power_batch) and the operator sweep build r_x
    once per compute block.  At dim 8 the (8, 8, 8) operator table fits
    _BLOCK_ENTRIES, so the 6,561 elements go in blocks of 2**15 // 8**2 = 512
    rows.  At dim 40 the table (64,000 entries) overflows it, so a block takes
    _CHUNK_ENTRIES // 40**2 = 1,310 rows and the table is read once for 100
    sampled rows, not once for each block of 2**15 // 40**2 = 20 rows."""
    rng = random.Random(f"blocks-{dim}")
    alg = Algebra(3, dim, {"bracket": random_structure(3, dim, rng)},
                  {"frobenius": RightPowerPMap("bracket")})
    built, real = [], algebra_core.operator_stack

    def counted(ops, X, p):
        built.append(len(X))
        return real(ops, X, p)

    monkeypatch.setattr(algebra_core, "operator_stack", counted)
    monkeypatch.setattr(identities, "operator_stack", counted)
    rep = identities._restricted_pass(alg, alg.right_ops("bracket"), "frobenius",
                                      "restricted_leibniz", None, 0, rows)[0]
    assert rep.coverage.count == rows
    assert max(built) == block and sum(built) == 3 * rows  # the p-map, then r_x and r_{f(x)}


@pytest.mark.parametrize("make", [lambda: matrix_dialgebra(l2_dialgebra(3), 2),
                                  lambda: matrix_dialgebra(as_dialgebra(upper_triangular2(2)), 2)],
                         ids=["gl2(l2dias)/F3", "gl2(ut2)/F2"])
def test_restricted_sweep_memory_fits_grid_values_and_blocks(make) -> None:
    """What check_restricted_leibniz holds at its peak on dleib of a dim-8
    and a dim-12 matrix dialgebra (6,561 and 4,096 elements) fits four
    (N, dim) int64 arrays (the grid, the p-map values and the two reduced
    copies the p-map makes of the grid), sixteen blocks of _BLOCK_ENTRIES
    int64 entries and a fixed allowance.  Holding a whole chunk of
    _CHUNK_ENTRIES operators at once overshoots that twice over."""
    alg = dleib(make())
    grid = alg.element_count() * alg.dim * 8
    bound = 4 * grid + 16 * 8 * algebra_core._BLOCK_ENTRIES + (1 << 16)
    tracemalloc.start()
    try:
        rep = check_restricted_leibniz(alg)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert rep.ok() and rep.coverage.count == alg.element_count()
    assert peak - held <= bound, (peak - held, bound)


def test_restricted_pass_reduces_each_block_at_most_twice(monkeypatch) -> None:
    """One exhaustive check_restricted_leibniz on dleib(gl2(l2dias)/F3), 6,561
    elements of dim 8 in 13 blocks of 512, makes at most two float reductions a
    block: one for the p-map values (the p-fold right power) and one for the
    sweep's comparison of r_x**3 with r_{f(x)}.  The bounds allow it: r_x has
    entries at most 8 * 2**2 = 32, r_x**3 at most 64 * 32**3 < 2**24.  The
    algebra is built first, and holds its Leibniz report, so only the
    restricted pass runs.  A reduction after every product makes five a block."""
    alg = dleib(matrix_dialgebra(l2_dialgebra(3), 2))
    block = algebra_core._blocks(alg.dim, alg.dim ** 3)
    blocks = -(-alg.element_count() // block)
    assert (alg.element_count(), block, blocks) == (6561, 512, 13)
    calls, float_mod = [], algebra_core._float_mod

    def counted(a, p):
        calls.append(a.shape)
        return float_mod(a, p)

    monkeypatch.setattr(algebra_core, "_float_mod", counted)
    monkeypatch.setattr(identities, "_float_mod", counted)
    rep = check_restricted_leibniz(alg)
    assert rep.ok() and rep.coverage.count == 6561
    assert 0 < len(calls) <= 2 * blocks, len(calls)
