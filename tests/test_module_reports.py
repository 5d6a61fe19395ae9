"""Pinned reports of the module checks and relation builders, their failure
counts against plain-Python matrix loops at a modulus next to the int64
bound, and the absence of per-element products and p-map calls.

The digests were computed from the per-element loops that the batched
sweeps replaced; they fix witness order, truncation, chunking and coverage."""

from __future__ import annotations

import hashlib
import json
import random

import numpy as np
import pytest

from rlk.algebra_core import Algebra, RightPowerPMap, ZeroPMap
from rlk.dialgebra import as_dialgebra, dleib
from rlk.envelope import (
    LeibnizModule,
    adjoint_module,
    check_module_axioms,
    check_restricted_module,
    module_roundtrip,
    ulp_relations_check,
    ulp_truncated,
    zero_module,
)
from rlk.free_structures import check_ud_unit, ud_p

from helpers import abelian, count_per_element_calls, counting, l2, upper_triangular2
from oracles import naive_mat_mul, naive_mat_pow


def _ut2(p):
    return dleib(as_dialgebra(upper_triangular2(p)))


def _swapped(g):
    M = adjoint_module(g)
    return LeibnizModule(g, g.dim, M.right_action, M.left_action, label="swapped")


def _planted(g, seed):
    """The adjoint module with every entry of right_action[1] moved by a
    seeded amount: many axiom failures, more than the 16 witnesses kept."""
    M = adjoint_module(g)
    rng = random.Random(seed)
    right = M.right_action.copy()
    right[1] += np.array([[rng.randrange(1, g.p) for _ in range(g.dim)]
                          for _ in range(g.dim)])
    return LeibnizModule(g, g.dim, M.left_action, right, label="planted")


def _diagonal_module(p, dim, mdim, seed):
    """Abelian g with the zero p-map, acting on the right by commuting seeded
    diagonal matrices: the module identities hold, and r_x**p = r_x is zero
    only where every diagonal entry of r_x vanishes."""
    g = abelian(p, dim, with_pmap=True)
    rng = random.Random(seed)
    right = np.zeros((dim, mdim, mdim), dtype=np.int64)
    for i in range(dim):
        right[i] = np.diag([rng.randrange(p) for _ in range(mdim)])
    M = LeibnizModule(g, mdim, np.zeros_like(right), right, label="diagonal")
    return g, M


def _presentation(pres):
    return {**pres.to_dict(), "relations": [list(r) for r in pres.relations],
            "projection": pres.projection.tolist()}


def _cases():
    """(case id, thunk returning a CheckReport or a presentation dict)."""
    g3, g2, l3 = _ut2(3), _ut2(2), l2(3)
    gz = g3.extended(pmaps={"zero": ZeroPMap()})
    big_g, big_M = _diagonal_module(3, 3, 4, 1)
    # mdim 73 cuts a 400-element stack into 393 + 7 rows; failures fall in
    # both chunks, and the report keeps the first 16 in sample order
    wide_g, wide_M = _diagonal_module(5, 3, 73, 2)
    return [
        ("axioms-adjoint-ut2", lambda: check_module_axioms(g3, adjoint_module(g3))),
        ("axioms-adjoint-l2", lambda: check_module_axioms(l3, adjoint_module(l3))),
        ("axioms-swapped-ut2", lambda: check_module_axioms(g3, _swapped(g3))),
        ("axioms-planted-ut2", lambda: check_module_axioms(g3, _planted(g3, 4))),
        ("axioms-zero", lambda: check_module_axioms(l3, zero_module(l3, 3))),
        ("restricted-adjoint-ut2", lambda: check_restricted_module(g3, adjoint_module(g3))),
        ("restricted-adjoint-l2", lambda: check_restricted_module(l3, adjoint_module(l3))),
        ("restricted-zero-pmap", lambda: check_restricted_module(
            gz, adjoint_module(gz), pmap="zero")),
        ("restricted-diagonal", lambda: check_restricted_module(big_g, big_M, pmap="zero")),
        ("restricted-sampled", lambda: check_restricted_module(
            g3, adjoint_module(g3), cap=1, seed=5)),
        ("restricted-sampled-fail", lambda: check_restricted_module(
            big_g, big_M, pmap="zero", cap=1, seed=6, samples=50)),
        ("restricted-sampled-chunked", lambda: check_restricted_module(
            wide_g, wide_M, pmap="zero", cap=1, seed=7)),
        ("roundtrip-adjoint-ut2", lambda: module_roundtrip(g3, adjoint_module(g3))),
        ("roundtrip-adjoint-ut2-f2", lambda: module_roundtrip(g2, adjoint_module(g2))),
        ("roundtrip-adjoint-l2", lambda: module_roundtrip(l3, adjoint_module(l3))),
        ("roundtrip-sampled", lambda: module_roundtrip(
            g3, adjoint_module(g3), cap=1, seed=3, samples=20)),
        ("relations-adjoint-ut2", lambda: ulp_relations_check(g3, adjoint_module(g3))),
        ("relations-swapped-ut2", lambda: ulp_relations_check(g3, _swapped(g3))),
        ("relations-planted-ut2", lambda: ulp_relations_check(g3, _planted(g3, 4))),
        ("relations-diagonal-sampled", lambda: ulp_relations_check(
            big_g, big_M, pmap="zero", cap=1, seed=2, samples=30)),
        ("ud-unit-ut2-f2", lambda: check_ud_unit(g2, d=3)),
        ("ud-unit-sampled", lambda: check_ud_unit(g3, d=2, cap=1, seed=4, samples=10)),
        ("ud-p-ut2-f2", lambda: _presentation(ud_p(g2, d=3))),
        ("ud-p-zero-dim", lambda: _presentation(
            ud_p(abelian(3, 0, with_pmap=True), pmap="zero", d=3))),
        ("ulp-l2-f2", lambda: _presentation(ulp_truncated(l2(2)))),
        ("ulp-sampled", lambda: _presentation(
            ulp_truncated(l2(2), d=3, cap=1, seed=1, samples=5))),
        ("ulp-zero-dim", lambda: _presentation(
            ulp_truncated(abelian(2, 0, with_pmap=True), pmap="zero", d=3))),
    ]


PINNED = {
    "axioms-adjoint-ut2": "0bd673b5345a9f44a1cc35d726c2b380a7f21dae91180eaba234aef5d7d7c749",
    "axioms-adjoint-l2": "3a59ee06ff7656fb3d387373e6992ceba77b840f76863f3cc24025147e27100d",
    "axioms-swapped-ut2": "89440b02d83b5f495f0756e21519bdb027b97a8b3aa3ad9902286f0a9d4a86f6",
    "axioms-planted-ut2": "46a621b56d3c57e3efd7c2cf20934bb8c0c65866c19a4c77f1ac36e92b7c03e6",
    "axioms-zero": "efbc1b0a9e1069855f458e74a6e8acf524836f651f4769d547f073426d32537f",
    "restricted-adjoint-ut2": "5f0e07fc2e65fd175e478c618546964aa9528f6c4bcaf0505de5d55700192a2e",
    "restricted-adjoint-l2": "1dd070a1b034bbec09a41d7e0d64f5d7d3931d96e9a01d9ff349462f9ebe516a",
    "restricted-zero-pmap": "37aec28f7daeb9a204303182b5530cf8c9724a8f8947913c83fab6578fc68e47",
    "restricted-diagonal": "1ecfda82c63fc698fd3785274e9f6a2608de98b9517274722624ecca0a409e13",
    "restricted-sampled": "26d4b933d8a1dc279568d1a58f4cbacb90d67897769487dc1b8d92774e7f3e7a",
    "restricted-sampled-fail": "44d492becc4c0c37ae2f7e7ca0e2e22aa31bc7b2d20dd9ec1e0d5928faa6bd98",
    "restricted-sampled-chunked": "8ce661553fef1b690ed0ff21badf34183a01d08ad159ee4d5da57072fae26886",
    "roundtrip-adjoint-ut2": "0b7b0d5ad8f64b55d0e1ec0f2574e8834dfe95ac9672bb3632b046acdc1cc847",
    "roundtrip-adjoint-ut2-f2": "d8b0821f74d68919bf7b5a07b999d05d2962aa20c34a93500799a6da20006731",
    "roundtrip-adjoint-l2": "9730680f57b0f12d85744d9a4841b78ce94b6d1e4351131e728fc728b890ae20",
    "roundtrip-sampled": "c2cae4fe5e8a8cee553c96410e16a29d928c90fca0e8b01f4473a1d5dcd68c82",
    "relations-adjoint-ut2": "b8c83a35b998213b8ee33473108b2bc41b10cb1e263d2cd651bb4eb328fb24be",
    "relations-swapped-ut2": "87eb40e030fbc3debf5edf197b2d3902375700c3c42c11eac29e5e67eefcdf21",
    "relations-planted-ut2": "9e87b19bfd09dd8374c666237a6d22e81468c500c05c43750c078b56b5d247ff",
    "relations-diagonal-sampled": "7cff2892803a630ce26432b523723b766e5bd52f569c87984b5b50dfd2d68514",
    "ud-unit-ut2-f2": "ab29b8078990abb958c4ecf0a675be9373df9f8f3dacc19c42839350c167b034",
    "ud-unit-sampled": "1b3cef58831391a144247eaef63e72aa66df1c63dd791874770afe351d2aaadf",
    "ud-p-ut2-f2": "eb3a73237e9cf9b6902916d3e9838d68f85e6ea904ff54a654daf2640ec29e8c",
    "ud-p-zero-dim": "4d8e917d55f9edbddae181706688ceef7d645878a60bb16d3d9463a964c522f3",
    "ulp-l2-f2": "f1c673dbdd647f3bcdbea21d8c5794edc3832f7960947f4552292a701c70b2d1",
    "ulp-sampled": "5112fadcab423b01f7aa5bb32803268cd5127f13f763bce4181a52a42fde9a0b",
    "ulp-zero-dim": "845f6d4b3b619c3bf87952d0e4b09fa9e4b8dde9c50f4238b4048f8df12e4d8b",
}


def _digest(out) -> str:
    doc = out if isinstance(out, dict) else out.to_dict()
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()


CASES = _cases()


@pytest.mark.parametrize("case, run", CASES, ids=[c for c, _ in CASES])
def test_report_digest_is_pinned(case, run) -> None:
    assert _digest(run()) == PINNED[case]


# -- failure counts at a modulus next to the bound ----------------------------

# the largest prime p with 3 * (p - 1)**2 < 2**62, the bound that
# _check_modulus_bound puts on 3-dimensional modules
BIG_P = 1239850223


def _mat_power(mat, n, p):
    """mat**n by repeated squaring, every square and product a plain loop."""
    out = naive_mat_pow(mat, 0, p)
    while n:
        if n & 1:
            out = naive_mat_mul(out, mat, p)
        mat = naive_mat_pow(mat, 2, p)
        n >>= 1
    return out


def _combination(mats, x, p):
    m = len(mats[0])
    return [[sum(c * a[r][s] for c, a in zip(x, mats)) % p for s in range(m)]
            for r in range(m)]


def _big_random(rng, m):
    return [[rng.randrange(BIG_P) for _ in range(m)] for _ in range(m)]


def _module_axiom_failures(c, L, R, p):
    """Failing (pair, axiom, column) count, spelled out from the identities."""
    n, m = len(L), len(L[0])

    def sub(a, b):
        return [[(u - v) % p for u, v in zip(ra, rb)] for ra, rb in zip(a, b)]

    count = 0
    for i in range(n):
        for j in range(n):
            Lbr, Rbr = _combination(L, c[i][j], p), _combination(R, c[i][j], p)
            mul = naive_mat_mul
            sides = [
                (Rbr, sub(mul(R[j], R[i], p), mul(R[i], R[j], p))),
                (mul(L[i], R[j], p), sub(mul(R[j], L[i], p), Lbr)),
                (mul(L[i], L[j], p), sub(Lbr, mul(R[j], L[i], p))),
            ]
            for lhs, rhs in sides:
                count += sum(any(lhs[r][s] != rhs[r][s] for r in range(m))
                             for s in range(m))
    return count


def test_module_axiom_failures_match_naive_loop_near_modulus_bound() -> None:
    rng = random.Random("module-axioms")
    c = np.zeros((2, 2, 2), dtype=np.int64)
    c[0, 1, 0] = 1  # [e_0, e_1] = e_0
    g = Algebra(BIG_P, 2, {"bracket": c})
    L = [_big_random(rng, 3) for _ in range(2)]
    R = [_big_random(rng, 3) for _ in range(2)]
    M = LeibnizModule(g, 3, np.array(L), np.array(R))
    rep = check_module_axioms(g, M)
    assert 0 < rep.failure_count == _module_axiom_failures(c.tolist(), L, R, BIG_P)


def _inverse_unitriangular(u, p):
    """Inverse of a 3x3 upper unitriangular matrix."""
    return [[1, -u[0][1] % p, (u[0][1] * u[1][2] - u[0][2]) % p],
            [0, 1, -u[1][2] % p],
            [0, 0, 1]]


@pytest.mark.parametrize("diagonalizable", [True, False])
def test_restricted_failures_match_naive_powers_near_modulus_bound(diagonalizable) -> None:
    """r_0 random, or conjugate to a diagonal matrix, and r_1 = r_0**2, under
    the identity p-map: a diagonalizable r_x satisfies r_x**p = r_x in F_p,
    and a random one does not."""
    p, rng = BIG_P, random.Random(f"restricted-{diagonalizable}")
    if diagonalizable:
        u = [[1, rng.randrange(p), rng.randrange(p)], [0, 1, rng.randrange(p)], [0, 0, 1]]
        lower = [list(row) for row in zip(*u)]
        lower_inv = [list(row) for row in zip(*_inverse_unitriangular(u, p))]
        s = naive_mat_mul(lower, u, p)
        s_inv = naive_mat_mul(_inverse_unitriangular(u, p), lower_inv, p)
        diag = [[rng.randrange(p) if r == k else 0 for k in range(3)] for r in range(3)]
        r0 = naive_mat_mul(naive_mat_mul(s, diag, p), s_inv, p)
    else:
        r0 = _big_random(rng, 3)
    R = [r0, naive_mat_pow(r0, 2, p)]
    g = Algebra(p, 2, {"bracket": np.zeros((2, 2, 2), dtype=np.int64)},
                {"id": RightPowerPMap("bracket", 1)})
    M = LeibnizModule(g, 3, np.zeros((2, 3, 3), dtype=np.int64), np.array(R))
    rep = check_restricted_module(g, M, pmap="id", seed=3, samples=20)

    draw = random.Random(3)
    expect = {}
    for _ in range(20):
        x = tuple(draw.randrange(p) for _ in range(2))
        rx = _combination(R, x, p)
        power = _mat_power(rx, p, p)
        if power != rx:
            expect[x] = (rx, power)
    assert rep.failure_count == len(expect) == (0 if diagonalizable else 20)
    for w in rep.witnesses:
        assert (w.to_dict()["lhs"], w.to_dict()["rhs"]) == expect[w.inputs[0]]


# -- no per-element products or p-map calls -----------------------------------


def test_module_layer_makes_no_per_element_calls(monkeypatch) -> None:
    g = _ut2(3)
    calls = count_per_element_calls(monkeypatch)
    assert module_roundtrip(g, adjoint_module(g)).ok()
    assert check_restricted_module(g, adjoint_module(g)).ok()
    ud_p(g)
    assert calls == {"multiply": 0, "apply": 0}


def test_check_ud_unit_builds_its_relation_pairs_once(monkeypatch) -> None:
    import rlk.free_structures as fs

    calls = {"_ud_pairs": 0, "_pmap_instances": 0}
    for name in calls:
        monkeypatch.setattr(fs, name, counting(calls, name, getattr(fs, name)))
    check_ud_unit(_ut2(2), d=3)
    assert calls == {"_ud_pairs": 1, "_pmap_instances": 1}
