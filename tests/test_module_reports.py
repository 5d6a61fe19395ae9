"""Pinned reports of the module checks and relation builders, and of the
other checks that collect witnesses outside the trilinear sweep; the module
checks' failure counts against plain-Python matrix loops at a modulus next
to the int64 bound; and the absence of per-element products and p-map calls.

The module digests were computed from the per-element loops that the batched
sweeps replaced, the polarization cases from the Jacobson kernel that
bracketed row pairs each round (before it took right-operator stacks), and
the others from the per-check witness loops that the shared collector
replaced; they fix witness order, truncation, chunking and coverage."""

from __future__ import annotations

import hashlib
import json
import random

import numpy as np
import pytest

from rlk.algebra_core import (Algebra, BasisJacobsonPMap, RightPowerPMap, TablePMap,
                              ZeroPMap, _tup)
from rlk.dialgebra import as_dialgebra, check_commutative_diagram, dleib, sweep_lemdias
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
from rlk.free_structures import das_quotient, free_dias, free_zinbiel, ud_p
from rlk.identities import check_restricted_leibniz, check_restricted_lie, sweep_dleib_jacobson
from rlk.prelie_tensor import (
    TensorAlgebraHandle,
    check_corollary,
    check_tensor_restricted,
    tensor_prelie,
)

from helpers import (abelian, commutator_tensor, count_per_element_calls, counting, l2,
                     matrix_assoc, random_structure, upper_triangular2)
from oracles import naive_mat_mul, naive_mat_pow, naive_module_sides, square_multiply_mat_pow


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
    return {**pres.to_dict(), "relations": [r.tolist() for r in pres.relations],
            "projection": pres.projection.tolist()}


def _random_pair(p, dim):
    """Seeded random "left" and "right" tensors: not diassociative, and the
    iterated powers of the two products disagree."""
    rng = random.Random(f"pair-{p}-{dim}")
    return Algebra(p, dim, {"left": random_structure(p, dim, rng),
                            "right": random_structure(p, dim, rng)})


def _zero_pmap_m2(p):
    """dleib of M_2(F_p) with the zero p-map, which breaks r_x**p = r_{x^[p]}
    wherever r_x is not nilpotent: more than 16 failures."""
    return dleib(as_dialgebra(matrix_assoc(p, 2))).extended(pmaps={"zero": ZeroPMap()})


def _lie_l2_bracket(p):
    """The Lie bracket [e0, e1] = e0 = -[e1, e0]."""
    c = np.zeros((2, 2, 2), dtype=np.int64)
    c[0, 1, 0], c[1, 0, 0] = 1, p - 1
    return c


def _shifted_lie_l2(p, shift_zero=False):
    """The Lie algebra of _lie_l2_bracket with the table p-map
    x -> e0 + x_1 e1 on nonzero x (and on 0 too with shift_zero), so that
    (a x)^[p] != a**p x^[p] for every nonzero x and every scalar a > 1."""
    table = {(a, b): (int(shift_zero or (a, b) != (0, 0)), b)
             for a in range(p) for b in range(p)}
    return Algebra(p, 2, {"bracket": _lie_l2_bracket(p)}, {"shifted": TablePMap(table)})


def _forged_ingredients(p):
    """A handle on seeded random tensors: every ingredient that
    check_tensor_restricted checks fails, more than 16 times in all."""
    rng = random.Random(f"forged-{p}")
    g = Algebra(p, 3, {"bracket": random_structure(p, 3, rng)})
    R = Algebra(p, 2, {"zinbiel": random_structure(p, 2, rng)})
    prod = Algebra(p, 6, {"prelie": random_structure(p, 6, rng),
                          "lie": np.zeros((6, 6, 6), dtype=np.int64)})
    return TensorAlgebraHandle(g, R, prod)


def _forged_bracket(p, lie=np.zeros_like, lie_p=None):
    """L2 (x) free_zinbiel(2, 2) with the product's "lie" replaced by
    lie(antisymmetrized bracket) and, if given, lie_p attached as "lie_p"."""
    T = tensor_prelie(l2(p), free_zinbiel(2, 2, p))
    A = T.product
    pmaps = {} if lie_p is None else {"lie_p": lie_p}
    prod = Algebra(p, A.dim, {"prelie": A.structure("prelie"),
                              "lie": lie(A.structure("lie"))}, pmaps)
    return TensorAlgebraHandle(T.gfactor, T.rfactor, prod)


def _collector_cases():
    """Checks that sweep rows and keep witnesses outside the trilinear sweep
    and the module layer, with failing, sampled, multi-chunk and
    inconclusive inputs across p = 2, 3, 5."""
    pairs = {dim: _random_pair(p, dim) for p, dim in ((3, 3), (3, 6), (2, 40))}
    m2_3, m2_2 = matrix_assoc(3, 2), matrix_assoc(2, 2)
    z3, z2 = _zero_pmap_m2(3), _zero_pmap_m2(2)
    return [
        ("lemdias-fail-dim3", lambda: sweep_lemdias(pairs[3])),
        ("lemdias-fail-dim6", lambda: sweep_lemdias(pairs[6])),
        ("lemdias-fail-dim40", lambda: sweep_lemdias(pairs[40])),
        ("diagram-m2-f3", lambda: check_commutative_diagram(m2_3)),
        ("diagram-m2-f2", lambda: check_commutative_diagram(m2_2)),
        ("diagram-m2-f3-sampled", lambda: check_commutative_diagram(
            m2_3, cap=1, seed=2, samples=30)),
        ("tensor-restricted-forged-f2", lambda: check_tensor_restricted(
            _forged_ingredients(2), seed=1, samples=50)),
        ("tensor-restricted-forged-f3", lambda: check_tensor_restricted(
            _forged_ingredients(3), seed=2, samples=50)),
        ("corollary-forged-bracket-f2", lambda: check_corollary(
            _forged_bracket(2), samples=40)),
        ("corollary-forged-bracket-f3", lambda: check_corollary(
            _forged_bracket(3), seed=5, samples=40)),
        # the literal zero map breaks additivity in characteristic 2
        ("corollary-forged-zero-pmap-f2", lambda: check_corollary(
            _forged_bracket(2, lambda c: c, ZeroPMap()), samples=40)),
        # the bracket in reversed basis order is Lie but not the closed form,
        # and its 16 bracket witnesses leave no room for the axiom witnesses
        ("corollary-forged-reversed-f2", lambda: check_corollary(
            _forged_bracket(2, lambda c: c[::-1, ::-1, ::-1], ZeroPMap()), samples=40)),
        # dim 30 draws 700 triples in two chunks
        ("dleib-jacobson-nondias-dim3", lambda: sweep_dleib_jacobson(
            _random_pair(3, 3), samples=200, seed=1)),
        ("dleib-jacobson-nondias-dim30", lambda: sweep_dleib_jacobson(
            _random_pair(2, 30), samples=700, seed=2)),
        ("restricted-leibniz-zero-m2-f3", lambda: check_restricted_leibniz(z3, "zero")),
        ("restricted-leibniz-zero-m2-f2", lambda: check_restricted_leibniz(z2, "zero")),
        ("restricted-leibniz-zero-m2-f3-sampled", lambda: check_restricted_leibniz(
            z3, "zero", cap=1, seed=3, samples=60)),
        ("restricted-lie-shifted-f3", lambda: check_restricted_lie(
            _shifted_lie_l2(3), pmap="shifted")),
        ("restricted-lie-shifted-f5", lambda: check_restricted_lie(
            _shifted_lie_l2(5), pmap="shifted")),
        ("restricted-lie-shifted-zero-f3", lambda: check_restricted_lie(
            _shifted_lie_l2(3, shift_zero=True), pmap="shifted")),
        ("restricted-lie-shifted-f5-sampled", lambda: check_restricted_lie(
            _shifted_lie_l2(5), pmap="shifted", cap=1, seed=4, samples=30)),
    ] + _polarization_cases()


def _true_pmap_lie_l2(p):
    """The Lie algebra of _lie_l2_bracket with its restricted p-map e0 -> 0,
    e1 -> e1, extended from the basis by the Jacobson formula."""
    return Algebra(p, 2, {"bracket": _lie_l2_bracket(p)},
                   {"jac": BasisJacobsonPMap("bracket", [(0, 0), (0, 1)])})


def _true_pmap_gl2(p):
    """gl_2(F_p) with e_i^[p] = e_i**p, extended by the Jacobson formula."""
    A = matrix_assoc(p, 2)
    values = [_tup(v) for v in A.right_power_batch("assoc", np.eye(4, dtype=np.int64), p)]
    return Algebra(p, 4, {"bracket": commutator_tensor(A)},
                   {"jac": BasisJacobsonPMap("bracket", values)})


def _polarization_cases():
    """Checks that evaluate the Jacobson polarization kernel past p = 5: the
    additivity axiom of check_restricted_lie (through a table and through a
    Jacobson-extended p-map), check_corollary, and the derived-bracket sweep."""
    return [
        ("restricted-lie-shifted-f7", lambda: check_restricted_lie(
            _shifted_lie_l2(7), pmap="shifted")),
        ("restricted-lie-true-l2-f7", lambda: check_restricted_lie(
            _true_pmap_lie_l2(7), pmap="jac")),
        # 2401 elements: axiom 3 samples its pairs
        ("restricted-lie-true-gl2-f7", lambda: check_restricted_lie(
            _true_pmap_gl2(7), pmap="jac", seed=6)),
        ("corollary-l2-fz22-f3", lambda: check_corollary(
            tensor_prelie(l2(3), free_zinbiel(2, 2, 3)), seed=2, samples=60)),
        ("dleib-jacobson-nondias-f7", lambda: sweep_dleib_jacobson(
            _random_pair(7, 3), samples=300, seed=4)),
    ]


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
        ("ud-p-ut2-f2", lambda: _presentation(ud_p(g2, d=3))),
        ("ud-p-zero-dim", lambda: _presentation(
            ud_p(abelian(3, 0, with_pmap=True), pmap="zero", d=3))),
        ("ulp-l2-f2", lambda: _presentation(ulp_truncated(l2(2)))),
        ("ulp-sampled", lambda: _presentation(
            ulp_truncated(l2(2), d=3, cap=1, seed=1, samples=5))),
        ("ulp-zero-dim", lambda: _presentation(
            ulp_truncated(abelian(2, 0, with_pmap=True), pmap="zero", d=3))),
    ] + _collector_cases()


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
    "ud-p-ut2-f2": "eb3a73237e9cf9b6902916d3e9838d68f85e6ea904ff54a654daf2640ec29e8c",
    "ud-p-zero-dim": "4d8e917d55f9edbddae181706688ceef7d645878a60bb16d3d9463a964c522f3",
    "ulp-l2-f2": "26653dcd30d0891821d57624e09c75f0795588acb098a7476fa9970c99e08638",
    "ulp-sampled": "346a49bd240851fcece369aa19c536c53a9ce2a81461ce323e5c74c9b9c41868",
    "ulp-zero-dim": "845f6d4b3b619c3bf87952d0e4b09fa9e4b8dde9c50f4238b4048f8df12e4d8b",
    "lemdias-fail-dim3": "05388c6a851fd3b9f64768d7f8a4432cc236cc2d47d9c566efc9c11d219f676b",
    "lemdias-fail-dim6": "cfa0e5165b492e8fd6be31d662e248667cf9b556a1c64d7519473f5f8dd4eac1",
    "lemdias-fail-dim40": "2e020611498f5768a6e10097993650a5db109f29c008ccb03c3dd9f93eaec4a1",
    "diagram-m2-f3": "e9e1bd5f7f561cf6a64d6c9a60a98722e6cbd4c8323a24436fbf613aff618fb5",
    "diagram-m2-f2": "8f7a980dc65f934cbf4d24a344e4c2ceefdbfcf6c9f65deefa7aa0ab5ab1cac3",
    "diagram-m2-f3-sampled": "b808b0639a752c49a054e92d2a2ae75efcdcda465df4e11dbbbee3c0a1d5275d",
    "tensor-restricted-forged-f2": "0e3db62d13ddcdf5510d4bdd5241e94b13e3c5827cf3563e36de2dac41ac01db",
    "tensor-restricted-forged-f3": "6341868ab4aa045c2dafd8113844cef47cf6749ed4574e736dc23d07d43d3d46",
    "corollary-forged-bracket-f2": "1a2cbdfb246a86d0cdbd3f45f8469bf3af912e74989f63efa48aaacb726fc64c",
    "corollary-forged-bracket-f3": "dc2072cd4d528907e2b74ef04b2eae5b3804683a6b93e5259e68133dd098bbef",
    "corollary-forged-zero-pmap-f2": "ccfad5c1a4bd394f1e54f44553a5d98a861ca2e15882727ea46feed8e9262ab6",
    "corollary-forged-reversed-f2": "0c8053cd2074728a3f16c61bfa27d791025b01c8ff8e9f6eaf6a140e115cdfd8",
    "dleib-jacobson-nondias-dim3": "045cf061aac92f849f2fb6ba7cf8d60ba00a74df562422bc81108e393371ee2b",
    "dleib-jacobson-nondias-dim30": "2ee29818028d48e0e07dca657206a7b22d6783e56dc8bddcda38c1d959973dc3",
    "restricted-leibniz-zero-m2-f3": "21b5e1773cd221d2379de59a35fa7e80a8c32142b048e90dd9c157137f28fe0c",
    "restricted-leibniz-zero-m2-f2": "f484767ed8386756c7ae0a7095158a2f0fa85848d84504e3771641376ac58932",
    "restricted-leibniz-zero-m2-f3-sampled": "d13fc99eff4f00ac36270ae7955d59a06549d627314059d73be2c723eeef98a0",
    "restricted-lie-shifted-f3": "4a6eb4a4ee9769c8c11a2f33a7597feb3a4a9291d1eb3e3dab0c1e80bbfb15aa",
    "restricted-lie-shifted-f5": "a448e2e42bdd4e20849cebf51fd41080bd8ac0ef69018bff58fb847394d6cd2a",
    "restricted-lie-shifted-zero-f3": "ac80e6cdfbdfb568311b83205aab529291428a0717f6967df3ce0161433826fc",
    "restricted-lie-shifted-f5-sampled": "73337e7f3c5ae5b6689428562bf8fdf09e04977780087656196c50ecb357f1ce",
    "restricted-lie-shifted-f7": "f2a62632b92e7e561b38591caf97cce767fe63614613e2195ba7ff507174e401",
    "restricted-lie-true-l2-f7": "dc4d97fc5a8f16672d5f191c6e26e0268c3e33e9422284fd0390c12c84542261",
    "restricted-lie-true-gl2-f7": "444c2ab12edb506887038aa15b0c73c6cb092fd55fe15c386dd41e164a275d60",
    "corollary-l2-fz22-f3": "f67419b26d4d1a7a20cafa9ed57c2709d7f083684ebb8096d0a1374ca61f0840",
    "dleib-jacobson-nondias-f7": "78c5357bcfe8efbd13c059edb9ad3a51597058a516cbc4ef19b4cf93d58e1d9e",
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


def _combination(mats, x, p):
    m = len(mats[0])
    return [[sum(c * a[r][s] for c, a in zip(x, mats)) % p for s in range(m)]
            for r in range(m)]


def _big_random(rng, m):
    return [[rng.randrange(BIG_P) for _ in range(m)] for _ in range(m)]


def _module_axiom_failures(c, L, R, p):
    """Failing (pair, axiom, column) count, spelled out from the identities."""
    n, m = len(L), len(L[0])
    return sum(any(lhs[r][s] != rhs[r][s] for r in range(m))
               for i in range(n) for j in range(n)
               for lhs, rhs in naive_module_sides(c, L, R, p, i, j) for s in range(m))


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
        power = square_multiply_mat_pow(rx, p, p)
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


def test_ud_p_builds_its_relations_once(monkeypatch) -> None:
    import rlk.free_structures as fs

    calls = {"_ud_relations": 0, "_pmap_instances": 0}
    for name in calls:
        monkeypatch.setattr(fs, name, counting(calls, name, getattr(fs, name)))
    ud_p(_ut2(2), d=3)
    assert calls == {"_ud_relations": 1, "_pmap_instances": 1}
