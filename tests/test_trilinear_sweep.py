"""Pinned reports of the four trilinear checkers, and their failure counts
against a plain-Python triple loop at a modulus next to the int64 bound.

The digests were computed from the per-identity loops that the shared sweep
replaced; they fix witness order, truncation, chunking and coverage."""

from __future__ import annotations

import hashlib
import json
import random

import numpy as np
import pytest

from rlk import identities
from rlk.algebra_core import Algebra
from rlk.free_structures import free_zinbiel
from rlk.identities import check_dias, check_leibniz, check_prelie, check_zinbiel

from helpers import commutator_tensor, matrix_assoc, random_structure, upper_triangular2
from oracles import naive_trilinear_sides

CHECKERS = {
    "leibniz": (check_leibniz, ("bracket",)),
    "dias": (check_dias, ("left", "right")),
    "zinbiel": (check_zinbiel, ("zinbiel",)),
    "prelie": (check_prelie, ("prelie",)),
}


def _random_algebra(identity, p, dim, seed):
    rng = random.Random(f"{identity}-{p}-{dim}-{seed}")
    names = CHECKERS[identity][1]
    return Algebra(p, dim, {n: random_structure(p, dim, rng) for n in names})


def _passing_algebra(identity):
    mat = matrix_assoc(3, 2)
    if identity == "leibniz":
        return Algebra(3, 4, {"bracket": commutator_tensor(mat)})
    if identity == "dias":
        c = upper_triangular2(5).structure("assoc")
        return Algebra(5, 3, {"left": c, "right": c})
    if identity == "zinbiel":
        return free_zinbiel(2, 2, 3).to_algebra()
    return Algebra(3, 4, {"prelie": mat.structure("assoc")})


def _cases():
    """(case id, thunk returning a CheckReport)."""
    out = []
    for identity, (check, _) in CHECKERS.items():
        good = _passing_algebra(identity)
        bad = _random_algebra(identity, 3, 12, 0)
        out += [
            (f"{identity}-basis-pass", lambda c=check, a=good: c(a)),
            (f"{identity}-basis-fail", lambda c=check, a=bad: c(a)),
            (f"{identity}-sampled-pass",
             lambda c=check, a=good: c(a, mode="sampled", seed=7, samples=50)),
            (f"{identity}-sampled-fail",
             lambda c=check, a=bad: c(a, mode="sampled", seed=7, samples=40)),
        ]
    # dim 40 cuts the basis sweep into two chunks (32 + 8 first indices) and
    # the 1400-sample sweep into two draws.  Only x = e_9 and x = e_35 fail,
    # one in each chunk.  The basis sweep keeps the first 16 failing triples
    # in row order whatever the chunks, all of them at x = e_9, although the
    # witness sort would put "35" before "9".
    c = _random_algebra("leibniz", 2, 40, 1).structure("bracket").copy()
    c[[i for i in range(40) if i not in (9, 35)]] = 0
    big = Algebra(2, 40, {"bracket": c})
    out += [
        ("leibniz-basis-fail-chunked", lambda: check_leibniz(big)),
        ("leibniz-sampled-fail-chunked",
         lambda: check_leibniz(big, mode="sampled", seed=3, samples=1400)),
    ]
    wide = _random_algebra("prelie", 2, 40, 1)
    out.append(("prelie-basis-fail-chunked", lambda: check_prelie(wide)))
    return out


PINNED = {
    "leibniz-basis-pass": "13a74ad676eb6e528efe39716a2b3572d69269c5bd8cfffe5afc62168d21bb23",
    "leibniz-basis-fail": "2676f8f7f6132910413dc8986599fa21160d62e5066ff7e78d93f1f9f84eb399",
    "leibniz-sampled-pass": "3ba9788f0dec46b3c262900347c3be84ed3266df4b8323a8d7ae2efaa0330eef",
    "leibniz-sampled-fail": "c29e9e98b2d8fd7e5ecf0c6c1337fc83ef1b9b59d7ce48708ff73cbb65c6be19",
    "dias-basis-pass": "f45772aef9373658273ddaa6603fa483e3fbe7129856987865f631c557b7eb29",
    "dias-basis-fail": "e6963a1d8a59923f2232104ecf0b8d1989bfdde0336acb61a017407ef61a6948",
    "dias-sampled-pass": "a4abcaeb92277f8678399e685780b81cb45a9c13e23b90ad5c0979004b82793b",
    "dias-sampled-fail": "2cdfbb070d45c340d827f51bd2b74f4b1f65b8ccbe419f61b8fa782586d1bb33",
    "zinbiel-basis-pass": "b0161c9cf6a954411b93c7da4663811a240f431416a69a19f6bf9cad48648264",
    "zinbiel-basis-fail": "b3b5b548b1ad841552a8d4907eaf4ef04afe8adf6c07113676eb18f155722a5f",
    "zinbiel-sampled-pass": "1c8a1a6ea54d652eac9ce40c4faede6495a8f9b7227c19040d14c81123525e77",
    "zinbiel-sampled-fail": "945fd4e28a9c76ec1f1a142b1ecbff3c34c6f0a8c7e5285e3fd02a8a73be6fe1",
    "prelie-basis-pass": "060d6fd056d99c754d9d6d372a81812a6e98e3b83aaf857585ba957ddb80f976",
    "prelie-basis-fail": "618cbba24b63382f880bd6ee37e7b015746b9ee8c36b3191edeaf85d3eccda23",
    "prelie-sampled-pass": "88cb80fdefb77e55538a1e254f1bb29d95eabafe54a049d2c4e523200b34418f",
    "prelie-sampled-fail": "d605119173eaf6b0ec79f459802f13d8dbe03327f77b9bcb568dbe479994215f",
    "leibniz-basis-fail-chunked": "3bed587ab72ee643279a52bb9edfe0d21c9a1080990916f095a8a366baafb5c3",
    "leibniz-sampled-fail-chunked": "ee8f49a78473beb46c4fbee5530dd03bf91c93dc22cde858025078620617eb9b",
    "prelie-basis-fail-chunked": "931a75a30148e08ea8aed9f4d785be01ab6cfa799e304c2084cde4f526ca0f31",
}


def _digest(rep) -> str:
    return hashlib.sha256(json.dumps(rep.to_dict(), sort_keys=True).encode()).hexdigest()


CASES = _cases()


@pytest.mark.parametrize("case, run", CASES, ids=[c for c, _ in CASES])
def test_report_digest_is_pinned(case, run) -> None:
    rep = run()
    if case.endswith("-fail") or case.endswith("-chunked"):
        assert rep.status == "fail" and rep.failure_count > 16
        assert len(rep.witnesses) == 16
    else:
        assert rep.ok()
    assert _digest(rep) == PINNED[case]


@pytest.mark.parametrize("identity", sorted(CHECKERS))
def test_basis_reports_do_not_depend_on_the_chunk_split(identity, monkeypatch) -> None:
    """A basis sweep keeps each axiom's first 16 failing triples in row order,
    so one first index a chunk gives the whole-sweep report.  At dim 12, p = 3,
    only the rows of x = e_2 and x = e_10 fail; the witness sort puts "10"
    before "2", and the old per-chunk rule showed x = e_10's triples once the
    chunks split them (259 failures either way for the Leibniz case)."""
    check, names = CHECKERS[identity]
    rng = np.random.default_rng(0)
    ops = {}
    for name in names:
        c = np.zeros((12, 12, 12), dtype=np.int64)
        for i in (2, 10):
            c[i] = rng.integers(0, 3, (12, 12))
        ops[name] = c
    alg = Algebra(3, 12, ops)
    whole = check(alg)
    monkeypatch.setattr(identities, "_CHUNK_ENTRIES", 12 ** 3)
    split = check(alg)
    assert whole.status == "fail" and whole.failure_count > 16
    assert split.to_dict() == whole.to_dict()
    if identity == "leibniz":
        assert whole.failure_count == 259
        assert all(w.inputs[0] == 2 for w in whole.witnesses)


# -- failure counts at a modulus next to the bound ----------------------------

# the largest prime p with 3 * (p - 1)**2 < 2**62, the bound that
# _check_modulus_bound puts on dim-3 algebras
BIG_P = 1239850223


def _sparse_big_structure(rng, dim):
    return [[[rng.randrange(1, BIG_P) if rng.random() < 0.3 else 0
              for _ in range(dim)] for _ in range(dim)] for _ in range(dim)]


@pytest.mark.parametrize("identity", sorted(CHECKERS))
def test_failure_counts_match_naive_loop_near_modulus_bound(identity) -> None:
    dim = 3
    check, names = CHECKERS[identity]
    rng = random.Random(f"bound-{identity}")
    ops = {n: _sparse_big_structure(rng, dim) for n in names}
    alg = Algebra(BIG_P, dim, {n: np.array(c, dtype=np.int64) for n, c in ops.items()})
    basis = [tuple(int(i == j) for j in range(dim)) for i in range(dim)]

    expect = sum(lhs != rhs
                 for x in basis for y in basis for z in basis
                 for lhs, rhs in naive_trilinear_sides(identity, ops, BIG_P, x, y, z))
    rep = check(alg)
    assert 0 < rep.failure_count == expect

    draw = random.Random(11)
    expect = 0
    for _ in range(30):
        x, y, z = (tuple(draw.randrange(BIG_P) for _ in range(dim)) for _ in range(3))
        expect += sum(lhs != rhs for lhs, rhs in naive_trilinear_sides(identity, ops, BIG_P, x, y, z))
    rep = check(alg, mode="sampled", seed=11, samples=30)
    assert 0 < rep.failure_count == expect
    for w in rep.witnesses:
        x, y, z = w.inputs[-3:]
        assert (w.lhs, w.rhs) in naive_trilinear_sides(identity, ops, BIG_P, x, y, z)
