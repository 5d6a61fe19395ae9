"""Acceptance battery: nine numbered end-to-end criteria, exact equality only.

Each criterion is one test and prints a single `CRITERION n: PASS/FAIL` line
(run with -s to see the lines for passing tests) including its runtime, and
each enforces its runtime budget.  No tolerances anywhere: every comparison
is exact arithmetic over F_p.
"""

import itertools
import json
import time
from contextlib import contextmanager

import numpy as np

from rlk.algfile import format_algebra, parse_algebra
from rlk.cli import main
from rlk.dialgebra import as_dialgebra, check_commutative_diagram, dleib, sweep_lemdias
from rlk.envelope import (
    adjoint_module,
    check_module_axioms,
    check_restricted_module,
    module_roundtrip,
    ulp_relations_check,
    ulp_truncated,
)
from rlk.free_structures import (
    check_zinbiel_factorial,
    free_dias,
    free_zinbiel,
    ud_p,
)
from rlk.identities import (
    check_leibniz,
    check_prelie,
    check_restricted_leibniz,
    jacobson_si,
    sweep_dleib_jacobson,
)
from rlk.prelie_tensor import check_corollary, check_tensor_restricted, tensor_prelie

from helpers import (
    abelian,
    all_elements,
    associative_suite,
    commutator_tensor,
    dialgebra_suite,
    diagonal_assoc,
    l2,
    l2_dialgebra,
    tensor_suite,
    truncated_poly,
)
from oracles import ideal_rank_fixed_point, naive_word_tables, word_rows


@contextmanager
def criterion(n: int, budget, desc: str):
    t0 = time.perf_counter()
    ok = False
    try:
        yield
        ok = True
    finally:
        dt = time.perf_counter() - t0
        over = budget is not None and dt >= budget
        verdict = "PASS" if ok and not over else "FAIL"
        extra = f", over the {budget:.0f}s budget" if ok and over else ""
        print(f"CRITERION {n}: {verdict} ({dt:.1f}s{extra}) {desc}")
    if budget is not None:
        assert dt < budget, f"criterion {n} took {dt:.1f}s, budget {budget}s"


# --------------------------------------------------------------- criterion 1


def test_criterion_1_derived_brackets_are_restricted_leibniz():
    with criterion(1, 30.0, "dleib output restricted Leibniz on the dialgebra suite"):
        suite = dialgebra_suite()
        assert len(suite) >= 50
        for D in suite:
            g = dleib(D)
            assert check_leibniz(g).ok()
            rep = check_restricted_leibniz(g)
            assert rep.ok()
            if D.p ** D.dim <= 2 ** 16:
                assert rep.coverage.kind == "exhaustive"
                assert rep.coverage.count == D.p ** D.dim


# --------------------------------------------------------------- criterion 2


def _free_dias_power_sweep(p: int, nmax: int) -> int:
    """x -| (y ^-| n) == x -| (y ^|- n) for every basis monomial pair of the
    degree-6 free dialgebra on two generators.  Monomial products have
    coefficient 1, so monomial-level equality extends linearly."""
    F = free_dias(2, 6, p)
    mism = 0
    for y in range(F.dim):
        al = ar = y
        for n in range(1, nmax + 1):
            if n > 1:
                tl = F.mono_product("left", al, y) if al is not None else ()
                tr = F.mono_product("right", ar, y) if ar is not None else ()
                al = tl[0][0] if tl else None
                ar = tr[0][0] if tr else None
            for x in range(F.dim):
                lhs = F.mono_product("left", x, al) if al is not None else ()
                rhs = F.mono_product("left", x, ar) if ar is not None else ()
                if lhs != rhs:
                    mism += 1
    return mism


def test_criterion_2_iterated_power_compatibility():
    with criterion(2, 10.0, "left/right powers agree inside left products"):
        for p in (2, 5):
            assert _free_dias_power_sweep(p, 5) == 0
        for D in dialgebra_suite():
            rep = sweep_lemdias(D, nmax=5)
            assert rep.ok()
            assert rep.coverage.kind == "exhaustive"
            assert rep.coverage.count == D.dim * D.dim * 5


# --------------------------------------------------------------- criterion 3


def _assoc_power(alg, x, n: int):
    v = x
    for _ in range(n - 1):
        v = alg.multiply("assoc", v, x)
    return v


def test_criterion_3_jacobson_polarization():
    with criterion(3, 60.0, "p-map additivity corrected by polarization sums"):
        for D in dialgebra_suite(primes=(2, 3)):
            rep = sweep_dleib_jacobson(D, samples=1000, seed=11)
            assert rep.ok()
            assert rep.coverage.count == 1000
        for p in (2, 3):
            for A in (truncated_poly(p, 2), diagonal_assoc(p, 2)):
                alg = A.extended(ops={"bracket": commutator_tensor(A)})
                for x in all_elements(p, 2):
                    for y in all_elements(p, 2):
                        lhs = _assoc_power(alg, alg.add(x, y), p)
                        rhs = alg.add(_assoc_power(alg, x, p),
                                      _assoc_power(alg, y, p))
                        for s in jacobson_si(alg, "bracket", x, y):
                            rhs = alg.add(rhs, s)
                        assert lhs == rhs, (alg.label, x, y)


# --------------------------------------------------------------- criterion 4


def test_criterion_4_commutative_diagram():
    with criterion(4, 10.0, "commutator+p-power equals dialgebra route"):
        count = 0
        for p in (2, 3, 5):
            for A in associative_suite(p):
                rep = check_commutative_diagram(A)
                assert rep.ok()
                assert rep.coverage.kind == "exhaustive"
                count += 1
        assert count >= 10


# --------------------------------------------------------------- criterion 5


def test_criterion_5_half_shuffle_factorial():
    with criterion(5, 10.0, "iterated half-shuffle factorial identity"):
        F = free_zinbiel(2, 7, 101)
        a, b = F.generator(0), F.generator(1)
        for n in range(1, 7):
            rep = check_zinbiel_factorial(F, a, b, n)
            assert rep.status == "pass"
        for p in (2, 3, 5):
            Fp = free_zinbiel(2, p + 1, p)
            rep = check_zinbiel_factorial(Fp, Fp.generator(0),
                                          Fp.generator(1), p)
            assert rep.status == "pass"
            # the p-fold appended power itself is the zero element
            lhs = Fp.product("zinbiel", Fp.generator(0), Fp.generator(1))
            for _ in range(p - 1):
                lhs = Fp.product("zinbiel", lhs, Fp.generator(1))
            assert lhs == {}


# --------------------------------------------------------------- criterion 6


def test_criterion_6_tensor_prelie_restricted():
    with criterion(6, 60.0, "tensor products pre-Lie with vanishing p-powers"):
        pairs = tensor_suite()
        assert len(pairs) >= 20
        for g, R in pairs:
            T = tensor_prelie(g, R)
            assert check_prelie(T.product, "prelie").ok()
            rep = check_tensor_restricted(T, seed=5, samples=1000)
            assert rep.ok()
            c = T.product.structure("prelie")
            anti = (c - c.transpose(1, 0, 2)) % T.product.p
            assert np.array_equal(T.product.structure("lie"), anti)
            assert check_corollary(T, seed=5, samples=200, cap=4096).ok()


# --------------------------------------------------------------- criterion 7


def _naive_dias_mono(op, m1, m2, cap):
    l1, c1, r1 = m1
    l2_, c2, r2 = m2
    w1 = l1 + (c1,) + r1
    w2 = l2_ + (c2,) + r2
    if len(w1) + len(w2) > cap:
        return None
    if op == "left":
        return (l1, c1, r1 + w2)
    return (w1 + l2_, c2, r2)


def _ud_abelian1_oracle(p=2, d=3):
    """Independent row-reduction model of the degree-3 envelope of the
    1-dim abelian algebra with zero p-map: naive normal-form monomials,
    dense tables, and rank closure under all basis multiplications."""
    monos = []
    for n in range(1, d + 1):
        for bar in range(n):
            monos.append(((0,) * bar, 0, (0,) * (n - 1 - bar)))
    idx = {m: i for i, m in enumerate(monos)}
    dim = len(monos)
    tabs = []
    for op in ("left", "right"):
        c = [[[0] * dim for _ in range(dim)] for _ in range(dim)]
        for i, j in itertools.product(range(dim), repeat=2):
            m = _naive_dias_mono(op, monos[i], monos[j], d)
            if m is not None:
                c[i][j][idx[m]] = 1
        tabs.append(c)
    hat = ((), 0, ())
    rows = []
    # bracket relation on the only basis pair: 0 = e -| e - e |- e
    row = [0] * dim
    row[idx[_naive_dias_mono("left", hat, hat, d)]] = (-1) % p
    row[idx[_naive_dias_mono("right", hat, hat, d)]] = 1
    rows.append(row)
    # p-power relation for the only nonzero element: 0 - e |- e
    row = [0] * dim
    power = hat
    for _ in range(p - 1):
        power = _naive_dias_mono("right", power, hat, d)
    row[idx[power]] = (-1) % p
    rows.append(row)
    return dim, monos, ideal_rank_fixed_point(tabs, rows, p)


def test_criterion_7_diassociative_envelope():
    with criterion(7, 30.0, "truncated diassociative envelope dimensions"):
        g = abelian(2, 1, with_pmap=True)
        pres = ud_p(g, pmap="zero", d=3)
        assert pres.dimension == 1
        assert pres.normal_basis == (((), 0, ()),)
        dim, monos, oracle_rank = _ud_abelian1_oracle()
        assert pres.ambient.dim == dim
        assert set(monos) == set(pres.ambient.index)
        assert pres.ideal_rank == oracle_rank
        assert dim - oracle_rank == 1


# --------------------------------------------------------------- criterion 8


def _restricted_fixtures():
    out = [
        (l2(2), "frobenius"),
        (l2(3), "frobenius"),
        (l2(5), "frobenius"),
        (abelian(2, 1, with_pmap=True), "zero"),
        (abelian(2, 2, with_pmap=True), "zero"),
        (abelian(3, 2, with_pmap=True), "zero"),
        (dleib(l2_dialgebra(2)), "frobenius"),
        (dleib(l2_dialgebra(3)), "frobenius"),
        (dleib(as_dialgebra(truncated_poly(2, 3))), "frobenius"),
        (dleib(as_dialgebra(diagonal_assoc(3, 2))), "frobenius"),
    ]
    return out


def test_criterion_8_associative_envelope_and_modules():
    with criterion(8, 30.0, "letter-relation modules and truncated envelope"):
        for g, pm in _restricted_fixtures():
            M = adjoint_module(g)
            assert check_module_axioms(g, M).ok()
            assert check_restricted_module(g, M, pmap=pm).ok()
            assert ulp_relations_check(g, M, pmap=pm).ok()  # derived signs
            assert module_roundtrip(g, M, pmap=pm).ok()
            for i in range(g.dim):
                ei = g.basis(i)
                assert np.array_equal(M.left_action[i],
                                      g.left_mult_matrix("bracket", ei))
                assert np.array_equal(M.right_action[i],
                                      g.right_mult_matrix("bracket", ei))
        # Letter 0 is l = l_e, letter 1 is r = r_e.  Over F_2 the relations
        # are lr+rl, l^2+rl and r^2 (zero p-map), all homogeneous, so the
        # degree-3 truncation is faithful and l^3 = l.rl = rl.l = r.rl = 0.
        pres = ulp_truncated(abelian(2, 1, with_pmap=True), pmap="zero", d=3)
        words, idx, tabs = naive_word_tables(2, 3)
        rows = word_rows(idx, [
            {(0, 1): 1, (1, 0): 1},
            {(0, 0): 1, (1, 0): 1},
            {(1, 1): 1},
        ], 2)
        oracle_rank = ideal_rank_fixed_point(tabs, rows, 2)
        assert pres.ambient.dim == len(words) == 15
        assert pres.dimension == len(words) - oracle_rank == 4, (
            f"engine quotient dimension is {pres.dimension} with normal "
            f"basis {pres.normal_basis}; the rank-closure oracle gives ideal "
            f"rank {oracle_rank} of {len(words)}"
        )
        assert pres.ideal_rank == oracle_rank
        assert set(pres.normal_basis) == {(), (0,), (1,), (1, 0)}
        assert not pres.project({pres.ambient.index[(0, 0, 0)]: 1}).any()


# --------------------------------------------------------------- criterion 9


def test_criterion_9_byte_deterministic_reports(tmp_path, capsys):
    with criterion(9, None, "reports byte-identical across reruns"):
        paths = {}
        paths["l2"] = tmp_path / "l2.alg"
        paths["l2"].write_text(format_algebra(l2(3)), encoding="utf-8")
        paths["ab"] = tmp_path / "ab.alg"
        paths["ab"].write_text(format_algebra(abelian(3, 2, with_pmap=True)),
                               encoding="utf-8")
        paths["poly"] = tmp_path / "poly.alg"
        paths["poly"].write_text(format_algebra(truncated_poly(2, 3)),
                                 encoding="utf-8")
        paths["zin"] = tmp_path / "zin.alg"
        paths["zin"].write_text(
            format_algebra(free_zinbiel(1, 3, 3).to_algebra()),
            encoding="utf-8")
        invocations = [
            ["check", str(paths["l2"]), "leibniz", "restricted-leibniz",
             "--seed", "7", "--format", "json"],
            ["check", str(paths["l2"]), "leibniz", "--mode", "sample",
             "--seed", "9"],
            ["check", str(paths["ab"]), "restricted-lie", "--format", "json"],
            ["envelope", str(paths["l2"]), "ul", "--degree", "3",
             "--format", "json"],
            ["envelope", str(paths["ab"]), "ud", "--degree", "3"],
            ["derive", "dleib", str(paths["poly"]), "--out",
             str(tmp_path / "d1.alg"), "--format", "json"],
            ["derive", "tensor-prelie", str(paths["l2"]), str(paths["zin"]),
             "--out", str(tmp_path / "t1.alg"), "--samples", "50"],
        ]
        for argv in invocations:
            first_code = main(argv)
            first = capsys.readouterr()
            second_code = main(argv)
            second = capsys.readouterr()
            assert first_code == second_code == 0
            assert first.out == second.out
            assert first.err == second.err
        # derived artifacts are bytewise stable too
        main(["derive", "dleib", str(paths["poly"]), "--out",
              str(tmp_path / "d2.alg")])
        capsys.readouterr()
        assert (tmp_path / "d1.alg").read_bytes() == \
            (tmp_path / "d2.alg").read_bytes()
        # library-level reports serialize identically under a fixed seed
        r1 = check_restricted_leibniz(l2(2), seed=3, cap=1, samples=40)
        r2 = check_restricted_leibniz(l2(2), seed=3, cap=1, samples=40)
        assert json.dumps(r1.to_dict(), sort_keys=True) == \
            json.dumps(r2.to_dict(), sort_keys=True)
