"""End-to-end command-line tests: exit codes, report content, determinism."""

import ast
import builtins
import hashlib
import json
import os
import resource
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import rlk.cli
from rlk.algebra_core import Algebra, BasisJacobsonPMap, RightPowerPMap, ZeroPMap
from rlk.algfile import format_algebra, parse_algebra
from rlk.cli import main
from rlk.dialgebra import dialgebra_from_operator, dleib as dleib_build
from rlk.errors import DomainError
from rlk.free_structures import check_zinbiel_factorial, free_zinbiel, ud_p
from rlk.identities import check_leibniz

from helpers import (abelian, counting, diagonal_assoc, l2, l2_dialgebra,
                     truncated_poly, upper_triangular2)


def write(tmp_path, name, alg) -> str:
    path = tmp_path / name
    path.write_text(format_algebra(alg), encoding="utf-8")
    return str(path)


def broken_bracket(p=2):
    c = np.zeros((1, 1, 1), dtype=np.int64)
    c[0, 0, 0] = 1
    return Algebra(p, 1, {"bracket": c}, label="broken")


def endo_file(tmp_path, base, image_rows, name) -> str:
    endo = np.zeros((base.dim, base.dim, base.dim), dtype=np.int64)
    for i, row in enumerate(image_rows):
        for k, v in enumerate(row):
            endo[i, 0, k] = v
    alg = Algebra(base.p, base.dim,
                  {"assoc": base.structure("assoc"), "endo": endo},
                  label=base.label + "+endo")
    return write(tmp_path, name, alg)


# ---------------------------------------------------------------- check


def test_check_pass_exit0(tmp_path, capsys):
    path = write(tmp_path, "l2.alg", l2(2))
    assert main(["check", path, "leibniz", "restricted-leibniz"]) == 0
    out = capsys.readouterr().out
    assert "leibniz: pass" in out
    assert "restricted_leibniz: pass" in out
    assert out.rstrip().endswith("result: pass")


def test_check_fail_exit1_with_witness(tmp_path, capsys):
    path = write(tmp_path, "broken.alg", broken_bracket())
    assert main(["check", path, "leibniz"]) == 1
    out = capsys.readouterr().out
    assert "leibniz: fail" in out
    assert "witness inputs=[0, 0, 0]" in out
    assert "result: fail" in out


@pytest.mark.parametrize("samples", ["0", "-5"])
def test_samples_below_one_exit2(tmp_path, capsys, samples):
    """--samples below 1 would sample nothing and pass; it is refused in every
    mode, also where the sweeps are exhaustive and ignore it."""
    path = write(tmp_path, "l2.alg", l2(2))
    for argv in (["check", path, "leibniz", "restricted-leibniz", "--mode", "sample"],
                 ["check", path, "leibniz", "restricted-leibniz"],
                 ["envelope", path, "ul"]):
        assert main(argv + ["--samples", samples]) == 2
        assert capsys.readouterr() == ("", f"error: --samples must be positive, got {samples}\n")


def test_unknown_identity_exit2(tmp_path, capsys):
    path = write(tmp_path, "l2.alg", l2(2))
    assert main(["check", path, "nosuch"]) == 2
    err = capsys.readouterr().err
    assert "unknown identities: nosuch" in err
    assert "available:" in err


def test_malformed_file_exit2(tmp_path, capsys):
    path = tmp_path / "bad.alg"
    path.write_text("p=2 dim=1\nop :\n", encoding="utf-8")
    assert main(["check", str(path), "leibniz"]) == 2
    assert "empty op name" in capsys.readouterr().err


def test_missing_file_exit2(tmp_path, capsys):
    assert main(["check", str(tmp_path / "none.alg"), "leibniz"]) == 2
    assert "cannot read" in capsys.readouterr().err


HUGE_PRIME = (1 << 61) - 1
HOSTILE_FILES = [
    # bytes that are not UTF-8
    (b"p=2 dim=1\n\xff\n", "error: cannot read {path}: 'utf-8' codec can't decode"),
    # more digits than int() reads, and a modulus past 2**64
    (b"p=" + b"7" * 5000 + b" dim=1\n", "error: line 1: "),
    (b"# p = 2**65 - 1\np=36893488147419103231 dim=1\n",
     "error: line 2: modulus must be below 2**64"),
    # a prime too large for the int64 kernels, refused once it is known prime
    (b"p=%d dim=1\n" % HUGE_PRIME,
     f"error: file is not a valid algebra: modulus {HUGE_PRIME} too large"),
    # 12 empty op blocks of dim 160 would take 393 MB of structure constants
    (b"p=2 dim=160\n" + b"".join(b"op a%d:\n" % i for i in range(12)),
     "error: line 1: op blocks of dim 160 exceed the bound of 16384000 entries"),
]


@pytest.mark.parametrize("data,start", HOSTILE_FILES,
                         ids=["undecodable", "long-modulus", "modulus-past-2**64", "prime-2**61",
                              "op-blocks"])
def test_hostile_files_exit2_fast_with_one_line(tmp_path, capsys, data, start):
    """Each file is a few bytes to a few KB; each ends within a second, with
    exit 2 and one error line, before any structure tensor is allocated."""
    path = tmp_path / "hostile.alg"
    path.write_bytes(data)
    tracemalloc.start()
    try:
        t0 = time.perf_counter()
        assert main(["check", str(path), "leibniz"]) == 2
        elapsed = time.perf_counter() - t0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(start.format(path=path))
    assert captured.err.count("\n") == 1 and "Traceback" not in captured.err
    assert elapsed < 1.0 and peak < 2 << 20


def test_a_huge_prime_at_dim0_no_longer_hangs(tmp_path, capsys):
    path = tmp_path / "dim0.alg"
    path.write_text(f"p={HUGE_PRIME} dim=0\nop bracket:\n", encoding="utf-8")
    t0 = time.perf_counter()
    assert main(["check", str(path), "leibniz"]) == 0
    assert time.perf_counter() - t0 < 1.0
    assert capsys.readouterr().err == ""


def test_check_dialgebra_identities(tmp_path, capsys):
    path = write(tmp_path, "dias.alg", l2_dialgebra(2))
    assert main(["check", path, "dias", "lemdias"]) == 0
    out = capsys.readouterr().out
    assert "dias: pass" in out and "lemdias: pass" in out


def test_check_assoc_commutative_diagram(tmp_path):
    path = write(tmp_path, "poly.alg", truncated_poly(2, 3))
    assert main(["check", path, "commutative-diagram"]) == 0


def test_check_zinbiel_and_prelie(tmp_path):
    zin = write(tmp_path, "zin.alg", free_zinbiel(2, 2, 3).to_algebra())
    assert main(["check", zin, "zinbiel"]) == 0
    prod = write(tmp_path, "tp.alg", _tensor_product_algebra(2))
    assert main(["check", prod, "prelie", "restricted-prelie",
                 "--pmap", "zero"]) == 0


def _tensor_product_algebra(p):
    from rlk.prelie_tensor import tensor_prelie

    T = tensor_prelie(l2(p), free_zinbiel(1, 2, p).to_algebra())
    return Algebra(p, T.product.dim,
                   {"prelie": T.product.structure("prelie"),
                    "lie": T.product.structure("lie")},
                   {"zero": ZeroPMap()}, label=T.product.label)


def test_check_restricted_lie_zero_pmap(tmp_path):
    # abelian bracket: the literal zero map is restricted -> pass
    ab = write(tmp_path, "ab.alg", abelian(2, 2, with_pmap=True))
    assert main(["check", ab, "restricted-lie"]) == 0
    # non-abelian bracket in char 2: literal zero breaks Jacobson
    # additivity -> honest fail
    prod = write(tmp_path, "tp.alg", _tensor_product_algebra(2))
    assert main(["check", prod, "restricted-lie", "--samples", "20"]) == 1


def test_check_mode_flag_controls_coverage(tmp_path, capsys):
    path = write(tmp_path, "l2.alg", l2(2))
    main(["check", path, "restricted-leibniz", "--format", "json",
          "--mode", "exhaustive"])
    doc = json.loads(capsys.readouterr().out)
    assert doc["checks"][0]["coverage"] == {"kind": "exhaustive", "count": 4}
    main(["check", path, "restricted-leibniz", "--format", "json",
          "--mode", "sample", "--samples", "17", "--seed", "5"])
    doc = json.loads(capsys.readouterr().out)
    cov = doc["checks"][0]["coverage"]
    assert cov["kind"] == "sampled" and cov["count"] == 17 and cov["seed"] == 5


def test_rlk_cap_env_and_cap_flag(tmp_path, capsys, monkeypatch):
    # rightpower pmap: the file parses under any cap (a table pmap would
    # itself need the enumeration budget)
    path = write(tmp_path, "d.alg", dleib_build(l2_dialgebra(2)))
    monkeypatch.setenv("RLK_CAP", "1")
    main(["check", path, "restricted-leibniz", "--format", "json"])
    doc = json.loads(capsys.readouterr().out)
    assert doc["checks"][0]["coverage"]["kind"] == "sampled"
    main(["check", path, "restricted-leibniz", "--format", "json",
          "--cap", "100"])
    doc = json.loads(capsys.readouterr().out)
    assert doc["checks"][0]["coverage"]["kind"] == "exhaustive"


def test_pmap_resolution(tmp_path, capsys):
    amb = l2(2).extended(pmaps={"alt": ZeroPMap()})  # frobenius + alt
    path = write(tmp_path, "amb.alg", amb)
    assert main(["check", path, "restricted-leibniz"]) == 0  # prefers frobenius
    two = Algebra(2, 1, {"bracket": np.zeros((1, 1, 1), dtype=np.int64)},
                  {"a": ZeroPMap(), "b": ZeroPMap()})
    path2 = write(tmp_path, "two.alg", two)
    assert main(["check", path2, "restricted-leibniz"]) == 2
    assert "cannot pick a p-map" in capsys.readouterr().err
    assert main(["check", path2, "restricted-leibniz", "--pmap", "b"]) == 0
    assert main(["check", path2, "restricted-leibniz", "--pmap", "zzz"]) == 2
    assert "not declared" in capsys.readouterr().err


# ---------------------------------------------------------------- derive


def test_derive_dleib_from_assoc(tmp_path, capsys):
    src = write(tmp_path, "poly.alg", truncated_poly(2, 3))
    out = tmp_path / "derived.alg"
    assert main(["derive", "dleib", src, "--out", str(out)]) == 0
    report = capsys.readouterr().out
    assert "leibniz: pass" in report and "restricted_leibniz: pass" in report
    derived = parse_algebra(out.read_text(encoding="utf-8"))
    assert derived.op_names == ("bracket", "left", "right")
    assert not derived.structure("bracket").any()  # commutative -> abelian
    assert derived.pmaps["frobenius"] == RightPowerPMap("right", None)


def test_derive_dleib_from_left_right(tmp_path):
    D = l2_dialgebra(3)
    src = write(tmp_path, "d.alg", D)
    out = tmp_path / "derived.alg"
    assert main(["derive", "dleib", src, "--out", str(out)]) == 0
    derived = parse_algebra(out.read_text(encoding="utf-8"))
    expect = dleib_build(D)
    assert np.array_equal(derived.structure("bracket"),
                          expect.structure("bracket"))


def test_derive_dleib_from_operator_file(tmp_path):
    # file with assoc + endo: dleib routes through a -| b = a(Db), |- = (Da)b
    base = upper_triangular2(3)
    endo = np.diag([1, 0, 1]).astype(np.int64)
    src = endo_file(tmp_path, base, endo.T, "endo.alg")
    out = tmp_path / "derived.alg"
    assert main(["derive", "dleib", src, "--out", str(out)]) == 0
    derived = parse_algebra(out.read_text(encoding="utf-8"))
    expect = dleib_build(dialgebra_from_operator(base, endo))
    assert np.array_equal(derived.structure("bracket"),
                          expect.structure("bracket"))
    assert derived.structure("bracket").any()  # genuinely non-abelian


def test_derive_dleib_rejects_non_dialgebra(tmp_path, capsys):
    bad = Algebra(2, 1, {"left": np.zeros((1, 1, 1), dtype=np.int64)})
    path = write(tmp_path, "bad.alg", bad)
    assert main(["derive", "dleib", path]) == 2
    assert "'left' and 'right'" in capsys.readouterr().err


def test_derive_gln(tmp_path, capsys):
    src = write(tmp_path, "poly.alg", truncated_poly(2, 2))
    out = tmp_path / "gl.alg"
    assert main(["derive", "gln", src, "--n", "2", "--out", str(out)]) == 0
    assert "dias: pass" in capsys.readouterr().out
    derived = parse_algebra(out.read_text(encoding="utf-8"))
    assert derived.dim == 2 * 2 * 2  # n^2 * dim


def test_derive_operator_dialgebra(tmp_path, capsys):
    base = diagonal_assoc(2, 2)
    src = endo_file(tmp_path, base, [(1, 0), (0, 0)], "proj.alg")
    out = tmp_path / "opd.alg"
    assert main(["derive", "operator-dialgebra", src, "--out", str(out)]) == 0
    derived = parse_algebra(out.read_text(encoding="utf-8"))
    # a -| b = a (Db): e0 -| e0 = e0, anything with e1 on the D side dies
    c = derived.structure("left")
    assert c[0, 0, 0] == 1 and c.sum() == 1


def test_derive_operator_precondition_exit2(tmp_path, capsys):
    base = truncated_poly(2, 2)
    src = endo_file(tmp_path, base, [(0, 0), (0, 1)], "deriv.alg")  # t d/dt
    assert main(["derive", "operator-dialgebra", src]) == 2
    assert "operator condition" in capsys.readouterr().err


def test_derive_operator_requires_endo_block(tmp_path, capsys):
    src = write(tmp_path, "poly.alg", truncated_poly(2, 2))
    assert main(["derive", "operator-dialgebra", src]) == 2
    assert "'assoc' and 'endo'" in capsys.readouterr().err


def test_derive_tensor_prelie(tmp_path, capsys):
    g = write(tmp_path, "g.alg", l2(2))
    zin = write(tmp_path, "z.alg", free_zinbiel(1, 3, 2).to_algebra())
    out = tmp_path / "tp.alg"
    assert main(["derive", "tensor-prelie", g, zin, "--out", str(out),
                 "--samples", "40"]) == 0
    report = capsys.readouterr().out
    for name in ("prelie: pass", "tensor_restricted: pass", "corollary: pass"):
        assert name in report
    derived = parse_algebra(out.read_text(encoding="utf-8"))
    assert derived.dim == 6
    assert derived.op_names == ("lie", "prelie")
    assert list(derived.pmaps) == ["lie_p"]
    pm = derived.pmaps["lie_p"]
    assert pm.variant == "basisjacobson"
    assert all(not any(row) for row in pm.values)
    # the emitted file is self-contained: its unique p-map is the Jacobson
    # extension of the zero basis values, so the derived bracket re-checks
    # as restricted Lie with no extra flags
    assert main(["check", str(out), "restricted-lie"]) == 0
    capsys.readouterr()


def test_derive_tensor_prelie_arity_checks(tmp_path, capsys):
    g = write(tmp_path, "g.alg", l2(2))
    assert main(["derive", "tensor-prelie", g]) == 2
    assert "needs two files" in capsys.readouterr().err
    assert main(["derive", "dleib", g, g]) == 2
    assert "exactly one file" in capsys.readouterr().err


def test_derive_antisymmetrize(tmp_path, capsys):
    prod = write(tmp_path, "tp.alg", _tensor_product_algebra(3))
    out = tmp_path / "lie.alg"
    assert main(["derive", "antisymmetrize", prod, "--out", str(out)]) == 0
    assert "lie_axioms: pass" in capsys.readouterr().out
    derived = parse_algebra(out.read_text(encoding="utf-8"))
    c = derived.structure("prelie")
    expect = (c - c.transpose(1, 0, 2)) % 3
    assert np.array_equal(derived.structure("lie"), expect)


def test_derive_antisymmetrize_rejects_non_prelie(tmp_path, capsys):
    zin = free_zinbiel(2, 3, 3).to_algebra()
    renamed = Algebra(zin.p, zin.dim, {"prelie": zin.structure("zinbiel")})
    path = write(tmp_path, "z.alg", renamed)
    assert main(["derive", "antisymmetrize", path]) == 2
    assert "not pre-Lie" in capsys.readouterr().err


def test_derive_stdout_algebra_report_on_stderr(tmp_path, capsys):
    src = write(tmp_path, "poly.alg", truncated_poly(2, 2))
    assert main(["derive", "dleib", src]) == 0
    captured = capsys.readouterr()
    derived = parse_algebra(captured.out)  # stdout is exactly the file
    assert derived.op_names == ("bracket", "left", "right")
    assert "result: pass" in captured.err


# ---------------------------------------------------------------- envelope


def test_envelope_requires_degree_at_least_p(tmp_path, capsys):
    path = write(tmp_path, "l2.alg", l2(3))
    assert main(["envelope", path, "ud", "--degree", "2"]) == 2
    assert "below the characteristic" in capsys.readouterr().err
    assert main(["envelope", path, "ul", "--degree", "1"]) == 2


def test_envelope_ud_matches_library(tmp_path, capsys):
    path = write(tmp_path, "l2.alg", l2(2))
    assert main(["envelope", path, "ud", "--degree", "2",
                 "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    table = doc["tables"]["envelope"]
    pres = ud_p(l2(2), d=2)
    assert table["dimension"] == pres.dimension
    assert table["ambient_dim"] == pres.ambient.dim
    assert table["ideal_rank"] == pres.ideal_rank


def test_envelope_ul_abelian_engine_dimension(tmp_path, capsys):
    path = write(tmp_path, "ab.alg", abelian(2, 1, with_pmap=True))
    assert main(["envelope", path, "ul", "--degree", "3",
                 "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    table = doc["tables"]["envelope"]
    assert table["ambient_dim"] == 15
    assert table["ideal_rank"] == 11
    assert table["dimension"] == 4
    assert table["normal_basis"] == ["()", "(0,)", "(1,)", "(1, 0)"]
    assert table["degree_table"] == {"0": 1, "1": 2, "2": 1}


def test_envelope_default_degree_is_p(tmp_path, capsys):
    path = write(tmp_path, "l2.alg", l2(2))
    assert main(["envelope", path, "ul"]) == 0
    assert "envelope ul d=2" in capsys.readouterr().out


def test_envelope_honours_mode(tmp_path, capsys, monkeypatch):
    path = write(tmp_path, "l2.alg", l2(3))
    argv = ["envelope", path, "ul", "--degree", "3"]
    assert main(argv) == 0
    # the bytes printed when --mode did not reach the envelope
    out = capsys.readouterr().out.replace(path, "FILE")
    assert hashlib.sha256(out.encode()).hexdigest() == \
        "46f7965927c50248b748e509b77e588e7c504a9f85cbf6609425bb664363c9e1"
    assert main(argv + ["--mode", "sample"]) == 0
    assert "p-relations sampled on 9 elements (seed 0)" in capsys.readouterr().out
    built = {"ulp_truncated": 0}
    monkeypatch.setattr(rlk.cli, "ulp_truncated",
                        counting(built, "ulp_truncated", rlk.cli.ulp_truncated))
    assert main(argv + ["--mode", "exhaustive", "--cap", "2"]) == 2
    assert "past the enumeration cap 2" in capsys.readouterr().err
    assert built["ulp_truncated"] == 0


def test_envelope_size_bound_exit2(tmp_path, capsys):
    path = write(tmp_path, "l2.alg", l2(2))
    assert main(["envelope", path, "ul", "--degree", "12"]) == 2
    assert "exceed" in capsys.readouterr().err


def test_envelope_huge_degree_refused_at_once(tmp_path, capsys):
    # 4**100000 words would not even fit in a printable integer
    path = write(tmp_path, "l2.alg", l2(2))
    for which in ("ul", "ud"):
        t0 = time.perf_counter()
        code = main(["envelope", path, which, "--degree", "100000"])
        assert time.perf_counter() - t0 < 5.0
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "exceed" in err and "20000" in err


def test_domain_error_exits_3_not_as_a_usage_error(tmp_path, capsys, monkeypatch):
    def broken(args):
        raise DomainError("assembled product is not pre-Lie")

    monkeypatch.setattr(rlk.cli, "cmd_envelope", broken)
    path = write(tmp_path, "l2.alg", l2(2))
    assert main(["envelope", path, "ul"]) == 3
    err = capsys.readouterr().err
    assert err == "internal invariant violated: assembled product is not pre-Lie\n"


def test_main_builds_its_parser_at_most_once(tmp_path, capsys, monkeypatch):
    built = {"parser": 0}
    monkeypatch.setattr(rlk.cli, "build_parser",
                        counting(built, "parser", rlk.cli.build_parser))
    rlk.cli._parser.cache_clear()
    path = write(tmp_path, "l2.alg", l2(2))
    for argv in (["check", path, "leibniz"], ["check", path, "no-such-identity"],
                 ["envelope", path, "ul"], ["check", path, "leibniz"]):
        assert main(argv) in (0, 2)
    capsys.readouterr()
    assert built["parser"] == 1


# ---------------------------------------------------------- verify once

_COUNTED = ("check_leibniz", "check_dias", "check_prelie", "_operator_failures",
            "lie_basis_violation")


@pytest.fixture
def calls(monkeypatch):
    """Calls of each verification kernel, wrapped in every rlk module that
    binds it."""
    counts = dict.fromkeys(_COUNTED, 0)

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    originals = {name: getattr(rlk.identities, name) for name in _COUNTED}
    for modname, mod in list(sys.modules.items()):
        if modname == "rlk" or modname.startswith("rlk."):
            for attr, value in list(vars(mod).items()):
                for name, fn in originals.items():
                    if value is fn:
                        monkeypatch.setattr(mod, attr, counting(name, fn))
    return counts


def test_derive_verifies_each_construction_once(tmp_path, capsys, calls):
    ut2 = write(tmp_path, "ut2.alg", upper_triangular2(3))
    g = write(tmp_path, "g.alg", l2(2))
    zin = write(tmp_path, "z.alg", free_zinbiel(1, 3, 2).to_algebra())
    prod = write(tmp_path, "tp.alg", _tensor_product_algebra(3))

    def counted(*argv):
        calls.update(dict.fromkeys(calls, 0))
        assert main([*argv, "--out", str(tmp_path / "out.alg")]) == 0
        capsys.readouterr()
        return dict(calls)

    got = counted("derive", "dleib", ut2)
    assert (got["check_leibniz"], got["check_dias"], got["_operator_failures"]) == (1, 1, 1)
    assert counted("derive", "gln", ut2, "--n", "2")["check_dias"] == 2
    assert counted("derive", "tensor-prelie", g, zin, "--samples", "40")["check_prelie"] == 1
    got = counted("derive", "antisymmetrize", prod)
    assert (got["check_prelie"], got["lie_basis_violation"]) == (1, 1)


def test_derive_under_mode_sample_runs_no_second_sweep(tmp_path, capsys, calls):
    """Under --mode sample gln prints the basis sweep of check_dias that gl_n ran when
    it was built, as under the default mode, so it calls check_dias twice (the input,
    then gl_n); dleib calls check_leibniz once and sweeps its p-map once, its gate
    reading the leibniz report it just made."""
    poly = write(tmp_path, "poly.alg", truncated_poly(3, 2))

    def counted(*argv):
        calls.update(dict.fromkeys(calls, 0))
        assert main([*argv, "--format", "json", "--out", str(tmp_path / "out.alg")]) == 0
        return json.loads(capsys.readouterr().out)["checks"], dict(calls)

    basis, got = counted("derive", "gln", poly)
    assert got["check_dias"] == 2
    sampled, got = counted("derive", "gln", poly, "--mode", "sample")
    assert got["check_dias"] == 2
    assert sampled == basis and basis[0]["coverage"] == {"kind": "exhaustive", "count": 2560}
    _, got = counted("derive", "dleib", poly, "--mode", "sample", "--samples", "30")
    assert (got["check_leibniz"], got["_operator_failures"]) == (1, 1)


def test_derive_tensor_prelie_checks_the_lie_bracket_once(tmp_path, capsys, calls):
    """tensor_prelie's pre-Lie check already makes "lie" a Lie bracket, so
    the one Lie check is check_corollary's: attaching lie_p and dropping the
    p-maps without a file form re-check nothing."""
    g = write(tmp_path, "g.alg", l2(2))
    zin = write(tmp_path, "z.alg", free_zinbiel(1, 3, 2).to_algebra())
    assert main(["derive", "tensor-prelie", g, zin, "--out", str(tmp_path / "out.alg")]) == 0
    capsys.readouterr()
    assert calls["lie_basis_violation"] == 1


def test_derive_dleib_exhaustive_past_the_cap_sweeps_nothing(tmp_path, capsys, calls):
    ut2 = write(tmp_path, "ut2.alg", upper_triangular2(3))  # 27 elements
    assert main(["derive", "dleib", ut2, "--mode", "exhaustive", "--cap", "5"]) == 2
    assert "enumeration cap 5" in capsys.readouterr().err
    assert calls["_operator_failures"] == 0



@pytest.mark.parametrize("mode, sweeps", [(None, 1), ("sample", 2)])
def test_check_leibniz_then_restricted_sweeps_leibniz_once(tmp_path, capsys, monkeypatch,
                                                           mode, sweeps):
    """A passing basis sweep of `leibniz` is the gate of a later
    `restricted-leibniz` in the same call; a sampled one is not, so the gate
    runs its own basis sweep.  The reports are those of separate checks."""
    path = write(tmp_path, "l2.alg", l2(3))
    flags = ["--format", "json", "--samples", "30"] + (["--mode", mode] if mode else [])
    want = []
    for name in ("leibniz", "restricted-leibniz"):
        assert main(["check", path, name, *flags]) == 0
        want += json.loads(capsys.readouterr().out)["checks"]
    calls = {"sweep": 0}
    monkeypatch.setattr(rlk.identities, "_trilinear_sweep",
                        counting(calls, "sweep", rlk.identities._trilinear_sweep))
    assert main(["check", path, "leibniz", "restricted-leibniz", *flags]) == 0
    assert json.loads(capsys.readouterr().out)["checks"] == want
    assert calls["sweep"] == sweeps


# ---------------------------------------------------------- determinism


def _json_bytes(argv, capsys) -> str:
    code = main(argv)
    assert code == 0
    return capsys.readouterr().out


def test_reports_are_byte_deterministic(tmp_path, capsys):
    l2p = write(tmp_path, "l2.alg", l2(3))
    abp = write(tmp_path, "ab.alg", abelian(3, 2, with_pmap=True))
    argvs = [
        ["check", l2p, "leibniz", "restricted-leibniz",
         "--format", "json", "--seed", "7"],
        ["check", abp, "restricted-lie", "--format", "json", "--seed", "3"],
        ["envelope", l2p, "ul", "--degree", "3", "--format", "json"],
        ["envelope", l2p, "ud", "--degree", "3", "--format", "json"],
    ]
    for argv in argvs:
        assert _json_bytes(argv, capsys) == _json_bytes(argv, capsys)


def test_derived_files_are_byte_deterministic(tmp_path, capsys):
    src = write(tmp_path, "poly.alg", truncated_poly(3, 2))
    out1, out2 = tmp_path / "a.alg", tmp_path / "b.alg"
    assert main(["derive", "dleib", src, "--out", str(out1)]) == 0
    assert main(["derive", "dleib", src, "--out", str(out2)]) == 0
    capsys.readouterr()
    assert out1.read_bytes() == out2.read_bytes()


def test_timing_flag_adds_wall_ms_only_when_asked(tmp_path, capsys):
    path = write(tmp_path, "l2.alg", l2(2))
    poly = write(tmp_path, "poly.alg", truncated_poly(3, 2))
    out = str(tmp_path / "out.alg")
    for argv in (["check", path, "leibniz"], ["derive", "dleib", poly, "--out", out],
                 ["envelope", path, "ul"]):
        main([*argv, "--format", "json"])
        doc = json.loads(capsys.readouterr().out)
        assert "wall_ms" not in doc
        main([*argv, "--format", "json", "--timing"])
        doc = json.loads(capsys.readouterr().out)
        assert isinstance(doc["wall_ms"], float)
        main([*argv, "--timing"])
        assert "wall_ms" in capsys.readouterr().out


def test_each_input_file_is_opened_once(tmp_path, capsys, monkeypatch):
    """The sha256 a report gives is of the bytes that were parsed, so each
    input is opened once, not once to parse and once to hash."""
    g = write(tmp_path, "g.alg", l2(2))
    zin = write(tmp_path, "z.alg", free_zinbiel(1, 3, 2).to_algebra())
    opened, real_open = [], builtins.open

    def spy(file, *args, **kwargs):
        opened.append(str(file))
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr(builtins, "open", spy)
    for argv, inputs in ((["check", g, "leibniz"], [g]), (["envelope", g, "ul"], [g]),
                         (["derive", "tensor-prelie", g, zin, "--samples", "20"], [g, zin])):
        opened.clear()
        assert main(argv) == 0
        assert [f for f in opened if f.startswith(str(tmp_path))] == inputs, argv
    capsys.readouterr()


def test_json_report_shape(tmp_path, capsys):
    path = write(tmp_path, "l2.alg", l2(2))
    main(["check", path, "leibniz", "--format", "json"])
    doc = json.loads(capsys.readouterr().out)
    assert doc["tool"] == "rlk"
    assert doc["command"] == "check leibniz"
    assert doc["status"] == "pass"
    assert doc["inputs"][0]["path"] == path
    assert len(doc["inputs"][0]["sha256"]) == 64
    assert doc["checks"][0]["identity"] == "leibniz"


# ------------------------------------------------------------- process


def test_module_entry_point(tmp_path):
    path = write(tmp_path, "l2.alg", l2(2))
    run = subprocess.run(
        [sys.executable, "-m", "rlk", "check", path, "leibniz"],
        capture_output=True, text=True,
    )
    assert run.returncode == 0
    assert "result: pass" in run.stdout
    run = subprocess.run([sys.executable, "-m", "rlk", "--version"],
                         capture_output=True, text=True)
    assert run.returncode == 0
    assert run.stdout.strip() == "rlk 0.1.0"


def test_oversized_file_header_exit2_under_a_memory_limit(tmp_path):
    # a dense 3000**3 tensor is 201 GiB: refused at the header, not allocated
    path = tmp_path / "huge.alg"
    path.write_text("p=2 dim=3000\nop bracket:\n0 0 0 1\n", encoding="utf-8")

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    run = subprocess.run(
        [sys.executable, "-m", "rlk", "check", str(path), "leibniz"],
        capture_output=True, text=True, preexec_fn=limit,
        env={**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"},
    )
    assert run.returncode == 2, run.stderr
    assert run.stderr == "error: line 1: dim 3000 exceeds the dense bound 160\n"


def test_a_16383_word_envelope_runs_under_a_memory_limit(tmp_path):
    # ul on abelian1/F2 at degree 13: an int64 projection would be 2 GiB, the
    # uint8 one is 268 MB of address space, mostly never touched
    path = write(tmp_path, "ab1.alg", abelian(2, 1, with_pmap=True))

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    run = subprocess.run(
        [sys.executable, "-m", "rlk", "envelope", path, "ul", "--degree", "13"],
        capture_output=True, text=True, preexec_fn=limit, timeout=120,
        env={**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"},
    )
    assert run.returncode == 0, run.stderr
    assert "  ambient_dim: 16383\n" in run.stdout and "  dimension: 4\n" in run.stdout


def test_jacobson_rows_at_a_huge_prime_exit2_under_a_memory_limit(tmp_path):
    # a basisjacobson p-map at p = 1,000,000,007 needs p - 1 rounds and about
    # 16·10**9 stack entries a row: refused, not a numpy allocation error
    p = 1_000_000_007
    c = np.zeros((2, 2, 2), dtype=np.int64)
    c[0, 1, 0], c[1, 0, 0] = 1, p - 1
    alg = Algebra(p, 2, {"bracket": c}, {"f": BasisJacobsonPMap("bracket", [(0, 0), (0, 1)])})
    path = write(tmp_path, "bigp.alg", alg)

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    for identity in ("restricted-leibniz", "restricted-lie"):
        run = subprocess.run(
            [sys.executable, "-m", "rlk", "check", path, identity, "--pmap", "f"],
            capture_output=True, text=True, preexec_fn=limit, timeout=120,
            env={**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"},
        )
        assert run.returncode == 2, run.stderr
        assert run.stderr == (f"error: Jacobson terms at p = {p}, dim 2 need 16000000128 "
                              "entries a row, past the budget 2097152\n")


def test_exhaustive_mode_past_the_cap_exit2_at_once(tmp_path, capsys, monkeypatch):
    # 5**16 elements: enumerating them would need terabytes
    monkeypatch.delenv("RLK_CAP", raising=False)
    path = write(tmp_path, "ab.alg", abelian(5, 16, with_pmap=True))
    t0 = time.perf_counter()
    code = main(["check", path, "restricted-leibniz", "--mode", "exhaustive"])
    assert time.perf_counter() - t0 < 5.0
    assert code == 2
    err = capsys.readouterr().err
    assert "enumeration cap 65536" in err
    assert main(["check", path, "restricted-leibniz", "--mode", "exhaustive",
                 "--cap", "1000"]) == 2
    assert "enumeration cap 1000" in capsys.readouterr().err


# ------------------------------------------------------------- layering


def test_cli_imports_no_private_names():
    """The CLI is a client of the library: every name it takes from another
    rlk module is public (dunders such as __version__ count as public)."""
    tree = ast.parse(Path(rlk.cli.__file__).read_text(encoding="utf-8"))
    private = [
        (node.module, alias.name)
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        and (node.level or (node.module or "").split(".")[0] == "rlk")
        for alias in node.names
        if alias.name.startswith("_") and not alias.name.endswith("__")
    ]
    assert private == []


# ----------------------------------------------------------- pinned bytes


def _derive_inputs(tmp_path):
    base = upper_triangular2(3)
    return {
        "ut2": write(tmp_path, "ut2.alg", base),
        "endo": endo_file(tmp_path, base, np.diag([1, 0, 1]).astype(np.int64).T, "endo.alg"),
        "g": write(tmp_path, "g.alg", l2(2)),
        "zin": write(tmp_path, "z.alg", free_zinbiel(1, 3, 2).to_algebra()),
        "prod": write(tmp_path, "tp.alg", _tensor_product_algebra(3)),
    }


_DERIVE_DIGESTS = {
    ("dleib", "ut2"):
        "a18eab2befe82abb5cc57031a1616b91a6f3331a3f5800418af82406ce5f673d",
    ("gln", "ut2"):
        "0e32e96d83600f9f9ea18a0eefe7a0894bde0874b3ea510369777e29d53c20b5",
    ("gln", "ut2", "--mode", "sample"):  # the same basis sweep as without --mode
        "0e32e96d83600f9f9ea18a0eefe7a0894bde0874b3ea510369777e29d53c20b5",
    ("operator-dialgebra", "endo"):
        "240ce7a57b8f9ea1bbf7426308a1b421aebb54d2e4fefe319332a48f04a94a29",
    ("tensor-prelie", "g", "zin", "--samples", "40"):
        "9f5cb963d8f5e06e079d0f2d428770df17510c6b96acba314ac49e7fff91a4f2",
    ("antisymmetrize", "prod"):
        "1b7309794a4516c4e6379f9846918ccb2a4ec5e0d8d681747b984f96af280adf",
}


@pytest.mark.parametrize("argv", list(_DERIVE_DIGESTS), ids=lambda a: "-".join(a))
def test_derive_report_bytes_are_pinned(argv, tmp_path, capsys):
    """The sha256 of each derive construction's JSON report, input paths
    replaced by their names, so a change to how a construction hands on its
    reports cannot move a byte unnoticed."""
    files = _derive_inputs(tmp_path)
    args = [files.get(a, a) for a in argv]
    assert main(["derive", *args, "--format", "json", "--seed", "1",
                 "--out", str(tmp_path / "out.alg")]) == 0
    out = capsys.readouterr().out
    for name, path in files.items():
        out = out.replace(path, name)
    assert hashlib.sha256(out.encode()).hexdigest() == _DERIVE_DIGESTS[argv]


def _fixture_inputs(tmp_path):
    """The input files of the pinned CLI runs, written under tmp_path."""
    base = upper_triangular2(3)
    for name, alg in (("l2.alg", l2(3)), ("l2f2.alg", l2(2)), ("broken.alg", broken_bracket()),
                      ("ab.alg", abelian(3, 2, with_pmap=True)), ("poly.alg", truncated_poly(3, 2)),
                      ("ut2.alg", base), ("lr.alg", l2_dialgebra(3)),
                      ("z.alg", free_zinbiel(1, 3, 2).to_algebra()),
                      ("tp.alg", _tensor_product_algebra(3)),
                      ("left.alg", Algebra(2, 1, {"left": np.zeros((1, 1, 1), dtype=np.int64)})),
                      ("notdias.alg", Algebra(2, 1, {"left": broken_bracket().structure("bracket"),
                                                     "right": np.zeros((1, 1, 1), dtype=np.int64)})),
                      ("zin.alg", Algebra(3, 14, {
                          "prelie": free_zinbiel(2, 3, 3).to_algebra().structure("zinbiel")}))):
        write(tmp_path, name, alg)
    endo_file(tmp_path, base, np.diag([1, 0, 1]).astype(np.int64).T, "endo.alg")
    endo_file(tmp_path, truncated_poly(2, 2), [(0, 0), (0, 1)], "deriv.alg")
    (tmp_path / "undecodable.alg").write_bytes(b"p=2 dim=1\n\xff\n")


_PINNED_RUNS = [
    # check: all nine identities, both formats, each --mode
    "check l2.alg leibniz restricted-leibniz",
    "check l2.alg leibniz --format json --seed 7",
    "check l2.alg restricted-leibniz --mode sample --samples 20 --seed 3 --format json",
    "check l2.alg restricted-leibniz --mode exhaustive",
    "check broken.alg leibniz",
    "check lr.alg dias lemdias",
    "check lr.alg dias --mode sample --samples 30 --format json",
    "check z.alg zinbiel --format json",
    "check tp.alg prelie restricted-prelie --pmap zero",
    "check tp.alg restricted-lie --samples 20",
    "check ab.alg restricted-lie --format json",
    "check poly.alg commutative-diagram",
    "check poly.alg commutative-diagram --mode sample --samples 10 --format json",
    # check: exit 2
    "check l2.alg no-such",
    "check missing.alg no-such",
    "check missing.alg leibniz",
    "check undecodable.alg leibniz",
    "check l2.alg restricted-leibniz --pmap nosuch",
    "check ab.alg restricted-leibniz --mode exhaustive --cap 5",
    # derive: every construction, to --out and to stdout
    "derive dleib poly.alg --out out.alg",
    "derive dleib poly.alg",
    "derive dleib ut2.alg --format json --seed 1 --out out.alg",
    "derive dleib lr.alg --mode sample --samples 15",
    "derive dleib endo.alg --out out.alg",
    "derive gln ut2.alg --n 2 --out out.alg",
    "derive gln poly.alg --mode sample --format json",
    "derive operator-dialgebra endo.alg --out out.alg",
    "derive operator-dialgebra endo.alg --format json",
    "derive tensor-prelie l2f2.alg z.alg --samples 40 --out out.alg",
    "derive tensor-prelie l2f2.alg z.alg --samples 20 --format json",
    "derive antisymmetrize tp.alg --out out.alg",
    "derive antisymmetrize tp.alg --format json",
    # derive: exit 2
    "derive tensor-prelie l2f2.alg",
    "derive dleib poly.alg ut2.alg",
    "derive operator-dialgebra deriv.alg",
    "derive operator-dialgebra poly.alg",
    "derive dleib left.alg",
    "derive dleib notdias.alg",
    "derive gln poly.alg --n 0",
    "derive antisymmetrize zin.alg",
    "derive tensor-prelie l2f2.alg missing.alg",
    # envelope: both kinds, --degree, each --mode, both formats
    "envelope l2f2.alg ul",
    "envelope l2f2.alg ud --format json",
    "envelope l2.alg ul --degree 3 --format json",
    "envelope l2.alg ud --degree 4 --mode sample --samples 10",
    "envelope ab.alg ul --degree 3 --mode exhaustive --format json",
    "envelope ab.alg ud --degree 3 --mode sample",
    # envelope: exit 2
    "envelope l2.alg ul --degree 2",
    "envelope l2.alg ul --degree 2 --pmap nosuch",
    "envelope l2.alg ud --pmap nosuch",
    "envelope missing.alg ud",
    "envelope undecodable.alg ul",
]


def test_cli_bytes_are_pinned(tmp_path, capsys, monkeypatch):
    """One sha256 over argv, exit code, stdout, stderr and the --out text of
    a fixed set of runs, with relative input paths; taken before the
    commands shared one reader."""
    _fixture_inputs(tmp_path)
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("RLK_CAP", raising=False)
    digest = hashlib.sha256()
    for run in _PINNED_RUNS:
        out = tmp_path / "out.alg"
        out.unlink(missing_ok=True)
        code = main(run.split())
        captured = capsys.readouterr()
        text = out.read_text(encoding="utf-8") if out.exists() else ""
        for part in (run, str(code), captured.out, captured.err, text):
            digest.update(part.encode() + b"\0")
    assert digest.hexdigest() == (
        "7ec30d8d1169fb4dab91deca7ccbadf8946f4643af8ba33239091390d19b68cb")


def test_inconclusive_report_document_prints_its_notes():
    """A document whose worst check is inconclusive reports "inconclusive",
    exits 1 and prints the check's notes and its own "note:" lines; a failing
    check still outranks it."""
    F = free_zinbiel(1, 3, 7)
    x = F.generator(0)
    maybe = check_zinbiel_factorial(F, x, x, 3)
    ok = check_zinbiel_factorial(F, x, x, 2)
    doc = rlk.cli.ReportDocument("0.1.0", "check", (), 0, checks=(ok, maybe),
                                 notes=("one", "two"))
    assert (maybe.status, ok.status) == ("inconclusive", "pass")
    assert doc.status == "inconclusive" and doc.exit_code == 1
    lines = doc.to_text().splitlines()
    assert lines[-4:] == ["  note: truncation above degree 3 touched the inputs",
                          "note: one", "note: two", "result: inconclusive"]
    assert json.loads(doc.to_json())["notes"] == ["one", "two"]
    failing = rlk.cli.ReportDocument("0.1.0", "check", (), 0,
                                     checks=(maybe, check_leibniz(broken_bracket())))
    assert failing.status == "fail"
