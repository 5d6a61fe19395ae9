"""The three workloads: seeded inputs, one round of operations, output checks.

`build(name, seed, workdir)` writes the workload's input files and returns
its operations.  Every operation calls rlk through its public API or through
in-process `rlk.cli.main`; its check runs after the timed span and compares
the output with `oracles` (which shares no code with rlk) or with a property
the paper proves.  rlk names are looked up at call time, so a tracer that
wraps them sees every call.

Seeds change the inputs but not their shape: associative algebras,
dialgebras, Leibniz and Zinbiel algebras are fixed families written in a
seeded random basis, and the seed also drives sampling and planted faults.
A round therefore does the same amount of work for every seed.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import io
import itertools
import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import oracles as orc
import rlk
from rlk import cli as rlk_cli

WORKLOADS = ("restricted", "polarize", "envelope")


@dataclass
class Op:
    """One timed operation and the check of its output.

    `check` returns a list of problems (empty when the output is right).
    `known_fault` marks operations whose check fails today because of the
    envelope truncation fault.  They count as failed without making the run
    incorrect, as long as their only problem is a `KnownFault`."""

    name: str
    run: Callable[[], object]
    check: Callable[[object], list]
    known_fault: bool = False


class KnownFault(str):
    """The documented symptom of the envelope truncation fault: some ambient
    monomials evaluate differently from their projections, but no more than
    today.  Any other problem makes the run incorrect."""


@dataclass(frozen=True)
class Raised:
    kind: str
    message: str


@dataclass(frozen=True)
class CliResult:
    code: int
    stdout: str
    stderr: str
    out_text: str | None


def call(op: Op):
    try:
        return op.run()
    except Exception as e:  # the run records the error and goes on
        return Raised(type(e).__name__, str(e))


def fingerprint(out) -> str:
    """Digest of an output, to compare rounds with each other."""
    h = hashlib.sha256()
    if isinstance(out, rlk.QuotientPresentation):
        h.update(json.dumps(out.to_dict(), sort_keys=True).encode())
        h.update(out.projection.tobytes())
    elif isinstance(out, rlk.CheckReport):
        h.update(json.dumps(out.to_dict(), sort_keys=True).encode())
    else:
        h.update(repr(out).encode())
    return h.hexdigest()


def build(name: str, seed: int, workdir: Path) -> list:
    workdir.mkdir(parents=True, exist_ok=True)
    make = {"restricted": _restricted, "polarize": _polarize, "envelope": _envelope}[name]
    return make(seed, random.Random(f"{name}-{seed}"), workdir)


# -- helpers -----------------------------------------------------------------------


def _cli(argv, out_path=None) -> CliResult:
    o, e = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(o), contextlib.redirect_stderr(e):
        code = rlk_cli.main([str(a) for a in argv])
    text = Path(out_path).read_text(encoding="utf-8") if out_path else None
    return CliResult(code, o.getvalue(), e.getvalue(), text)


def _write(workdir: Path, name: str, text: str) -> Path:
    path = workdir / name
    path.write_text(text, encoding="utf-8")
    return path


def _rebase(c, p, rng, change=orc.random_invertible):
    S, Sinv = change(p, c.shape[0], rng)
    return orc.change_basis(c, S, Sinv, p), S, Sinv


def _report_problems(out, expect_code, statuses):
    """Exit code and per-check statuses of a JSON CLI report."""
    if isinstance(out, Raised):
        return [f"raised {out.kind}: {out.message}"]
    if out.code != expect_code:
        return [f"exit {out.code}, expected {expect_code}: {out.stderr.strip()}"]
    doc = json.loads(out.stdout)
    got = [(c["identity"], c["status"]) for c in doc["checks"]]
    return [] if got == statuses else [f"checks {got}, expected {statuses}"]


def _pure_restricted(bracket, cr, elements, p):
    """r_x**p == r_{x^[p]} with x^[p] the p-fold |- power, in plain Python."""
    c, R = orc.to_lists(bracket), orc.to_lists(cr)
    bad = []
    for x in elements:
        lhs = orc.mat_pow(orc.right_mult_matrix(c, x, p), p, p)
        if lhs != orc.right_mult_matrix(c, orc.right_power(R, x, p), p):
            bad.append(f"r_x^p != r_(x^[p]) at x = {x}")
    return bad


def _elements(rng, p, dim, n):
    return [tuple(rng.randrange(p) for _ in range(dim)) for _ in range(n)]


def _assoc_family(p):
    """(label, tensor) associative algebras; all verified associative."""
    return [("tp2", orc.truncated_poly(2)), ("tp3", orc.truncated_poly(3)),
            ("ut2", orc.upper_triangular2()), ("diag3", orc.diagonal(3)),
            ("mat2", orc.matrix_assoc(2))]


def _operator_family():
    """(label, algebra, operator) with D(a(Db)) = (Da)(Db) = D((Da)b):
    augmentation, a central idempotent, and the diagonal projection."""
    aug = np.zeros((3, 3), dtype=np.int64)
    aug[0, 0] = 1
    return [("tp3+aug", orc.truncated_poly(3), aug),
            ("diag3+idem", orc.diagonal(3), np.diag([1, 1, 0]).astype(np.int64)),
            ("ut2+diag", orc.upper_triangular2(), np.diag([1, 0, 1]).astype(np.int64))]


def _dialgebras(p, rng):
    """(label, left, right) seeded dialgebras: associative ones, operator ones
    and the L2 dialgebra."""
    out = []
    for label, c in _assoc_family(p):
        c2, _, _ = _rebase(c, p, rng)
        out.append((label, c2, c2))
    for label, c, D in _operator_family():
        c2, S, Sinv = _rebase(c, p, rng)
        out.append((label, *orc.operator_dialgebra(c2, orc.conjugate_operator(D, S, Sinv, p), p)))
    cl, cr = orc.l2_dialgebra()
    S, Sinv = orc.random_invertible(p, 2, rng)
    out.append(("l2dias", orc.change_basis(cl, S, Sinv, p), orc.change_basis(cr, S, Sinv, p)))
    return out


# -- restricted: D -> D_{p-Leib} through the CLI ----------------------------------------


def _restricted(seed, rng, workdir):
    ops = []
    for p in (2, 3, 5):
        inputs = []  # (label, file text, left, right, is associative)
        for label, c in _assoc_family(p):
            c2, _, _ = _rebase(c, p, rng)
            inputs.append((label, orc.format_file(p, c.shape[0], {"assoc": c2}, label=label),
                           c2, c2, True))
        for label, c, D in _operator_family():
            c2, S, Sinv = _rebase(c, p, rng)
            D2 = orc.conjugate_operator(D, S, Sinv, p)
            cl, cr = orc.operator_dialgebra(c2, D2, p)
            text = orc.format_file(p, c.shape[0], {"assoc": c2, "endo": orc.operator_block(D2)},
                                   label=label)
            inputs.append((label, text, cl, cr, False))
        dias = {label: (cl, cr) for label, cl, cr in _dialgebras(p, rng)}
        for label in ("l2dias", "gl2(tp2)", "gl2(ut2)", "gl2(l2dias)"):
            base = label[4:-1] if label.startswith("gl2") else label
            cl, cr = dias[base]
            if label.startswith("gl2"):
                cl, cr = orc.gl_n(cl, 2), orc.gl_n(cr, 2)
            text = orc.format_file(p, cl.shape[0], {"left": cl, "right": cr}, label=label)
            inputs.append((label, text, cl, cr, False))
        for label, text, cl, cr, assoc in inputs:
            ops.extend(_restricted_ops(workdir, f"{label}-F{p}", text, cl, cr, p, assoc,
                                       seed, _elements(rng, p, cl.shape[0], 4)))
    ops.append(_planted_table_pmap(workdir, seed, rng))
    return ops


def _restricted_ops(workdir, tag, text, cl, cr, p, assoc, seed, elements):
    src = _write(workdir, f"{tag}.alg", text)
    out = workdir / f"{tag}.dleib.alg"
    bracket = orc.derived_bracket(cl, cr, p)

    def check_derive(res):
        bad = _report_problems(res, 0, [("leibniz", "pass"), ("restricted_leibniz", "pass")])
        if bad:
            return bad
        _, _, ops, pmaps = orc.parse_ops(res.out_text)
        want = {"bracket": bracket, "left": cl, "right": cr}
        bad = [f"derived op {k} differs from the recomputed one"
               for k, v in want.items() if not np.array_equal(ops.get(k), v % p)]
        if pmaps != ["pmap frobenius rightpower right"]:
            bad.append(f"derived p-map lines {pmaps}")
        return bad + _pure_restricted(bracket, cr, elements, p)

    def check_out(res):
        return _report_problems(res, 0, [("leibniz", "pass"), ("restricted_leibniz", "pass")])

    ops = [
        Op(f"derive dleib {tag}",
           lambda: _cli(["derive", "dleib", src, "--out", out, "--format", "json",
                         "--seed", seed], out), check_derive),
        Op(f"check {tag}.dleib",
           lambda: _cli(["check", out, "leibniz", "restricted-leibniz", "--format", "json",
                         "--seed", seed]), check_out),
    ]
    if assoc:
        ops.append(Op(f"check {tag} commutative-diagram",
                      lambda: _cli(["check", src, "commutative-diagram", "--format", "json",
                                    "--seed", seed]),
                      lambda res: _report_problems(res, 0, [("commutative_diagram", "pass")])))
    return ops


def _planted_table_pmap(workdir, seed, rng):
    """Derived bracket of ut2 over F_3 with a table p-map whose seeded rows are
    moved off the p-fold power by elements with a nonzero right action."""
    p = 3
    c, _, _ = _rebase(orc.upper_triangular2(), p, rng)
    bracket = orc.derived_bracket(c, c, p)
    lists = orc.to_lists(bracket)
    table = {x: orc.right_power(orc.to_lists(c), x, p)
             for x in itertools.product(range(p), repeat=3)}
    movers = [w for w in itertools.product(range(p), repeat=3)
              if any(any(row) for row in orc.right_mult_matrix(lists, w, p))]
    for x in rng.sample(sorted(table), 5):
        table[x] = orc.add(table[x], rng.choice(movers), p)
    lines = ["pmap frobenius table:"] + [
        " ".join(map(str, k)) + " -> " + " ".join(map(str, v)) for k, v in sorted(table.items())]
    path = _write(workdir, "planted-table.alg",
                  orc.format_file(p, 3, {"bracket": bracket}, lines, label="planted"))

    def check(res):
        bad = _report_problems(res, 1, [("leibniz", "pass"), ("restricted_leibniz", "fail")])
        if bad:
            return bad
        expected = orc.count_operator_violations(bracket, table, p)
        got = json.loads(res.stdout)["checks"][1]["failure_count"]
        if expected == 0 or got != expected:
            return [f"planted failure_count {got}, brute force {expected}"]
        return []

    return Op("check planted table p-map",
              lambda: _cli(["check", path, "leibniz", "restricted-leibniz", "--format", "json",
                            "--seed", seed]), check)


# -- polarize: Jacobson polarization and g (x) R -----------------------------------------


def _polarize(seed, rng, workdir):
    ops = []
    for p in (2, 3, 5):
        dias = {label: (cl, cr) for label, cl, cr in _dialgebras(p, rng)}
        for label in ("tp3", "ut2", "ut2+diag", "l2dias"):
            ops.append(_sweep_op(f"{label}-F{p}", *dias[label], p, rng.randrange(1 << 30)))
        ops.append(_sweep_op(f"mat2-F{p}", *dias["mat2"], p, rng.randrange(1 << 30), samples=50))
        for label in ("ut2", "tp3+aug", "diag3+idem", "ut2+diag", "l2dias"):
            bracket = orc.derived_bracket(*dias[label], p)
            ops.append(_jacobson_op(f"dleib({label})-F{p}", bracket, p, rng, npairs=30))
        for label in ("tp3", "ut2", "mat2"):
            ops.append(_pmap_op(label, dias[label][0], p, rng))
    pairs = [(2, "dleib(tp3)", "fz(1,3)"), (2, "L2", "zero2"), (3, "dleib(l2dias)", "fz(1,3)"),
             (3, "L2", "fz(2,2)"), (5, "L2", "fz(1,2)"), (5, "abelian2", "zero2")]
    for p, gname, rname in pairs:
        ops.append(_tensor_op(workdir, p, gname, rname, seed, rng))
    for p in (2, 3, 5):
        c, _, _ = _rebase(orc.matrix_assoc(2), p, rng)
        comm = (c - c.transpose(1, 0, 2)) % p
        ops.append(_jacobson_op(f"gl2-F{p}", comm, p, rng, npairs=100, assoc=c))
    for label, p in (("ut2", 3), ("mat2", 2)):
        c, _, _ = _rebase({"ut2": orc.upper_triangular2(), "mat2": orc.matrix_assoc(2)}[label],
                          p, rng)
        ops.append(_restricted_lie_op(label, c, p, rng.randrange(1 << 30)))
    ops.append(_planted_sweep(seed, rng))
    return ops


def _sweep_op(tag, cl, cr, p, sweep_seed, samples=200):
    def run():
        D = rlk.Dialgebra(p, cl.shape[0], {"left": cl, "right": cr}, label=tag)
        return rlk.sweep_dleib_jacobson(D, samples=samples, seed=sweep_seed)

    def check(rep):
        if isinstance(rep, Raised):
            return [f"raised {rep.kind}: {rep.message}"]
        if rep.failure_count or rep.status != "pass" or rep.coverage.count != samples:
            return [f"sweep {rep.status} with {rep.failure_count} failures"]
        return []

    return Op(f"sweep_dleib_jacobson {tag} x{samples}", run, check)


def _leibniz_factor(name, p):
    if name == "L2":
        return orc.l2_bracket()
    if name == "abelian2":
        return np.zeros((2, 2, 2), dtype=np.int64)
    base = {"dleib(tp3)": (orc.truncated_poly(3),) * 2, "dleib(l2dias)": orc.l2_dialgebra()}
    return orc.derived_bracket(*base[name], p)


def _zinbiel_factor(name, p):
    if name == "zero2":
        return np.zeros((2, 2, 2), dtype=np.int64)
    ngen, cap = {"fz(1,2)": (1, 2), "fz(1,3)": (1, 3), "fz(2,2)": (2, 2)}[name]
    return orc.free_zinbiel(ngen, cap, p)


def _tensor_op(workdir, p, gname, rname, seed, rng):
    """g (x) R in seeded monomial bases: check_corollary extends a p-map from
    basis values one coordinate at a time, so its work depends on the zero
    pattern of the constants, which a monomial change keeps."""
    cg, _, _ = _rebase(_leibniz_factor(gname, p), p, rng, orc.random_monomial)
    cz, _, _ = _rebase(_zinbiel_factor(rname, p), p, rng, orc.random_monomial)
    tag = f"{gname}x{rname}-F{p}"
    gpath = _write(workdir, f"{tag}.g.alg", orc.format_file(p, cg.shape[0], {"bracket": cg}))
    rpath = _write(workdir, f"{tag}.r.alg", orc.format_file(p, cz.shape[0], {"zinbiel": cz}))
    out = workdir / f"{tag}.tensor.alg"
    d = cg.shape[0] * cz.shape[0]
    prelie = np.einsum("ikm,jln->ijklmn", cg, cz).reshape(d, d, d) % p
    lie = (prelie - prelie.transpose(1, 0, 2)) % p

    def check(res):
        bad = _report_problems(res, 0, [("prelie", "pass"), ("tensor_restricted", "pass"),
                                        ("corollary", "pass")])
        if bad:
            return bad
        _, _, ops, _ = orc.parse_ops(res.out_text)
        return [f"tensor op {k} differs from [x,y] (x) (a<b)"
                for k, v in (("prelie", prelie), ("lie", lie))
                if not np.array_equal(ops.get(k), v)]

    return Op(f"derive tensor-prelie {tag}",
              lambda: _cli(["derive", "tensor-prelie", gpath, rpath, "--out", out,
                            "--format", "json", "--seed", seed], out), check)


def _jacobson_op(tag, bracket, p, rng, npairs, assoc=None):
    """jacobson_si on seeded pairs, checked against the plain expansion; when
    the bracket is the commutator of the associative product `assoc`, also
    against (x+y)^p = x^p + y^p + sum_i s_i(x, y)."""
    dim = bracket.shape[0]
    pairs = [tuple(_elements(rng, p, dim, 2)) for _ in range(npairs)]
    C = orc.to_lists(bracket)
    tensors = {"bracket": bracket} if assoc is None else {"bracket": bracket, "assoc": assoc}

    def run():
        alg = rlk.Algebra(p, dim, tensors)
        return [rlk.jacobson_si(alg, "bracket", x, y) for x, y in pairs]

    def check(res):
        if isinstance(res, Raised):
            return [f"raised {res.kind}: {res.message}"]
        bad = []
        A = None if assoc is None else orc.to_lists(assoc)
        for (x, y), got in zip(pairs, res):
            want = orc.jacobson_terms(lambda u, v: orc.multiply(C, u, v, p), x, y, p)
            if [tuple(s) for s in got] != want:
                bad.append(f"s_i({x}, {y}) = {got}, expanded {want}")
            if A is None:
                continue
            total = orc.add(orc.right_power(A, x, p), orc.right_power(A, y, p), p)
            for s in want:
                total = orc.add(total, s, p)
            if total != orc.right_power(A, orc.add(x, y, p), p):
                bad.append(f"(x+y)^p != x^p + y^p + sum s_i at {x}, {y}")
        return bad

    return Op(f"jacobson_si {tag} x{npairs}", run, check)


def _commutator_pmap(c, p):
    """The commutator bracket of an associative product and the basis values
    e_i^[p] = e_i^p of the Jacobson p-map, which extends to x^[p] = x^p."""
    A = orc.to_lists(c)
    dim = c.shape[0]
    values = [orc.right_power(A, tuple(int(i == j) for j in range(dim)), p) for i in range(dim)]
    return (c - c.transpose(1, 0, 2)) % p, values


def _pmap_op(label, c, p, rng, n=40):
    """BasisJacobsonPMap.apply on seeded elements, checked against the plain
    p-th power in the associative algebra."""
    dim = c.shape[0]
    elements = _elements(rng, p, dim, n)
    comm, values = _commutator_pmap(c, p)

    def run():
        alg = rlk.Algebra(p, dim, {"bracket": comm},
                          {"jac": rlk.BasisJacobsonPMap("bracket", values)})
        return [alg.apply_pmap("jac", x) for x in elements]

    def check(res):
        if isinstance(res, Raised):
            return [f"raised {res.kind}: {res.message}"]
        A = orc.to_lists(c)
        return [f"x^[p] = {got} at {x}, x^p = {orc.right_power(A, x, p)}"
                for x, got in zip(elements, res) if tuple(got) != orc.right_power(A, x, p)]

    return Op(f"basisjacobson apply {label}-F{p} x{n}", run, check)


def _restricted_lie_op(label, c, p, check_seed):
    """check_restricted_lie on the commutator bracket with x^[p] = x^p, a
    restricted Lie algebra, so every axiom holds."""
    comm, values = _commutator_pmap(c, p)

    def run():
        alg = rlk.Algebra(p, c.shape[0], {"bracket": comm},
                          {"jac": rlk.BasisJacobsonPMap("bracket", values)})
        return rlk.check_restricted_lie(alg, pmap="jac", seed=check_seed)

    def check(rep):
        if isinstance(rep, Raised):
            return [f"raised {rep.kind}: {rep.message}"]
        if rep.failure_count or rep.status != "pass":
            return [f"restricted Lie check {rep.status} with {rep.failure_count} failures"]
        return []

    return Op(f"check_restricted_lie {label}-F{p}", run, check)


def _planted_sweep(seed, rng, p=3, dim=3):
    """Two random products that are not diassociative: the sweep must count
    exactly the sampled triples a plain recomputation finds failing."""
    cl = np.array([[[rng.randrange(p) for _ in range(dim)] for _ in range(dim)]
                   for _ in range(dim)], dtype=np.int64)
    cr = np.array([[[rng.randrange(p) for _ in range(dim)] for _ in range(dim)]
                   for _ in range(dim)], dtype=np.int64)
    sweep_seed = rng.randrange(1 << 30)

    def run():
        A = rlk.Algebra(p, dim, {"left": cl, "right": cr}, label="planted")
        return rlk.sweep_dleib_jacobson(A, samples=200, seed=sweep_seed)

    def check(rep):
        if isinstance(rep, Raised):
            return [f"raised {rep.kind}: {rep.message}"]
        expected = orc.count_dleib_jacobson_failures(cl, cr, 200, sweep_seed, p)
        if expected == 0 or rep.failure_count != expected:
            return [f"planted sweep failure_count {rep.failure_count}, brute force {expected}"]
        return []

    return Op("sweep_dleib_jacobson planted", run, check)


# -- envelope: Ud_p and the restricted enveloping algebra ---------------------------------


def _l2(p):
    table = {(a, b): (0, b) for a in range(p) for b in range(p)}
    return rlk.Algebra(p, 2, {"bracket": orc.l2_bracket()},
                       {"frobenius": rlk.TablePMap(table)}, label=f"L2/F{p}")


def _abelian(p, n):
    return rlk.Algebra(p, n, {"bracket": np.zeros((n, n, n), dtype=np.int64)},
                       {"zero": rlk.ZeroPMap()}, label=f"abelian{n}/F{p}")


def _dleib(p, cl, cr):
    return rlk.dleib(rlk.Dialgebra(p, cl.shape[0], {"left": cl, "right": cr}))


def _presentation_problems(pres, p):
    """Projection idempotent, relations projected to zero, dimension plus
    ideal rank equal to the ambient dimension."""
    P = pres.projection.astype(np.float64)
    bad = []
    if not np.array_equal(np.rint(P @ P).astype(np.int64) % p, pres.projection % p):
        bad.append("projection is not idempotent")
    if pres.relations:
        R = np.array(pres.relations, dtype=np.float64).T
        if (np.rint(P @ R).astype(np.int64) % p).any():
            bad.append("projection does not kill every relation")
    if pres.dimension + pres.ideal_rank != pres.ambient.dim:
        bad.append(f"dimension {pres.dimension} + ideal rank {pres.ideal_rank} "
                   f"!= ambient {pres.ambient.dim}")
    return bad


def _degree_problems(pres, ranks, degree):
    counts = {}
    for m in pres.ambient.basis:
        counts[degree(m)] = counts.get(degree(m), 0) + 1
    want = {k: n - ranks.get(k, 0) for k, n in counts.items() if n - ranks.get(k, 0)}
    bad = []
    if pres.degree_table() != want:
        bad.append(f"degree table {pres.degree_table()}, sandwich ranks give {want}")
    if pres.ideal_rank != sum(ranks.values()):
        bad.append(f"ideal rank {pres.ideal_rank}, sandwich ranks sum to {sum(ranks.values())}")
    return bad


def _envelope_op(name, run, p, evaluate=None, homogeneous=None, fault_at_most=0):
    """evaluate(basis) gives the image of every ambient monomial under a map the
    quotient must factor through; homogeneous = (relations, products, degree)
    for the sandwich-rank comparison.  fault_at_most > 0 marks an input with
    inhomogeneous relations: there the truncation fault may leave up to that
    many monomials (today's count) evaluating wrongly, and nothing else."""

    def check(pres):
        if isinstance(pres, Raised):
            return [f"raised {pres.kind}: {pres.message}"]
        bad = _presentation_problems(pres, p)
        if evaluate is not None:
            wrong = orc.projection_mismatches(evaluate(pres.ambient.basis), pres.projection, p)
            if wrong:
                msg = (f"{wrong} of {pres.ambient.dim} monomials evaluate differently "
                       f"from their projections")
                bad.append(KnownFault(msg) if not bad and wrong <= fault_at_most else msg)
        if homogeneous is not None:
            rels, products, degree = homogeneous
            ranks = orc.sandwich_ranks(pres.ambient.basis, degree, products, rels, p)
            bad += _degree_problems(pres, ranks, degree)
        return bad

    return Op(name, run, check, known_fault=fault_at_most > 0)


def _in_dialgebra(cl, cr, p):
    L, R = orc.to_lists(cl), orc.to_lists(cr)
    return lambda basis: [orc.dias_evaluate(L, R, m, p) for m in basis]


def _on_adjoint(bracket, p):
    mats = orc.adjoint_actions(orc.to_lists(bracket))
    return lambda basis: [orc.word_action(mats, w, p) for w in basis]


def _envelope(seed, rng, workdir):
    ops = []
    # Inhomogeneous relations: fixed inputs, failing today (known fault), each
    # with the number of monomials the fault leaves evaluating wrongly.
    for p in (2, 3):
        cl, cr = orc.l2_dialgebra()
        ops.append(_envelope_op(
            f"ud_p(dleib(l2dias/F{p}), d=3)",
            lambda p=p, cl=cl, cr=cr: rlk.ud_p(_dleib(p, cl, cr), d=3, seed=seed),
            p, evaluate=_in_dialgebra(cl, cr, p), fault_at_most=9))
    ut2 = orc.upper_triangular2()
    ops.append(_envelope_op(
        "ud_p(dleib(ut2/F2), d=3)",
        lambda: rlk.ud_p(_dleib(2, ut2, ut2), d=3, seed=seed),
        2, evaluate=_in_dialgebra(ut2, ut2, 2), fault_at_most=26))
    for p, d, wrong in ((2, 3, 6), (2, 5, 10), (3, 4, 8)):
        ops.append(_envelope_op(
            f"ulp_truncated(L2/F{p}, d={d})",
            lambda p=p, d=d: rlk.ulp_truncated(_l2(p), d=d, seed=seed),
            p, evaluate=_on_adjoint(orc.l2_bracket(), p), fault_at_most=wrong))
    # Homogeneous relations (abelian, zero p-map): these pass.
    for p, n, d in ((2, 1, 2), (2, 1, 3), (2, 1, 4), (2, 1, 5), (3, 1, 3), (3, 1, 4),
                    (3, 1, 5), (5, 1, 5), (2, 2, 2), (2, 2, 3), (2, 2, 4), (3, 2, 3)):
        zero = np.zeros((n, n, n), dtype=np.int64)
        ops.append(_envelope_op(
            f"ulp_truncated(abelian{n}/F{p}, d={d})",
            lambda p=p, n=n, d=d: rlk.ulp_truncated(_abelian(p, n), pmap="zero", d=d, seed=seed),
            p, evaluate=_on_adjoint(zero, p),
            homogeneous=(orc.word_relations_abelian(n, p), orc.word_product, orc.word_degree)))
    for p, n, d in ((2, 1, 2), (2, 1, 3), (2, 2, 3), (2, 2, 4), (3, 1, 3), (3, 1, 4),
                    (3, 2, 3), (5, 1, 5)):
        ops.append(_envelope_op(
            f"ud_p(abelian{n}/F{p}, d={d})",
            lambda p=p, n=n, d=d: rlk.ud_p(_abelian(p, n), pmap="zero", d=d, seed=seed),
            p, homogeneous=(orc.dias_relations_abelian(n, p), orc.dias_products,
                            orc.dias_degree)))
    zero = np.zeros((2, 2, 2), dtype=np.int64)
    ops.append(_envelope_op(
        "ud_p(dleib(zero2/F3), d=3)",
        lambda: rlk.ud_p(_dleib(3, zero, zero), d=3, seed=seed),
        3, evaluate=_in_dialgebra(zero, zero, 3),
        homogeneous=(orc.dias_relations_abelian(2, 3), orc.dias_products, orc.dias_degree)))
    # Restricted modules of seeded derived algebras.
    dias = {(label, p): (cl, cr) for p in (2, 3, 5) for label, cl, cr in _dialgebras(p, rng)}
    for label, p in (("ut2", 2), ("l2dias", 2), ("l2dias", 3), ("tp2", 3), ("tp2", 5),
                     ("diag3", 2), ("mat2", 2), ("tp3+aug", 2), ("diag3+idem", 3),
                     ("ut2+diag", 3)):
        ops.append(_module_op(label, p, *dias[(label, p)], seed))
    for label, p in (("ut2", 3), ("mat2", 2)):
        ops.append(_adjoint_axioms_op(label, p, *dias[(label, p)]))
    ops.append(_planted_module(*dias[("ut2", 3)], 3, rng))
    ops.append(_oversized_op(seed))
    return ops


def _module_op(label, p, cl, cr, seed):
    def run():
        g = _dleib(p, cl, cr)
        return rlk.module_roundtrip(g, rlk.adjoint_module(g), seed=seed)

    def check(rep):
        if isinstance(rep, Raised):
            return [f"raised {rep.kind}: {rep.message}"]
        if rep.status != "pass" or rep.failure_count:
            return [f"adjoint module roundtrip {rep.status} ({rep.failure_count} failures)"]
        return []

    return Op(f"module_roundtrip(adjoint {label}/F{p})", run, check)


def _adjoint_axioms_op(label, p, cl, cr):
    """check_module_axioms on the adjoint module, which satisfies them: the
    count must match the brute-force one, zero."""

    def run():
        g = _dleib(p, cl, cr)
        return rlk.check_module_axioms(g, rlk.adjoint_module(g))

    def check(rep):
        if isinstance(rep, Raised):
            return [f"raised {rep.kind}: {rep.message}"]
        bracket = orc.derived_bracket(cl, cr, p)
        expected = orc.count_module_axiom_failures(
            bracket, np.transpose(bracket, (0, 2, 1)), np.transpose(bracket, (1, 2, 0)), p)
        if rep.status != "pass" or rep.failure_count != expected:
            return [f"adjoint module axioms {rep.status} with {rep.failure_count} failures, "
                    f"brute force {expected}"]
        return []

    return Op(f"check_module_axioms(adjoint {label}/F{p})", run, check)


def _planted_module(cl, cr, p, rng):
    """Adjoint module of dleib(ut2/F_3) with one seeded right-action entry moved."""
    bracket = orc.derived_bracket(cl, cr, p)
    n = bracket.shape[0]
    left = np.transpose(bracket, (0, 2, 1)) % p
    right = np.transpose(bracket, (1, 2, 0)) % p
    changes = [(rng.randrange(n), rng.randrange(n), rng.randrange(n), 1 + rng.randrange(p - 1))
               for _ in range(16)]

    @functools.cache
    def planted():
        """The first seeded change that breaks an axiom, and the brute-force
        count of what it breaks.  The first call is in the untimed round."""
        for i, r, s, delta in changes:
            bad_right = right.copy()
            bad_right[i, r, s] = (bad_right[i, r, s] + delta) % p
            expected = orc.count_module_axiom_failures(bracket, left, bad_right, p)
            if expected:
                return bad_right, expected
        raise AssertionError("no seeded change breaks a module axiom")

    def run():
        g = _dleib(p, cl, cr)
        return rlk.check_module_axioms(g, rlk.LeibnizModule(g, n, left, planted()[0]))

    def check(rep):
        if isinstance(rep, Raised):
            return [f"raised {rep.kind}: {rep.message}"]
        expected = planted()[1]
        if rep.failure_count != expected:
            return [f"planted module failure_count {rep.failure_count}, brute force {expected}"]
        return []

    return Op("check_module_axioms planted", run, check)


def _oversized_op(seed, p=2, d=10):
    """Degree 10 on four letters is 1,398,101 words: past the basis bound, so
    the only right outcome is a UsageError that names the bound."""

    def check(res):
        bound = str(rlk.free_structures.BASIS_SIZE_BOUND)
        if isinstance(res, Raised) and res.kind == "UsageError" and bound in res.message:
            return []
        return [f"oversized request gave {res!r}"]

    return Op(f"ulp_truncated(L2/F{p}, d={d}) refused",
              lambda: rlk.ulp_truncated(_l2(p), d=d, seed=seed), check)
