"""Command-line front end: check identities on algebra files, derive new
algebras, and present truncated envelope quotients.

Exit codes: 0 all checks pass, 1 any check not passing, 2 usage error
(bad file, bad flags, violated construction precondition), 3 internal
invariant violated (DomainError).

Reports are deterministic for a fixed seed: the canonical text/JSON output
contains no timestamps (pass --timing to append the wall-clock milliseconds
from reading the inputs to the finished report, which are excluded from the
canonical content)."""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time
from dataclasses import dataclass

from . import __version__
from .algebra_core import enumeration_cap
from .algfile import format_algebra, read_algebra_file
from .dialgebra import (
    Dialgebra,
    as_dialgebra,
    check_commutative_diagram,
    dialgebra_from_operator,
    dleib,
    matrix_dialgebra,
    sweep_lemdias,
)
from .envelope import ulp_truncated
from .errors import DomainError, UsageError
from .free_structures import QuotientPresentation, ud_p
from .identities import (
    check_dias,
    check_leibniz,
    check_prelie,
    check_restricted_leibniz,
    check_restricted_lie,
    check_restricted_prelie,
    check_zinbiel,
)
from .prelie_tensor import (
    check_corollary,
    check_tensor_restricted,
    prelie_to_lie,
    tensor_prelie,
)

import numpy as np


@dataclass(frozen=True)
class ReportDocument:
    """Deterministic run report: inputs, per-check results, tables.  It holds
    frozen values (the CheckReports and the envelope presentation) and makes
    their dicts only in to_dict, so what it reports is what was checked."""

    version: str
    command: str
    inputs: tuple  # ((path, sha256-hex), ...)
    seed: int
    checks: tuple = ()  # CheckReports, in execution order
    envelope: QuotientPresentation | None = None  # the table "envelope"
    notes: tuple = ()
    wall_ms: float | None = None  # excluded from canonical bytes when None

    @property
    def status(self) -> str:
        if any(c.status == "fail" for c in self.checks):
            return "fail"
        if any(c.status == "inconclusive" for c in self.checks):
            return "inconclusive"
        return "pass"

    @property
    def exit_code(self) -> int:
        return 0 if self.status == "pass" else 1

    def to_dict(self) -> dict:
        out = {
            "tool": "rlk",
            "version": self.version,
            "command": self.command,
            "inputs": [{"path": p, "sha256": h} for p, h in self.inputs],
            "seed": self.seed,
            "status": self.status,
            "checks": [c.to_dict() for c in self.checks],
            "tables": {} if self.envelope is None else {"envelope": self.envelope.to_dict()},
            "notes": list(self.notes),
        }
        if self.wall_ms is not None:
            out["wall_ms"] = self.wall_ms
        return out

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"

    def to_text(self) -> str:
        d = self.to_dict()
        lines = [f"rlk {self.version} {self.command}"]
        for path, digest in self.inputs:
            lines.append(f"input {path} sha256={digest}")
        lines.append(f"seed {self.seed}")
        for c in d["checks"]:
            cov = c["coverage"]
            cov_s = f"{cov['kind']}({cov['count']})"
            lines.append(
                f"{c['identity']}: {c['status']}  failures={c['failure_count']}"
                f" coverage={cov_s}"
            )
            for note in c["notes"]:
                lines.append(f"  note: {note}")
            for w in c["witnesses"]:
                lines.append(
                    f"  witness inputs={w['inputs']} lhs={w['lhs']} rhs={w['rhs']}"
                )
        for name, table in sorted(d["tables"].items()):
            lines.append(f"table {name}:")
            for key in sorted(table):
                lines.append(f"  {key}: {table[key]}")
        for note in self.notes:
            lines.append(f"note: {note}")
        lines.append(f"result: {d['status']}")
        if self.wall_ms is not None:
            lines.append(f"wall_ms {self.wall_ms:.1f}")
        return "\n".join(lines) + "\n"


def _resolve_pmap(alg, explicit):
    if explicit is not None:
        if explicit not in alg.pmaps:
            raise UsageError(
                f"pmap {explicit!r} not declared; available: "
                f"{', '.join(sorted(alg.pmaps)) or '(none)'}"
            )
        return explicit
    if "frobenius" in alg.pmaps:
        return "frobenius"
    if len(alg.pmaps) == 1:
        return next(iter(alg.pmaps))
    raise UsageError(
        "cannot pick a p-map: declare exactly one, name it 'frobenius', "
        "or pass --pmap"
    )


def _effective_cap(alg, args):
    if args.mode == "exhaustive":
        cap = enumeration_cap(args.cap)
        if alg.element_count() > cap:
            raise UsageError(
                f"--mode exhaustive needs all {alg.p}**{alg.dim} elements, "
                f"past the enumeration cap {cap} (raise --cap or RLK_CAP)"
            )
        return cap
    if args.mode == "sample":
        return 1
    return args.cap


def _sweep(a) -> dict:
    """Keywords of a basis or sampled sweep of a trilinear identity."""
    mode = "sampled" if a.mode == "sample" else "basis"
    return {"mode": mode, "seed": a.seed, "samples": a.samples}


def _enumerated(alg, a) -> dict:
    """Keywords of a check over all elements, or samples past the cap."""
    return {"cap": _effective_cap(alg, a), "seed": a.seed, "samples": a.samples}


# each check is looked up by name as it runs, so a wrapper bound in its place is called
_RUNNERS = {
    "leibniz": lambda alg, a: check_leibniz(alg, **_sweep(a)),
    "restricted-leibniz": lambda alg, a: check_restricted_leibniz(
        alg, _resolve_pmap(alg, a.pmap), **_enumerated(alg, a)),
    "dias": lambda alg, a: check_dias(alg, **_sweep(a)),
    "lemdias": lambda alg, a: sweep_lemdias(alg),
    "zinbiel": lambda alg, a: check_zinbiel(alg, **_sweep(a)),
    "prelie": lambda alg, a: check_prelie(alg, **_sweep(a)),
    "restricted-prelie": lambda alg, a: check_restricted_prelie(
        alg, _resolve_pmap(alg, a.pmap), **_enumerated(alg, a)),
    "restricted-lie": lambda alg, a: check_restricted_lie(
        alg, "lie" if "lie" in alg.op_names else "bracket", _resolve_pmap(alg, a.pmap),
        **_enumerated(alg, a)),
    "commutative-diagram": lambda alg, a: check_commutative_diagram(
        alg, **_enumerated(alg, a)),
}


def _run(args, paths, build) -> int:
    """The work every command shares.  Read each file of `paths` once and
    call build(args, *algebras), which returns (command, derived algebra or
    None, further ReportDocument fields), both inside the --timing span; make
    the one ReportDocument, whose sha256s are of the bytes parsed, and write
    it out.  A derived algebra goes to --out, or to stdout with the report
    on stderr."""
    t0 = time.perf_counter()
    read = [read_algebra_file(path) for path in paths]
    command, derived, fields = build(args, *(alg for alg, _ in read))
    doc = ReportDocument(
        version=__version__,
        command=command,
        inputs=tuple((path, digest) for path, (_, digest) in zip(paths, read)),
        seed=args.seed,
        wall_ms=(time.perf_counter() - t0) * 1000.0 if args.timing else None,
        **fields,
    )
    stream = sys.stdout
    if derived is not None:
        text = format_algebra(derived)
        if args.out:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
            stream = sys.stderr
    stream.write(doc.to_json() if args.format == "json" else doc.to_text())
    return doc.exit_code


def _build_check(args, alg):
    checks = []  # a passing basis sweep of "leibniz" is the Leibniz gate of those after it
    for name in args.identities:
        checks.append(rep := _RUNNERS[name](alg, args))
        if name == "leibniz" and rep.ok() and rep.coverage.kind == "exhaustive":
            alg = alg._with_pmaps(alg.pmaps, alg.reports + (rep,))
    return "check " + " ".join(args.identities), None, {"checks": tuple(checks)}


def cmd_check(args) -> int:
    unknown = [n for n in args.identities if n not in _RUNNERS]
    if unknown:
        raise UsageError(
            f"unknown identities: {', '.join(unknown)}; "
            f"available: {', '.join(sorted(_RUNNERS))}"
        )
    return _run(args, [args.file], _build_check)


def _as_dialgebra_input(alg) -> Dialgebra:
    names = set(alg.op_names)
    if {"left", "right"} <= names:
        return Dialgebra(alg.p, alg.dim, {op: alg.structure(op) for op in ("left", "right")},
                         label=alg.label)
    if {"assoc", "endo"} <= names:
        return dialgebra_from_operator(alg, _endo_matrix(alg))
    if "assoc" in names:
        return as_dialgebra(alg)
    raise UsageError(
        "input must declare ops 'left' and 'right', or 'assoc' "
        "(optionally with an 'endo' operator block)"
    )


def _endo_matrix(alg) -> np.ndarray:
    """Operator encoded as op "endo" with middle index 0: an entry
    (i, 0, k, v) sets the e_k-coefficient of the image of e_i to v."""
    c = alg.structure("endo")
    if np.any(c[:, 1:, :]):
        raise UsageError("op 'endo' encodes an operator: entries need j = 0")
    return c[:, 0, :].T.copy()


def _dialgebra_reports(D: Dialgebra) -> tuple:
    """The basis sweep D ran when it was built, under every --mode, and sweep_lemdias."""
    return D.reports + (sweep_lemdias(D),)


def _build_derive(args, alg, *rest):
    if args.construction == "dleib":
        D = _as_dialgebra_input(alg)
        derived = dleib(D, _effective_cap(D, args), args.seed, args.samples)
        reports = derived.reports
    elif args.construction == "gln":
        derived = matrix_dialgebra(_as_dialgebra_input(alg), args.n)
        reports = _dialgebra_reports(derived)
    elif args.construction == "operator-dialgebra":
        if "assoc" not in alg.op_names or "endo" not in alg.op_names:
            raise UsageError("operator-dialgebra input needs ops 'assoc' and 'endo'")
        derived = dialgebra_from_operator(alg, _endo_matrix(alg))
        reports = _dialgebra_reports(derived)
    elif args.construction == "tensor-prelie":
        T = tensor_prelie(alg, *rest)
        derived = T.product._with_pmaps({"lie_p": T.product.pmap("lie_p")})
        reports = T.product.reports + (
            check_tensor_restricted(T, seed=args.seed, samples=args.samples),
            check_corollary(T, seed=args.seed, samples=args.samples,
                            cap=_effective_cap(T.product, args)),
        )
    else:  # antisymmetrize
        derived = prelie_to_lie(alg, args.op)
        reports = derived.reports
    return f"derive {args.construction}", derived, {"checks": reports}


def cmd_derive(args) -> int:
    want_two = args.construction == "tensor-prelie"
    if want_two and len(args.files) != 2:
        raise UsageError("tensor-prelie needs two files: <bracket> <zinbiel>")
    if not want_two and len(args.files) != 1:
        raise UsageError(f"{args.construction} takes exactly one file")
    return _run(args, args.files, _build_derive)


def _build_envelope(args, alg):
    d = args.degree if args.degree is not None else alg.p
    if d < alg.p:
        raise UsageError(f"degree cap {d} is below the characteristic {alg.p}")
    envelope = ud_p if args.which == "ud" else ulp_truncated
    pres = envelope(alg, pmap=_resolve_pmap(alg, args.pmap), d=d,
                    cap=_effective_cap(alg, args), seed=args.seed, samples=args.samples)
    return f"envelope {args.which} d={d}", None, {"envelope": pres}


def cmd_envelope(args) -> int:
    return _run(args, [args.file], _build_envelope)


def _common_flags(sub):
    sub.add_argument("--mode", choices=("exhaustive", "sample"), default=None,
                     help="force exhaustive enumeration or random sampling")
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument("--cap", type=int, default=None,
                     help="enumeration cap (overrides RLK_CAP)")
    sub.add_argument("--samples", type=int, default=200)
    sub.add_argument("--format", choices=("text", "json"), default="text")
    sub.add_argument("--pmap", default=None,
                     help="name of the p-map to use (default: 'frobenius' "
                          "or the unique declared one)")
    sub.add_argument("--timing", action="store_true",
                     help="append wall-clock ms (not part of the canonical "
                          "report)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rlk",
        description="Exact checks and constructions for bracket, "
                    "diassociative, half-shuffle and pre-Lie structures "
                    "over prime fields.",
    )
    parser.add_argument("--version", action="version",
                        version=f"rlk {__version__}")
    subs = parser.add_subparsers(dest="subcommand", required=True)

    c = subs.add_parser("check", help="run named identity checks on a file")
    c.add_argument("file")
    c.add_argument("identities", nargs="+",
                   help="identity names (see error message for the catalog)")
    _common_flags(c)

    d = subs.add_parser("derive", help="construct a new algebra from inputs")
    d.add_argument("construction",
                   choices=("dleib", "gln", "operator-dialgebra",
                            "tensor-prelie", "antisymmetrize"))
    d.add_argument("files", nargs="+")
    d.add_argument("--n", type=int, default=2,
                   help="matrix size for gln (default 2)")
    d.add_argument("--op", default="prelie",
                   help="op to antisymmetrize (default 'prelie')")
    d.add_argument("--out", default=None,
                   help="write the derived algebra file here "
                        "(default: stdout, report to stderr)")
    _common_flags(d)

    e = subs.add_parser("envelope",
                        help="truncated enveloping quotient of a restricted "
                             "bracket file")
    e.add_argument("file")
    e.add_argument("which", choices=("ud", "ul"))
    e.add_argument("--degree", type=int, default=None,
                   help="truncation degree (default: the characteristic)")
    _common_flags(e)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser of `main`, built on its first call."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    command = {"check": cmd_check, "derive": cmd_derive, "envelope": cmd_envelope}
    try:
        if args.samples < 1:
            raise UsageError(f"--samples must be positive, got {args.samples}")
        return command[args.subcommand](args)
    except DomainError as e:
        print(f"internal invariant violated: {e}", file=sys.stderr)
        return 3
    except UsageError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
