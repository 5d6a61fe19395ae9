"""Spans around rlk's public functions, installed from outside the package.

`Tracer` wraps each function in `SPANS` where it is defined and in every
loaded `rlk` module that bound it by name (for example `stack_mat_pow` in
`identities` and `prelie_tensor`), and restores the originals on exit.  A
span records its name, start, end and parent; the operation that caused it
is the root span.  Hot leaf calls (`hot=True`) are added up per enclosing
span instead of being recorded one by one.  Self time is a span's duration
minus the time of the wrapped calls made inside it.

Spans stay in memory until `write` puts them out as JSON lines.
"""

from __future__ import annotations

import json
import sys
import time
from dataclasses import dataclass
from typing import Callable

# -- counters read at the boundaries ---------------------------------------------------


def _rows(pos):
    def post(counters, name, args, kwargs, result, parent):
        counters[name + ".rows"] = counters.get(name + ".rows", 0) + len(args[pos])
    return post


def _coverage(key):
    def post(counters, name, args, kwargs, result, parent):
        if result is not None:
            counters[f"{name}.{key}"] = counters.get(f"{name}.{key}", 0) + result.coverage.count
    return post


def _pairs(counters, name, args, kwargs, result, parent):
    """Axiom-3 pairs of check_restricted_lie, from its note 'axiom3 pairs kind(n)'."""
    for note in getattr(result, "notes", ()):
        if note.startswith("axiom3 pairs"):
            n = int(note.rsplit("(", 1)[1].rstrip(")"))
            counters[name + ".pairs"] = counters.get(name + ".pairs", 0) + n


def _parse_bytes(counters, name, args, kwargs, result, parent):
    counters[name + ".bytes"] = counters.get(name + ".bytes", 0) + len(args[0].encode())


def _pmap_elements(counters, name, args, kwargs, result, parent):
    """Elements mapped, counted at the outermost p-map call only (apply_batch
    of some variants calls apply row by row)."""
    if parent != name:
        n = len(args[2]) if len(args) > 2 and hasattr(args[2], "shape") and args[2].ndim == 2 else 1
        counters[name + ".elements"] = counters.get(name + ".elements", 0) + n


def _monomials(counters, name, args, kwargs, result, parent):
    """Monomials enumerated by GradedBasisAlgebra, also when it then refuses them."""
    basis = getattr(args[0], "basis", None)
    if basis is not None:
        counters[name + ".monomials"] = counters.get(name + ".monomials", 0) + len(basis)


def _cache_hit(counters, name, args, kwargs):
    F, op, i, j = args[:4]
    if (op, i, j) in F._product_cache:
        counters[name + ".hits"] = counters.get(name + ".hits", 0) + 1


def _ambient(counters, name, args, kwargs, result, parent):
    counters[name + ".ambient_dim"] = counters.get(name + ".ambient_dim", 0) + args[0].dim


def _useful(counters, name, args, kwargs, result, parent):
    if result:
        counters[name + ".useful"] = counters.get(name + ".useful", 0) + 1


@dataclass(frozen=True)
class Span:
    name: str
    targets: tuple  # "module:attr" or "module:Class.attr"
    hot: bool = False
    pre: Callable | None = None
    post: Callable | None = None


_PMAPS = [f"rlk.{m}:{cls}.{meth}"
          for m, cls in (("algebra_core", "ZeroPMap"), ("algebra_core", "RightPowerPMap"),
                         ("algebra_core", "TablePMap"), ("algebra_core", "BasisJacobsonPMap"),
                         ("prelie_tensor", "TensorFormulaPMap"))
          for meth in ("apply", "apply_batch")]

SPANS = (
    Span("cli.main", ("rlk.cli:main",)),
    Span("algfile.parse", ("rlk.algfile:parse_algebra_file",)),
    Span("algfile.parse", ("rlk.algfile:parse_algebra",), post=_parse_bytes),
    Span("algfile.format", ("rlk.algfile:format_algebra",)),
    Span("dialgebra.verify", ("rlk.dialgebra:Dialgebra.__init__",)),
    Span("dialgebra.dleib", ("rlk.dialgebra:dleib",)),
    Span("dialgebra.diagram", ("rlk.dialgebra:check_commutative_diagram",
                               "rlk.dialgebra:sweep_lemdias")),
    Span("identities.trilinear", ("rlk.identities:check_leibniz", "rlk.identities:check_dias",
                                  "rlk.identities:check_zinbiel", "rlk.identities:check_prelie")),
    Span("identities.restricted_sweep", ("rlk.identities:check_restricted_leibniz",
                                         "rlk.identities:check_restricted_prelie"),
         post=_coverage("elements")),
    Span("identities.restricted_lie", ("rlk.identities:check_restricted_lie",), post=_pairs),
    Span("identities.jacobson_si", ("rlk.identities:jacobson_si",), hot=True),
    Span("identities.dleib_jacobson", ("rlk.identities:sweep_dleib_jacobson",
                                       "rlk.identities:check_dleib_jacobson_bracket"),
         post=_coverage("samples")),
    Span("scalars.lambda_poly_bracket", ("rlk.scalars:lambda_poly_bracket",), hot=True),
    Span("algebra_core.multiply", ("rlk.algebra_core:Algebra.multiply",), hot=True),
    Span("algebra_core.multiply_batch", ("rlk.algebra_core:Algebra.multiply_batch",),
         hot=True, post=_rows(2)),
    Span("algebra_core.right_mult_stack", ("rlk.algebra_core:Algebra.right_mult_stack",),
         hot=True, post=_rows(2)),
    Span("algebra_core.stack_mat_pow", ("rlk.algebra_core:stack_mat_pow",),
         hot=True, post=_rows(0)),
    Span("algebra_core.pmap", tuple(_PMAPS), hot=True, post=_pmap_elements),
    Span("algebra_core.lie_check", ("rlk.algebra_core:lie_basis_violation",)),
    Span("free_structures.basis", ("rlk.free_structures:GradedBasisAlgebra.__init__",),
         post=_monomials),
    Span("free_structures.ud_p", ("rlk.free_structures:ud_p",)),
    Span("free_structures.product", ("rlk.free_structures:GradedBasisAlgebra.product",),
         hot=True),
    Span("free_structures.mono_product",
         ("rlk.free_structures:GradedBasisAlgebra.mono_product",), hot=True, pre=_cache_hit),
    Span("free_structures.dense", ("rlk.free_structures:GradedBasisAlgebra.dense",
                                   "rlk.free_structures:GradedBasisAlgebra.from_dense"),
         hot=True),
    Span("free_structures.quotient", ("rlk.free_structures:truncated_ideal_quotient",),
         post=_ambient),
    Span("linalg.row_add", ("rlk.linalg:RowReducer.add",), hot=True, post=_useful),
    Span("linalg.rref", ("rlk.linalg:RowReducer.rref",)),
    Span("envelope.ulp_truncated", ("rlk.envelope:ulp_truncated",)),
    Span("envelope.modules", ("rlk.envelope:check_module_axioms",
                              "rlk.envelope:check_restricted_module",
                              "rlk.envelope:module_roundtrip",
                              "rlk.envelope:ulp_relations_check")),
    Span("prelie_tensor.build", ("rlk.prelie_tensor:tensor_prelie",)),
    Span("prelie_tensor.restricted", ("rlk.prelie_tensor:check_tensor_restricted",)),
    Span("prelie_tensor.corollary", ("rlk.prelie_tensor:check_corollary",)),
)

ROOT = "bench.op"

# (metric, unit, better, how): how is ("calls", span), ("self_s", span),
# ("count", counter) or ("ratio", counter, span) = counter / calls of span.
METRICS = (
    ("cli.main.calls", "count", "lower", ("calls", "cli.main")),
    ("cli.main.self_s", "s", "lower", ("self_s", "cli.main")),
    ("algfile.parse.bytes", "bytes", "lower", ("count", "algfile.parse.bytes")),
    ("algfile.parse.self_s", "s", "lower", ("self_s", "algfile.parse")),
    ("algfile.format.self_s", "s", "lower", ("self_s", "algfile.format")),
    ("dialgebra.verify.calls", "count", "lower", ("calls", "dialgebra.verify")),
    ("dialgebra.verify.self_s", "s", "lower", ("self_s", "dialgebra.verify")),
    ("dialgebra.dleib.calls", "count", "lower", ("calls", "dialgebra.dleib")),
    ("dialgebra.dleib.self_s", "s", "lower", ("self_s", "dialgebra.dleib")),
    ("dialgebra.diagram.self_s", "s", "lower", ("self_s", "dialgebra.diagram")),
    ("identities.trilinear.calls", "count", "lower", ("calls", "identities.trilinear")),
    ("identities.trilinear.self_s", "s", "lower", ("self_s", "identities.trilinear")),
    ("identities.restricted_sweep.elements", "count", "lower",
     ("count", "identities.restricted_sweep.elements")),
    ("identities.restricted_sweep.self_s", "s", "lower",
     ("self_s", "identities.restricted_sweep")),
    ("identities.restricted_lie.pairs", "count", "lower",
     ("count", "identities.restricted_lie.pairs")),
    ("identities.restricted_lie.self_s", "s", "lower", ("self_s", "identities.restricted_lie")),
    ("identities.jacobson_si.calls", "count", "lower", ("calls", "identities.jacobson_si")),
    ("identities.jacobson_si.self_s", "s", "lower", ("self_s", "identities.jacobson_si")),
    ("identities.dleib_jacobson.samples", "count", "lower",
     ("count", "identities.dleib_jacobson.samples")),
    ("identities.dleib_jacobson.self_s", "s", "lower", ("self_s", "identities.dleib_jacobson")),
    ("scalars.lambda_poly_bracket.calls", "count", "lower",
     ("calls", "scalars.lambda_poly_bracket")),
    ("scalars.lambda_poly_bracket.self_s", "s", "lower",
     ("self_s", "scalars.lambda_poly_bracket")),
    ("algebra_core.multiply.calls", "count", "lower", ("calls", "algebra_core.multiply")),
    ("algebra_core.multiply.self_s", "s", "lower", ("self_s", "algebra_core.multiply")),
    ("algebra_core.multiply_batch.rows", "count", "lower",
     ("count", "algebra_core.multiply_batch.rows")),
    ("algebra_core.multiply_batch.self_s", "s", "lower", ("self_s", "algebra_core.multiply_batch")),
    ("algebra_core.right_mult_stack.rows", "count", "lower",
     ("count", "algebra_core.right_mult_stack.rows")),
    ("algebra_core.right_mult_stack.self_s", "s", "lower",
     ("self_s", "algebra_core.right_mult_stack")),
    ("algebra_core.stack_mat_pow.rows", "count", "lower",
     ("count", "algebra_core.stack_mat_pow.rows")),
    ("algebra_core.stack_mat_pow.self_s", "s", "lower", ("self_s", "algebra_core.stack_mat_pow")),
    ("algebra_core.pmap.elements", "count", "lower", ("count", "algebra_core.pmap.elements")),
    ("algebra_core.pmap.self_s", "s", "lower", ("self_s", "algebra_core.pmap")),
    ("algebra_core.lie_check.calls", "count", "lower", ("calls", "algebra_core.lie_check")),
    ("algebra_core.lie_check.self_s", "s", "lower", ("self_s", "algebra_core.lie_check")),
    ("free_structures.basis.monomials", "count", "lower",
     ("count", "free_structures.basis.monomials")),
    ("free_structures.product.calls", "count", "lower", ("calls", "free_structures.product")),
    ("free_structures.product.self_s", "s", "lower", ("self_s", "free_structures.product")),
    ("free_structures.mono_product.calls", "count", "lower",
     ("calls", "free_structures.mono_product")),
    ("free_structures.mono_product.hit_ratio", "ratio", "higher",
     ("ratio", "free_structures.mono_product.hits", "free_structures.mono_product")),
    ("free_structures.dense.calls", "count", "lower", ("calls", "free_structures.dense")),
    ("free_structures.dense.self_s", "s", "lower", ("self_s", "free_structures.dense")),
    ("free_structures.quotient.self_s", "s", "lower", ("self_s", "free_structures.quotient")),
    ("free_structures.quotient.ambient_dim", "count", "lower",
     ("count", "free_structures.quotient.ambient_dim")),
    ("linalg.row_add.calls", "count", "lower", ("calls", "linalg.row_add")),
    ("linalg.row_add.useful_ratio", "ratio", "higher",
     ("ratio", "linalg.row_add.useful", "linalg.row_add")),
    ("linalg.row_add.self_s", "s", "lower", ("self_s", "linalg.row_add")),
    ("linalg.rref.self_s", "s", "lower", ("self_s", "linalg.rref")),
    ("envelope.ulp_truncated.self_s", "s", "lower", ("self_s", "envelope.ulp_truncated")),
    ("envelope.modules.self_s", "s", "lower", ("self_s", "envelope.modules")),
    ("prelie_tensor.build.self_s", "s", "lower", ("self_s", "prelie_tensor.build")),
    ("prelie_tensor.restricted.self_s", "s", "lower", ("self_s", "prelie_tensor.restricted")),
    ("prelie_tensor.corollary.self_s", "s", "lower", ("self_s", "prelie_tensor.corollary")),
)


class Tracer:
    """Context manager: wraps the functions of `spans` on entry, restores them on exit."""

    def __init__(self, spans=SPANS):
        self.spans_spec = spans
        self.records = []      # recorded spans, as dicts
        self.open = []         # records of the recorded spans now running
        self.frames = []       # [child_ns, name] of every wrapped call now running
        self.totals = {}       # span name -> [calls, self_ns]
        self.counters = {}
        self.patched = []      # (owner, attribute, original)
        self.op = None

    # -- installation ---------------------------------------------------------

    def __enter__(self):
        for spec in self.spans_spec:
            for target in spec.targets:
                self._patch(target, spec)
        return self

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self.patched):
            setattr(owner, attr, original)
        self.patched.clear()
        return False

    def _patch(self, target, spec):
        modname, path = target.split(":")
        module = sys.modules[modname]
        if "." in path:
            cls_name, attr = path.split(".")
            owner = getattr(module, cls_name)
            original = owner.__dict__[attr]
            self.patched.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, spec))
            return
        original = getattr(module, path)
        wrapper = self._wrap(original, spec)
        for name, mod in list(sys.modules.items()):
            if name != "rlk" and not name.startswith("rlk."):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self.patched.append((mod, attr, original))
                    setattr(mod, attr, wrapper)

    def _wrap(self, fn, spec):
        tracer, name, hot, pre, post = self, spec.name, spec.hot, spec.pre, spec.post
        clock = time.perf_counter_ns
        totals = self.totals.setdefault(name, [0, 0])

        def wrapper(*args, **kwargs):
            if pre is not None:
                pre(tracer.counters, name, args, kwargs)
            frames = tracer.frames
            frame = [0, name]
            record = None if hot else tracer._open(name)
            frames.append(frame)
            result = None
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                t1 = clock()
                frames.pop()
                dur = t1 - t0
                own = dur - frame[0]
                if frames:
                    frames[-1][0] += dur
                totals[0] += 1
                totals[1] += own
                if record is None:
                    if tracer.open:
                        agg = tracer.open[-1]["agg"].setdefault(name, [0, 0])
                        agg[0] += 1
                        agg[1] += own
                else:
                    tracer._close(record, t0, t1, own)
                if post is not None:
                    post(tracer.counters, name, args, kwargs, result,
                         frames[-1][1] if frames else None)

        wrapper.__wrapped__ = fn
        return wrapper

    # -- spans ------------------------------------------------------------------

    def _open(self, name):
        record = {"id": len(self.records), "op": self.op,
                  "parent": self.open[-1]["id"] if self.open else None,
                  "name": name, "agg": {}}
        self.records.append(record)
        self.open.append(record)
        return record

    def _close(self, record, t0, t1, own):
        record.update(start_ns=t0, end_ns=t1, self_ns=own)
        self.open.pop()

    def run_op(self, op_id, label, fn):
        """Call fn() as the root span of one operation."""
        self.op = op_id
        frame = [0, ROOT]
        record = self._open(ROOT)
        record["label"] = label
        self.frames.append(frame)
        t0 = time.perf_counter_ns()
        try:
            return fn()
        finally:
            t1 = time.perf_counter_ns()
            self.frames.pop()
            own = (t1 - t0) - frame[0]
            tot = self.totals.setdefault(ROOT, [0, 0])
            tot[0] += 1
            tot[1] += own
            self._close(record, t0, t1, own)

    # -- results -----------------------------------------------------------------

    def metrics(self, rounds: int) -> dict:
        """Every per-layer metric, per round of the workload."""
        out = {}
        for metric, unit, _better, how in METRICS:
            kind, key = how[0], how[1]
            if kind == "calls":
                value = self.totals.get(key, (0, 0))[0] / rounds
            elif kind == "self_s":
                value = self.totals.get(key, (0, 0))[1] / 1e9 / rounds
            elif kind == "count":
                value = self.counters.get(key, 0) / rounds
            else:
                calls = self.totals.get(how[2], (0, 0))[0]
                value = self.counters.get(key, 0) / calls if calls else 0.0
            out[metric] = {"value": value, "unit": unit}
        return out

    def layer_self_s(self, rounds: int) -> dict:
        """Self time per module (the part of a span name before its first dot)."""
        out = {}
        for name, (_calls, ns) in self.totals.items():
            layer = name.split(".")[0]
            out[layer] = out.get(layer, 0.0) + ns / 1e9 / rounds
        return dict(sorted(out.items(), key=lambda kv: -kv[1]))

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for record in self.records:
                fh.write(json.dumps(record, sort_keys=True) + "\n")
