"""The values rlk hands between modules are frozen dataclasses.

Every p-map (each class with an `apply_batch`), `LambdaPoly`, the report
types, `QuotientPresentation`, `LeibnizModule`, `TensorAlgebraHandle`,
`Algebra`, `Dialgebra` and the CLI's `ReportDocument` take their
`__init__`, `__eq__`, `__hash__` and `__repr__` from `dataclasses` (those
that hold arrays compare by identity), refuse attribute writes, and hold
their arrays and tables read-only, so a value checked once stays what was
checked."""

from __future__ import annotations

import ast
import dataclasses
import importlib
import inspect
import pkgutil
import sys

import numpy as np
import pytest

import rlk
from rlk.algebra_core import (
    Algebra,
    BasisJacobsonPMap,
    MatrixPowerPMap,
    RightPowerPMap,
    TablePMap,
    ZeroPMap,
)
from rlk.algfile import format_algebra, parse_algebra
from rlk.cli import ReportDocument
from rlk.dialgebra import Dialgebra, as_dialgebra, dleib
from rlk.envelope import LeibnizModule, adjoint_module, ulp_truncated
from rlk.free_structures import QuotientPresentation
from rlk.identities import (CheckReport, Coverage, Witness, check_leibniz,
                            check_restricted_leibniz)
from rlk.prelie_tensor import TensorAlgebraHandle, TensorFormulaPMap
from rlk.scalars import LambdaPoly

from helpers import l2, truncated_poly

VALUES = {LambdaPoly, Witness, Coverage, CheckReport, QuotientPresentation, LeibnizModule,
          TensorAlgebraHandle, Algebra, Dialgebra, ReportDocument}
OWN_REPRS = {(TablePMap, "__repr__"), (Algebra, "__repr__")}
PMAPS = {ZeroPMap, RightPowerPMap, MatrixPowerPMap, TablePMap, BasisJacobsonPMap,
         TensorFormulaPMap}


def _rlk_classes():
    for info in pkgutil.iter_modules(rlk.__path__):
        if info.name == "__main__":  # runs the CLI on import
            continue
        module = importlib.import_module(f"rlk.{info.name}")
        yield from (cls for _, cls in inspect.getmembers(module, inspect.isclass)
                    if cls.__module__ == module.__name__)


def test_every_pmap_and_value_class_is_a_frozen_dataclass() -> None:
    """Every class in rlk with an apply_batch, and every value class, is a
    frozen dataclass: none of its __init__, __eq__, __hash__ and __repr__ is
    written in rlk's source, except the short reprs of TablePMap and Algebra."""
    classes = set(_rlk_classes())
    pmaps = {cls for cls in classes if hasattr(cls, "apply_batch")}
    assert pmaps == PMAPS
    assert VALUES <= classes
    for cls in pmaps | VALUES:
        assert dataclasses.is_dataclass(cls) and cls.__dataclass_params__.frozen, cls
        for name in ("__init__", "__eq__", "__hash__", "__repr__"):
            fn = cls.__dict__.get(name)
            if inspect.isfunction(fn) and (cls, name) not in OWN_REPRS:
                assert fn.__code__.co_filename != sys.modules[cls.__module__].__file__, (
                    cls, name)


def test_a_verified_pmap_and_report_cannot_be_changed() -> None:
    """dleib's p-map refuses a new exponent (the constructor refuses 0), so
    apply_pmap keeps returning x**p, and its carried reports refuse a new
    status."""
    h = dleib(as_dialgebra(truncated_poly(3, 2)))
    with pytest.raises(dataclasses.FrozenInstanceError):
        h.pmap("frobenius").exponent = 0
    assert h.apply_pmap("frobenius", (2, 1)) == (2, 0)  # (2 + t)**3 = 8 + 12t + ... = 2
    with pytest.raises(dataclasses.FrozenInstanceError):
        h.reports[1].status = "fail"
    assert [rep.status for rep in h.reports] == ["pass", "pass"]
    assert isinstance(h.reports[0].witnesses, tuple)
    assert check_leibniz(l2(3)).witnesses == ()


def _failing_report() -> CheckReport:
    """check_restricted_leibniz of L2 over F_2 with the zero p-map, which
    fails the operator condition with matrix witnesses."""
    g = l2(2).extended(pmaps={"zero": ZeroPMap()})
    rep = check_restricted_leibniz(g, "zero")
    assert rep.status == "fail" and isinstance(rep.witnesses[0].lhs, np.ndarray)
    return rep


def test_failing_reports_compare_and_hash_by_their_witnesses() -> None:
    """Two runs of one failing check give equal reports with equal hashes, though
    their witnesses hold operator arrays; a report with another witness differs."""
    rep, again = _failing_report(), _failing_report()
    assert rep == again and hash(rep) == hash(again)
    w = rep.witnesses[0]
    swapped = dataclasses.replace(rep, witnesses=(Witness(w.inputs, w.rhs, w.lhs),)
                                  + rep.witnesses[1:])
    assert swapped != rep
    assert swapped.to_dict() != rep.to_dict()


def test_witness_sides_refuse_writes() -> None:
    """A witness seals the arrays it is given, as copies, and turns lists into
    tuples, so its report reads the same after any attempt to edit it."""
    rep = _failing_report()
    before = rep.to_dict()
    with pytest.raises(ValueError, match="read-only"):
        rep.witnesses[0].lhs[1, 1] = 1
    with pytest.raises(ValueError, match="read-only"):
        rep.witnesses[0].rhs[0, 0] = 1
    assert rep.to_dict() == before

    side = np.zeros(2, dtype=np.int64)
    w = Witness((0,), side, [[1, 2], (3, [4])])
    side[0] = 5
    assert side.flags.writeable and w.lhs[0] == 0
    assert w.rhs == ((1, 2), (3, (4,)))
    assert w.to_dict() == {"inputs": [0], "lhs": [[0, 0]], "rhs": [[1, 2], [3, [4]]]}


def test_report_document_holds_frozen_reports_and_presentation() -> None:
    """A failing document keeps failing: its checks are CheckReports, not
    dicts, and its envelope table is made from the presentation (whose
    ambient monomials are a tuple) each time, so neither edits through the
    document nor edits of a dict it handed out change its status, exit code
    or bytes."""
    doc = ReportDocument("0", "check", (), 0, checks=(_failing_report(),))
    text, payload = doc.to_text(), doc.to_json()
    with pytest.raises(TypeError):
        doc.checks[0]["status"] = "pass"
    with pytest.raises(dataclasses.FrozenInstanceError):
        doc.checks[0].status = "pass"
    doc.to_dict()["checks"][0]["status"] = "pass"
    assert doc.status == "fail" and doc.exit_code == 1
    assert (doc.to_text(), doc.to_json()) == (text, payload)

    env = ReportDocument("0", "envelope ul d=2", (), 0,
                         envelope=ulp_truncated(l2(2), d=2))
    payload = env.to_json()
    env.to_dict()["tables"]["envelope"]["dimension"] = 0
    with pytest.raises(dataclasses.FrozenInstanceError):
        env.envelope.ideal_rank = 0
    with pytest.raises(TypeError):
        env.envelope.ambient.basis[0] = ()
    assert env.to_json() == payload and env.exit_code == 0
    assert '"dimension": 0' not in payload


def test_table_pmap_mapping_and_index_refuse_writes() -> None:
    """Writing into the table, or into its gather index, raises; the file
    text and apply_pmap keep agreeing."""
    g = l2(3)
    pm = g.pmap("frobenius")
    with pytest.raises(TypeError):
        pm.mapping[(1, 0)] = (0, 0)
    with pytest.raises(dataclasses.FrozenInstanceError):
        pm.mapping = {}
    for index in (pm._present, pm._values):
        with pytest.raises(ValueError, match="read-only"):
            index[0] = 1
    assert "\n1 0 -> 0 0\n" in format_algebra(g)
    assert g.apply_pmap("frobenius", (1, 0)) == (0, 0)
    assert g.apply_pmap("frobenius", (1, 1)) == pm.mapping[(1, 1)] == (0, 1)


def test_presentation_projection_and_module_stacks_refuse_writes() -> None:
    """The projection and the action stacks are read-only copies: the arrays
    a caller passes in stay writable, and writing into them later leaves the
    value as it was checked."""
    pres = ulp_truncated(l2(2), d=2)
    with pytest.raises(ValueError, match="read-only"):
        pres.projection[0, 0] = 1
    with pytest.raises(ValueError, match="read-only"):
        pres.relations[0][0] = 1
    eye = np.eye(pres.ambient.dim, dtype=np.int64)
    replaced = dataclasses.replace(pres, projection=eye)
    assert not replaced.projection.flags.writeable and eye.flags.writeable
    eye[0, 0] = 5
    assert replaced.projection[0, 0] == 1
    with pytest.raises(dataclasses.FrozenInstanceError):
        pres.ideal_rank = 0

    M = adjoint_module(l2(3))
    for stack in (M.left_action, M.right_action):
        with pytest.raises(ValueError, match="read-only"):
            stack[0, 0, 0] = 1
    with pytest.raises(dataclasses.FrozenInstanceError):
        M.right_action = np.zeros_like(M.right_action)
    right = np.zeros((2, 2, 2), dtype=np.int64)
    M = LeibnizModule(l2(3), 2, right, right)
    assert right.flags.writeable
    right[0, 0, 0] = 1
    assert not M.right_action.any()


def test_pmap_equality_hash_and_repr_come_from_their_fields() -> None:
    assert RightPowerPMap("right") == RightPowerPMap("right", None)
    assert repr(RightPowerPMap("right")) == "RightPowerPMap(op='right', exponent=None)"
    assert repr(MatrixPowerPMap()) == "MatrixPowerPMap(op='assoc')"
    assert MatrixPowerPMap("assoc") != RightPowerPMap("assoc")
    with pytest.raises(TypeError):
        MatrixPowerPMap("assoc", 3)
    assert len({ZeroPMap(), ZeroPMap(), RightPowerPMap("r", 2), RightPowerPMap("r", 2),
                BasisJacobsonPMap("b", [[1]]), BasisJacobsonPMap("b", ((1,),))}) == 3
    assert repr(l2(3).pmap("frobenius")) == "TablePMap(<9 entries>)"
    assert CheckReport("x", "pass", [], Coverage("exhaustive", 1)) == CheckReport(
        "x", "pass", (), Coverage("exhaustive", 1))


def test_module_and_presentation_compare_by_identity() -> None:
    """A value that holds arrays is equal only to itself, and comparing it
    answers rather than asking numpy for the truth value of an array."""
    M = adjoint_module(l2(3))
    assert M == M and M != adjoint_module(l2(3))
    pres = ulp_truncated(l2(2), d=2)
    assert pres == pres
    assert pres != dataclasses.replace(pres, projection=pres.projection.copy())
    assert len({M, M, pres, pres}) == 2


def test_an_algebra_and_its_report_refuse_writes() -> None:
    """A verified algebra keeps the modulus, reports and ops it was checked
    with, and only rlk's own constructions set reports."""
    h = dleib(as_dialgebra(truncated_poly(3, 2)))
    with pytest.raises(dataclasses.FrozenInstanceError):
        h.p = 5
    with pytest.raises(dataclasses.FrozenInstanceError):
        h.reports = ()
    with pytest.raises(TypeError):
        h.ops["x"] = h.structure("left")
    with pytest.raises(ValueError, match="read-only"):
        h.structure("bracket")[0, 0, 0] = 1
    assert h.p == 3 and [rep.status for rep in h.reports] == ["pass", "pass"]
    with pytest.raises(TypeError):
        Algebra(3, 1, {}, reports=h.reports)
    doc = ReportDocument("0", "check", (), 0)
    with pytest.raises(dataclasses.FrozenInstanceError):
        doc.wall_ms = 1.0
    assert repr(h) == "Algebra(p=3, dim=2, ops=['bracket', 'left', 'right'] 'dleib(F3[t]/t^2)')"
    assert h == h and h != dleib(as_dialgebra(truncated_poly(3, 2))) and len({h, h}) == 1


def test_read_only_reduced_tensors_are_shared_and_others_copied() -> None:
    """A read-only, reduced tensor that is no view is kept as handed over; any
    other is reduced into a copy, and a caller's writable array stays its own."""
    A = parse_algebra("p=3 dim=2\nop assoc:\n0 0 0 1\n0 1 1 1\n1 0 1 1\n")
    c = A.structure("assoc")
    assert as_dialgebra(A).structure("left") is c
    assert as_dialgebra(A).structure("right") is c
    ext = A.extended(label="x")
    assert ext.structure("assoc") is c and type(ext) is Algebra and ext.reports == ()

    unreduced = np.array(c)
    unreduced[0, 0, 0] = 4
    unreduced.flags.writeable = False
    view = c[:]
    writable = np.array(c)
    for tensor in (unreduced, view, writable):
        kept = Algebra(3, 2, {"assoc": tensor}).structure("assoc")
        assert kept is not tensor and kept.base is None and not kept.flags.writeable
        assert np.array_equal(kept, c)
    assert writable.flags.writeable
    writable[0, 0, 0] = 2
    assert Algebra(3, 2, {"assoc": writable}).structure("assoc")[0, 0, 0] == 2


def test_a_writable_view_taken_before_read_only_does_not_reach_a_value() -> None:
    """A read-only array that rlk did not make itself may have writable views
    taken before it was made read-only, so a value copies it: writing
    through such a view leaves the checked algebra and the presentation as
    they were.  Tensors rlk builds and reduces itself are kept as they are."""
    a = np.zeros((2, 2, 2), dtype=np.int64)
    v = a[:]
    a.flags.writeable = False
    alg = Algebra(3, 2, {"x": a})
    v[0, 0, 0] = 7
    assert alg.structure("x") is not a and alg.structure("x")[0, 0, 0] == 0

    pres = ulp_truncated(l2(2), d=2)
    b = pres.projection.copy()
    w = b[:]
    b.flags.writeable = False
    replaced = dataclasses.replace(pres, projection=b)
    w[0, 0] = 5
    assert replaced.projection[0, 0] == pres.projection[0, 0] != 5

    h = dleib(as_dialgebra(truncated_poly(3, 2)))
    assert Algebra(3, 2, dict(h.ops)).structure("bracket") is h.structure("bracket")
    assert h.extended().structure("left") is h.structure("left")


def _with_function(node, fn=None):
    """Every node under `node`, with the name of the innermost function
    around it (None at module level)."""
    for child in ast.iter_child_nodes(node):
        yield child, fn
        inner = child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) else fn
        yield from _with_function(child, inner)


def test_only_freeze_writes_into_a_built_value() -> None:
    """object.__setattr__ appears only in scalars._freeze, and _freeze is
    used only in __post_init__ methods and Algebra._with_pmaps, so no value
    is written after its construction has run its checks."""
    setattrs, freezes = [], []
    for info in pkgutil.iter_modules(rlk.__path__):
        with open(f"{rlk.__path__[0]}/{info.name}.py", encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
        for node, fn in _with_function(tree):
            if isinstance(node, ast.Attribute) and ast.unparse(node) == "object.__setattr__":
                setattrs.append((info.name, fn))
            elif isinstance(node, ast.Name) and node.id == "_freeze":
                freezes.append((info.name, fn))
    assert setattrs == [("scalars", "_freeze")]
    assert freezes and {fn for _, fn in freezes} == {"__post_init__", "_with_pmaps"}
    assert [m for m, fn in freezes if fn == "_with_pmaps"] == ["algebra_core"]
