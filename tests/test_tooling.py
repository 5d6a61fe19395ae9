"""The benchmark's tracer wraps rlk functions by name, so every name it
wraps must exist in rlk."""

import ast
import importlib
import importlib.util
import inspect
import os
import re
import subprocess
import sys
from pathlib import Path

import rlk
from rlk.dialgebra import as_dialgebra, dleib, matrix_dialgebra
from rlk.envelope import ulp_truncated

from helpers import upper_triangular2

ROOT = Path(__file__).resolve().parents[1]
TRACER = ROOT / "perfbench" / "tracer.py"
SRC = ROOT / "src" / "rlk"


def _load_tracer(monkeypatch):
    """perfbench/tracer.py as a module; it only defines names on import."""
    spec = importlib.util.spec_from_file_location("_perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # its dataclasses look it up
    spec.loader.exec_module(module)
    return module


def test_every_tracer_target_resolves_in_rlk(monkeypatch):
    """Each "module:attr" target in the tracer's SPANS (the p-map methods of
    _PMAPS among them) is an attribute of the loaded rlk module, and each
    "module:Class.attr" is in the class's own __dict__, where the tracer
    wraps it.  Deleting or renaming a name the benchmark wraps fails here,
    not first in a benchmark run."""
    tracer = _load_tracer(monkeypatch)
    targets = [target for spec in tracer.SPANS for target in spec.targets]
    assert set(tracer._PMAPS) <= set(targets)
    missing = []
    for target in targets:
        modname, path = target.split(":")
        module = importlib.import_module(modname)
        owner, _, attr = path.rpartition(".")
        if owner:
            found = attr in vars(getattr(module, owner, object))
        else:
            found = hasattr(module, attr)
        if not found:
            missing.append(target)
    assert missing == []


def test_module_entry_point_prints_the_version():
    """`python -m rlk --version` runs rlk/__main__.py, prints the version and exits 0."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(ROOT / "src"), *filter(None, [os.environ.get("PYTHONPATH")])])}
    run = subprocess.run([sys.executable, "-m", "rlk", "--version"], env=env,
                         capture_output=True, text=True, timeout=60)
    assert (run.returncode, run.stdout, run.stderr) == (0, "rlk 0.1.0\n", "")


def _calls(name):
    """(module, enclosing function) of every call of `name` in rlk's sources."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for fn in ast.walk(tree):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                found += [(path.stem, fn.name, node) for node in ast.walk(fn)
                          if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                          and node.func.id == name]
    return found


def test_one_restricted_pass_draws_the_element_grids():
    """_grid is called by the restricted pass every gate runs, by
    _pmap_instances (for sampled gates and for ulp_relations_check, which has
    no gate) and by check_commutative_diagram, and nowhere else; the operator
    sweep is called by that pass, by the module relations and by
    check_tensor_restricted, and nowhere else; and no Leibniz gate runs
    check_leibniz past a report the algebra holds."""
    assert sorted((mod, fn) for mod, fn, _ in _calls("_grid")) == [
        ("dialgebra", "check_commutative_diagram"),
        ("free_structures", "_pmap_instances"),
        ("identities", "_restricted_pass"),
    ]
    assert sorted((mod, fn) for mod, fn, _ in _calls("_operator_failures")) == [
        ("envelope", "_module_relations"),
        ("identities", "_restricted_pass"),
        ("prelie_tensor", "check_tensor_restricted"),
    ]
    assert [(mod, fn) for mod, fn, call in _calls("_require") if call.args
            and isinstance(call.args[0], ast.Call)
            and getattr(call.args[0].func, "id", None) == "check_leibniz"] == []


def test_no_src_code_reads_the_narrow_projection():
    """QuotientPresentation.projection is stored in the narrowest unsigned dtype
    that holds p - 1, where products wrap (uint8 modulo 256), so rlk reads it
    only where QuotientPresentation.__post_init__ seals it; project reads the
    reduced ideal rows."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        owner = {}
        for fn in ast.walk(tree):  # breadth first, so an inner function wins
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                owner.update((node, fn.name) for node in ast.walk(fn))
        found += [(path.stem, owner.get(node)) for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute) and node.attr == "projection"]
    assert found == [("free_structures", "__post_init__")]


def test_only_require_reads_a_reports_witnesses():
    """A failed precondition is refused through identities._require, the one place
    that turns a report's first witness into an error, so no src code subscripts
    `.witnesses` anywhere else."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        owner = {}
        for fn in ast.walk(tree):  # breadth first, so an inner function wins
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                owner.update((node, fn.name) for node in ast.walk(fn))
        found += [(path.stem, owner.get(node)) for node in ast.walk(tree)
                  if isinstance(node, ast.Subscript) and isinstance(node.value, ast.Attribute)
                  and node.value.attr == "witnesses"]
    assert found == [("identities", "_require")]


def test_only_ulp_truncated_expands_power_words():
    """ulp_truncated builds power words for its ideal alone, one r_{e_i}^p per
    basis letter, so its relations number at most 3·dim² + 2·dim; the module
    checks read the p-power family off the operator sweep, and the bracket
    families off the one evaluator of the module identities, which
    check_module_axioms and _module_relations share."""
    g = dleib(matrix_dialgebra(as_dialgebra(upper_triangular2(2)), 2))
    assert len(ulp_truncated(g, d=2).relations) <= 3 * g.dim ** 2 + 2 * g.dim
    assert sorted((mod, fn) for mod, fn, _ in _calls("_module_sides")) == [
        ("envelope", "_module_relations"), ("envelope", "check_module_axioms")]


_README_NAME = r"`((?:check|sweep|ud|ulp|module|das|truncated|free)_\w+)"


def test_readme_names_only_functions_rlk_exports():
    """Every backticked check_*, sweep_*, ud_*, ulp_*, module_*, das_*, truncated_* or
    free_* name in README.md is an attribute of rlk, so the README cannot keep naming
    a deleted function."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    names = set(re.findall(_README_NAME, text))
    assert len(names) >= 20
    assert sorted(name for name in names if not hasattr(rlk, name)) == []


def _call_form_faults(text):
    """(name, argument) for each argument of a backticked call form `name(a, k=v)`
    of a _README_NAME function that the function cannot take: a keyword, or a
    positional argument written as a bare name, that is not one of its parameters,
    or a positional argument past its positional parameters."""
    faults = []
    for name, args in re.findall(_README_NAME + r"\(([^`]*)\)`", text):
        params = inspect.signature(getattr(rlk, name)).parameters
        positional = [k for k, v in params.items() if v.kind in (v.POSITIONAL_ONLY,
                                                                  v.POSITIONAL_OR_KEYWORD)]
        for n, arg in enumerate(a.strip() for a in args.split(",") if a.strip()):
            key, eq, _ = arg.partition("=")
            if (eq or re.fullmatch(r"[A-Za-z_]\w*", key)) and key not in params \
                    or not eq and n >= len(positional):
                faults.append((name, arg))
    return faults


def test_readme_call_forms_match_the_signatures():
    """The call forms README.md writes for those functions name only parameters
    they have, so the README cannot keep a deleted parameter."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    assert len(re.findall(_README_NAME + r"\(", text)) >= 5
    assert _call_form_faults(text) == []
    assert _call_form_faults("`das_quotient(F, nfold)` and `ud_p(g, d=2, nfold=3)`") == [
        ("das_quotient", "nfold"), ("ud_p", "nfold=3")]
    assert _call_form_faults("`check_zinbiel_factorial(F, a, b, n, 5)`") == [
        ("check_zinbiel_factorial", "5")]
