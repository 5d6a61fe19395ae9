"""The benchmark's tracer wraps rlk functions by name, so every name it
wraps must exist in rlk."""

import importlib
import importlib.util
import sys
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


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
