"""The package's public names, and the names the benchmark's tracer patches."""

from __future__ import annotations

import ast
import importlib
from pathlib import Path

import fvlab

_MODULES = ("chains", "committor", "condensation", "engine", "experiments", "metrics", "model")


def test_package_exports_exactly_the_module_exports():
    # fvlab re-exports each module's __all__ and adds only __version__, so
    # a name deleted from a module cannot linger in the package's list
    names = {"__version__"}
    for mod in _MODULES:
        names.update(importlib.import_module(f"fvlab.{mod}").__all__)
    assert len(fvlab.__all__) == len(set(fvlab.__all__))
    assert set(fvlab.__all__) == names
    assert all(hasattr(fvlab, name) for name in fvlab.__all__)


def test_perfbench_tracer_targets_resolve():
    # the benchmark's tracer patches these names by string; a renamed or
    # deleted one would otherwise fail only the traced benchmark run
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    (targets,) = [
        ast.literal_eval(node.value)
        for node in ast.parse(path.read_text(encoding="utf-8")).body
        if isinstance(node, ast.Assign) and [t.id for t in node.targets if isinstance(t, ast.Name)] == ["_TARGETS"]
    ]
    fvlab_targets = [(mod, attr) for mod, attr, _ in targets if mod.startswith("fvlab")]
    assert fvlab_targets
    for mod, attr in fvlab_targets:
        obj = importlib.import_module(mod)
        for part in attr.split("."):
            obj = getattr(obj, part)
        assert callable(obj), f"{mod}.{attr}"
