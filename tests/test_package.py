"""The package's public names."""

from __future__ import annotations

import importlib

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
