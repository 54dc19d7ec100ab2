"""Every name a module exports in `__all__` exists in that module."""

import importlib
import pkgutil

import pytest

import polaron_effmass

MODULES = ["polaron_effmass"] + [
    f"polaron_effmass.{info.name}"
    for info in pkgutil.iter_modules(polaron_effmass.__path__)
]


@pytest.mark.parametrize("name", MODULES)
def test_all_exports_resolve(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing, f"{name}.__all__ names undefined {missing}"
