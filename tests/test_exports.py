"""Every name a module of the package exports is defined in it."""

import importlib
import pkgutil

import pytest

import oodbench

MODULES = [importlib.import_module(f"oodbench.{info.name}")
           for info in pkgutil.iter_modules(oodbench.__path__)]


@pytest.mark.parametrize("module", [m for m in MODULES if hasattr(m, "__all__")],
                         ids=lambda m: m.__name__)
def test_every_exported_name_resolves(module):
    assert [name for name in module.__all__ if not hasattr(module, name)] == []
