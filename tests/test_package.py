"""Every name a psfair module exports resolves, and every test module imports.

The tier-1 command continues past collection errors, so a test module that
fails to import, say on a name removed from ``psfair``, would otherwise drop
out of the run with all its tests.
"""

import importlib
import pkgutil
from pathlib import Path

import pytest

import psfair

MODULES = ["psfair", *(f"psfair.{m.name}" for m in pkgutil.iter_modules(psfair.__path__))]
TEST_MODULES = sorted(path.stem for path in Path(__file__).parent.glob("test_*.py"))


@pytest.mark.parametrize("name", MODULES)
def test_exported_names_resolve(name):
    module = importlib.import_module(name)
    assert [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)] == []


@pytest.mark.parametrize("name", TEST_MODULES)
def test_test_module_imports(name):
    importlib.import_module(name)
