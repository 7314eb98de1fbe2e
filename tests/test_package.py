"""Package tooling: every module's exports resolve."""

import importlib
import pkgutil

import pytest

import fishbone

MODULES = sorted(info.name for info in pkgutil.iter_modules(fishbone.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    """Each name in a module's __all__ exists, so a deleted function leaves no stale export."""
    module = importlib.import_module(f"fishbone.{name}")
    missing = [export for export in module.__all__ if not hasattr(module, export)]
    assert not missing, f"fishbone.{name}.__all__ names missing objects: {missing}"
