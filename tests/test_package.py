"""Package tooling: every module's exports resolve, and the benchmark's tracer fits the package."""

import importlib
import pkgutil
from pathlib import Path

import pytest

import fishbone

MODULES = sorted(info.name for info in pkgutil.iter_modules(fishbone.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    """Each name in a module's __all__ exists, so a deleted function leaves no stale export."""
    module = importlib.import_module(f"fishbone.{name}")
    missing = [export for export in module.__all__ if not hasattr(module, export)]
    assert not missing, f"fishbone.{name}.__all__ names missing objects: {missing}"


def test_bench_tracer_finds_and_restores_its_patches(monkeypatch):
    """The benchmark's tracer wraps package attributes by name; each must exist and come back.

    Without this test, a refactor that renames one of them fails only the benchmark's traced run.
    """
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
    from fbbench.spans import Tracer

    owners = [importlib.import_module(f"fishbone.{name}") for name in MODULES]
    owners.append(importlib.import_module("fishbone.linear").LinearSolution)
    before = [dict(vars(owner)) for owner in owners]
    tracer = Tracer()
    tracer.install()
    try:
        wrapped = [
            name for owner, attrs in zip(owners, before)
            for name, value in vars(owner).items() if attrs.get(name) is not value
        ]
    finally:
        tracer.uninstall()
    assert "run_simulate" in wrapped and "integrate" in wrapped
    for owner, attrs in zip(owners, before):
        changed = [name for name, value in vars(owner).items() if attrs.get(name) is not value]
        assert not changed, f"{owner.__name__}: not restored: {changed}"
