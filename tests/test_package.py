"""Package tooling: every module's exports resolve, test files import only what they read,
the packed layout is written in one module, no module but ``cli`` imports ``cli``, the docs
name only names and tests that exist, a serial run leaves heavy numpy and stdlib modules
unloaded, and the benchmark's tracer fits the package."""

import ast
import importlib
import json
import os
import pkgutil
import re
import subprocess
import sys
from dataclasses import replace
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


ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("path", sorted((ROOT / "tests").glob("*.py")), ids=lambda path: path.name)
def test_imported_names_are_read(path):
    """Each name a test file imports is read there, so a deleted API leaves no stale import."""
    tree = ast.parse(path.read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update((alias.asname or alias.name).split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names)
    read = {
        node.id for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    assert not imported - read, f"{path.name} imports names it never reads: {sorted(imported - read)}"


def test_packed_layout_written_once():
    """Only ``dynamics`` does packed-row arithmetic; every other module reads ``channel_slices``."""
    offenders = [
        f"{path.name}:{number}"
        for path in sorted((ROOT / "src" / "fishbone").glob("*.py")) if path.name != "dynamics.py"
        for number, line in enumerate(path.read_text().splitlines(), start=1)
        if re.search(r"\b2 \* (self\.)?n_w\b", line)
    ]
    assert not offenders, f"packed layout spelled out outside dynamics.py: {offenders}"


def test_no_module_imports_cli():
    """``cli`` is the front end: no other module imports it, not even inside a function,
    so the presets and config live in one module and the package has no import cycle."""
    offenders = []
    for path in sorted((ROOT / "src" / "fishbone").glob("*.py")):
        if path.name == "cli.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                package = "." * node.level + (node.module or "")
                joint = "" if package.endswith(".") else "."
                names = [package] + [f"{package}{joint}{alias.name}" for alias in node.names]
            else:
                continue
            if any(name in (".cli", "fishbone.cli") for name in names):
                offenders.append(f"{path.name}:{node.lineno}")
    assert not offenders, f"modules importing cli: {offenders}"



def doc_texts():
    """README.md and every docstring of ``src/fishbone``, as (where, text) pairs."""
    yield "README.md", (ROOT / "README.md").read_text()
    for path in sorted((ROOT / "src" / "fishbone").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                if (doc := ast.get_docstring(node)) is not None:
                    yield f"{path.name}:{getattr(node, 'lineno', 1)}", doc


# Config keys the README names as removed (a config carrying one is refused).
REMOVED_KEYS = {"meta.seed", "model.f", "cable.s0"}


def test_doc_references_resolve():
    """A backticked ``<module>.<name>`` of a fishbone module in README.md or a docstring
    names an attribute of that module, config keys such as ``cable.a`` (current or
    removed) aside, and a quoted
    ``tests/<file>.py::<Class>::<test>`` id names a test that exists, so a deleted or
    renamed name leaves no stale reference in the docs."""
    from fishbone.cli import _KEYS

    stale = []
    for where, text in doc_texts():
        for module, name in re.findall(r"`([a-z_]+)\.([A-Za-z_]\w*)", text):
            if module in MODULES and f"{module}.{name}" not in {*_KEYS, *REMOVED_KEYS}:
                if not hasattr(importlib.import_module(f"fishbone.{module}"), name):
                    stale.append(f"{where}: {module}.{name}")
        for test_id in re.findall(r"tests/\w+\.py(?:::\w+)+", text):
            path, *names = test_id.split("::")
            scope = ast.parse((ROOT / path).read_text()) if (ROOT / path).exists() else None
            for name in names:
                found = [
                    node for node in getattr(scope, "body", [])
                    if isinstance(node, (ast.ClassDef, ast.FunctionDef)) and node.name == name
                ]
                scope = found[0] if found else None
            if scope is None:
                stale.append(f"{where}: {test_id}")
    assert not stale, f"docs name what does not exist: {stale}"

SERIAL_RUN = """
import sys
from dataclasses import replace
from fishbone.cli import load_config, preset_text
from fishbone.experiments import wind_sweep
from fishbone.spectral import make_grid

path = sys.argv[1]
with open(path, "w") as handle:
    handle.write(preset_text("wind"))
scenario = load_config(path).scenario
make_grid(scenario.basis)
one_second = replace(scenario, integrator=replace(scenario.integrator, t_end=1.0))
(row,) = wind_sweep([1e-3], [1.0], one_second, workers=1)
assert row.note == "", row
print(" ".join(sorted(name for name in ("numpy.polynomial", "concurrent.futures") if name in sys.modules)))
"""


def test_serial_run_leaves_polynomial_and_futures_unloaded(tmp_path):
    """A fresh interpreter that loads a preset, builds a grid and runs a 1 s serial sweep
    never imports numpy.polynomial (about 1.2 MB resident) or concurrent.futures."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run(
        [sys.executable, "-c", SERIAL_RUN, str(tmp_path / "wind.cfg")],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "", f"loaded: {proc.stdout.strip()}"


def test_bench_tracer_finds_and_restores_its_patches(monkeypatch):
    """The benchmark's tracer wraps package attributes by name; each must exist and come back.

    Without this test, a refactor that renames one of them fails only the benchmark's traced run.
    """
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
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


def test_bench_traced_sweep_round_derives_every_layer(monkeypatch, tmp_path):
    """The benchmark's traced sweep run, cut to 2 s of model time, yields every per-layer metric.

    It reads RHS spans under RK4 steps, the first RK4 integration and the 1-D states each RHS
    call sees, so a sweep that stops calling ``integrate`` per cell fails here first. The
    workload's own check is left out: its wind-over-free comparison needs the full 120 s.
    """
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    from fbbench import layers
    from fbbench.pace import Pace
    from fbbench.spans import Tracer
    from fbbench.workloads import Sweep

    workload = Sweep(seed=1, workdir=tmp_path)
    workload.setup()
    for name in ("base", "mirrored"):
        scenario = getattr(workload, name)
        setattr(workload, name, replace(scenario, integrator=replace(scenario.integrator, t_end=2.0)))
    baseline = workload.run_round(Pace(enabled=False)).wall_s
    tracer = Tracer()
    tracer.install()
    try:
        rnd = workload.run_round(Pace(enabled=False))
    finally:
        tracer.uninstall()
    pooled = workload.run_round(Pace(enabled=False), pooled=True)
    rnd.outputs["parallel_efficiency"] = baseline / (workload.workers * pooled.wall_s)
    metrics = layers.derive(tracer, rnd, rnd.wall_s, baseline, workload)
    names = {layer["name"] for layer in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]}
    assert not names - set(metrics), f"per-layer metrics not derived: {sorted(names - set(metrics))}"
    assert metrics["integrate.rk4_steps"] > 0 and metrics["dynamics.rhs_calls"] > 0
