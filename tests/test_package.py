"""Package tooling: every module's exports resolve, test files and tools import only what
they read, the packed layout is written in one module and the integrator methods in one
table, no module but ``cli`` imports ``cli``, the docs name only names, config keys and
tests that exist, README's derive table matches the rules, every config key has a caller, a
serial run leaves heavy numpy and stdlib modules unloaded, the benchmark's tracer fits the
package, every benchmark workload runs a shortened round, and the quadrature study and the
line count run."""

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


@pytest.mark.parametrize(
    "path", sorted((ROOT / "tests").glob("*.py")) + sorted((ROOT / "tools").glob("*.py")),
    ids=lambda path: path.name,
)
def test_imported_names_are_read(path):
    """Each name a test file or tool imports is read there, so a deleted API or a moved helper
    leaves no stale import."""
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


def test_method_names_written_once():
    """``src/`` code spells the integrator methods only as the keys of ``integrate._METHODS``,
    the default of ``IntegratorConfig.method`` and ``preset_text``'s ``integrator.method = rk4``
    line, so the table is the one list of methods; docstrings and comments aside."""
    spelled = []
    for path in sorted((ROOT / "src" / "fishbone").glob("*.py")):
        tree = ast.parse(path.read_text())
        parents = {child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}
        docstrings = {
            node.body[0].value for node in ast.walk(tree)
            if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef)) and ast.get_docstring(node)
        }
        for node in ast.walk(tree):
            if not (
                isinstance(node, ast.Constant) and isinstance(node.value, str)
                and node not in docstrings and re.search(r"\b(rk4|adaptive45)\b", node.value)
            ):
                continue
            owner, child = [], node
            while child in parents:
                parent = parents[child]
                if isinstance(parent, ast.Dict) and child in parent.keys:
                    owner.append("key")
                elif isinstance(parent, (ast.ClassDef, ast.FunctionDef)):
                    owner.append(parent.name)
                elif isinstance(parent, (ast.Assign, ast.AnnAssign)):
                    targets = parent.targets if isinstance(parent, ast.Assign) else [parent.target]
                    owner += [target.id for target in targets if isinstance(target, ast.Name)]
                child = parent
            spelled.append(f"{path.name}:{'.'.join(reversed(owner))}")
    assert sorted(spelled) == [
        "cli.py:preset_text", "integrate.py:IntegratorConfig.method",
        "integrate.py:_METHODS.key", "integrate.py:_METHODS.key",
    ], f"method names spelled outside the table: {sorted(spelled)}"


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
REMOVED_KEYS = {
    "meta.seed", "model.f", "cable.s0", "sweep.mode", "sweep.decay_below", "sweep.growth_above",
    "output.channels", "integrator.atol",
}


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


CONFIG_SECTIONS = ("meta", "model", "cable", "basis", "integrator", "initial", "output", "sweep")


def test_doc_config_keys_resolve():
    """A backticked ``<section>.<key>`` of a config section in README.md or a docstring is a
    key of ``cli._KEYS``, a removed key, an ``initial.<channel>.<mode>`` entry or, in
    ``cable``, an attribute of the ``cable`` module, so a misspelt or deleted key leaves no
    stale reference in the docs."""
    from fishbone import cable
    from fishbone.cli import _KEYS
    from fishbone.dynamics import CHANNELS

    initial_entry = re.compile(rf"initial\.(?:{'|'.join(CHANNELS)})\.\d+")
    stale = []
    for where, text in doc_texts():
        for key in re.findall(rf"`((?:{'|'.join(CONFIG_SECTIONS)})(?:\.\w+)+)", text):
            section, _, name = key.partition(".")
            if not (
                key in _KEYS or key in REMOVED_KEYS or initial_entry.fullmatch(key)
                or section == "cable" and hasattr(cable, name)
            ):
                stale.append(f"{where}: {key}")
    assert not stale, f"docs name config keys that do not exist: {stale}"


def test_readme_derive_table_matches_the_rules():
    """README's derive table lists ``cli._DERIVE``'s keys in order, and each row's needs are
    the rule's reads that must be set (``_UNRECORDED``) or positive (``_POSITIVE``, written
    ``name > 0``), in reads order, so a rule's needs are documented as they are checked."""
    from fishbone.cli import _DERIVE, _POSITIVE, _UNRECORDED

    readme = (ROOT / "README.md").read_text()
    table = readme[readme.index("| key | rule | needs |"):].split("\n\n")[0].splitlines()[2:]
    rows = [[cell.strip() for cell in line.strip("|").split("|")] for line in table]
    assert [key for key, _, _ in rows] == [f"`{key}`" for key in _DERIVE]
    for (key, _, needs), (reads, _) in zip(rows, _DERIVE.values()):
        expected = [
            f"`{name} > 0`" if name in _POSITIVE else f"`{name}`"
            for name in reads if name in _UNRECORDED or name in _POSITIVE
        ]
        assert needs == (", ".join(expected) or "—"), key


# Config keys no preset writes, each with the caller that sets it.
KEYS_WITHOUT_PRESET = {
    "meta.version": "written by every manifest",
    "integrator.rtol": "the benchmark's DP45 run; the README's DP45 figures at 1e-6 to 1e-10",
    "sweep.beta": "fishbone sweep",
    "sweep.U": "fishbone sweep",
}


def test_every_config_key_has_a_caller():
    """Every key of ``cli._KEYS`` is written by some ``preset_text`` or sits in
    ``KEYS_WITHOUT_PRESET`` with the caller that sets it, so a key that only tests set fails
    here when it lands; an allowlisted key that a preset comes to write leaves the list."""
    from fishbone.cli import PRESETS, _KEYS, parse_config_text, preset_text

    written = {key for name in PRESETS for key in parse_config_text(preset_text(name))}
    assert set(KEYS_WITHOUT_PRESET) <= set(_KEYS) - written
    uncalled = sorted(set(_KEYS) - written - set(KEYS_WITHOUT_PRESET))
    assert not uncalled, f"config keys that no preset writes and no caller sets: {uncalled}"


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


def test_quadrature_study_prints_the_rule_row():
    """tools/quadrature_study.py, at one seed, prints make_grid's rule and one error per shell."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "quadrature_study.py"), "--seeds", "1"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    header, _, row = proc.stdout.strip().splitlines()
    assert header == "| Eplus | 1 | 10 | 100 | 1000 | 10000 |"
    label, *errors = row.strip("| ").split(" | ")
    assert label == "12 x 20 (240 nodes)" and len(errors) == 5
    assert all(0.0 <= float(error) < 1e-3 for error in errors), row


def test_src_lines_totals_match_the_files():
    """tools/src_lines.py prints a row per src/fishbone module with its line count, fewer code
    lines than lines, and a total row that sums them."""
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "src_lines.py")],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    header, _, *rows, total = proc.stdout.strip().splitlines()
    assert header == "| module | lines | code lines |"
    cells = [row.strip("| ").split(" | ") for row in rows]
    files = sorted((ROOT / "src" / "fishbone").glob("*.py"))
    assert [name for name, _, _ in cells] == [path.name for path in files]
    counts = [(int(lines), int(code)) for _, lines, code in cells]
    assert [lines for lines, _ in counts] == [len(path.read_text().splitlines()) for path in files]
    assert all(0 < code < lines for lines, code in counts)
    assert total == f"| total | {sum(c[0] for c in counts)} | {sum(c[1] for c in counts)} |"


def test_hot_loop_times_prints_a_row_per_model():
    """tools/hot_loop_times.py, one short run each, prints three models' timings and counters."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "hot_loop_times.py"), "--repeats", "1", "--seconds", "1"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    header, _, *rows = proc.stdout.strip().splitlines()
    assert header.startswith("| model | nodes | RHS µs/call | RK4 µs/step | RK4 counters |")
    assert [row.split(" | ")[0] for row in rows] == ["| free", "| wind_stretch", "| analysis 4+3"]
    for row in rows:
        _, nodes, rhs_us, rk4_us, rk4, dp45_us, dp45 = row.strip("| ").split(" | ")
        assert nodes == "240" and min(float(rhs_us), float(rk4_us), float(dp45_us)) > 0.0
        steps, calls = (int(word) for word in rk4.split()[1::2])
        assert calls == 4 * steps
        accepted, rejected, calls = (int(word) for word in dp45.split()[1::2])
        assert calls == 1 + 6 * (accepted + rejected)


def test_hot_loop_times_against_its_own_tree():
    """tools/hot_loop_times.py --against, this tree against itself: three figures per model,
    each tree's median and their ratio, and equal counters, since both trees run the same code."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "hot_loop_times.py"), "--repeats", "2", "--seconds", "0.5",
         "--against", str(ROOT)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    _, header, _, *rows = proc.stdout.strip().splitlines()
    assert header == "| model | figure | this µs | other µs | ratio | this won | counters |"
    cells = [row.strip("| ").split(" | ") for row in rows]
    assert [(model, figure) for model, figure, *_ in cells] == [
        (model, figure) for model in ("free", "wind_stretch", "analysis 4+3")
        for figure in ("RHS µs/call", "RK4 µs/step", "DP45 µs/trial")
    ]
    for _, _, this_us, other_us, ratio, won, counters in cells:
        assert min(float(this_us), float(other_us)) > 0.0
        assert float(ratio) == pytest.approx(float(this_us) / float(other_us), rel=0.01)
        assert won in ("0/2", "1/2", "2/2") and counters == "same"


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



@pytest.mark.parametrize("name", ["tacoma", "sweep", "analysis"])
def test_bench_workload_round_has_no_failed_operation(monkeypatch, tmp_path, name):
    """Each benchmark workload sets up and runs one shortened, untraced round with pacing
    off, and no operation fails: tacoma and sweep at 2 s of model time, analysis with 500
    verify samples and a 5 s ensemble.

    The workloads call the package positionally (``make_geometry`` with ``s0``,
    ``integrate``, ``energies``, ``random_states``, ``ModelParams(L=...)``, ``run_simulate``
    and ``run_verify``), so a change of signature fails here, not only in a benchmark run.
    """
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    from fbbench.pace import Pace
    from fbbench.workloads import WORKLOADS

    workload = WORKLOADS[name](seed=1, workdir=tmp_path)
    if name == "analysis":
        workload.VERIFY_SAMPLES, workload.T_END = 500, 5.0
    workload.setup()
    if name == "tacoma":
        for label, path in workload.configs.items():
            text = path.read_text()
            assert "integrator.t_end = 120\n" in text
            path.write_text(text.replace("integrator.t_end = 120\n", "integrator.t_end = 2\n"))
            workload.t_end[label] = 2.0
    if name == "sweep":
        for attr in ("base", "mirrored"):
            scenario = getattr(workload, attr)
            setattr(workload, attr, replace(scenario, integrator=replace(scenario.integrator, t_end=2.0)))
    rnd = workload.run_round(Pace(enabled=False))
    assert rnd.attempted > 0 and rnd.failed == 0, rnd.errors
