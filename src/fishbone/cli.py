"""Command-line front end: config parsing, presets, runs, and CSV persistence.

Configuration is flat ``section.key = value`` text (``#`` starts a comment):

    meta.name = wind                 # run label
    model.M = 7198                   # any ModelParams field ...
    model.E = 2.1e11                 # ... plus raw mechanical-table keys
    model.D = derive                 # derive: D = E*I
    cable.a = derive                 # derive: a = M*g/(2H)
    cable.b = derive                 # derive: b = Ac*Ec/L0
    basis.L = 853.44
    basis.n_w = 10
    integrator.dt = derive           # derive: shortest linear period / 200
    initial.all = 0.003              # displayed amplitudes (meters/radians);
    initial.w.9 = 3                  # converted to modal by sqrt(L/2)
    output.directory = out/wind
    sweep.beta = 0,1e-3,1e-2
    sweep.U = -30,30

The derivation rules live in ``resolve_config`` (``_MODEL_RULES`` for the
model keys). ``preset_text`` is the one definition of the named Tacoma
Narrows presets; ``experiments.figure_scenarios`` resolves its texts.

Broadcast precedence for initial data: ``initial.all`` fills every channel,
``initial.<channel>.all`` overrides one channel, ``initial.<channel>.<mode>``
overrides one entry — independent of file order. Unknown keys are rejected
with their full path. Trajectory CSVs hold displayed amplitudes (the modal
coefficients times sqrt(2/L)), one column per retained mode and channel.

Exit codes: 0 ok, 2 configuration error, 3 numeric/analysis failure,
4 verification failure. FISHBONE_THREADS caps sweep workers.
"""

from __future__ import annotations

import argparse
import csv
import math
import operator
import os
import sys
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import __version__
from .cable import CableGeometry, make_geometry
from .diagnostics import attach_energies, format_report, lemma_suite
from .dynamics import ModalState, ModelParams
from .experiments import (
    DAMPING_RATE,
    GRAVITY,
    TNB_N_T,
    TNB_N_W,
    TNB_S0,
    TNB_TABLE,
    WIND_COUPLING_RATE,
    WIND_SPEED,
    Scenario,
    default_timestep,
    derive_cable_stiffness,
    derive_stretching,
    derive_tension_parameter,
    wind_sweep,
)
from .integrate import IntegrationError, IntegratorConfig, Trajectory, integrate
from .linear import (
    OverdampedBranch,
    ResonantCase,
    characteristic_roots,
    closed_form,
    decay_rate,
    spectrum_report,
)
from .spectral import Basis, displayed_to_modal, make_grid, modal_to_displayed

__all__ = [
    "ConfigError",
    "SimConfig",
    "OutputBundle",
    "load_config",
    "manifest_text",
    "preset_text",
    "run_simulate",
    "run_linear",
    "run_verify",
    "run_sweep",
    "main",
]

PRESETS = ("tnb", "free", "wind", "wind_stretch", "damped")
CHANNELS = ("w", "wdot", "th", "thdot")

_MODEL_FIELDS = (
    "M", "D", "eps", "kappa", "ell", "delta", "zeta", "beta",
    "Upsilon", "Ustream", "P", "S", "g", "L",
)
_TABLE_FIELDS = ("E", "Ec", "G", "I", "K", "J", "A", "Ac", "H", "f")
# model.<key> = derive: (keys the rule reads, rule). The rules read the
# mechanical table plus L, which is always resolved from the basis.
_MODEL_RULES = {
    "D": (("E", "I"), operator.mul),
    "eps": (("E", "J"), operator.mul),
    "kappa": (("G", "K"), operator.mul),
    "S": (("A", "E", "L"), derive_stretching),
}


class ConfigError(Exception):
    """Configuration failure carrying the offending key path."""

    def __init__(self, key: str, message: str) -> None:
        self.key = key
        super().__init__(f"{key}: {message}")


def _fmt(x: float) -> str:
    """Full round-trip decimal form (17 significant digits)."""
    return format(float(x), ".17g")


# ---------------------------------------------------------------- parsing


def parse_config_text(text: str) -> dict[str, str]:
    """Flatten config text to an ordered {key path: raw value} mapping."""
    flat: dict[str, str] = {}
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}", f"expected 'key = value', got {raw_line.strip()!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if not key or not value:
            raise ConfigError(f"line {lineno}", f"expected 'key = value', got {raw_line.strip()!r}")
        if key in flat:
            raise ConfigError(key, "duplicate key")
        flat[key] = value
    return flat


def _to_float(key: str, raw: str) -> float:
    try:
        return float(raw)
    except ValueError:
        raise ConfigError(key, f"expected a number, got {raw!r}") from None


def _to_int(key: str, raw: str) -> int:
    try:
        return int(raw)
    except ValueError:
        raise ConfigError(key, f"expected an integer, got {raw!r}") from None


def _pop_float(flat: dict[str, str], key: str, default: float | None) -> float | None:
    raw = flat.pop(key, None)
    return default if raw is None else _to_float(key, raw)


def _pop_int(flat: dict[str, str], key: str, default: int) -> int:
    raw = flat.pop(key, None)
    return default if raw is None else _to_int(key, raw)


@dataclass(frozen=True)
class SimConfig:
    """A fully resolved run: scenario plus output and sweep settings."""

    name: str
    seed: int
    scenario: Scenario
    output_dir: Path
    channels: tuple[str, ...]
    initial_displayed: dict[str, np.ndarray]
    sweep_betas: tuple[float, ...] = ()
    sweep_speeds: tuple[float, ...] = ()
    sweep_mode: int = 2
    decay_below: float = 0.5
    growth_above: float = 2.0


def _resolve_initial(
    flat: dict[str, str], basis: Basis
) -> dict[str, np.ndarray]:
    """Displayed-amplitude vectors per channel from the sparse initial section."""
    sizes = {"w": basis.n_w, "wdot": basis.n_w, "th": basis.n_t, "thdot": basis.n_t}
    broadcast_all: float | None = None
    channel_all: dict[str, float] = {}
    entries: dict[tuple[str, int], float] = {}
    for key in [k for k in flat if k.startswith("initial.")]:
        raw = flat.pop(key)
        parts = key.split(".")
        if key == "initial.all":
            broadcast_all = _to_float(key, raw)
            continue
        if len(parts) != 3 or parts[1] not in sizes:
            raise ConfigError(key, "unknown configuration key")
        channel = parts[1]
        if parts[2] == "all":
            channel_all[channel] = _to_float(key, raw)
            continue
        mode = _to_int(key, parts[2])
        if not 1 <= mode <= sizes[channel]:
            raise ConfigError(key, f"mode out of range 1..{sizes[channel]}")
        entries[(channel, mode)] = _to_float(key, raw)
    displayed = {}
    for channel, size in sizes.items():
        vec = np.full(size, broadcast_all if broadcast_all is not None else 0.0)
        if channel in channel_all:
            vec[:] = channel_all[channel]
        for (ch, mode), value in entries.items():
            if ch == channel:
                vec[mode - 1] = value
        displayed[channel] = vec
    return displayed


def resolve_config(flat: dict[str, str]) -> SimConfig:
    """Typed, derived, validated SimConfig from a flat key-value mapping."""
    flat = dict(flat)

    name = flat.pop("meta.name", "run")
    flat.pop("meta.version", None)  # recorded on write; any value accepted on read
    seed = _pop_int(flat, "meta.seed", 0)

    # basis (resolved first: L feeds the model and initial-data conversion)
    basis_L = _pop_float(flat, "basis.L", None)
    model_L = flat.pop("model.L", None)
    if model_L is not None:
        model_L_val = _to_float("model.L", model_L)
        if basis_L is not None and not math.isclose(basis_L, model_L_val, rel_tol=1e-12):
            raise ConfigError("model.L", f"conflicts with basis.L = {_fmt(basis_L)}")
        basis_L = model_L_val
    if basis_L is None:
        basis_L = math.pi
    n_w = _pop_int(flat, "basis.n_w", 10)
    n_t = _pop_int(flat, "basis.n_t", 4)
    try:
        basis = Basis(L=basis_L, n_w=n_w, n_t=n_t)
    except ValueError as exc:
        raise ConfigError("basis", str(exc)) from None

    # raw mechanical-table keys, available to the derive rules
    table: dict[str, float] = {}
    for field in _TABLE_FIELDS:
        value = _pop_float(flat, f"model.{field}", None)
        if value is not None:
            table[field] = value

    model_kwargs: dict[str, float] = {"L": basis.L}
    known = {**table, "L": basis.L}
    for field in _MODEL_FIELDS:
        key = f"model.{field}"
        raw = flat.pop(key, None)  # model.L was taken with the basis
        if raw is None:
            continue
        if raw != "derive":
            model_kwargs[field] = _to_float(key, raw)
            continue
        if field not in _MODEL_RULES:
            raise ConfigError(key, "no derivation rule for this key")
        needed, rule = _MODEL_RULES[field]
        missing = [f"model.{name}" for name in needed if name not in known]
        if missing:
            raise ConfigError(key, "derive requires " + ", ".join(missing))
        model_kwargs[field] = rule(*(known[name] for name in needed))
    try:
        params = ModelParams(**model_kwargs)
    except ValueError as exc:
        raise ConfigError("model", str(exc)) from None

    # cable section
    s0 = _pop_float(flat, "cable.s0", 1.0)
    table_L0 = _pop_float(flat, "cable.L0", None)
    raw_a = flat.pop("cable.a", None)
    raw_b = flat.pop("cable.b", None)
    raw_c = flat.pop("cable.c", None)
    if raw_a == "derive":
        if "H" not in table:
            raise ConfigError("cable.a", "derive requires model.H")
        if params.g <= 0.0:
            raise ConfigError("cable.a", "derive requires model.g > 0")
        a = derive_tension_parameter(params.M, params.g, table["H"])
    else:
        a = None if raw_a is None else _to_float("cable.a", raw_a)
    c = None
    if raw_c == "derive":
        if "H" not in table:
            raise ConfigError("cable.c", "derive requires model.H")
        c = table["H"]
    elif raw_c is not None:
        c = _to_float("cable.c", raw_c)
    grid = make_grid(basis)
    b = None
    if raw_b == "derive":
        missing = [k for k in ("Ac", "Ec") if k not in table]
        if missing:
            raise ConfigError("cable.b", "derive requires " + ", ".join(f"model.{k}" for k in missing))
        if table_L0 is not None:
            rest_length = table_L0
        else:
            if a is None or a <= 0.0:
                raise ConfigError("cable.b", "derive without cable.L0 requires cable.a > 0")
            rest_length = make_geometry(a, s0 or 1.0, 0.0, 0.0, basis, grid).L0
        b = derive_cable_stiffness(table["Ac"], table["Ec"], rest_length)
    elif raw_b is not None:
        b = _to_float("cable.b", raw_b)
    b = 0.0 if b is None else b
    c = 0.0 if c is None else c
    if a is None:
        if b > 0.0 or c > 0.0:
            raise ConfigError("cable.a", "required when cable stiffnesses are nonzero")
        a = 0.0
    try:
        geometry = make_geometry(
            a, s0, b, c, basis, grid, allow_flat=(b == 0.0 and c == 0.0)
        )
    except ValueError as exc:
        raise ConfigError("cable", str(exc)) from None

    # integrator section (output.cadence is an alias for sample_every)
    method = flat.pop("integrator.method", "rk4")
    if method not in ("rk4", "adaptive45"):
        raise ConfigError("integrator.method", f"expected rk4 or adaptive45, got {method!r}")
    raw_dt = flat.pop("integrator.dt", None)
    if raw_dt == "derive":
        dt = default_timestep(params, basis)
    else:
        dt = 1e-3 if raw_dt is None else _to_float("integrator.dt", raw_dt)
    rtol = _pop_float(flat, "integrator.rtol", 1e-8)
    atol = _pop_float(flat, "integrator.atol", 1e-10)
    t_end = _pop_float(flat, "integrator.t_end", 10.0)
    sample_every = _pop_float(flat, "integrator.sample_every", None)
    cadence = _pop_float(flat, "output.cadence", None)
    if cadence is not None:
        if sample_every is not None:
            raise ConfigError("output.cadence", "conflicts with integrator.sample_every")
        sample_every = cadence
    try:
        integrator = IntegratorConfig(
            method=method, dt=dt, rtol=rtol, atol=atol, t_end=t_end, sample_every=sample_every
        )
    except ValueError as exc:
        raise ConfigError("integrator", str(exc)) from None

    # initial data (displayed amplitudes -> modal coefficients)
    displayed = _resolve_initial(flat, basis)
    initial = ModalState(
        displayed_to_modal(displayed["w"], basis.L),
        displayed_to_modal(displayed["wdot"], basis.L),
        displayed_to_modal(displayed["th"], basis.L),
        displayed_to_modal(displayed["thdot"], basis.L),
    )

    # output section
    output_dir = Path(flat.pop("output.directory", "out"))
    raw_channels = flat.pop("output.channels", ",".join(CHANNELS))
    requested = [part.strip() for part in raw_channels.split(",") if part.strip()]
    bad = [ch for ch in requested if ch not in CHANNELS]
    if bad:
        raise ConfigError("output.channels", f"unknown channel(s) {bad}; choose from {list(CHANNELS)}")
    channels = tuple(ch for ch in CHANNELS if ch in requested)
    if not channels:
        raise ConfigError("output.channels", "at least one channel required")

    # sweep section
    def _pop_list(key: str) -> tuple[float, ...]:
        raw = flat.pop(key, None)
        if raw is None:
            return ()
        return tuple(_to_float(key, part.strip()) for part in raw.split(",") if part.strip())

    sweep_betas = _pop_list("sweep.beta")
    sweep_speeds = _pop_list("sweep.U")
    sweep_mode = _pop_int(flat, "sweep.mode", 2)
    decay_below = _pop_float(flat, "sweep.decay_below", 0.5)
    growth_above = _pop_float(flat, "sweep.growth_above", 2.0)

    if flat:
        raise ConfigError(next(iter(flat)), "unknown configuration key")

    scenario = Scenario(
        name=name,
        params=params,
        geometry=geometry,
        basis=basis,
        initial=initial,
        integrator=integrator,
    )
    return SimConfig(
        name=name,
        seed=seed,
        scenario=scenario,
        output_dir=output_dir,
        channels=channels,
        initial_displayed=displayed,
        sweep_betas=sweep_betas,
        sweep_speeds=sweep_speeds,
        sweep_mode=sweep_mode,
        decay_below=decay_below,
        growth_above=growth_above,
    )


def load_config(path: str | Path) -> SimConfig:
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ConfigError(str(path), f"cannot read config: {exc}") from None
    return resolve_config(parse_config_text(text))


# ---------------------------------------------------------------- manifest


def manifest_text(cfg: SimConfig) -> str:
    """Canonical resolved-config echo; itself a valid config, no timestamps."""
    p = cfg.scenario.params
    geo = cfg.scenario.geometry
    basis = cfg.scenario.basis
    it = cfg.scenario.integrator
    lines = [
        "# resolved fishbone configuration (re-runnable; derived keys are literals)",
        f"meta.name = {cfg.name}",
        f"meta.version = {__version__}",
        f"meta.seed = {cfg.seed}",
    ]
    for field in _MODEL_FIELDS:
        if field != "L":
            lines.append(f"model.{field} = {_fmt(getattr(p, field))}")
    lines += [
        f"cable.a = {_fmt(geo.a)}",
        f"cable.s0 = {_fmt(geo.s0)}",
        f"cable.b = {_fmt(geo.b)}",
        f"cable.c = {_fmt(geo.c)}",
        f"basis.L = {_fmt(basis.L)}",
        f"basis.n_w = {basis.n_w}",
        f"basis.n_t = {basis.n_t}",
        f"integrator.method = {it.method}",
        f"integrator.dt = {_fmt(it.dt)}",
        f"integrator.rtol = {_fmt(it.rtol)}",
        f"integrator.atol = {_fmt(it.atol)}",
        f"integrator.t_end = {_fmt(it.t_end)}",
    ]
    if it.sample_every is not None:
        lines.append(f"integrator.sample_every = {_fmt(it.sample_every)}")
    for channel in CHANNELS:
        vec = cfg.initial_displayed[channel]
        for j, value in enumerate(vec, start=1):
            if value != 0.0:
                lines.append(f"initial.{channel}.{j} = {_fmt(value)}")
    lines += [
        f"output.directory = {cfg.output_dir}",
        f"output.channels = {','.join(cfg.channels)}",
    ]
    if cfg.sweep_betas:
        lines.append("sweep.beta = " + ",".join(_fmt(v) for v in cfg.sweep_betas))
    if cfg.sweep_speeds:
        lines.append("sweep.U = " + ",".join(_fmt(v) for v in cfg.sweep_speeds))
    if cfg.sweep_betas or cfg.sweep_speeds:
        lines.append(f"sweep.mode = {cfg.sweep_mode}")
        lines.append(f"sweep.decay_below = {_fmt(cfg.decay_below)}")
        lines.append(f"sweep.growth_above = {_fmt(cfg.growth_above)}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------- CSV writers


def _open_csv(path: Path):
    return open(path, "w", newline="")


def write_trajectory_csv(path: Path, traj: Trajectory, basis: Basis, channels) -> None:
    """Displayed-amplitude trajectory table: t, then one column per mode."""
    blocks = {
        "w": traj.w, "wdot": traj.wdot, "th": traj.th, "thdot": traj.thdot,
    }
    header = ["t"]
    columns = []
    for channel in channels:
        block = blocks[channel]
        header += [f"{channel}_{j}" for j in range(1, block.shape[1] + 1)]
        columns.append(modal_to_displayed(block, basis.L))
    data = np.hstack(columns)
    with _open_csv(path) as f:
        writer = csv.writer(f, lineterminator="\n")
        writer.writerow(header)
        for i in range(len(traj)):
            writer.writerow([_fmt(traj.times[i])] + [_fmt(v) for v in data[i]])


def write_energy_csv(path: Path, traj: Trajectory) -> None:
    """Energy table t, E, Eplus, Efull, residual from attached diagnostics."""
    n = len(traj)
    nan = np.full(n, math.nan)
    e = traj.diagnostics.get("E", nan)
    eplus = traj.diagnostics.get("Eplus", nan)
    efull = traj.diagnostics.get("Efull", nan)
    residual = traj.diagnostics.get("residual", nan)
    with _open_csv(path) as f:
        writer = csv.writer(f, lineterminator="\n")
        writer.writerow(["t", "E", "Eplus", "Efull", "residual"])
        for i in range(n):
            writer.writerow(
                [_fmt(traj.times[i]), _fmt(e[i]), _fmt(eplus[i]), _fmt(efull[i]), _fmt(residual[i])]
            )


@dataclass(frozen=True)
class OutputBundle:
    directory: Path
    trajectory: Path
    energy: Path
    manifest: Path


# ---------------------------------------------------------------- subcommands


def run_simulate(config_path: str | Path) -> OutputBundle:
    """Integrate one scenario and persist trajectory, energies, and manifest."""
    cfg = load_config(config_path)
    scenario = cfg.scenario
    traj = scenario.run()
    grid = make_grid(scenario.basis)
    attach_energies(traj, scenario.params, scenario.geometry, scenario.basis, grid)
    cfg.output_dir.mkdir(parents=True, exist_ok=True)
    bundle = OutputBundle(
        directory=cfg.output_dir,
        trajectory=cfg.output_dir / "trajectory.csv",
        energy=cfg.output_dir / "energy.csv",
        manifest=cfg.output_dir / "manifest.cfg",
    )
    write_trajectory_csv(bundle.trajectory, traj, scenario.basis, cfg.channels)
    write_energy_csv(bundle.energy, traj)
    bundle.manifest.write_text(manifest_text(cfg))
    print(f"wrote {bundle.trajectory} ({len(traj)} samples)")
    print(f"wrote {bundle.energy}")
    print(f"wrote {bundle.manifest}")
    return bundle


def _linearized(cfg: SimConfig) -> tuple[ModelParams, CableGeometry]:
    """Drop the nonlinear terms: S = P = 0 and a slack (b = c = 0) cable."""
    scenario = cfg.scenario
    params = replace(scenario.params, S=0.0, P=0.0)
    grid = make_grid(scenario.basis)
    geometry = make_geometry(
        scenario.geometry.a, scenario.geometry.s0, 0.0, 0.0,
        scenario.basis, grid, allow_flat=True,
    )
    return params, geometry


def run_linear(
    config_path: str | Path, linearize: bool = False, csv_path: str | Path | None = None
) -> None:
    """Report the linear spectrum and, where defined, the closed-form solution."""
    cfg = load_config(config_path)
    scenario = cfg.scenario
    params, geometry = scenario.params, scenario.geometry
    nonlinear = (
        geometry.b > 0.0 or geometry.c > 0.0 or params.S > 0.0 or params.P > 0.0
    )
    if nonlinear:
        if not linearize:
            raise ConfigError(
                "model",
                "nonlinear configuration (cable b/c, S, or P nonzero); "
                "pass --linearize to analyze the linearization",
            )
        params, geometry = _linearized(cfg)

    basis = scenario.basis
    n_modes = basis.max_modes
    report = spectrum_report(params, n_modes)
    print(f"modes: n_w = {basis.n_w}, n_t = {basis.n_t}")
    print(f"stability class: {report.classification}")
    print(f"spectral abscissa: {_fmt(report.max_real_part)}")
    print(f"decay rate (j = 1): {_fmt(decay_rate(params))}")
    print("characteristic roots (vertical pair, torsional pair):")
    for j in range(1, n_modes + 1):
        root_strs = [f"{r.real:+.9e}{r.imag:+.9e}j" for r in characteristic_roots(j, params)]
        print(f"  j={j}: " + "  ".join(root_strs))

    try:
        solution = closed_form(scenario.initial, params)
    except (OverdampedBranch, ResonantCase) as exc:
        if csv_path is not None:
            raise
        print(f"closed form unavailable: {exc}")
        return
    print("closed-form coefficients per mode:")
    print("  j  omega          gamma          A              B              c1             c2")
    for i in range(solution.n_w):
        print(
            f"  {i + 1}  "
            + "  ".join(
                f"{v:+.6e}"
                for v in (
                    solution.omega_j[i], solution.gamma_j[i], solution.A_j[i],
                    solution.B_j[i], solution.c1_j[i], solution.c2_j[i],
                )
            )
        )
    if csv_path is not None:
        it = scenario.integrator
        cadence = it.sample_every if it.sample_every is not None else it.dt
        n_samples = max(2, int(round(it.t_end / cadence)) + 1)
        times = np.linspace(0.0, it.t_end, n_samples)
        data = solution.sample(times)
        traj = Trajectory(
            times=times, data=data, n_w=solution.n_w, n_t=solution.n_t, diagnostics={}
        )
        csv_path = Path(csv_path)
        csv_path.parent.mkdir(parents=True, exist_ok=True)
        write_trajectory_csv(csv_path, traj, basis, cfg.channels)
        print(f"wrote {csv_path} ({n_samples} samples)")


def run_verify(seed: int = 0, samples: int = 1000) -> int:
    """Inequality suite plus conservation and closed-form oracles; 0 or 4."""
    failures: list[str] = []
    print(f"seed: {seed}")
    print(f"samples: {samples}")
    if samples == 0:
        print("violations: 0")
        print("verdict: pass")
        return 0

    basis = Basis(L=math.pi, n_w=10, n_t=4)
    grid = make_grid(basis)
    geometry = make_geometry(a=0.2, s0=1.0, b=1.0, c=1.0, basis=basis, grid=grid)
    report = lemma_suite(samples, radius=5.0, geometry=geometry, basis=basis, grid=grid, seed=seed)
    print(format_report(report))
    if report["violations"]:
        worst_key = min(
            (k for k in report if k.endswith(".worst_slack")), key=lambda k: report[k]
        )
        failures.append(f"{report['violations']} inequality violation(s); worst {worst_key} = {report[worst_key]}")

    # conservation oracle: undamped unforced nonlinear run must hold Efull flat
    params = ModelParams(eps=0.5, kappa=0.3, S=1.0, P=0.5)
    basis_c = Basis(L=math.pi, n_w=3, n_t=2)
    grid_c = make_grid(basis_c)
    geometry_c = make_geometry(a=0.2, s0=1.0, b=1.0, c=1.0, basis=basis_c, grid=grid_c)
    y0 = ModalState(
        w=[0.1, -0.05, 0.02], wdot=[0.0, 0.03, 0.0], th=[0.05, -0.02], thdot=[0.01, 0.0]
    )
    cfg = IntegratorConfig(method="rk4", dt=1e-3, t_end=10.0, sample_every=0.05)
    traj = integrate(y0, params, geometry_c, basis_c, cfg, grid=grid_c)
    attach_energies(traj, params, geometry_c, basis_c, grid_c)
    efull = traj.diagnostics["Efull"]
    drift = float(np.max(np.abs(efull - efull[0])) / max(abs(efull[0]), 1.0))
    print(f"conservation.drift: {drift:.6e}")
    if drift > 1e-6:
        failures.append(f"energy drift {drift:.3e} exceeds 1e-6")

    # closed-form oracle: damped linear integration must match the formulas
    params_l = ModelParams(
        eps=0.3, kappa=0.2, ell=1.2, delta=0.1, zeta=0.05,
        beta=0.02, Upsilon=0.6, Ustream=5.0, g=0.3,
    )
    basis_l = Basis(L=math.pi, n_w=3, n_t=2)
    grid_l = make_grid(basis_l)
    geometry_l = make_geometry(0.0, 1.0, 0.0, 0.0, basis_l, grid_l, allow_flat=True)
    y0_l = ModalState(
        w=[0.2, -0.1, 0.05], wdot=[0.0, 0.05, -0.02], th=[0.1, -0.04], thdot=[0.02, 0.01]
    )
    solution = closed_form(y0_l, params_l)
    cfg_l = IntegratorConfig(method="rk4", dt=1e-3, t_end=5.0, sample_every=0.05)
    traj_l = integrate(y0_l, params_l, geometry_l, basis_l, cfg_l, grid=grid_l)
    exact = solution.sample(traj_l.times)
    scale = float(np.max(np.abs(exact)))
    err = float(np.max(np.abs(traj_l.data - exact)) / scale)
    print(f"oracle.max_rel_err: {err:.6e}")
    if err > 1e-5:
        failures.append(f"closed-form mismatch {err:.3e} exceeds 1e-5")

    if failures:
        for failure in failures:
            print(f"worst: {failure}")
        print("verdict: fail")
        return 4
    print("verdict: pass")
    return 0


def run_sweep(config_path: str | Path) -> Path:
    """Classify the (beta, U) grid of a config and write the summary CSV."""
    cfg = load_config(config_path)
    if not cfg.sweep_betas:
        raise ConfigError("sweep.beta", "missing required key")
    if not cfg.sweep_speeds:
        raise ConfigError("sweep.U", "missing required key")
    workers = None
    raw = os.environ.get("FISHBONE_THREADS")
    if raw is not None:
        workers = _to_int("FISHBONE_THREADS", raw)
    rows = wind_sweep(
        cfg.sweep_betas,
        cfg.sweep_speeds,
        cfg.scenario,
        mode=cfg.sweep_mode,
        decay_below=cfg.decay_below,
        growth_above=cfg.growth_above,
        workers=workers,
    )
    cfg.output_dir.mkdir(parents=True, exist_ok=True)
    path = cfg.output_dir / "sweep.csv"
    with _open_csv(path) as f:
        writer = csv.writer(f, lineterminator="\n")
        writer.writerow(["beta", "U", "ratio", "classification", "note"])
        for row in rows:
            writer.writerow(
                [_fmt(row.beta), _fmt(row.U), _fmt(row.ratio), row.classification, row.note]
            )
    (cfg.output_dir / "manifest.cfg").write_text(manifest_text(cfg))
    for row in rows:
        print(
            f"beta={row.beta:g} U={row.U:g} ratio={row.ratio:.4g} -> {row.classification}"
            + (f" ({row.note})" if row.note else "")
        )
    print(f"wrote {path} ({len(rows)} rows)")
    if all(row.classification == "failed" for row in rows):
        raise IntegrationError("every sweep cell failed", time=math.nan)
    return path


# ---------------------------------------------------------------- presets


def preset_text(name: str) -> str:
    """Config text for a named preset scenario (Tacoma Narrows values).

    This is the only definition of the presets: ``experiments.tnb_preset``
    and ``experiments.figure_scenarios`` resolve these texts. Each preset
    switches effects on over the conservative ``tnb`` base; delta, zeta and
    beta are per-unit-mass rates scaled by M (experiments module docstring).
    """
    if name not in PRESETS:
        raise ConfigError(name, f"unknown preset; choose from {list(PRESETS)}")
    t = TNB_TABLE
    damping = DAMPING_RATE * t["M"]
    wind = {"beta": WIND_COUPLING_RATE * t["M"], "Ustream": WIND_SPEED, "Upsilon": t["ell"]}
    switches = {
        "tnb": {"S": "derive"},
        "free": {"Upsilon": t["ell"]},
        "wind": wind,
        "wind_stretch": {**wind, "S": "derive"},
        "damped": {**wind, "S": "derive", "delta": damping, "zeta": damping},
    }[name]
    model = {
        "D": "derive", "eps": "derive", "kappa": "derive", "ell": t["ell"],
        "delta": 0.0, "zeta": 0.0, "beta": 0.0, "Upsilon": 0.0, "Ustream": 0.0,
        "P": 0.0, "S": 0.0, "g": GRAVITY, **switches,
    }

    def field(value) -> str:
        return value if value == "derive" else _fmt(value)

    lines = [
        f"# {name}: Tacoma Narrows deck, SI units; 'derive' keys resolve at load",
        f"meta.name = {name}",
        "meta.seed = 0",
        f"model.M = {_fmt(t['M'])}",
    ]
    # the sag f only cross-checks a and H; no derive rule reads it
    lines += [f"model.{key} = {_fmt(t[key])}" for key in _TABLE_FIELDS if key != "f"]
    lines += [f"model.{key} = {field(model[key])}" for key in _MODEL_FIELDS if key in model]
    lines += [
        "cable.a = derive",
        f"cable.s0 = {_fmt(TNB_S0)}",
        "cable.b = derive",
        "cable.c = derive",
        f"cable.L0 = {_fmt(t['L0'])}",
        f"basis.L = {_fmt(t['L'])}",
        f"basis.n_w = {TNB_N_W}",
        f"basis.n_t = {TNB_N_T}",
        "integrator.method = rk4",
        "integrator.dt = derive",
        "integrator.t_end = 120",
    ]
    # Sample every 10 steps: the step is derived, so resolve the text so far.
    dt = resolve_config(parse_config_text("\n".join(lines))).scenario.integrator.dt
    lines += [
        f"integrator.sample_every = {_fmt(10.0 * dt)}",
        "initial.all = 0.003",
        "initial.w.9 = 3",
        f"output.directory = out/{name}",
        "output.channels = w,wdot,th,thdot",
    ]
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------- entry point


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fishbone",
        description="Spectral simulator for the coupled deck/torsion bridge model.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="integrate a scenario and write CSV output")
    p_sim.add_argument("config", help="path to a section.key = value config file")

    p_lin = sub.add_parser("linear", help="spectrum, decay rate, and closed-form report")
    p_lin.add_argument("config")
    p_lin.add_argument(
        "--linearize", action="store_true",
        help="drop cable/stretching/prestress terms from a nonlinear config",
    )
    p_lin.add_argument("--csv", default=None, help="also write the sampled closed form here")

    p_ver = sub.add_parser("verify", help="randomized inequality and oracle suite")
    p_ver.add_argument("--seed", type=int, default=0)
    p_ver.add_argument("--samples", type=int, default=1000)

    p_swp = sub.add_parser("sweep", help="classify a (beta, U) grid")
    p_swp.add_argument("config")

    p_pre = sub.add_parser("preset", help="print a named preset config")
    p_pre.add_argument("name", choices=PRESETS)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "simulate":
            run_simulate(args.config)
        elif args.command == "linear":
            run_linear(args.config, linearize=args.linearize, csv_path=args.csv)
        elif args.command == "verify":
            return run_verify(seed=args.seed, samples=args.samples)
        elif args.command == "sweep":
            run_sweep(args.config)
        elif args.command == "preset":
            sys.stdout.write(preset_text(args.name))
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (OverdampedBranch, ResonantCase) as exc:
        print(f"linear analysis failed: {exc}", file=sys.stderr)
        return 3
    except IntegrationError as exc:
        print(f"integration failed at t = {exc.time:.6g}: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
