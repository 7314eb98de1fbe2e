"""Command-line front end: config parsing, presets, runs, and CSV persistence.

Configuration is flat ``section.key = value`` text (``#`` starts a comment):

    meta.name = wind                 # run label
    model.M = 7198                   # any ModelParams field but L ...
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

The schema is two tables. ``_KEYS`` maps every key, one per setting, to its
kind and default (those of ``ModelParams`` and ``IntegratorConfig`` for
``model.*`` and ``integrator.*``; the span is ``basis.L`` alone);
``resolve_config`` parses by it and ``manifest_text`` writes in its order.
``_DERIVE`` maps each of the eight derivable keys to the keys its rule reads
and the rule, and is the one place each derive formula is written. What a rule
needs is data too: each ``_UNRECORDED`` key it reads must be set and each
``_POSITIVE`` one positive, checked before the rule runs. A setting
that changes no result has no key: the cable hanger datum is fixed, since
only the slope of the rest shape enters. Every number must be finite, swept
betas nonnegative, a swept n_t >= ``SWEEP_MODE``. The Tacoma Narrows bridge table
(``TNB_TABLE``), the presets' rates and the presets themselves live here too:
``preset_text`` is their one definition and ``load_preset`` resolves one.

Initial data: ``initial.all`` fills every channel and ``initial.<channel>.<mode>``
sets one entry over it, in any file order. Unknown keys are rejected with their
full path. Trajectory CSVs hold displayed amplitudes (the modal coefficients
times sqrt(2/L)), one column per retained mode of each of the four channels.

Exit codes: 0 ok, 2 configuration error, 3 numeric/analysis failure or out
of memory, 4 verification failure.
"""

from __future__ import annotations

import argparse
import csv
import math
import operator
import sys
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from . import __version__
from .cable import make_geometry
from .diagnostics import attach_energies, format_report, lemma_suite
from .dynamics import CHANNELS, ModalState, ModelParams, channel_slices
from .experiments import SWEEP_MODE, Scenario, wind_sweep
from .integrate import IntegrationError, IntegratorConfig, Trajectory, integrate, sample_times
from .linear import (
    OverdampedBranch,
    ResonantCase,
    closed_form,
    spectrum_report,
    undamped_frequencies,
)
from .spectral import Basis, displayed_to_modal, make_grid, modal_to_displayed

__all__ = [
    "DAMPING_RATE",
    "GRAVITY",
    "TNB_TABLE",
    "WIND_COUPLING_RATE",
    "WIND_SPEED",
    "ConfigError",
    "SimConfig",
    "default_timestep",
    "load_config",
    "load_preset",
    "manifest_text",
    "preset_text",
    "run_simulate",
    "run_linear",
    "run_verify",
    "run_sweep",
    "main",
]

PRESETS = ("tnb", "free", "wind", "wind_stretch", "damped")

GRAVITY = 9.8  # m/s^2, fixed for all dimensional runs

# Published Tacoma Narrows mechanical features (SI base units). The sag f is
# read by no derive rule; it cross-checks a and H (a L^2/8 = f).
TNB_TABLE: dict[str, float] = {
    "E": 2.1e11,  # deck Young modulus (Pa)
    "Ec": 1.85e11,  # cable Young modulus (Pa)
    "G": 8.1e10,  # shear modulus (Pa)
    "L": 853.44,  # main span (m)
    "ell": 6.0,  # deck half-width (m)
    "f": 70.71,  # cable sag (m)
    "I": 0.154,  # second moment of area (m^4)
    "K": 6.07e-6,  # torsional constant (m^4)
    "J": 5.44,  # warping constant (m^6)
    "A": 1.85,  # deck cross-section area (m^2)
    "Ac": 0.1228,  # cable cross-section area (m^2)
    "M": 7198.0,  # linear mass density (kg/m)
    "H": 4.5413e7,  # horizontal cable tension (N)
    "L0": 868.815,  # cable rest length (m)
}
TNB_N_W = 10
TNB_N_T = 4

# Per-unit-mass rates (1/s) of the canonical presets; see ``preset_text``.
DAMPING_RATE = 0.01
WIND_COUPLING_RATE = 1e-2
WIND_SPEED = 30.0

# The mechanical table: model keys that only feed derive rules.
_TABLE_FIELDS = ("E", "Ec", "G", "I", "K", "J", "A", "Ac", "H")
_TABLE_KEYS = tuple(f"model.{name}" for name in _TABLE_FIELDS)

# key -> (kind, default). A kind is str, Path, int or float, or (kind,) for a
# comma-separated list; None means unset. The order is the manifest's order.
_KEYS: dict[str, tuple] = {
    "meta.name": (str, "run"),
    "meta.version": (str, None),  # recorded on write; any value accepted on read
    **{f"model.{f.name}": (float, f.default) for f in fields(ModelParams) if f.name != "L"},
    **{key: (float, None) for key in _TABLE_KEYS},
    "cable.a": (float, 0.0),
    "cable.b": (float, 0.0),
    "cable.c": (float, 0.0),
    "cable.L0": (float, None),
    "basis.L": (float, math.pi),
    "basis.n_w": (int, 10),
    "basis.n_t": (int, 4),
    **{
        f"integrator.{f.name}": (str if f.name == "method" else float, f.default)
        for f in fields(IntegratorConfig)
    },
    "initial.all": (float, 0.0),  # initial.<channel>.<mode> are read with it
    "output.directory": (Path, Path("out")),
    "sweep.beta": ((float,), ()),
    "sweep.U": ((float,), ()),
}
# Sections resolved into one dataclass whose fields are the section's keys.
_SECTIONS = {"model": ModelParams, "basis": Basis, "integrator": IntegratorConfig}
# Keys resolved into a SimConfig field of another name.
_SIM_FIELDS = {
    "output.directory": "output_dir",
    "sweep.beta": "sweep_betas",
    "sweep.U": "sweep_speeds",
}
# Keys a manifest leaves out: the inputs of derive rules, whose results it records.
_UNRECORDED = {"cable.L0", *_TABLE_KEYS}


class ConfigError(Exception):
    """Configuration failure carrying the offending key path."""

    def __init__(self, key: str, message: str) -> None:
        self.key = key
        super().__init__(f"{key}: {message}")


# The hanger datum s0 shifts the cable rest shape rigidly; every force and
# energy term, and the rest length, read the shape only through its slope,
# so any positive value gives identical results and no config key sets it.
_HANGER_DATUM = 1.0


def default_timestep(params: ModelParams, basis: Basis) -> float:
    """One two-hundredth of the shortest undamped linear period retained.

    Resolves the stiffest linear mode: the larger of the highest bending
    frequency sqrt(D/M) (n_w pi/L)^2 and the highest torsional frequency
    (``linear.undamped_frequencies``).
    Prestress, which softens the vertical modes, and the cables, which stiffen
    them, are left out: at Tacoma Narrows with 10+4 modes the rule resolves
    2.87 rad/s, while the cables linearised at the sagged rest state reach
    4.98 rad/s, which the step still samples about 115 times per period.
    """
    omega_w, omega_t = undamped_frequencies(params, basis.n_w, basis.n_t)
    return 2.0 * np.pi / float(max(omega_w[-1], omega_t[-1])) / 200.0


# Derive inputs that must be positive: without gravity there is no sag, and
# only a positive tension or rest length gives a cable stiffness.
_POSITIVE = {"model.g", "model.H", "cable.L0"}

# key = derive: (keys the rule reads, rule), applied in this order, so
# integrator.dt reads the model derived above it. "model" and "basis" read the
# resolved section. Each rule is a bare formula; resolve_config checks its needs
# first: every _UNRECORDED key it reads is set, every _POSITIVE one positive.
_DERIVE = {
    "model.D": (("model.E", "model.I"), operator.mul),
    "model.eps": (("model.E", "model.J"), operator.mul),
    "model.kappa": (("model.G", "model.K"), operator.mul),
    "model.S": (("model.A", "model.E", "basis.L"), lambda A, E, L: A * E / (2.0 * L)),
    "cable.a": (("model.H", "model.M", "model.g"), lambda H, M, g: M * g / (2.0 * H)),
    "cable.c": (("model.H",), float),
    "cable.b": (("model.Ac", "model.Ec", "cable.L0"), lambda Ac, Ec, L0: Ac * Ec / L0),
    "integrator.dt": (("model", "basis"), default_timestep),
}


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
        key, equals, value = (part.strip() for part in line.partition("="))
        if not (equals and key and value):
            raise ConfigError(f"line {lineno}", f"expected 'key = value', got {raw_line.strip()!r}")
        if key in flat:
            raise ConfigError(key, "duplicate key")
        flat[key] = value
    return flat


def _parse(key: str, raw: str, kind):
    """The raw text of a key as its kind (see ``_KEYS``); floats must be finite."""
    if isinstance(kind, tuple):
        return tuple(_parse(key, part.strip(), kind[0]) for part in raw.split(",") if part.strip())
    if kind in (str, Path):
        return kind(raw)
    try:
        value = kind(raw)
    except ValueError:
        value = None
    if value is None or (kind is float and not math.isfinite(value)):
        expected = "an integer" if kind is int else "a finite number"
        raise ConfigError(key, f"expected {expected}, got {raw!r}")
    return value


def _build(section: str, values: dict):
    """A section's dataclass from the resolved values of its keys."""
    cls = _SECTIONS[section]
    try:
        return cls(**{f.name: values[f"{section}.{f.name}"] for f in fields(cls)})
    except ValueError as exc:
        raise ConfigError(section, str(exc)) from None


@dataclass(frozen=True)
class SimConfig:
    """A fully resolved run: scenario plus output and sweep settings."""

    scenario: Scenario
    output_dir: Path
    initial_displayed: dict[str, np.ndarray]
    sweep_betas: tuple[float, ...]
    sweep_speeds: tuple[float, ...]


def _resolve_initial(
    entries: dict[str, str], broadcast: float, basis: Basis
) -> dict[str, np.ndarray]:
    """Displayed-amplitude vectors per channel: ``initial.all``, then the per-mode entries."""
    slices = channel_slices(basis.n_w, basis.n_t)._asdict()
    displayed = {ch: np.full(where.stop - where.start, broadcast) for ch, where in slices.items()}
    seen: dict[tuple[str, int], str] = {}
    for key, raw in entries.items():
        parts = key.split(".")
        if len(parts) != 3 or parts[1] not in displayed or not parts[2].isdecimal():
            raise ConfigError(key, "unknown configuration key")
        vec, mode = displayed[parts[1]], int(parts[2])
        if not 1 <= mode <= vec.size:
            raise ConfigError(key, f"mode out of range 1..{vec.size}")
        if (parts[1], mode) in seen:
            raise ConfigError(key, f"mode {mode} is already set by {seen[parts[1], mode]}")
        seen[parts[1], mode] = key
        vec[mode - 1] = _parse(key, raw, float)
    return displayed


def resolve_config(flat: dict[str, str]) -> SimConfig:
    """Typed, derived, validated SimConfig from a flat key-value mapping."""
    values = {key: default for key, (_, default) in _KEYS.items()}
    initial: dict[str, str] = {}
    for key, raw in flat.items():
        if key not in _KEYS:
            if not key.startswith("initial."):
                raise ConfigError(key, "unknown configuration key")
            initial[key] = raw
        elif raw != "derive":
            values[key] = _parse(key, raw, _KEYS[key][0])
        elif key not in _DERIVE:
            raise ConfigError(key, "no derivation rule for this key")

    values["model.L"] = values["basis.L"]  # the span has one key, basis.L
    basis = _build("basis", values)
    grid = make_grid(basis)  # the config's one grid: geometry, runs and energies
    # A run without a sweep classifies no mode, so n_t = 1 stays valid.
    if (values["sweep.beta"] or values["sweep.U"]) and basis.n_t < SWEEP_MODE:
        raise ConfigError("basis.n_t", f"must be at least {SWEEP_MODE}, the swept torsional mode")
    if any(beta < 0.0 for beta in values["sweep.beta"]):
        raise ConfigError("sweep.beta", "rates must be nonnegative")

    for key, (reads, rule) in _DERIVE.items():
        if flat.get(key) != "derive":
            continue
        unmet = [
            name if values[name] is None else f"{name} > 0"
            for name in reads
            if name in _UNRECORDED and values[name] is None
            or name in _POSITIVE and not values[name] > 0.0
        ]
        if unmet:
            raise ConfigError(key, f"derive requires {', '.join(unmet)}")
        args = [_build(name, values) if name in _SECTIONS else values[name] for name in reads]
        values[key] = rule(*args)
        if not math.isfinite(values[key]):
            raise ConfigError(key, f"derived value {values[key]} is not finite")

    params = _build("model", values)
    a, b, c = values["cable.a"], values["cable.b"], values["cable.c"]
    if "cable.a" not in flat and (b > 0.0 or c > 0.0):
        raise ConfigError("cable.a", "required when cable stiffnesses are nonzero")
    try:
        geometry = make_geometry(a, _HANGER_DATUM, b, c, basis, grid)
    except ValueError as exc:
        raise ConfigError("cable", str(exc)) from None
    method = values["integrator.method"]
    if method not in ("rk4", "adaptive45"):
        raise ConfigError("integrator.method", f"expected rk4 or adaptive45, got {method!r}")
    integrator = _build("integrator", values)

    displayed = _resolve_initial(initial, values["initial.all"], basis)
    initial_state = ModalState(*(displayed_to_modal(displayed[ch], basis.L) for ch in CHANNELS))
    scenario = Scenario(values["meta.name"], params, geometry, basis, initial_state, integrator, grid)
    settings = {name: values[key] for key, name in _SIM_FIELDS.items()}
    return SimConfig(scenario=scenario, initial_displayed=displayed, **settings)


def load_config(path: str | Path) -> SimConfig:
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ConfigError(str(path), f"cannot read config: {exc}") from None
    return resolve_config(parse_config_text(text))


# ---------------------------------------------------------------- manifest


def _text(value) -> str:
    if isinstance(value, tuple):
        return ",".join(_text(item) for item in value)
    return _fmt(value) if isinstance(value, float) else str(value)


def manifest_text(cfg: SimConfig) -> str:
    """Canonical resolved-config echo; itself a valid config, no timestamps.

    Every key of ``_KEYS`` but the ``_UNRECORDED`` ones is written, in table
    order, as the resolved value of the field it fills; unset keys and empty
    sweep grids are left out. ``initial.all`` stands for the nonzero entries
    of the displayed initial data.
    """
    s = cfg.scenario
    owners = dict(meta=s, model=s.params, cable=s.geometry, basis=s.basis, integrator=s.integrator)
    lines = ["# resolved fishbone configuration (re-runnable; derived keys are literals)"]
    for key in _KEYS:
        section, name = key.split(".")
        if key in _UNRECORDED:
            continue
        if key == "initial.all":
            lines += [
                f"initial.{ch}.{j} = {_fmt(x)}"
                for ch in CHANNELS for j, x in enumerate(cfg.initial_displayed[ch], start=1) if x
            ]
            continue
        owner = cfg if key in _SIM_FIELDS else owners[section]
        value = __version__ if key == "meta.version" else getattr(owner, _SIM_FIELDS.get(key, name))
        if value is None or isinstance(value, tuple) and not value:
            continue  # unset, or a sweep grid not given
        lines.append(f"{key} = {_text(value)}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------- CSV writers


def _open_csv(path: Path):
    return open(path, "w", newline="")


def _write_table(path: Path, header: list[str], table: np.ndarray) -> None:
    """A header line, then one line per row of a float table, each value in ``_fmt``'s form."""
    line = ",".join(["%.17g"] * table.shape[1]) + "\n"
    with _open_csv(path) as f:
        f.write(",".join(header) + "\n")
        f.writelines(line % tuple(row) for row in table.tolist())


def write_trajectory_csv(path: Path, traj: Trajectory, basis: Basis) -> None:
    """Displayed-amplitude trajectory table: t, then one column per mode of each channel."""
    header = ["t"]
    columns = [traj.times]
    for channel in CHANNELS:
        block = getattr(traj, channel)
        header += [f"{channel}_{j}" for j in range(1, block.shape[1] + 1)]
        columns.append(modal_to_displayed(block, basis.L))
    _write_table(path, header, np.column_stack(columns))


def write_energy_csv(path: Path, traj: Trajectory) -> None:
    """Energy table t, E, Eplus, Efull, residual from attached diagnostics."""
    names = ("E", "Eplus", "Efull", "residual")
    nan = np.full(len(traj), math.nan)
    columns = [traj.times, *(traj.diagnostics.get(name, nan) for name in names)]
    _write_table(path, ["t", *names], np.column_stack(columns))


# ---------------------------------------------------------------- subcommands


def run_simulate(config_path: str | Path) -> Path:
    """Integrate one scenario and write trajectory.csv, energy.csv and manifest.cfg to the
    output directory, which it returns."""
    cfg = load_config(config_path)
    scenario = cfg.scenario
    traj = scenario.run()  # on the config's grid, as are its energies
    attach_energies(traj, scenario.params, scenario.geometry, scenario.basis, scenario.grid)
    out = cfg.output_dir
    out.mkdir(parents=True, exist_ok=True)
    write_trajectory_csv(out / "trajectory.csv", traj, scenario.basis)
    write_energy_csv(out / "energy.csv", traj)
    (out / "manifest.cfg").write_text(manifest_text(cfg))
    print(f"wrote {out / 'trajectory.csv'} ({len(traj)} samples)")
    print(f"wrote {out / 'energy.csv'}")
    print(f"wrote {out / 'manifest.cfg'}")
    return out


def run_linear(
    config_path: str | Path, linearize: bool = False, csv_path: str | Path | None = None
) -> None:
    """Report the linear spectrum and, where defined, the closed-form solution."""
    cfg = load_config(config_path)
    scenario = cfg.scenario
    params, geometry = scenario.params, scenario.geometry
    if geometry.b > 0.0 or geometry.c > 0.0 or params.S > 0.0 or params.P > 0.0:
        if not linearize:
            raise ConfigError(
                "model",
                "nonlinear configuration (cable b/c, S, or P nonzero); "
                "pass --linearize to analyze the linearization",
            )
        # The spectrum and closed form read neither the cables nor S and P, so they leave them out.

    basis = scenario.basis
    report = spectrum_report(params, basis.n_w, basis.n_t)
    print(f"modes: n_w = {basis.n_w}, n_t = {basis.n_t}")
    print(f"stability class: {report.classification}")
    print(f"spectral abscissa: {_fmt(report.max_real_part)}")
    print(f"decay rate (j = 1): {_fmt(0.0 - report.max_real_part)}")  # 0.0 - keeps -0 out
    for branch, pairs in (("vertical", report.vertical), ("torsional", report.torsional)):
        print(f"characteristic roots, {branch} pairs:")
        for j, roots in enumerate(pairs, start=1):
            print(f"  j={j}: " + "  ".join(f"{r.real:+.9e}{r.imag:+.9e}j" for r in roots))

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
        times = sample_times(scenario.integrator)  # the clock simulate samples
        traj = Trajectory(times, solution.sample(times), solution.n_w, solution.n_t)
        csv_path = Path(csv_path)
        csv_path.parent.mkdir(parents=True, exist_ok=True)
        write_trajectory_csv(csv_path, traj, basis)
        print(f"wrote {csv_path} ({len(traj)} samples)")


def run_verify(seed: int = 0, samples: int = 1000) -> int:
    """Inequality suite plus conservation and closed-form oracles; 0 or 4."""
    failures: list[str] = []
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

    # both oracles run on one 3+2 basis and its quadrature grid
    basis_o = Basis(L=math.pi, n_w=3, n_t=2)
    grid_o = make_grid(basis_o)

    # conservation oracle: undamped unforced nonlinear run must hold Efull flat
    params = ModelParams(eps=0.5, kappa=0.3, S=1.0, P=0.5)
    geometry_c = make_geometry(a=0.2, s0=1.0, b=1.0, c=1.0, basis=basis_o, grid=grid_o)
    y0 = ModalState(
        w=[0.1, -0.05, 0.02], wdot=[0.0, 0.03, 0.0], th=[0.05, -0.02], thdot=[0.01, 0.0]
    )
    cfg = IntegratorConfig(method="rk4", dt=1e-3, t_end=10.0, sample_every=0.05)
    traj = integrate(y0, params, geometry_c, basis_o, cfg, grid=grid_o)
    attach_energies(traj, params, geometry_c, basis_o, grid_o)
    drift = float(np.max(np.abs(traj.diagnostics["residual"])))  # nothing drains Efull here
    print(f"conservation.drift: {drift:.6e}")
    if drift > 1e-6:
        failures.append(f"energy drift {drift:.3e} exceeds 1e-6")

    # closed-form oracle: damped linear integration must match the formulas
    params_l = ModelParams(
        eps=0.3, kappa=0.2, ell=1.2, delta=0.1, zeta=0.05,
        beta=0.02, Upsilon=0.6, Ustream=5.0, g=0.3,
    )
    geometry_l = make_geometry(0.0, 1.0, 0.0, 0.0, basis_o, grid_o)
    y0_l = ModalState(
        w=[0.2, -0.1, 0.05], wdot=[0.0, 0.05, -0.02], th=[0.1, -0.04], thdot=[0.02, 0.01]
    )
    solution = closed_form(y0_l, params_l)
    cfg_l = IntegratorConfig(method="rk4", dt=1e-3, t_end=5.0, sample_every=0.05)
    traj_l = integrate(y0_l, params_l, geometry_l, basis_o, cfg_l, grid=grid_o)
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
    rows = wind_sweep(cfg.sweep_betas, cfg.sweep_speeds, cfg.scenario)
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
        first = rows[0]
        raise IntegrationError(
            f"every sweep cell failed; the first, beta={first.beta:g} U={first.U:g}: {first.note}",
            time=math.nan,
        )
    return path


# ---------------------------------------------------------------- presets


def preset_text(name: str) -> str:
    """Config text for a named preset scenario (Tacoma Narrows values).

    This is the only definition of the presets; ``load_preset`` resolves
    them. ``tnb`` is the conservative base, with cables and stretching and
    neither damping nor wind. The four canonical 120 s scenarios excite the
    9th vertical mode at 3 m (all other channels 1e-3 of that) and differ in
    which effects are switched on:

        free          no damping, no wind, no stretching   (cables only)
        wind          piston forcing beta = 1e-2, U = 30 m/s
        wind_stretch  wind plus the stretching nonlinearity S = A*E/(2L)
        damped        wind_stretch plus structural damping delta = zeta = 0.01

    The quoted damping and flow coefficients (delta, zeta, beta) are
    per-unit-mass rates with units 1/s: they are the numbers that multiply
    the velocities once the vertical equation is divided by M. ModelParams
    stores the coefficients of the unscaled equations (the ones whose inertia
    terms are M w_tt and (M l^2/3) th_tt), so the presets multiply each rate
    by M. With the bare values instead, the induced rates beta/M ~ 1e-6 1/s
    would leave every scenario indistinguishable from `free` over 120 s;
    under the rate reading the scenarios separate, and at M = 1 the two
    readings agree. The windy mode-2 envelope outgrows `free`'s through
    beta's vertical damping mu = delta + beta, not the flow: |U| <= 30 moves
    its ratio by about 1e-4. `damped`'s amplitudes decay at 1.0e-2/s
    vertically (5e-3/s from delta alone) and 4.17e-4/s torsionally, an
    e-folding time of 2,400 s: zeta is divided by the inertia M l^2/3. At
    the 10+4 truncation the windy cell's ratio is 1.732, which classifies as
    "neutral", not "growth": how far the envelope grows depends on which
    torsional modes are retained (see the README's truncation table).
    wind_stretch's 120 s ratio (about 1.414 at dt, its later digits set by
    the host's BLAS kernels, and 1.286 at dt/2) is not resolved in dt; its
    trajectories part at about 0.2/s (README).
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
        f"model.M = {_fmt(t['M'])}",
    ]
    lines += [f"model.{key} = {_fmt(t[key])}" for key in _TABLE_FIELDS]
    lines += [
        f"model.{f.name} = {field(model[f.name])}" for f in fields(ModelParams) if f.name in model
    ]
    lines += [
        "cable.a = derive",
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
    ]
    return "\n".join(lines) + "\n"


def load_preset(name: str) -> SimConfig:
    """The named preset resolved, as ``load_config`` resolves a config file."""
    return resolve_config(parse_config_text(preset_text(name)))


# ---------------------------------------------------------------- entry point


def _sample_count(text: str) -> int:
    """A nonnegative ``--samples``; argparse refuses anything else with exit 2."""
    count = int(text)
    if count < 0:
        raise argparse.ArgumentTypeError(f"must be nonnegative, got {count}")
    return count


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
    p_ver.add_argument("--samples", type=_sample_count, default=1000)

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
        print(f"integration failed: {exc}", file=sys.stderr)  # every message names its time
        return 3
    except MemoryError as exc:  # numpy's message names the array it could not allocate
        print(f"out of memory: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
