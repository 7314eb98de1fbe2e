"""Tacoma Narrows preset, canonical scenarios, and the wind-speed sweep.

This module holds the published mechanical features of the Tacoma Narrows
Bridge (SI units) and the rates the scenarios use. The presets themselves are
defined once, as config text, in ``cli.preset_text``; ``tnb_preset`` and
``figure_scenarios`` resolve those texts, so the model coefficients come from
the ``derive`` table of ``cli`` (``_DERIVE``), where each formula is written:

    D = E*I,  eps = E*J,  kappa = G*K,  S = A*E/(2L),
    a = M*g/(2H),  b = Ac*Ec/L0,  c = H.

The table's sag f is read by no rule; it cross-checks a and H (a L^2/8 = f).

Four canonical 120 s scenarios excite the 9th vertical mode at 3 m (all other
channels 1e-3 of that) and differ in which effects are switched on:

    free          no damping, no wind, no stretching   (cables only)
    wind          piston forcing beta = 1e-2, U = 30 m/s
    wind_stretch  wind plus the stretching nonlinearity S = A*E/(2L)
    damped        wind_stretch plus structural damping delta = zeta = 0.01

The quoted damping and flow coefficients (delta, zeta, beta) are per-unit-mass
rates with units 1/s: they are the numbers that multiply the velocities once
the vertical equation is divided by M.  ModelParams stores the coefficients of
the unscaled equations (the ones whose inertia terms are M w_tt and
(M l^2/3) th_tt), so the presets multiply each rate by M.  With the
bare values instead, the induced rates beta/M ~ 1e-6 1/s would leave every
scenario indistinguishable from `free` over 120 s; under the rate reading the
scenarios separate (wind grows the 2nd torsional envelope relative to `free`,
damping shrinks every torsional envelope), and at M = 1 the two readings agree.
At the 10+4 truncation the windy cell's ratio is 1.732, which classifies as
"neutral", not "growth": how far the envelope grows depends on which
torsional modes are retained (see the README's truncation table).
wind_stretch's 120 s ratio (1.414 at dt, 1.286 at dt/2) is not resolved in dt;
its trajectories part at about 0.2/s (README, ROADMAP items 3 and 5).

The wind sweep classifies the late-to-early envelope ratio of the 2nd
torsional mode, the historically dangerous one:

    r = max|th_2| over [5T/6, T] / max|th_2| over [0, T/6]

with r < DECAY_BELOW -> "decay", r > GROWTH_ABOVE -> "growth", else "neutral".
Cells sample on the base cadence, so a cell's ratio is the one ``simulate``
gives; sampling every step moves a canonical ratio by 2.2e-3 at most (README).
The thresholds (0.5, 2.0) are classification conventions of this package, not
measured constants. They and SWEEP_MODE = 2 are written once, here, as the
defaults of ``envelope_ratio``, ``classify_ratio``, ``wind_sweep`` and the
``sweep.*`` config keys.
"""

from __future__ import annotations

import math
import os
import warnings
from dataclasses import dataclass, replace

import numpy as np

from .cable import CableGeometry
from .dynamics import ModalState, ModelParams, mode_coefficients
from .integrate import IntegrationError, IntegratorConfig, Trajectory, integrate
from .linear import undamped_torsional_frequency
from .spectral import Basis

__all__ = [
    "DAMPING_RATE",
    "DECAY_BELOW",
    "GRAVITY",
    "GROWTH_ABOVE",
    "SWEEP_MODE",
    "TNB_TABLE",
    "WIND_COUPLING_RATE",
    "WIND_SPEED",
    "Scenario",
    "SweepRow",
    "default_timestep",
    "tnb_preset",
    "figure_scenarios",
    "envelope_ratio",
    "classify_ratio",
    "wind_sweep",
]

GRAVITY = 9.8  # m/s^2, fixed for all dimensional runs

# Published Tacoma Narrows mechanical features (SI base units).
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

SWEEP_BETA_RANGE = (1e-5, 1e-2)
SWEEP_SPEED_LIMIT = 30.0
SWEEP_MODE, DECAY_BELOW, GROWTH_ABOVE = 2, 0.5, 2.0

# Per-unit-mass rates (1/s) used by the canonical scenarios; see the module
# docstring for the scaling convention.
DAMPING_RATE = 0.01
WIND_COUPLING_RATE = 1e-2
WIND_SPEED = 30.0


def default_timestep(params: ModelParams, basis: Basis) -> float:
    """One two-hundredth of the shortest undamped linear period retained.

    Resolves the stiffest linear mode: the larger of the highest bending
    frequency sqrt(D/M) (n_w pi/L)^2 and the highest torsional frequency.
    Prestress, which softens the vertical modes, and the cables, which stiffen
    them, are left out: at Tacoma Narrows with 10+4 modes the rule resolves
    2.87 rad/s, while the cables linearised at the sagged rest state reach
    4.98 rad/s, which the step still samples about 115 times per period.
    """
    co = mode_coefficients(params, basis.n_w, 0)
    omega_w = math.sqrt(co.bending[-1] * co.inv_m)
    omega_t = float(undamped_torsional_frequency(params, basis.n_t)[-1])
    return 2.0 * np.pi / max(omega_w, omega_t) / 200.0


@dataclass(frozen=True)
class Scenario:
    """A named, fully resolved simulation setup."""

    name: str
    params: ModelParams
    geometry: CableGeometry
    basis: Basis
    initial: ModalState
    integrator: IntegratorConfig

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("scenario name must be nonempty")
        if self.initial.n_w != self.basis.n_w or self.initial.n_t != self.basis.n_t:
            raise ValueError(
                f"initial state retains ({self.initial.n_w}, {self.initial.n_t}) modes "
                f"but the basis declares ({self.basis.n_w}, {self.basis.n_t})"
            )

    def run(self) -> Trajectory:
        return integrate(self.initial, self.params, self.geometry, self.basis, self.integrator)


def _resolve_preset(name: str) -> Scenario:
    # Imported here because cli imports this module at load time.
    from .cli import parse_config_text, preset_text, resolve_config

    return resolve_config(parse_config_text(preset_text(name))).scenario


def tnb_preset() -> tuple[ModelParams, CableGeometry, Basis]:
    """Tacoma Narrows parameters, cable geometry, and 10+4 mode basis (preset ``tnb``)."""
    scenario = _resolve_preset("tnb")
    return scenario.params, scenario.geometry, scenario.basis


def figure_scenarios() -> dict[str, Scenario]:
    """The four canonical 120 s Tacoma Narrows scenarios, keyed by name."""
    return {name: _resolve_preset(name) for name in ("free", "wind", "wind_stretch", "damped")}


def envelope_ratio(traj: Trajectory, mode: int = SWEEP_MODE) -> float:
    """Late-to-early ratio of max|th_mode| over [5T/6, T] vs [0, T/6]."""
    if not 1 <= mode <= traj.n_t:
        raise ValueError(f"torsional mode {mode} not retained (n_t = {traj.n_t})")
    series = np.abs(traj.th[:, mode - 1])
    t0, t1 = float(traj.times[0]), float(traj.times[-1])
    span = t1 - t0
    early = series[traj.times <= t0 + span / 6.0]
    late = series[traj.times >= t1 - span / 6.0]
    head, tail = float(early.max()), float(late.max())
    if head == 0.0:
        return 1.0 if tail == 0.0 else math.inf
    return tail / head


def classify_ratio(
    ratio: float, decay_below: float = DECAY_BELOW, growth_above: float = GROWTH_ABOVE
) -> str:
    if ratio < decay_below:
        return "decay"
    if ratio > growth_above:
        return "growth"
    return "neutral"


@dataclass(frozen=True)
class SweepRow:
    """One classified cell of a (beta, U) sweep."""

    beta: float
    U: float
    ratio: float
    classification: str
    note: str = ""


def _run_cell(args: tuple[Scenario, float, float, int, float, float]) -> SweepRow:
    scenario, beta, speed, mode, decay_below, growth_above = args
    try:
        ratio = envelope_ratio(scenario.run(), mode)
    except IntegrationError as exc:
        return SweepRow(
            beta=beta,
            U=speed,
            ratio=math.nan,
            classification="failed",
            note=str(exc),
        )
    return SweepRow(
        beta=beta,
        U=speed,
        ratio=ratio,
        classification=classify_ratio(ratio, decay_below, growth_above),
    )


def _dedup(values, label: str) -> list[float]:
    out = list(dict.fromkeys(float(v) for v in values))
    dropped = len(list(values)) - len(out)
    if dropped:
        warnings.warn(f"dropped {dropped} duplicate {label} grid value(s)", stacklevel=3)
    return out


def wind_sweep(
    beta_grid,
    U_grid,
    base: Scenario,
    *,
    mode: int = SWEEP_MODE,
    decay_below: float = DECAY_BELOW,
    growth_above: float = GROWTH_ABOVE,
    workers: int | None = None,
) -> list[SweepRow]:
    """Classify the torsional end behavior on a (beta, U) grid.

    Grid betas are per-unit-mass rates (1/s, the module-docstring convention)
    and are multiplied by base.params.M when each cell's coefficients are
    built; rows report the grid values. Rows come back grid-major (beta
    outer, U inner) regardless of worker count; failed cells are marked and
    do not abort the sweep. beta = 0 is a meaningful unforced baseline and
    does not warn; values off the studied ranges beta in [1e-5, 1e-2],
    |U| <= 30 do. A mode that the basis does not retain raises ValueError.
    """
    if not 1 <= mode <= base.basis.n_t:
        raise ValueError(f"torsional mode {mode} not retained (n_t = {base.basis.n_t})")
    betas = _dedup(list(beta_grid), "beta")
    speeds = _dedup(list(U_grid), "U")
    if not betas or not speeds:
        raise ValueError("sweep grids must be nonempty")
    lo, hi = SWEEP_BETA_RANGE
    for beta in betas:
        if beta != 0.0 and not lo <= beta <= hi:
            warnings.warn(f"beta = {beta:g} is outside the studied range [{lo:g}, {hi:g}]")
    for speed in speeds:
        if abs(speed) > SWEEP_SPEED_LIMIT:
            warnings.warn(
                f"|U| = {abs(speed):g} exceeds the studied limit {SWEEP_SPEED_LIMIT:g} m/s"
            )
    cells = []
    for beta in betas:
        for speed in speeds:
            params = replace(base.params, beta=beta * base.params.M, Ustream=speed)
            scenario = replace(
                base, name=f"{base.name}/beta={beta:g}/U={speed:g}", params=params
            )
            cells.append((scenario, beta, speed, mode, decay_below, growth_above))
    if workers is None:
        workers = min(len(cells), os.cpu_count() or 1)
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor  # its import costs serial runs 15-27 ms
        try:
            with ProcessPoolExecutor(max_workers=workers) as pool:
                return list(pool.map(_run_cell, cells))
        except OSError as exc:  # no subprocess support: run serial
            warnings.warn(f"parallel sweep unavailable ({exc}); running serially")
    return [_run_cell(cell) for cell in cells]
