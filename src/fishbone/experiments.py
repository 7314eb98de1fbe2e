"""Scenarios and the wind-speed sweep.

A ``Scenario`` is a fully resolved simulation setup; ``cli.load_preset``
builds the Tacoma Narrows ones from config text, and this module reads no
config.

The wind sweep classifies the late-to-early envelope ratio of the 2nd
torsional mode, the historically dangerous one:

    r = max|th_2| over [5T/6, T] / max|th_2| over [0, T/6]

with r < DECAY_BELOW -> "decay", r > GROWTH_ABOVE -> "growth", else "neutral".
Cells sample on the base cadence, so a cell's ratio is the one ``simulate``
gives; sampling every step moves a canonical ratio by 2.2e-3 at most (README).
At 10+4 modes the windy cell's contrast with ``free`` is beta's vertical damping
mu = delta + beta, not the flow: |U| <= 30 moves its ratio by about 1e-4.
The thresholds (0.5, 2.0) are classification conventions of this package, not
measured constants. They and SWEEP_MODE = 2 are written once, here, and no
keyword or config key sets them: no caller did. ``envelope_ratio`` alone
takes a mode, any retained one; its default is SWEEP_MODE.
"""

from __future__ import annotations

import math
import os
import warnings
from dataclasses import dataclass, field, replace

import numpy as np

from .cable import CableGeometry
from .dynamics import ModalState, ModelParams
from .integrate import IntegrationError, IntegratorConfig, Trajectory, integrate
from .spectral import Basis, QuadratureGrid

__all__ = [
    "DECAY_BELOW",
    "GROWTH_ABOVE",
    "SWEEP_MODE",
    "Scenario",
    "SweepRow",
    "envelope_ratio",
    "classify_ratio",
    "wind_sweep",
]

SWEEP_BETA_RANGE = (1e-5, 1e-2)
SWEEP_SPEED_LIMIT = 30.0
SWEEP_MODE, DECAY_BELOW, GROWTH_ABOVE = 2, 0.5, 2.0


@dataclass(frozen=True)
class Scenario:
    """A named, fully resolved simulation setup, with the grid its geometry was built on."""

    name: str
    params: ModelParams
    geometry: CableGeometry
    basis: Basis
    initial: ModalState
    integrator: IntegratorConfig
    grid: QuadratureGrid | None = field(default=None, repr=False, compare=False)  # None: per run

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("scenario name must be nonempty")
        if self.initial.n_w != self.basis.n_w or self.initial.n_t != self.basis.n_t:
            raise ValueError(
                f"initial state retains ({self.initial.n_w}, {self.initial.n_t}) modes "
                f"but the basis declares ({self.basis.n_w}, {self.basis.n_t})"
            )

    def run(self) -> Trajectory:
        """Integrate the scenario on its grid (``integrate`` builds one if it has none)."""
        return integrate(self.initial, self.params, self.geometry, self.basis, self.integrator, self.grid)


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


def classify_ratio(ratio: float) -> str:
    if ratio < DECAY_BELOW:
        return "decay"
    if ratio > GROWTH_ABOVE:
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


def _run_cell(args: tuple[Scenario, float, float]) -> SweepRow:
    scenario, beta, speed = args
    try:
        ratio = envelope_ratio(scenario.run())
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
        classification=classify_ratio(ratio),
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
    workers: int | None = None,
) -> list[SweepRow]:
    """Classify the torsional end behavior on a (beta, U) grid.

    Grid betas are per-unit-mass rates (1/s) and are multiplied by
    base.params.M when each cell's coefficients are built; rows report the
    grid values. Rows come back grid-major (beta outer, U inner) regardless
    of worker count; failed cells are marked and do not abort the sweep.
    beta = 0 is a meaningful unforced baseline and does not warn; values off
    the studied ranges beta in [1e-5, 1e-2], |U| <= 30 do. A basis that does
    not retain mode SWEEP_MODE raises ValueError before any cell runs.
    """
    if base.basis.n_t < SWEEP_MODE:
        raise ValueError(f"torsional mode {SWEEP_MODE} not retained (n_t = {base.basis.n_t})")
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
            cells.append((replace(base, params=params), beta, speed))
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
