"""Fixed-step RK4 and adaptive embedded RK45 integration of the modal system.

The RK4 path nudges the step so an integer number of steps lands exactly on
t_end and the sample cadence divides the step count, keeping the recorded
times strictly uniform. The adaptive path is the Dormand-Prince 5(4) embedded
pair with a PI step controller (safety 0.9, growth clamp [0.2, 5.0], plain
halving on rejection) and cubic Hermite dense output at the sample times.
A blow-up raises one ``NonFiniteState``; the step loops run under an
``np.errstate`` that keeps numpy's overflow warnings from coming first.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .cable import CableGeometry
from .dynamics import ModalState, ModelParams, make_packed_rhs
from .spectral import Basis, QuadratureGrid, make_grid

__all__ = [
    "IntegratorConfig",
    "Trajectory",
    "IntegrationError",
    "StepUnderflow",
    "NonFiniteState",
    "integrate",
]

SAFETY = 0.9
FAC_MIN, FAC_MAX = 0.2, 5.0
PI_ALPHA, PI_BETA = 0.7 / 5.0, 0.4 / 5.0
UNDERFLOW_FRACTION = 1e-14


class IntegrationError(RuntimeError):
    """Integration aborted; ``time`` holds the failure time."""

    def __init__(self, message: str, time: float):
        super().__init__(message)
        self.time = time


class StepUnderflow(IntegrationError):
    """Adaptive step fell below the resolvable fraction of the horizon."""


class NonFiniteState(IntegrationError):
    """The state left the finite range; ``time`` is the first bad time.

    The message names the first non-finite entry, e.g. ``thdot_3`` (mode j = 3).
    """


@dataclass(frozen=True)
class IntegratorConfig:
    method: str = "rk4"  # "rk4" | "adaptive45"
    dt: float = 1e-3  # rk4 step; initial step in adaptive mode
    rtol: float = 1e-8
    atol: float = 1e-10
    t_end: float = 10.0
    sample_every: float | None = None  # output cadence; None means every step

    def __post_init__(self) -> None:
        if self.method not in ("rk4", "adaptive45"):
            raise ValueError(f"unknown method {self.method!r}; use rk4 or adaptive45")
        if not self.dt > 0.0:
            raise ValueError(f"dt must be positive, got {self.dt}")
        if not (self.rtol > 0.0 and self.atol > 0.0):
            raise ValueError(f"tolerances must be positive, got rtol={self.rtol}, atol={self.atol}")
        if not self.t_end > 0.0:
            raise ValueError(f"t_end must be positive, got {self.t_end}")
        if self.sample_every is not None and self.sample_every < self.dt:
            raise ValueError(
                f"sample cadence {self.sample_every} must be at least the step {self.dt}"
            )


@dataclass
class Trajectory:
    """Sampled solution: times, packed states, and attachable diagnostics."""

    times: np.ndarray
    data: np.ndarray  # (n_samples, 2 n_w + 2 n_t), rows [w, wdot, th, thdot]
    n_w: int
    n_t: int
    diagnostics: dict = field(default_factory=dict)

    @property
    def w(self) -> np.ndarray:
        return self.data[:, : self.n_w]

    @property
    def wdot(self) -> np.ndarray:
        return self.data[:, self.n_w : 2 * self.n_w]

    @property
    def th(self) -> np.ndarray:
        return self.data[:, 2 * self.n_w : 2 * self.n_w + self.n_t]

    @property
    def thdot(self) -> np.ndarray:
        return self.data[:, 2 * self.n_w + self.n_t :]

    def state(self, i: int) -> ModalState:
        return ModalState.unpack(self.data[i].copy(), self.n_w, self.n_t, float(self.times[i]))

    def __len__(self) -> int:
        return len(self.times)


# Dormand-Prince 5(4) tableau (FSAL: the 7th stage is the next step's first).
_DP_C = np.array([0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0])
_DP_A = [
    np.array([]),
    np.array([1 / 5]),
    np.array([3 / 40, 9 / 40]),
    np.array([44 / 45, -56 / 15, 32 / 9]),
    np.array([19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729]),
    np.array([9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656]),
    np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84]),
]
_DP_B5 = np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0])
_DP_B4 = np.array(
    [5179 / 57600, 0.0, 7571 / 16695, 393 / 640, -92097 / 339200, 187 / 2100, 1 / 40]
)
_DP_E = _DP_B5 - _DP_B4  # y5 - y4 = h (_DP_E @ k)


def _nonfinite(y: np.ndarray, t: float, n_w: int) -> NonFiniteState:
    i, n_t = int(np.argmin(np.isfinite(y))), (y.size - 2 * n_w) // 2
    for channel, start in (("thdot", 2 * n_w + n_t), ("th", 2 * n_w), ("wdot", n_w), ("w", 0)):
        if i >= start:
            message = f"state became non-finite at t={t:.9g}, first in {channel}_{i - start + 1}"
            return NonFiniteState(message, time=t)


def _rk4_run(f, y0: np.ndarray, t0: float, cfg: IntegratorConfig, n_w: int):
    # Nudge dt so the horizon is an integer number of steps and the sample
    # cadence divides it; both adjustments are < one cadence interval.
    n_steps = max(1, round(cfg.t_end / cfg.dt))
    stride = 1 if cfg.sample_every is None else max(1, round(cfg.sample_every / cfg.dt))
    n_steps = stride * math.ceil(n_steps / stride)
    dt = cfg.t_end / n_steps
    half, sixth = 0.5 * dt, dt / 6.0

    times = [t0]
    samples = [y0.copy()]
    y, t = y0.copy(), t0
    for i in range(1, n_steps + 1):
        k1 = f(t, y)
        k2 = f(t + half, y + half * k1)
        k3 = f(t + half, y + half * k2)
        k4 = f(t + dt, y + dt * k3)
        y = y + sixth * (k1 + k4 + 2.0 * (k2 + k3))
        t = t0 + i * dt
        if not np.isfinite(y).all():
            raise _nonfinite(y, t, n_w)
        if i % stride == 0:
            times.append(t)
            samples.append(y)
    return np.array(times), np.vstack(samples), dt


def _hermite(theta: float, y0, f0, y1, f1, h: float):
    t2, t3 = theta * theta, theta * theta * theta
    return (
        (2 * t3 - 3 * t2 + 1) * y0
        + (t3 - 2 * t2 + theta) * h * f0
        + (-2 * t3 + 3 * t2) * y1
        + (t3 - t2) * h * f1
    )


def _adaptive_run(f, y0: np.ndarray, t0: float, cfg: IntegratorConfig, n_w: int):
    cadence = cfg.sample_every if cfg.sample_every is not None else cfg.dt
    n_out = int(math.floor(cfg.t_end / cadence + 1e-9))
    out_times = t0 + cadence * np.arange(n_out + 1)
    if out_times[-1] < t0 + cfg.t_end * (1.0 - 1e-12):
        out_times = np.append(out_times, t0 + cfg.t_end)

    t_final = t0 + cfg.t_end
    h_min = UNDERFLOW_FRACTION * cfg.t_end
    y, t, h = y0.copy(), t0, min(cfg.dt, cfg.t_end)
    k = np.empty((7, y0.size))  # stage derivatives; row 0 is f(t, y)
    k[0] = f(t, y)
    err_prev = 1.0
    samples = [y0.copy()]
    next_out = 1

    while t < t_final - 0.5 * h_min:
        h = min(h, t_final - t)
        if h < h_min:
            raise StepUnderflow(
                f"step size {h:.3e} underflowed below {h_min:.3e} at t={t:.9g}", time=t
            )
        for i in range(1, 7):
            k[i] = f(t + _DP_C[i] * h, y + h * (_DP_A[i] @ k[:i]))
        y5 = y + h * (_DP_B5 @ k)
        if not np.isfinite(y5).all():
            raise _nonfinite(y5, t + h, n_w)
        e = h * (_DP_E @ k) / (cfg.atol + cfg.rtol * np.maximum(np.abs(y), np.abs(y5)))
        err = math.sqrt(float(e @ e) / e.size)

        if err <= 1.0:
            while next_out < len(out_times) and out_times[next_out] <= t + h * (1 + 1e-12):
                theta = min(1.0, max(0.0, (out_times[next_out] - t) / h))
                samples.append(_hermite(theta, y, k[0], y5, k[6], h))
                next_out += 1
            y, t = y5, t + h
            k[0] = k[6]  # FSAL: stage 7 is f(t + h, y5)
            fac = SAFETY * err ** (-PI_ALPHA) * err_prev**PI_BETA if err > 0 else FAC_MAX
            h *= min(FAC_MAX, max(FAC_MIN, fac))
            err_prev = max(err, 1e-10)
        else:
            h *= 0.5
    # Floating-point stragglers: any unsampled output times are at t_final.
    while next_out < len(out_times):
        samples.append(y.copy())
        next_out += 1
    return out_times, np.vstack(samples)


def integrate(
    y0: ModalState,
    params: ModelParams,
    geometry: CableGeometry,
    basis: Basis,
    cfg: IntegratorConfig,
    grid: QuadratureGrid | None = None,
) -> Trajectory:
    """Integrate the modal system from y0 over [y0.t, y0.t + t_end]."""
    if y0.n_w != basis.n_w or y0.n_t != basis.n_t:
        raise ValueError(
            f"initial state with ({y0.n_w}, {y0.n_t}) modes does not match the "
            f"({basis.n_w}, {basis.n_t})-mode basis"
        )
    if grid is None:
        grid = make_grid(basis)
    f = make_packed_rhs(params, geometry, basis, grid)
    with np.errstate(over="ignore", invalid="ignore"):
        if cfg.method == "rk4":
            times, data, _ = _rk4_run(f, y0.pack(), y0.t, cfg, basis.n_w)
        else:
            times, data = _adaptive_run(f, y0.pack(), y0.t, cfg, basis.n_w)
    return Trajectory(times=times, data=data, n_w=basis.n_w, n_t=basis.n_t)
