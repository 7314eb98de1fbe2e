"""Fixed-step RK4 and adaptive embedded RK45 integration of the modal system.

Both methods sample on ``sample_times``: dt is nudged to a whole number of
steps over t_end and sample_every to a whole number of those steps, so samples
are uniform. Runs start at t = 0: the flow is autonomous. The adaptive path is
the Dormand-Prince 5(4) embedded pair with the absolute tolerance rtol / 100, a
PI step controller (safety 0.9, growth clamp [0.2, 5.0], plain halving on
rejection) and cubic Hermite dense output at those times, which do not steer
its steps; the closed-form export of the CLI samples the same clock. The
controller takes DOPRI5's exponents (Hairer, Norsett & Wanner, 1993), so its
steps settle where the error is 0.44 of the tolerance (median accepted error
0.39 on the canonical wind run at rtol 1e-8).
Each run returns counters of its work on ``Trajectory.counters``.
A blow-up raises one ``NonFiniteState``, which names the entry by
``dynamics.channel_slices``; the step loops run under an ``np.errstate`` that
keeps numpy's overflow warnings from coming first. DP45 raises ``StepBudgetExceeded``
after TRIALS_PER_RK4_STEP trial steps per step of the RK4 clock, so a step that keeps
shrinking without reaching the underflow floor ends the run. Stage inputs, updates and
error weights live in buffers built once per run, and rtol and atol are 0-d arrays bound
once, so no trial converts a Python float; y is copied only to samples.
Each method keeps y and its stages in one stack, RK4's [y, k...] and DP45's [y5, y, k...]
(one np.absolute reads |y5| and |y| for the error weights): a stage input, RK4's update
(into row 0 of a second stack; the two swap) and DP45's y5 are each one product of a
step-scaled tableau row with [y, k...]. Zero tableau entries meet only k rows that are
zeros or from a step whose y was finite, so they add nothing. Every product and
reduction is an ndarray.dot (a tableau row's bound once per run): np.dot's C routine,
with its bits, without np.dot's Python-level __array_function__ dispatcher. So a step
runs no numpy Python code, only f and C calls.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .cable import CableGeometry
from .dynamics import CHANNELS, ModalState, ModelParams, channel_slices, make_packed_rhs
from .spectral import Basis, QuadratureGrid, make_grid

__all__ = [
    "IntegratorConfig",
    "Trajectory",
    "IntegrationError",
    "StepUnderflow",
    "StepBudgetExceeded",
    "NonFiniteState",
    "sample_times",
    "integrate",
]

SAFETY = 0.9
FAC_MIN, FAC_MAX = 0.2, 5.0
# Hairer, Norsett & Wanner's DOPRI5 exponents (beta = 0.04, alpha = 1/5 - 0.75 beta). At a
# steady error the step holds when SAFETY err^(PI_BETA - PI_ALPHA) = 1, at err = 0.9^(1/0.13)
# = 0.44 of the tolerance.
PI_ALPHA, PI_BETA = 0.17, 0.04
UNDERFLOW_FRACTION = 1e-14
# DP45 trial steps allowed per step of the RK4 clock. The canonical runs take at most 1.9 at
# rtol 1e-8 and 4.2 at 1e-10; a 3 s test run from a 0.2 s first step takes 38.
TRIALS_PER_RK4_STEP = 500


class IntegrationError(RuntimeError):
    """Integration aborted; ``time`` holds the failure time."""

    def __init__(self, message: str, time: float):
        super().__init__(message)
        self.time = time


class StepUnderflow(IntegrationError):
    """Adaptive step fell below the resolvable fraction of the horizon."""


class StepBudgetExceeded(IntegrationError):
    """Adaptive stepping used up its trial budget, TRIALS_PER_RK4_STEP per RK4 step of the run."""


class NonFiniteState(IntegrationError):
    """The state left the finite range; ``time`` is the first bad time.

    The message names the first non-finite entry, e.g. ``thdot_3`` (mode j = 3).
    """


@dataclass(frozen=True)
class IntegratorConfig:
    method: str = "rk4"  # "rk4" | "adaptive45"
    dt: float = 1e-3  # rk4 step; initial step in adaptive mode
    rtol: float = 1e-8  # adaptive45 only; its absolute tolerance is rtol / 100
    t_end: float = 10.0
    sample_every: float | None = None  # output cadence, rounded to whole nudged steps; None: every step

    def __post_init__(self) -> None:
        if self.method not in ("rk4", "adaptive45"):
            raise ValueError(f"unknown method {self.method!r}; use rk4 or adaptive45")
        for name in ("dt", "rtol", "t_end", "sample_every"):
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if not self.dt > 0.0:
            raise ValueError(f"dt must be positive, got {self.dt}")
        if not self.rtol > 0.0:
            raise ValueError(f"rtol must be positive, got {self.rtol}")
        if not self.t_end > 0.0:
            raise ValueError(f"t_end must be positive, got {self.t_end}")
        if self.sample_every is not None and not self.dt <= self.sample_every <= self.t_end:
            raise ValueError(
                f"sample cadence {self.sample_every} must lie between the step {self.dt} "
                f"and t_end {self.t_end}"
            )
        if self.t_end / self.dt > np.iinfo(np.intp).max:  # the sample table's row count
            raise ValueError(
                f"t_end / dt = {self.t_end / self.dt:.3g} steps exceed numpy's index range"
            )


@dataclass
class Trajectory:
    """Sampled solution: times, packed states, and attachable diagnostics."""

    times: np.ndarray
    data: np.ndarray  # (n_samples, 2 n_w + 2 n_t), packed rows [w, wdot, th, thdot]
    n_w: int
    n_t: int
    diagnostics: dict = field(default_factory=dict)
    counters: dict = field(default_factory=dict)  # integrator work; see integrate()

    # (n_samples, n) views of the channels
    w = property(lambda self: self.data[:, channel_slices(self.n_w, self.n_t).w])
    wdot = property(lambda self: self.data[:, channel_slices(self.n_w, self.n_t).wdot])
    th = property(lambda self: self.data[:, channel_slices(self.n_w, self.n_t).th])
    thdot = property(lambda self: self.data[:, channel_slices(self.n_w, self.n_t).thdot])

    def state(self, i: int) -> ModalState:
        return ModalState.unpack(self.data[i].copy(), self.n_w, self.n_t)

    def __len__(self) -> int:
        return len(self.times)


# Dormand-Prince 5(4) tableau: row i < 7 gives stage i, row 7 y5 - y (FSAL: stage 7
# is the next step's first) and row 8 y5 - y4, each times h and from all of k. Rows 1-7
# read k0..k5 only; each of those reaches y5, so once a trial step has passed the
# finiteness check the zero entries meet finite k rows and add nothing.
_DP_C = np.array([0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0])
_DP_TABLEAU = np.zeros((9, 7))
_DP_TABLEAU[1, :1] = [1 / 5]
_DP_TABLEAU[2, :2] = [3 / 40, 9 / 40]
_DP_TABLEAU[3, :3] = [44 / 45, -56 / 15, 32 / 9]
_DP_TABLEAU[4, :4] = [19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729]
_DP_TABLEAU[5, :5] = [9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656]
_DP_TABLEAU[6:8, :6] = [35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84]
_DP_TABLEAU[8] = _DP_TABLEAU[7] - [
    5179 / 57600, 0.0, 7571 / 16695, 393 / 640, -92097 / 339200, 187 / 2100, 1 / 40
]


def _nonfinite(y: np.ndarray, t: float, basis: Basis) -> NonFiniteState:
    i = int(np.argmin(np.isfinite(y)))
    for channel, where in zip(CHANNELS, channel_slices(basis.n_w, basis.n_t)):
        if i < where.stop:
            entry = f"{channel}_{i - where.start + 1}"
            return NonFiniteState(f"state became non-finite at t={t:.9g}, first in {entry}", time=t)


def _rk4_steps(cfg: IntegratorConfig) -> tuple[int, int]:
    """RK4 step count and steps per sample, which set the sample clock of both methods."""
    # Nudge dt so the horizon is an integer number of steps and the sample
    # cadence divides it; both adjustments are < one cadence interval.
    n_steps = max(1, round(cfg.t_end / cfg.dt))
    stride = 1 if cfg.sample_every is None else max(1, round(cfg.sample_every / cfg.dt))
    return stride * math.ceil(n_steps / stride), stride


def sample_times(cfg: IntegratorConfig) -> np.ndarray:
    """The times at which ``integrate`` samples a run: every stride-th nudged RK4 step."""
    n_steps, stride = _rk4_steps(cfg)
    return np.arange(0, n_steps + 1, stride) * (cfg.t_end / n_steps)


def _rk4_run(f, y0: np.ndarray, cfg: IntegratorConfig, basis: Basis):
    n_steps, stride = _rk4_steps(cfg)
    dt = cfg.t_end / n_steps
    half, third, sixth = 0.5 * dt, dt / 3.0, dt / 6.0
    to_k2, to_k3, to_k4, to_y = np.array(  # rows over the stack [y, k1, k2, k3, k4]
        [[1, half, 0, 0, 0], [1, 0, half, 0, 0], [1, 0, 0, dt, 0], [1, sixth, third, third, sixth]]
    )

    data = np.empty((n_steps // stride + 1, y0.size))
    stack, spare = np.zeros((2, 5, y0.size))  # run-long; each update fills the other's row 0
    data[0] = stack[0] = y0
    y, y_next, t, stage = stack[0], spare[0], 0.0, np.empty(y0.size)
    # Each tableau row's ndarray.dot, bound once per run: np.dot's C routine, no dispatcher.
    k2_from, k3_from, k4_from, y_from = to_k2.dot, to_k3.dot, to_k4.dot, to_y.dot
    isfinite = math.isfinite
    for i in range(1, n_steps + 1):
        stack[1] = f(t, y)
        stack[2] = f(t + half, k2_from(stack, stage))
        stack[3] = f(t + half, k3_from(stack, stage))
        stack[4] = f(t + dt, k4_from(stack, stage))
        y_from(stack, y_next)
        stack, spare, y, y_next = spare, stack, y_next, y
        t = i * dt
        # One reduction is finite whenever y is; it can also overflow on a finite y.
        if not isfinite(y.dot(y)) and not np.isfinite(y).all():
            raise _nonfinite(y, t, basis)
        if i % stride == 0:
            data[i // stride] = y
    return sample_times(cfg), data, {"steps": n_steps, "rhs_calls": 4 * n_steps, "dt": dt}


def _hermite(theta: float, y0, f0, y1, f1, h: float):
    t2, t3 = theta * theta, theta * theta * theta
    return (
        (2 * t3 - 3 * t2 + 1) * y0
        + (t3 - 2 * t2 + theta) * h * f0
        + (-2 * t3 + 3 * t2) * y1
        + (t3 - t2) * h * f1
    )


def _adaptive_run(f, y0: np.ndarray, cfg: IntegratorConfig, basis: Basis):
    out_times = sample_times(cfg)
    clock, n_out = out_times.tolist(), len(out_times)  # the sample clock, walked as floats
    t_final = cfg.t_end
    h_min = UNDERFLOW_FRACTION * cfg.t_end
    budget, trials = TRIALS_PER_RK4_STEP * _rk4_steps(cfg)[0], 0
    t, h = 0.0, min(cfg.dt, cfg.t_end)
    data = np.empty((n_out, y0.size))
    stack = np.zeros((9, y0.size))  # [y5, y, k0, ..., k6]; stages and y5 read [y, k0, ..., k5]
    y5, y, y5_y, head, k = stack[0], stack[1], stack[:2], stack[1:8], stack[2:]
    data[0] = y[...] = y0
    k[0] = f(t, y)
    err_prev, next_out, accepted = 1.0, 1, 0
    h_lo, h_hi, h_last = math.inf, 0.0, math.nan  # bounds of the accepted steps before h_last
    # Run-long buffers: the tableau [1, h _DP_TABLEAU], a stage input, error weights, |y5| and |y|.
    tableau, (stage, scale), fractions = np.zeros((9, 8)), np.empty((2, y0.size)), _DP_C.tolist()
    magnitudes = np.empty((2, y0.size))
    abs_y5, abs_y = magnitudes
    tableau[1:8, 0] = 1.0
    scaled = tableau[:, 1:]
    # Each tableau row's ndarray.dot, bound once per run: np.dot's C routine, no dispatcher.
    # Row i < 7 gives stage i and row 7 y5, from [y, k0, ..., k5]; row 8 the error, from k.
    from_head, err_from = [row[:7].dot for row in tableau[:8]], tableau[8, 1:].dot
    add, multiply, isfinite = np.add, np.multiply, math.isfinite  # bound once per run
    absolute, maximum, divide = np.absolute, np.maximum, np.divide
    rtol, atol = np.array(cfg.rtol), np.array(cfg.rtol / 100)  # 0-d: no trial converts a float

    while t < t_final - 0.5 * h_min:
        h = min(h, t_final - t)
        if h < h_min:
            raise StepUnderflow(
                f"step size {h:.3e} underflowed below {h_min:.3e} at t={t:.9g}", time=t
            )
        if trials == budget:
            raise StepBudgetExceeded(
                f"step budget of {budget} trial steps ({TRIALS_PER_RK4_STEP} per RK4 step) "
                f"used up at t={t:.9g}", time=t
            )
        trials += 1
        multiply(h, _DP_TABLEAU, scaled)
        for i in range(1, 7):
            k[i] = f(t + fractions[i] * h, from_head[i](head, stage))
        from_head[7](head, y5)
        if not isfinite(y5.dot(y5)) and not np.isfinite(y5).all():
            raise _nonfinite(y5, t + h, basis)
        # e = (err_row @ k) / (atol + rtol * max(|y5|, |y|)); one absolute reads both rows
        absolute(y5_y, magnitudes)
        maximum(abs_y5, abs_y, out=scale)  # np.maximum takes out by keyword only
        add(atol, multiply(rtol, scale, scale), scale)
        e = divide(err_from(k, stage), scale, stage)
        err = math.sqrt(float(e.dot(e)) / e.size)

        if err <= 1.0:
            while next_out < n_out and clock[next_out] <= t + h * (1 + 1e-12):
                theta = min(1.0, max(0.0, (clock[next_out] - t) / h))
                data[next_out] = _hermite(theta, y, k[0], y5, k[6], h)
                next_out += 1
            y[...], t = y5, t + h
            k[0] = k[6]  # FSAL: stage 7 is f(t + h, y5)
            if accepted:
                h_lo, h_hi = min(h_lo, h_last), max(h_hi, h_last)
            h_last, accepted = h, accepted + 1
            fac = SAFETY * err ** (-PI_ALPHA) * err_prev**PI_BETA if err > 0 else FAC_MAX
            h *= min(FAC_MAX, max(FAC_MIN, fac))
            err_prev = max(err, 1e-10)
        else:
            h *= 0.5
    # Floating-point stragglers: any unsampled output times are at t_final.
    data[next_out:] = y
    counters = {
        "accepted": accepted, "rejected": trials - accepted, "rhs_calls": 1 + 6 * trials,
        "h_min": h_lo if accepted > 1 else h_last, "h_max": h_hi if accepted > 1 else h_last,
        "h_last": h_last,
    }
    return out_times, data, counters


def integrate(
    y0: ModalState,
    params: ModelParams,
    geometry: CableGeometry,
    basis: Basis,
    cfg: IntegratorConfig,
    grid: QuadratureGrid | None = None,
) -> Trajectory:
    """Integrate the modal system from y0 over [0, t_end]; the flow is autonomous.

    The trajectory's ``counters`` say what the run cost. RK4: ``steps``, ``rhs_calls``
    (4 per step) and the nudged ``dt``. DP45: ``accepted`` and ``rejected`` trial steps,
    ``rhs_calls`` (1 + 6 per trial), and ``h_min``, ``h_max`` over the accepted steps but
    the last, which is cut to land on t_end, and that step ``h_last``.
    """
    if y0.n_w != basis.n_w or y0.n_t != basis.n_t:
        raise ValueError(
            f"initial state with ({y0.n_w}, {y0.n_t}) modes does not match the "
            f"({basis.n_w}, {basis.n_t})-mode basis"
        )
    if grid is None:
        grid = make_grid(basis)
    f = make_packed_rhs(params, geometry, basis, grid)
    run = _rk4_run if cfg.method == "rk4" else _adaptive_run
    with np.errstate(over="ignore", invalid="ignore"):
        times, data, counters = run(f, y0.pack(), cfg, basis)
    return Trajectory(times=times, data=data, n_w=basis.n_w, n_t=basis.n_t, counters=counters)
