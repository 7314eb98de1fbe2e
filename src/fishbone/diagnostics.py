"""Energy channels, identity residual, Lyapunov function, lemma checks.

Energy channels carry the dimensional M and D factors (kinetic_w = M||w_t||^2/2,
bending = D||w||_2^2/2, ...), so the energy identity

    d/dt Efull = -mu ||w_t||^2 - zeta ||th_t||^2 - beta Upsilon (th_t, w_t) - eta (th, w_t)

closes at any scale; at M = D = 1 the channels are the familiar nondimensional
ones. Sobolev norms are modal sums (||w||_1^2 = sum (j pi/L)^2 w_j^2, etc.);
inner products across the two channels run over the common mode prefix
min(n_w, n_t), consistent with the zero-padding in the dynamics module. The
deck weights are read from ``dynamics.mode_coefficients``, the table the
right-hand side reads, so the energy and the RHS share one set of coefficients.

The channels are written once, in ``_energy_rows`` over packed rows (the
``Trajectory.data`` layout of ``dynamics.channel_slices``), which every energy
function shares. ``energies`` and ``lyapunov_value`` take (k, n) rows, one value
per row, or a ``ModalState``, packed into one row and answered with floats.
``attach_energies`` writes a trajectory's E, Eplus and Efull series and the
identity's residual series, all from one pass over its rows.
Cable calls there and in ``lemma_suite`` take ROW_BLOCK rows: 60 KB temporaries
at 240 nodes, where a 1,099-sample trajectory makes 2.1 MB. A row's values do not
depend on the block.
``lemma_suite`` draws its samples DRAW_BLOCK pairs at a time, so it holds one draw,
not all of them (20,000 pairs: a 0.54 MB traced peak, not 5.4 MB).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import cable as _cable
from .cable import CableGeometry
from .dynamics import ModalState, ModelParams, channel_slices, check_span, mode_coefficients
from .integrate import Trajectory
from .spectral import Basis, QuadratureGrid

__all__ = [
    "EnergyBreakdown",
    "LyapunovParams",
    "energies",
    "attach_energies",
    "lyapunov_value",
    "sandwich_constants",
    "absorbing_params",
    "lemma_suite",
    "format_report",
    "difference_energy",
    "random_states",
]

SLACK_RTOL = 1e-9  # floating-point forgiveness when testing inequalities
ROW_BLOCK = 32  # rows per cable call
DRAW_BLOCK = 8 * ROW_BLOCK  # pairs per draw in lemma_suite: 20 KB of normals a set at 10 modes


@dataclass(frozen=True)
class EnergyBreakdown:
    """Energy channels of one state (floats) or of stacked rows (one value per row)."""

    kinetic_w: float
    bending: float
    kinetic_th: float
    warping: float
    torsion: float
    stretch: float
    prestress: float
    load: float
    cable: float

    @property
    def E(self) -> float:
        return self.kinetic_w + self.bending + self.kinetic_th + self.warping + self.torsion

    @property
    def Eplus(self) -> float:
        return self.E + self.stretch + self.cable

    @property
    def Efull(self) -> float:
        return self.Eplus + self.prestress + self.load


def _blocks(count: int, size: int = ROW_BLOCK):
    return (slice(start, min(start + size, count)) for start in range(0, count, size))


@functools.lru_cache(maxsize=32)
def _deck_weights(params: ModelParams, n_w: int, n_t: int):
    """Deck channel weights on packed rows: ``quadratic`` on row * row gives kinetic_w,
    bending, kinetic_th, warping, torsion, ||w||_1^2 and prestress; ``load`` on the row
    gives the load."""
    w, wdot, th, thdot = channel_slices(n_w, n_t)
    co = mode_coefficients(params, n_w, n_t)
    quadratic, load = np.zeros((7, thdot.stop)), np.zeros(thdot.stop)
    quadratic[0, wdot] = 0.5 * params.M
    quadratic[1, w] = 0.5 * co.bending
    quadratic[2, thdot] = 0.5 / co.inv_it
    quadratic[3, th] = 0.5 * co.warping
    quadratic[4, th] = 0.5 * co.torsion
    quadratic[5, w] = co.k2
    quadratic[6, w] = -0.5 * co.prestress
    load[w] = -co.load
    quadratic.flags.writeable = load.flags.writeable = False  # shared by every caller
    return quadratic, load


def _energy_rows(rows, n_w, n_t, params, geometry=None, grid=None) -> EnergyBreakdown:
    """Energy channels of packed rows, one value per row in each field.

    The cable channel sums Pi over both hanger lines w +- l th (th zero-padded);
    it is zero without a geometry or with b = c = 0.
    """
    quadratic, load = _deck_weights(params, n_w, n_t)
    channels = np.zeros((len(rows), 9))
    channels[:, :7] = np.matvec(quadratic, rows * rows)
    channels[:, 5] = 0.25 * params.S * channels[:, 5] ** 2  # ||w||_1^2 -> stretch
    channels[:, 7] = np.vecdot(rows, load)
    if geometry is not None and (geometry.b != 0.0 or geometry.c != 0.0):
        slices = channel_slices(n_w, n_t)
        lines = np.zeros((2 * len(rows), max(n_w, n_t)))
        lines[:, :n_w] = rows[:, slices.w].repeat(2, axis=0)
        ell_th = params.ell * rows[:, slices.th]
        lines[0::2, :n_t] += ell_th
        lines[1::2, :n_t] -= ell_th
        pi = np.empty(len(lines))
        for block in _blocks(len(lines)):
            pi[block] = _cable.pi_energy(lines[block], geometry, grid)
        channels[:, 8] = pi[0::2] + pi[1::2]
    return EnergyBreakdown(*channels.T)


def _as_rows(state, basis: Basis) -> np.ndarray:
    """A ModalState as one packed row; (k, n) packed rows as they are."""
    if isinstance(state, ModalState) and (state.n_w, state.n_t) != (basis.n_w, basis.n_t):
        raise ValueError(f"state with ({state.n_w}, {state.n_t}) modes does not fit the basis")
    return state.pack()[None] if isinstance(state, ModalState) else state


def energies(
    state: ModalState | np.ndarray,
    params: ModelParams,
    geometry: CableGeometry,
    basis: Basis,
    grid: QuadratureGrid,
) -> EnergyBreakdown:
    """All energy channels of (k, n) packed rows, one value per row, or of a ModalState, as floats.

    The grid and the geometry must fit the basis's span (``dynamics.check_span``).
    """
    check_span(params, basis, grid, geometry)
    rows = _as_rows(state, basis)
    channels = _energy_rows(rows, basis.n_w, basis.n_t, params, geometry, grid)
    if isinstance(state, ModalState):
        return EnergyBreakdown(*(float(value[0]) for value in vars(channels).values()))
    return channels


def attach_energies(
    traj: Trajectory,
    params: ModelParams,
    geometry: CableGeometry,
    basis: Basis,
    grid: QuadratureGrid,
) -> Trajectory:
    """Fill traj.diagnostics with E/Eplus/Efull series and the identity residual.

    The residual is that of the energy identity,
    R(t) = Efull(t) - Efull(0) + mu int ||w_t||^2 + zeta int ||th_t||^2
           + beta Upsilon int (th_t, w_t) + eta int (th, w_t),
    time integrals by composite trapezoid on the samples (one interval for two
    samples), as the series R(t) / max(|Efull(0)|, 1); on a model with no
    damping or wind nothing drains, and max |R| is Efull's relative drift.
    Every series is computed from the arguments, so a second call with another
    model replaces the first call's.
    """
    check_span(params, basis, grid, geometry)
    rows = _energy_rows(traj.data, traj.n_w, traj.n_t, params, geometry, grid)
    traj.diagnostics.update(E=rows.E, Eplus=rows.Eplus, Efull=rows.Efull)
    efull, nc = rows.Efull, min(traj.n_w, traj.n_t)
    wdot, thdot, th = traj.wdot, traj.thdot, traj.th
    power = (  # the rate at which damping and wind drain Efull
        params.mu * np.vecdot(wdot, wdot)
        + params.zeta * np.vecdot(thdot, thdot)
        + params.beta * params.Upsilon * np.vecdot(thdot[:, :nc], wdot[:, :nc])
        + params.eta * np.vecdot(th[:, :nc], wdot[:, :nc])
    )
    trapezoids = 0.5 * np.diff(traj.times) * (power[1:] + power[:-1])
    drained = np.concatenate([[0.0], np.cumsum(trapezoids)])
    traj.diagnostics["residual"] = (efull - efull[0] + drained) / max(abs(float(efull[0])), 1.0)
    return traj


def lyapunov_value(
    state: ModalState | np.ndarray,
    params: ModelParams,
    geometry: CableGeometry,
    basis: Basis,
    grid: QuadratureGrid,
    nu: float,
) -> float | np.ndarray:
    """V = Efull + nu (w_t, w) + (nu mu/2)||w||^2 + nu (th_t, th) + (nu zeta/2)||th||^2
    + beta Upsilon (th_t, w) + eta (th, w): one value per packed row, a float for a ModalState.
    A model off the normalization M = D = 1, L = pi raises a ValueError."""
    _require_normalization(params, "lyapunov_value")
    if not nu > 0.0:
        raise ValueError(f"nu must be positive, got {nu}")
    rows = _as_rows(state, basis)
    w, wdot, th, thdot = (rows[:, where] for where in channel_slices(basis.n_w, basis.n_t))
    nc = min(basis.n_w, basis.n_t)
    value = (
        energies(rows, params, geometry, basis, grid).Efull
        + nu * np.vecdot(wdot, w)
        + 0.5 * nu * params.mu * np.vecdot(w, w)
        + nu * np.vecdot(thdot, th)
        + 0.5 * nu * params.zeta * np.vecdot(th, th)
        + params.beta * params.Upsilon * np.vecdot(thdot[:, :nc], w[:, :nc])
        + params.eta * np.vecdot(th[:, :nc], w[:, :nc])
    )
    return float(value[0]) if isinstance(state, ModalState) else value


def _require_normalization(params: ModelParams, name: str) -> None:
    """Refuse a model off the nondimensional normalization M = D = 1, L = pi."""
    if (params.M, params.D, params.L) != (1.0, 1.0, math.pi):
        raise ValueError(
            f"{name} holds in the normalization M = D = 1, L = pi only, got "
            f"M={params.M:g}, D={params.D:g}, L={params.L:g}"
        )


def sandwich_constants(
    params: ModelParams, geometry: CableGeometry, nu: float
) -> tuple[float, float, float]:
    """Constants (c0, c1, c2) with c0 Eplus - c2 <= V <= c1 Eplus + c2.

    Young-inequality bookkeeping of the Lyapunov cross terms against the energy
    channels, valid in the nondimensional normalization (M = D = 1, L = pi)
    where ||.||_0 <= ||.||_1 <= ||.||_2, and a ValueError off it. Each cross term
    is charged to the channels it touches; cmax is the worst per-channel load, and
    the cable floor 2c int xi0^2 plus the prestress/load Young remainders form c2.
    """
    _require_normalization(params, "sandwich_constants")
    mu, zeta, eta = params.mu, params.zeta, abs(params.eta)
    bu = abs(params.beta * params.Upsilon)
    coef_kin_w = nu
    coef_bend = nu + nu * mu + bu + eta
    coef_kin_th = (nu + bu) * mode_coefficients(params, 1, 1).inv_it
    coef_warp = (nu + nu * zeta + eta) / params.eps
    cmax = max(coef_kin_w, coef_bend, coef_kin_th, coef_warp)
    cable_floor = 2.0 * geometry.c * geometry.int_xi0_sq
    remainder = cmax * cable_floor
    px = 0.0
    if params.P > 0.0:
        if not params.S > 0.0:
            raise ValueError(
                f"the prestress P={params.P:g} is charged to the stretching energy, "
                f"which needs S > 0, got S={params.S:g}"
            )
        px = 2.0 * nu
        remainder += params.P**2 / (4.0 * params.S * nu)
    if params.g != 0.0:
        px = 2.0 * nu
        remainder += params.g**2 * params.L / (4.0 * nu)
    return 1.0 - cmax - px, 1.0 + cmax + px, remainder


@dataclass(frozen=True)
class LyapunovParams:
    """Admissible Lyapunov parameters for the absorbing-set construction."""

    nu: float
    nubar: float
    epsbar: float  # admissibility threshold l^2 nubar^2 / (3 beta^2)
    admissible: bool
    reason: str = ""


def absorbing_params(params: ModelParams, nu: float | None = None) -> LyapunovParams:
    """nubar = min{1/2, mu/(mu+1), zeta/(zeta+2), mu, zeta/2} and the eps threshold.

    The returned nu defaults to nubar/2 so 0 < nu < nubar holds strictly;
    epsbar is the supremal threshold (evaluated at nubar), against which the
    model's warping stiffness eps is tested. A model off the normalization
    M = D = 1, L = pi raises a ValueError.
    """
    _require_normalization(params, "absorbing_params")
    mu, zeta = params.mu, params.zeta
    if mu <= 0.0 or zeta <= 0.0:
        reason = f"zero damping (mu={mu:g}, zeta={zeta:g}) admits no absorbing set"
        return LyapunovParams(nu=0.0, nubar=0.0, epsbar=0.0, admissible=False, reason=reason)
    nubar = min(0.5, mu / (mu + 1.0), zeta / (zeta + 2.0), mu, 0.5 * zeta)
    epsbar = params.ell**2 * nubar**2 / (3.0 * params.beta**2) if params.beta > 0.0 else math.inf
    if nu is None:
        nu = 0.5 * nubar
    if params.eps >= epsbar:
        reason = f"warping stiffness eps={params.eps:g} is not below the threshold {epsbar:g}"
        return LyapunovParams(nu=nu, nubar=nubar, epsbar=epsbar, admissible=False, reason=reason)
    return LyapunovParams(nu=nu, nubar=nubar, epsbar=epsbar, admissible=True)


def random_states(
    rng: np.random.Generator, basis: Basis, radius: float, count: int
) -> np.ndarray:
    """Smooth random modal vectors in the H^2-ball of the given radius.

    Coefficients decay like j^-3 (representative smooth states, not white
    noise), then each vector is rescaled to a uniformly drawn H^2 norm. The
    stream is ``count`` rows of normals, then ``count`` uniform radii.
    """
    n = basis.max_modes
    raw = rng.standard_normal((count, n)) * np.arange(1, n + 1) ** -3.0
    targets = radius * rng.uniform(0.0, 1.0, size=count)
    norms = np.sqrt(np.vecdot(raw * raw, basis.wavenumbers() ** 4))  # row bits independent of count
    return raw * (targets / np.where(norms > 0.0, norms, 1.0))[:, None]


class _Check:
    """Track violations and the worst slack of one inequality family."""

    def __init__(self) -> None:
        self.violations = 0
        self.worst_slack = math.inf

    def record(self, lhs: np.ndarray, rhs: np.ndarray) -> None:
        slack = rhs - lhs
        self.worst_slack = min(self.worst_slack, float(np.min(slack)))
        tolerance = SLACK_RTOL * np.maximum(1.0, np.maximum(np.abs(lhs), np.abs(rhs)))
        self.violations += int(np.count_nonzero(slack < -tolerance))


def lemma_suite(
    samples: int,
    radius: float,
    geometry: CableGeometry,
    basis: Basis,
    grid: QuadratureGrid,
    seed: int = 0,
) -> dict:
    """Randomized verification of the cable/interpolation inequalities.

    Checks, with the proofs' explicit constants (domain length L in place of
    pi away from the unit span):
      arc_lipschitz   |L(v) - L(z)| <= ||v_x - z_x||_L1
      pi_lipschitz    |Pi(v) - Pi(z)| <= (b sqrt(L) (L/pi) R + c max xi0) ||v_x - z_x||_L1
      h_weak          (h(v), v_x) <= -Pi(v) + C_c ||v_x||_L1 + C_c_bar
      h_l2            ||h(v)||^2 <= 2 b^2 L ||v_x||_L1^2 + 2 c^2 int xi0^2
      interpolation   ||v||_1^2 <= ||v||_0 ||v||_2
      spectral        ||v||_0 <= ||v||_1 <= ||v||_2   (only meaningful for L <= pi)
    plus the empirical constant of ||v||_1^2 <= gamma (||v||_2^2 + ||v||_1^4) + C
    at gamma = 0.1 (an existence check; the max required C is reported). A block of
    ROW_BLOCK pairs takes the slopes of v and z once for L and Pi of each, from one Xi pass
    (``cable.length_and_energy``), and h(v) from ``cable.h_of``, which takes v's slopes
    again: three Xi passes in all.
    v and z come from two ``random_states`` calls per draw of DRAW_BLOCK pairs, so no
    call holds more than one draw of samples; up to DRAW_BLOCK samples the stream is
    that of two whole-sample calls. The grid and the geometry must fit the basis's span
    (``dynamics.check_span``).
    """
    if samples < 0:
        raise ValueError(f"sample count must be nonnegative, got {samples}")
    check_span(None, basis, grid, geometry)
    rng = np.random.default_rng(seed)
    dmodes = grid.dmodes[: basis.max_modes]  # the grid may tabulate more modes than the basis
    span = basis.L
    k2 = basis.wavenumbers() ** 2
    # ||u_x||_L1 <= sqrt(L) ||u||_1 <= sqrt(L) (L/pi) ||u||_2: the lowest
    # wavenumber is pi/L, so the embedding constant grows with the span.
    c_pi = (
        geometry.b * math.sqrt(span) * (span / math.pi) * radius
        + geometry.c * geometry.max_xi0
    )
    c_c = geometry.b * (span + geometry.int_abs_sx)
    c_c_bar = geometry.c * geometry.max_xi0 * (span + geometry.int_abs_sx) + geometry.b * geometry.L0**2
    lemma_gamma = 0.1
    include_spectral = span <= np.pi + 1e-12

    names = ["arc_lipschitz", "pi_lipschitz", "h_weak", "h_l2", "interpolation"]
    names += ["spectral"] if include_spectral else []
    checks = {name: _Check() for name in names}
    max_required_c = -math.inf

    for draw in _blocks(samples, DRAW_BLOCK):
        count = draw.stop - draw.start
        vs, zs = random_states(rng, basis, radius, count), random_states(rng, basis, radius, count)
        for block in _blocks(count):
            v, z = vs[block], zs[block]
            vx, zx = np.vecmat(v, dmodes), np.vecmat(z, dmodes)
            l1_diff = np.vecdot(np.abs(vx - zx), grid.weights)
            l1_v = np.vecdot(np.abs(vx), grid.weights)
            arc_v, pi_v = _cable.length_and_energy(vx, geometry, grid)
            arc_z, pi_z = _cable.length_and_energy(zx, geometry, grid)
            checks["arc_lipschitz"].record(np.abs(arc_v - arc_z), l1_diff)
            checks["pi_lipschitz"].record(np.abs(pi_v - pi_z), c_pi * l1_diff)
            h_v = _cable.h_of(v, geometry, grid)
            checks["h_weak"].record(np.vecdot(h_v * vx, grid.weights), -pi_v + c_c * l1_v + c_c_bar)
            checks["h_l2"].record(
                np.vecdot(h_v * h_v, grid.weights),
                2.0 * geometry.b**2 * span * l1_v**2 + 2.0 * geometry.c**2 * geometry.int_xi0_sq,
            )
            v2 = v * v
            n0, n1, n2 = np.vecdot(v, v), np.vecdot(v2, k2), np.vecdot(v2, k2**2)
            checks["interpolation"].record(n1 * n1, n0 * n2)
            if include_spectral:
                checks["spectral"].record(n0, n1)
                checks["spectral"].record(n1, n2)
            max_required_c = max(max_required_c, float(np.max(n1 - lemma_gamma * (n2 + n1 * n1))))

    report: dict = {"samples": samples, "radius": radius, "seed": seed}
    for name, check in checks.items():
        report[f"{name}.violations"] = check.violations
        report[f"{name}.worst_slack"] = check.worst_slack
    report["growth_bound.gamma"] = lemma_gamma
    report["growth_bound.max_required_C"] = max_required_c
    report["violations"] = sum(c.violations for c in checks.values())
    return report


def format_report(report: dict) -> str:
    """Serialize a lemma-suite report as 'key: value' lines for CI assertion."""
    return "\n".join(f"{key}: {report[key]}" for key in report)


def difference_energy(
    traj_a: Trajectory, traj_b: Trajectory, params: ModelParams
) -> np.ndarray:
    """E_{W,Theta}(t) for the difference of two trajectories on one time grid."""
    if traj_a.n_w != traj_b.n_w or traj_a.n_t != traj_b.n_t:
        raise ValueError("trajectories retain different mode counts")
    if traj_a.times.shape != traj_b.times.shape or not np.allclose(
        traj_a.times, traj_b.times, rtol=1e-12, atol=1e-12
    ):
        raise ValueError("trajectories are sampled on different time grids")
    return _energy_rows(traj_a.data - traj_b.data, traj_a.n_w, traj_a.n_t, params).E
