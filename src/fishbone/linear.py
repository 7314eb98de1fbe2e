"""Closed-form analysis of the decoupled linear system (b = c = S = P = 0).

Per mode j the characteristic quartic factors into a vertical and a torsional
quadratic, s^2 + damping s + stiffness_j per unit inertia (``_per_unit_inertia``,
written once). ``characteristic_roots`` solves every retained mode's pair in one
pass, the table that ``spectrum_report`` and ``closed_form`` read. Each stiffness grows
strictly with j (D > 0, eps > 0), so mode 1 holds the abscissa ``max_real_part``, the
slowest decay rate negated, and is the first mode to turn overdamped. A coupled mode
j <= min(n_w, n_t) is resonant when its vertical and torsional roots coincide, which is
the condition zeta = l^2 mu / 3 together with omega_j = 3 gamma_j / l^2. When both
dampings are positive, mode 1 of both oscillators is underdamped and no coupled mode is
resonant, the forced vertical response has the explicit representation

    w_j(t) = e^(-mu t/2) [c1_j sin(omega_j t/2) + c2_j cos(omega_j t/2)] + static_j
             + e^(-3 zeta t/(2 l^2)) [A_j sin(3 gamma_j t/(2 l^2)) + B_j cos(...)],
    th_j(t) = e^(-3 zeta t/(2 l^2)) [(1/gamma_j)((2 l^2/3) th1_j + zeta th0_j) sin(...)
             + th0_j cos(...)],

with the coefficient formulas transcribed verbatim below. Dimensional
parameters are folded in by the substitutions mu -> mu/M, zeta -> zeta/M,
eta -> eta/M, beta Upsilon -> beta Upsilon/M and j^4 pi^4/L^4 -> (D/M)(j pi/L)^4,
eps -> eps/M, kappa -> kappa/M, which reduce to the identity at M = D = 1.
The stiffnesses, inverse inertias and gravity load are read from
``dynamics.mode_coefficients``, the table the right-hand side reads.
``LinearSolution.sample`` evaluates w, th and their first time derivatives
in the row layout of a ``Trajectory``.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .dynamics import CHANNELS, ModalState, ModelParams, mode_coefficients

__all__ = [
    "OverdampedBranch",
    "ResonantCase",
    "ConditioningWarning",
    "LinearSolution",
    "SpectrumReport",
    "characteristic_roots",
    "spectrum_report",
    "closed_form",
    "undamped_frequencies",
]

RESONANCE_RTOL = 1e-10
CONDITIONING_RTOL = 1e-8


class OverdampedBranch(ValueError):
    """The underdamped-oscillator hypotheses of the closed form fail."""


class ResonantCase(ValueError):
    """A coupled mode's vertical and torsional roots coincide: zeta = l^2 mu / 3 together
    with omega_j = 3 gamma_j / l^2.

    The particular solution then grows secularly (the printed representation
    does not apply) and no coefficient formulas are available, so the case is
    surfaced instead of solved.
    """


class ConditioningWarning(UserWarning):
    """The particular-solution denominator is nearly singular."""


def _per_unit_inertia(params: ModelParams, n_w: int, n_t: int):
    """Each channel's damping and stiffness per unit inertia, the vertical over n_w modes and
    the torsional over n_t: mode j's quadratic is s^2 + damping s + stiffness_j."""
    co = mode_coefficients(params, n_w, n_t)
    return (
        (params.mu * co.inv_m, co.bending * co.inv_m),
        (params.zeta * co.inv_it, (co.warping + co.torsion) * co.inv_it),
    )


def characteristic_roots(params: ModelParams, n_w: int, n_t: int) -> tuple[np.ndarray, np.ndarray]:
    """Root pairs of the retained modes' quadratics, + root first: vertical (n_w, 2) and
    torsional (n_t, 2); row j - 1 is mode j, and mode j's quartic is their product."""
    pairs = []
    for damping, stiffness in _per_unit_inertia(params, n_w, n_t):
        root = np.sqrt((damping**2 - 4.0 * stiffness).astype(complex))
        # A real + root is -2 stiffness / (damping + root), as -damping + root cancels when
        # damping^2 >> 4 stiffness; damping + |root| > 0 because stiffness > 0.
        real_plus = -2.0 * stiffness / (damping + abs(root))
        plus = np.where(root.imag == 0.0, real_plus, (-damping + root) / 2.0)
        pairs.append(np.column_stack((plus, (-damping - root) / 2.0)))
    return tuple(pairs)


def undamped_frequencies(params: ModelParams, n_w: int, n_t: int) -> tuple[np.ndarray, np.ndarray]:
    """Undamped frequencies sqrt(stiffness_j) of the vertical (n_w) and torsional (n_t) modes:
    sqrt(D/M) (j pi/L)^2 and (sqrt(3) j pi/(l L)) sqrt(eps j^2 pi^2/L^2 + kappa) / sqrt(M)."""
    return tuple(np.sqrt(stiffness) for _, stiffness in _per_unit_inertia(params, n_w, n_t))


@dataclass(frozen=True)
class SpectrumReport:
    """Characteristic roots of the retained modes and their stability class."""

    vertical: np.ndarray  # (n_w, 2) complex, + root first
    torsional: np.ndarray  # (n_t, 2) complex
    max_real_part: float
    classification: str  # exponentially_stable | lyapunov_stable | overdamped_branch


def spectrum_report(params: ModelParams, n_w: int, n_t: int) -> SpectrumReport:
    """Damping >= 0 and stiffness > 0 (``ModelParams``) keep every root in Re <= 0, so the
    class is lyapunov_stable when the abscissa is zero relative to the modulus of the root
    that sets it, else overdamped_branch when some root is real, else exponentially_stable."""
    vertical, torsional = characteristic_roots(params, n_w, n_t)
    roots = np.concatenate((vertical, torsional)).ravel()
    lead = roots[np.argmax(roots.real)]  # the root that sets the abscissa
    max_re = float(lead.real) + 0.0  # + 0.0: an undamped model's -0.0 reads 0
    tol = 1e-12 * max(1.0, float(np.abs(roots).max()))
    has_real_branch = bool(np.any(np.abs(roots.imag) <= tol))
    if max_re >= -1e-12 * abs(lead):
        classification = "lyapunov_stable"
    elif has_real_branch:
        classification = "overdamped_branch"
    else:
        classification = "exponentially_stable"
    return SpectrumReport(vertical, torsional, max_re, classification)


@dataclass(frozen=True)
class LinearSolution:
    """Closed-form representation; arrays are indexed by mode (entry 0 is j = 1).

    gamma_j covers max(n_w, n_t) modes, the vertical arrays n_w, th_sin and th_cos n_t.
    """

    omega_j: np.ndarray
    gamma_j: np.ndarray
    A_j: np.ndarray
    B_j: np.ndarray
    c1_j: np.ndarray
    c2_j: np.ndarray
    static_j: np.ndarray
    n_w: int
    n_t: int
    mu: float  # normalized (per-mass) damping entering the exponents
    zeta: float
    ell: float
    th_sin: np.ndarray  # torsional sine/cosine amplitudes, length n_t
    th_cos: np.ndarray

    def sample(self, times: np.ndarray) -> np.ndarray:
        """Rows [w, wdot, th, thdot] at the given times, Trajectory layout."""
        t = np.atleast_1d(np.asarray(times, dtype=float))[:, None]  # one row per time
        sigma = 3.0 * self.zeta / (2.0 * self.ell**2)
        omega_t = 3.0 * self.gamma_j / (2.0 * self.ell**2)

        def osc(decay, freq, ps, pc):
            envelope = np.exp(-decay * t)
            s, c = np.sin(freq * t), np.cos(freq * t)
            val = envelope * (ps * s + pc * c)
            d1 = envelope * ((-decay * ps - freq * pc) * s + (freq * ps - decay * pc) * c)
            return val, d1

        hom, hom1 = osc(0.5 * self.mu, 0.5 * self.omega_j, self.c1_j, self.c2_j)
        par, par1 = osc(sigma, omega_t[: self.n_w], self.A_j, self.B_j)
        th, th1 = osc(sigma, omega_t[: self.n_t], self.th_sin, self.th_cos)
        rows = dict(w=hom + par + self.static_j, wdot=hom1 + par1, th=th, thdot=th1)
        return np.hstack([rows[channel] for channel in CHANNELS])


def closed_form(y0: ModalState, params: ModelParams) -> LinearSolution:
    """Exact solution of the linear system from y0. Hypotheses: mu, zeta > 0; mode 1 of
    each branch underdamped, the vertical read off the + root of ``characteristic_roots``
    (Im > 0) and the torsional off the gamma_sq the formulas use; and no coupled mode whose
    vertical and torsional roots in that table coincide."""
    n_w, n_t = y0.n_w, y0.n_t
    vertical, torsional = (pairs[:, 0] for pairs in characteristic_roots(params, n_w, n_t))
    # per unit mass below, as in the paper's formulas; gamma for every retained mode
    co = mode_coefficients(params, n_w, max(n_w, n_t))
    mu, zeta, ell = params.mu * co.inv_m, params.zeta * co.inv_m, params.ell
    ell2 = ell * ell
    k4v, k4t = co.bending * co.inv_m, (co.warping + co.torsion) * co.inv_m
    static = co.load / co.bending  # static deflection under gravity

    if not (mu > 0.0 and zeta > 0.0):
        raise OverdampedBranch(
            f"the closed form needs strictly positive damping, got mu={mu:g}, zeta={zeta:g}"
        )
    # mode 1 is the least stiff, so an underdamped mode 1 leaves every mode underdamped
    if not vertical[0].imag > 0.0:
        raise OverdampedBranch(
            f"vertical branch overdamped: mu={mu:g} >= 2 sqrt(k4) = {2*np.sqrt(k4v[0]):g}"
        )
    # gamma is per unit mass and the table per unit inertia, so test the gamma_sq used below
    gamma_sq = (4.0 * ell2 / 3.0) * k4t - zeta**2
    if not gamma_sq[0] > 0.0:
        raise OverdampedBranch(
            f"torsional branch overdamped: zeta={zeta:g} >= {2*ell*np.sqrt(k4t[0]/3):g}"
        )
    # The wind couples w_j to th_j on the common prefix j <= min(n_w, n_t) only: the
    # particular solution, its resonance and its conditioning live there, and the
    # vertical modes beyond it are unforced (A_j = B_j = 0).
    m = min(n_w, n_t)
    if np.any(np.abs(vertical[:m] - torsional[:m]) <= RESONANCE_RTOL * np.abs(vertical[:m])):
        raise ResonantCase(
            f"zeta = l^2 mu/3 = {zeta:g} and omega_j = 3 gamma_j / l^2 for a retained "
            "mode; the representation acquires secular growth and is not provided"
        )
    omega = 2.0 * vertical.imag
    gamma = np.sqrt(gamma_sq)
    th0, th1, gamma_sq, k4v_m = y0.th[:m], y0.thdot[:m], gamma_sq[:m], k4v[:m]
    bu, eta = params.beta * params.Upsilon * co.inv_m, params.eta * co.inv_m

    # Particular-solution coefficients, Eqs. (A-B), transcribed verbatim.
    p1 = 4.0 * ell2**2 * k4v_m - 9.0 * gamma_sq - 6.0 * ell2 * zeta * mu + 9.0 * zeta**2
    den = p1**2 + 36.0 * gamma_sq * (ell2 * mu - 3.0 * zeta) ** 2
    lead = (4.0 * ell2**2 * k4v_m) ** 2
    if np.any(den < CONDITIONING_RTOL * lead):
        worst = int(np.argmin(den / lead))
        warnings.warn(
            f"particular-solution denominator for mode {worst + 1} is "
            f"{den[worst] / lead[worst]:.2e} of its leading term; coefficients are "
            "ill-conditioned near resonance",
            ConditioningWarning,
            stacklevel=2,
        )
    a_num = p1 * (
        9.0 * th0 * (gamma_sq + zeta**2) * bu
        + 6.0 * ell2 * th1 * zeta * bu
        - 2.0 * ell2 * (3.0 * zeta * th0 + 2.0 * ell2 * th1) * eta
    ) + 18.0 * gamma_sq * (3.0 * zeta - ell2 * mu) * (
        (3.0 * zeta * th0 + 2.0 * ell2 * th1) * bu - 3.0 * th0 * zeta * bu + 2.0 * ell2 * th0 * eta
    )
    big_a, big_b = np.zeros(n_w), np.zeros(n_w)
    big_a[:m] = (2.0 * ell2 / (3.0 * gamma[:m] * den)) * a_num
    b_num = p1 * (
        -(2.0 * ell2 * th1 + 3.0 * zeta * th0) * bu
        + 3.0 * th0 * zeta * bu
        - 2.0 * ell2 * th0 * eta
    ) + (3.0 * zeta - ell2 * mu) * (
        18.0 * th0 * (gamma_sq + zeta**2) * bu
        + 12.0 * ell2 * th1 * zeta * bu
        - 4.0 * ell2 * (3.0 * zeta * th0 + 2.0 * ell2 * th1) * eta
    )
    big_b[:m] = (2.0 * ell2 / den) * b_num

    # Homogeneous coefficients, Eqs. (c1-c2).
    c2 = y0.w - big_b - static
    c1 = (
        2.0 * y0.wdot * ell2
        + y0.w * mu * ell2
        - 3.0 * big_a * gamma[:n_w]
        + big_b * (3.0 * zeta - mu * ell2)
        - static * mu * ell2
    ) / (omega * ell2)

    return LinearSolution(
        omega_j=omega,
        gamma_j=gamma,
        A_j=big_a,
        B_j=big_b,
        c1_j=c1,
        c2_j=c2,
        static_j=static,
        n_w=n_w,
        n_t=n_t,
        mu=mu,
        zeta=zeta,
        ell=ell,
        th_sin=((2.0 * ell2 / 3.0) * y0.thdot + zeta * y0.th) / gamma[:n_t],
        th_cos=y0.th.copy(),
    )
