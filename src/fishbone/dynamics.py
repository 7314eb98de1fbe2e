"""Model parameters, modal state, and the right-hand side of the modal ODEs.

For each vertical mode j <= n_w and torsional mode j <= n_t,

    M w_j'' = -mu w_j' - D (j pi/L)^4 w_j - [S sum_r (r pi/L)^2 w_r^2 - P] (j pi/L)^2 w_j
              - beta Upsilon th_j' - eta th_j + (f, e_j')_0 + (Mg, e_j)_0,
    (M l^2 / 3) th_j'' = -zeta th_j' - (eps (j pi/L)^4 + kappa (j pi/L)^2) th_j + (f-bar, e_j')_0,

with mu = delta + beta, eta = beta * Ustream; torsional couplings into vertical
modes j > n_t are zero. The nondimensional system is the same code path with
M = D = 1, L = pi.

On packed y = [w, wdot, th, thdot], ``linear_operator`` holds every linear term
in A y + c; ``make_packed_rhs`` adds the cubic stretching term and the cable
projections from ``cable.make_pair_projection``, recomputed on every call so
the integrator sees the exact semi-discrete flow.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .cable import CableGeometry, make_pair_projection
from .spectral import Basis, QuadratureGrid

__all__ = [
    "ModelParams",
    "ModalState",
    "rhs",
    "piston_pressure",
    "linear_operator",
    "make_packed_rhs",
    "g_load_projection",
]


@dataclass(frozen=True)
class ModelParams:
    """Physical parameters; mu and eta are derived, never set independently."""

    M: float = 1.0  # mass linear density (1 when nondimensional)
    D: float = 1.0  # bending stiffness EI (1 when nondimensional)
    eps: float = 1.0  # warping stiffness EJ
    kappa: float = 0.0  # torsional stiffness GK
    ell: float = 1.0  # half-width of the deck
    delta: float = 0.0  # structural vertical damping
    zeta: float = 0.0  # torsional damping
    beta: float = 0.0  # flow coupling
    Upsilon: float = 0.0  # chord offset of the piston coupling
    Ustream: float = 0.0  # freestream speed
    P: float = 0.0  # axial prestress
    S: float = 0.0  # stretching strength
    g: float = 0.0  # vertical load per unit mass
    L: float = np.pi  # span

    def __post_init__(self) -> None:
        for name in ("M", "D", "eps", "ell", "L"):
            if not getattr(self, name) > 0.0:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)}")
        for name in ("kappa", "delta", "zeta", "beta", "P", "S"):
            if getattr(self, name) < 0.0:
                raise ValueError(f"{name} must be nonnegative, got {getattr(self, name)}")
        if abs(self.Upsilon) > self.ell:
            raise ValueError(
                f"chord offset must satisfy |Upsilon| <= ell, got "
                f"Upsilon={self.Upsilon}, ell={self.ell}"
            )

    @property
    def mu(self) -> float:
        """Total vertical damping mu = delta + beta."""
        return self.delta + self.beta

    @property
    def eta(self) -> float:
        """Wind stiffness coupling eta = beta * Ustream."""
        return self.beta * self.Ustream


@dataclass
class ModalState:
    """Modal coefficients and velocities of (w, theta) at time t."""

    w: np.ndarray
    wdot: np.ndarray
    th: np.ndarray
    thdot: np.ndarray
    t: float = 0.0

    def __post_init__(self) -> None:
        self.w = np.asarray(self.w, dtype=float)
        self.wdot = np.asarray(self.wdot, dtype=float)
        self.th = np.asarray(self.th, dtype=float)
        self.thdot = np.asarray(self.thdot, dtype=float)
        if self.w.shape != self.wdot.shape or self.th.shape != self.thdot.shape:
            raise ValueError("velocity vectors must match their coefficient vectors")
        if not all(np.all(np.isfinite(v)) for v in (self.w, self.wdot, self.th, self.thdot)):
            raise ValueError("modal state entries must be finite")

    @property
    def n_w(self) -> int:
        return self.w.size

    @property
    def n_t(self) -> int:
        return self.th.size

    @classmethod
    def zero(cls, basis: Basis, t: float = 0.0) -> "ModalState":
        return cls(np.zeros(basis.n_w), np.zeros(basis.n_w), np.zeros(basis.n_t), np.zeros(basis.n_t), t)

    def pack(self) -> np.ndarray:
        """Flatten to [w, wdot, th, thdot] for the integrator."""
        return np.concatenate([self.w, self.wdot, self.th, self.thdot])

    @classmethod
    def unpack(cls, y: np.ndarray, n_w: int, n_t: int, t: float = 0.0) -> "ModalState":
        return cls(y[:n_w], y[n_w : 2 * n_w], y[2 * n_w : 2 * n_w + n_t], y[2 * n_w + n_t :], t)


def g_load_projection(params: ModelParams, n: int) -> np.ndarray:
    """(Mg, e_j)_0 = M g sqrt(2L) (1 - (-1)^j) / (j pi) for j = 1..n."""
    j = np.arange(1, n + 1)
    return params.M * params.g * np.sqrt(2.0 * params.L) * (1.0 - (-1.0) ** j) / (j * np.pi)


def linear_operator(params: ModelParams, basis: Basis) -> tuple[np.ndarray, np.ndarray]:
    """The linear part A y + c of the packed rhs, with 1/M and 3/(M l^2) folded in.

    A holds bending, prestress, warping and torsion stiffness, both dampings
    and the piston coupling on the common prefix j <= min(n_w, n_t); c holds
    gravity. Row and column order is [w, wdot, th, thdot].
    """
    n_w, n_t = basis.n_w, basis.n_t
    w, th = np.arange(n_w), 2 * n_w + np.arange(n_t)  # + n_w / + n_t: their rates
    wc, thc = w[: min(n_w, n_t)], th[: min(n_w, n_t)]
    k2w, k2t = basis.wavenumbers(n_w) ** 2, basis.wavenumbers(n_t) ** 2
    inv_m, inv_it = 1.0 / params.M, 3.0 / (params.M * params.ell**2)
    A = np.zeros((2 * n_w + 2 * n_t,) * 2)
    A[w, w + n_w] = A[th, th + n_t] = 1.0
    A[w + n_w, w] = -(params.D * k2w**2 - params.P * k2w) * inv_m
    A[w + n_w, w + n_w] = -params.mu * inv_m
    A[wc + n_w, thc] = -params.eta * inv_m
    A[wc + n_w, thc + n_t] = -params.beta * params.Upsilon * inv_m
    A[th + n_t, th] = -(params.eps * k2t**2 + params.kappa * k2t) * inv_it
    A[th + n_t, th + n_t] = -params.zeta * inv_it
    c = np.zeros(len(A))
    c[w + n_w] = g_load_projection(params, n_w) * inv_m
    return A, c


def make_packed_rhs(
    params: ModelParams, geometry: CableGeometry, basis: Basis, grid: QuadratureGrid
):
    """Build f(t, y) on packed vectors [w, wdot, th, thdot]; the hot path.

    Each call returns a new array.
    """
    n_w, n_t = basis.n_w, basis.n_t
    A, c = linear_operator(params, basis)
    acc_w, acc_t = slice(n_w, 2 * n_w), slice(2 * n_w + n_t, None)
    displacements = np.r_[0:n_w, 2 * n_w : 2 * n_w + n_t]  # [w, th] inside y
    k2w = basis.wavenumbers(n_w) ** 2
    stretch = params.S / params.M
    cables_on = geometry.b != 0.0 or geometry.c != 0.0
    inv_it = 3.0 / (params.M * params.ell**2)
    cable = make_pair_projection(geometry, grid, params.ell, n_w, n_t, 1.0 / params.M, inv_it)

    def packed_rhs(t: float, y: np.ndarray) -> np.ndarray:
        out = A @ y
        out += c
        if stretch:
            k2w_w = k2w * y[:n_w]
            out[acc_w] -= (stretch * (k2w_w @ y[:n_w])) * k2w_w
        if cables_on:
            force_w, force_t = cable(y[displacements])
            out[acc_w] += force_w
            out[acc_t] += force_t
        return out

    return packed_rhs


def rhs(
    state: ModalState,
    params: ModelParams,
    geometry: CableGeometry,
    basis: Basis,
    grid: QuadratureGrid,
) -> ModalState:
    """Time derivative of the state: (w', w'', th', th'') as a ModalState."""
    if state.n_w != basis.n_w or state.n_t != basis.n_t:
        raise ValueError(
            f"state with ({state.n_w}, {state.n_t}) modes does not match the "
            f"({basis.n_w}, {basis.n_t})-mode basis"
        )
    dy = make_packed_rhs(params, geometry, basis, grid)(state.t, state.pack())
    return ModalState.unpack(dy, basis.n_w, basis.n_t, state.t)


def piston_pressure(
    state: ModalState,
    params: ModelParams,
    basis: Basis,
    grid: QuadratureGrid,
    x: float,
    Y: float,
) -> float:
    """First-order piston pressure -beta (w_t + Y th_t) - eta th at (x, Y).

    Provided for output and inspection; the rhs uses the modal projection of
    this surface pressure, not pointwise values.
    """
    if not 0.0 <= x <= basis.L:
        raise ValueError(f"spanwise position must lie in [0, {basis.L}], got x={x}")
    if abs(Y) > params.ell:
        raise ValueError(f"chord coordinate must satisfy |Y| <= {params.ell}, got Y={Y}")
    scale = np.sqrt(2.0 / basis.L)
    shapes_w = scale * np.sin(basis.wavenumbers(state.n_w) * x)
    shapes_t = scale * np.sin(basis.wavenumbers(state.n_t) * x)
    w_t = float(shapes_w @ state.wdot)
    th_t = float(shapes_t @ state.thdot)
    th = float(shapes_t @ state.th)
    return -params.beta * (w_t + Y * th_t) - params.eta * th
