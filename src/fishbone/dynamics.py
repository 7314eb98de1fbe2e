"""Model parameters, modal state, and the right-hand side of the modal ODEs.

For each vertical mode j <= n_w and torsional mode j <= n_t,

    M w_j'' = -mu w_j' - D (j pi/L)^4 w_j - [S sum_r (r pi/L)^2 w_r^2 - P] (j pi/L)^2 w_j
              - beta Upsilon th_j' - eta th_j + (f, e_j')_0 + (Mg, e_j)_0,
    (M l^2 / 3) th_j'' = -zeta th_j' - (eps (j pi/L)^4 + kappa (j pi/L)^2) th_j + (f-bar, e_j')_0,

with mu = delta + beta, eta = beta * Ustream; torsional couplings into vertical
modes j > n_t are zero. The nondimensional system is the same code path with
M = D = 1, L = pi.

The per-mode linear coefficients (inverse inertias, stiffnesses and the
gravity load) are written once, in ``mode_coefficients``; the RHS, the energy
weights of ``diagnostics``, the closed form and root table of ``linear`` and
the default step ``cli.default_timestep`` all read them from there. The packed
row layout y = [w, wdot, th, thdot] is written once too: ``CHANNELS`` names the
channels in row order and ``channel_slices`` gives their slices. On packed y,
``linear_operator`` holds every linear term in A y + c; ``make_packed_rhs``
adds the cubic stretching term and the cable projections on every call, so the
integrator sees the exact semi-discrete flow. It works on an internal row of
blocks w | th | 1 | wdot | thdot | F | stretched, named once by the helper that
also gives ``channel_slices``; y lands in its w, th, wdot and thdot blocks. The
head [w, th, 1] @ slopes gives the nodal slopes of both hanger lines and
k_j^2 w_j; after the force law (``cable.force_law``, bound once per run),
[f; f-bar / l] @ projection gives F, their projections onto the modes, and
row @ table gives f(y): the table holds A^T in the rows of the y blocks, c in
the row of the 1, and ones that pick F and the stretching into wdot and thdot.
"""

from __future__ import annotations

import functools
import itertools
from collections import namedtuple
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .cable import CableGeometry, force_law
from .spectral import Basis, QuadratureGrid, check_grid

__all__ = [
    "CHANNELS",
    "channel_slices",
    "ModelParams",
    "ModalState",
    "check_span",
    "linear_operator",
    "make_packed_rhs",
    "mode_coefficients",
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
        for name, value in vars(self).items():
            if not np.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
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


CHANNELS = ("w", "wdot", "th", "thdot")  # the packed row order
_ChannelSlices = namedtuple("ChannelSlices", CHANNELS)


def _back_to_back(*sizes: int) -> list[slice]:
    """Slices of consecutive blocks of the given sizes, the first starting at 0."""
    return [slice(stop - size, stop) for size, stop in zip(sizes, itertools.accumulate(sizes))]


@functools.lru_cache(maxsize=32)
def channel_slices(n_w: int, n_t: int) -> _ChannelSlices:
    """Each channel's slice of a packed row; the row length is ``thdot.stop``."""
    return _ChannelSlices(*_back_to_back(n_w, n_w, n_t, n_t))


@dataclass
class ModalState:
    """Modal coefficients and velocities of (w, theta)."""

    w: np.ndarray
    wdot: np.ndarray
    th: np.ndarray
    thdot: np.ndarray

    def __post_init__(self) -> None:
        for channel in CHANNELS:
            setattr(self, channel, np.asarray(getattr(self, channel), dtype=float))
        if self.w.shape != self.wdot.shape or self.th.shape != self.thdot.shape:
            raise ValueError("velocity vectors must match their coefficient vectors")
        if not all(np.isfinite(getattr(self, channel)).all() for channel in CHANNELS):
            raise ValueError("modal state entries must be finite")

    @property
    def n_w(self) -> int:
        return self.w.size

    @property
    def n_t(self) -> int:
        return self.th.size

    @classmethod
    def zero(cls, basis: Basis) -> "ModalState":
        return cls(np.zeros(basis.n_w), np.zeros(basis.n_w), np.zeros(basis.n_t), np.zeros(basis.n_t))

    def pack(self) -> np.ndarray:
        """Flatten to one packed row for the integrator."""
        return np.concatenate([getattr(self, channel) for channel in CHANNELS])

    @classmethod
    def unpack(cls, y: np.ndarray, n_w: int, n_t: int) -> "ModalState":
        return cls(*(y[where] for where in channel_slices(n_w, n_t)))


class _ModeCoefficients(NamedTuple):
    inv_m: float  # 1/M, the vertical inverse inertia
    inv_it: float  # 3/(M l^2), the torsional inverse inertia
    k2: np.ndarray  # (j pi/L)^2, j <= n_w
    bending: np.ndarray  # D (j pi/L)^4, j <= n_w
    prestress: np.ndarray  # P (j pi/L)^2, j <= n_w
    warping: np.ndarray  # eps (j pi/L)^4, j <= n_t
    torsion: np.ndarray  # kappa (j pi/L)^2, j <= n_t
    load: np.ndarray  # (Mg, e_j)_0 = M g sqrt(2L) (1 - (-1)^j) / (j pi), j <= n_w


def mode_coefficients(params: ModelParams, n_w: int, n_t: int) -> _ModeCoefficients:
    """The per-mode linear coefficients of the modal ODEs, the only place they are written.

    The vertical equation of mode j reads
    w_j'' = inv_m [-(bending - prestress) w_j + load + ...] and the torsional one
    th_j'' = inv_it [-(warping + torsion) th_j + ...].
    """
    k2 = (np.arange(1, max(n_w, n_t) + 1) * (np.pi / params.L)) ** 2
    k2w, k2t = k2[:n_w], k2[:n_t]
    j = np.arange(1, n_w + 1)
    return _ModeCoefficients(
        inv_m=1.0 / params.M,
        inv_it=3.0 / (params.M * params.ell**2),
        k2=k2w,
        bending=params.D * k2w**2,
        prestress=params.P * k2w,
        warping=params.eps * k2t**2,
        torsion=params.kappa * k2t,
        load=params.M * params.g * np.sqrt(2.0 * params.L) * (1.0 - (-1.0) ** j) / (j * np.pi),
    )


def check_span(
    params: ModelParams | None,
    basis: Basis,
    grid: QuadratureGrid | None = None,
    geometry: CableGeometry | None = None,
) -> None:
    """Refuse a model, basis, grid and cable geometry that do not fit one span.

    The wavenumbers read params.L (None: no model to check), the grid and the cables
    basis.L. The grid must fit the basis (``spectral.check_grid``), and the geometry
    must be built on a grid of the same span and nodes.
    """
    if params is not None and params.L != basis.L:
        raise ValueError(f"span mismatch: ModelParams.L = {params.L}, Basis.L = {basis.L}")
    if grid is None:
        return
    check_grid(basis, grid)
    if geometry is not None and (geometry.span, geometry.sx.size) != (grid.L, grid.n_nodes):
        raise ValueError(
            f"cable geometry built on {geometry.sx.size} nodes over a span of {geometry.span}, "
            f"the grid has {grid.n_nodes} nodes over {grid.L}"
        )


def linear_operator(params: ModelParams, basis: Basis) -> tuple[np.ndarray, np.ndarray]:
    """The linear part A y + c of the packed rhs, with 1/M and 3/(M l^2) folded in.

    A holds bending, prestress, warping and torsion stiffness, both dampings
    and the piston coupling on the common prefix j <= min(n_w, n_t); c holds
    gravity. Row and column order is [w, wdot, th, thdot].
    """
    check_span(params, basis)
    n_w, n_t = basis.n_w, basis.n_t
    slices = channel_slices(n_w, n_t)
    index = np.arange(slices.thdot.stop)
    w, wdot, th, thdot = (index[where] for where in slices)
    nc = min(n_w, n_t)
    co = mode_coefficients(params, n_w, n_t)
    A = np.zeros((len(index),) * 2)
    A[w, wdot] = A[th, thdot] = 1.0
    A[wdot, w] = -(co.bending - co.prestress) * co.inv_m
    A[wdot, wdot] = -params.mu * co.inv_m
    A[wdot[:nc], th[:nc]] = -params.eta * co.inv_m
    A[wdot[:nc], thdot[:nc]] = -params.beta * params.Upsilon * co.inv_m
    A[thdot, th] = -(co.warping + co.torsion) * co.inv_it
    A[thdot, thdot] = -params.zeta * co.inv_it
    c = np.zeros(len(A))
    c[wdot] = co.load * co.inv_m
    return A, c


def make_packed_rhs(
    params: ModelParams, geometry: CableGeometry, basis: Basis, grid: QuadratureGrid
):
    """Build f(t, y) on one packed row y, a new array per call; the hot path.

    The tables and work arrays are built here, once per run, so a call allocates
    only the derivative it returns. The table has a row per slot of the internal
    row (67 at 10+4 modes) whatever the node count. The cable term (b = c = 0) and
    stretching (S = 0) are skipped when off, and the slopes product with them: no
    0 * inf. The grid and the geometry must fit the basis's span (``check_span``).
    """
    check_span(params, basis, grid, geometry)
    n_w, n_t = basis.n_w, basis.n_t
    A, c = linear_operator(params, basis)
    n, nodes, modes = len(c), grid.n_nodes, n_w + n_t
    _, acc_w, _, acc_t = channel_slices(n_w, n_t)
    co = mode_coefficients(params, n_w, n_t)
    dw, dt = grid.dmodes[:n_w], grid.dmodes[:n_t]
    multiply = np.multiply  # bound once per run
    stretch = -params.S / params.M  # the factor of ||w_x||^2 k^2 w
    cables_on = geometry.b != 0.0 or geometry.c != 0.0
    # The internal row [w, th, 1, wdot, thdot, F, -(S/M) ||w_x||^2 k^2 w]; y lands in it by one
    # scatter, and the slopes product reads only its head [w, th, 1].
    w, th, one, wdot, thdot, F, stretched = _back_to_back(n_w, n_t, 1, n_w, n_t, 2 * modes, n_w)
    slots = np.r_[w, wdot, th, thdot]  # the slot of each entry of y, in packed order
    # head @ slopes = nodal: total slopes of the lines w + l th and w - l th, then k^2 w
    up, down, k2w = _back_to_back(nodes, nodes, n_w)
    slopes = np.zeros((one.stop, k2w.stop))
    slopes[w, up] = slopes[w, down] = dw
    slopes[th, up] = params.ell * dt
    slopes[th, down] = -slopes[th, up]  # exact: mirroring th swaps the lines bit for bit
    slopes[one, up] = slopes[one, down] = geometry.sx
    slopes[w, k2w] = np.diag(co.k2)
    # [f; f-bar / l] @ projection = F (2, n_w + n_t): the table picks (f, e_j')_0 / M from row 0
    # and (f-bar, e_j')_0 / I from row 1; one product forms both, the cross blocks unread.
    projection = (np.vstack([co.inv_m * dw, (co.inv_it * params.ell) * dt]) * grid.weights).T
    table = np.zeros((stretched.stop, n))  # rows: the internal row's slots
    table[slots], table[one] = A.T, c  # row @ table = A y + c + the picks below
    # Ones pick F[0, :n_w] and the stretching into wdot, and F[1, n_w:] into thdot.
    f_slots = np.r_[F].reshape(2, modes)
    table[np.r_[f_slots[0, :n_w], f_slots[1, n_w:], stretched], np.r_[acc_w, acc_t, acc_w]] = 1.0

    row, nodal = np.zeros(len(table)), np.empty(k2w.stop)
    row[one] = 1.0
    head, y_w = row[: one.stop], row[w]
    forces, stretch_part = row[F].reshape(2, modes), row[stretched]
    lines, k2w_w = nodal[: k2w.start].reshape(2, nodes), nodal[k2w]  # h lands over the slopes
    h = force_law(geometry, grid, (2, nodes))
    mix, mixed = np.array([[1.0, 1.0], [1.0, -1.0]]), np.empty((2, nodes))  # mixed: [f; f-bar/l]
    # Each product's left operand is fixed, so its ndarray.dot is bound here: the C routine of
    # np.dot (the BLAS call of @) without np.dot's Python-level __array_function__ dispatcher.
    slope_dot, mix_dot, mixed_dot = head.dot, mix.dot, mixed.dot
    stretch_dot, table_dot = k2w_w.dot, row.dot

    def packed_rhs(t: float, y: np.ndarray) -> np.ndarray:
        row[slots] = y
        if cables_on or stretch:
            slope_dot(slopes, nodal)
        if cables_on:
            h(lines)
            mix_dot(lines, mixed)  # h_up +- h_down, one rounding each
            mixed_dot(projection, forces)
        if stretch:
            multiply(k2w_w, stretch * stretch_dot(y_w), stretch_part)
        return table_dot(table)

    return packed_rhs
