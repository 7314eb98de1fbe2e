"""Orthonormal sine basis on (0, L) and composite Gauss-Legendre quadrature.

Mode j has shape e_j(x) = sqrt(2/L) sin(j pi x / L), so the modal coefficient
c_j and the displayed (plotted) amplitude c-bar_j = sqrt(2/L) c_j are distinct
quantities; ``displayed_to_modal``/``modal_to_displayed`` convert between them.
The grid caches every mode's values and first two derivatives at the nodes:
the nodal values of a modal vector c are ``c @ grid.modes[:len(c)]`` (``dmodes``
and ``d2modes`` for the derivatives), and the projections (v, e_j)_0 of nodal
values v are ``grid.modes[:n] @ (grid.weights * v)``. A grid records its span L,
which ``check_grid`` compares with the basis's.
The quadrature is composite Gauss-Legendre rather than a mode-count-matched
rule because the cable nonlinearity integrates square roots of trigonometric
polynomials; panel count scales with the retained mode count so smooth
non-polynomial integrands keep uniform accuracy. The rule is 12-point panels,
one per mode and at least 20: 240 nodes up to 20 modes. For analytic
integrands a higher-order Gauss rule converges faster per node (Trefethen
2008, "Is Gauss quadrature better than Clenshaw-Curtis?"), so 240 nodes do what
320 on 5-point panels did. A convergence test sets the rule: along the
canonical wind_stretch run at 10+4 to 24+12 modes the RHS is within 1e-10 per
acceleration block of a 16 times finer rule (1.0e-11 measured, a rounding
floor). The error grows with amplitude, which the rule does not follow. On the
damped 4+3 model, worst over 20 seeds of six states (tools/quadrature_study.py):

    Eplus            1        10       100      1e3     1e4
    12 x 20 panels   6.7e-16  5.1e-16  6.0e-16  3.7e-9  2.3e-5
    5 x 64 (before)  7.5e-16  8.2e-16  2.6e-13  6.0e-9  3.1e-6

so at Eplus 1e4 this rule is seven times worse than the 5-point one; no test
or benchmark workload reaches that energy. It grows as Xi = sqrt(1 + (u_x +
s_x)^2) steepens. The 12-point reference rule is written out (``GAUSS_NODES``,
``GAUSS_WEIGHTS``), equal to numpy's ``leggauss(12)`` bit for bit, so building a
grid never imports numpy.polynomial.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "Basis",
    "QuadratureGrid",
    "make_grid",
    "check_grid",
    "displayed_to_modal",
    "modal_to_displayed",
]

# The reference rule on [-1, 1]; numpy.polynomial, which computes it, costs ~1.2 MB resident.
GAUSS_NODES = (
    -0.9815606342467192, -0.9041172563704748, -0.7699026741943047, -0.5873179542866175,
    -0.3678314989981802, -0.1252334085114689, 0.1252334085114689, 0.3678314989981802,
    0.5873179542866175, 0.7699026741943047, 0.9041172563704748, 0.9815606342467192,
)
GAUSS_WEIGHTS = (
    0.04717533638651141, 0.10693932599531907, 0.16007832854334642, 0.20316742672306573,
    0.2334925365383546, 0.2491470458134027, 0.2491470458134027, 0.2334925365383546,
    0.20316742672306573, 0.16007832854334642, 0.10693932599531907, 0.04717533638651141,
)
POINTS_PER_PANEL = len(GAUSS_NODES)
MIN_PANELS = 20
PANELS_PER_MODE = 1


@dataclass(frozen=True)
class Basis:
    """Hinged sine basis: n_w vertical and n_t torsional modes on (0, L)."""

    L: float
    n_w: int
    n_t: int

    def __post_init__(self) -> None:
        if not self.L > 0.0:
            raise ValueError(f"span must be positive, got L={self.L}")
        if self.n_w < 1:
            raise ValueError(f"need at least one vertical mode, got n_w={self.n_w}")
        if self.n_t < 1:
            raise ValueError(f"need at least one torsional mode, got n_t={self.n_t}")

    @property
    def max_modes(self) -> int:
        return max(self.n_w, self.n_t)

    def wavenumbers(self) -> np.ndarray:
        """k_j = j pi / L for every retained mode, j = 1..max_modes."""
        return np.arange(1, self.max_modes + 1) * (np.pi / self.L)


@dataclass(frozen=True)
class QuadratureGrid:
    """Composite Gauss-Legendre abscissae/weights on (0, L).

    The mode-shape tables (values and first two derivatives of every retained
    mode at every node) are static geometry, computed once here.
    """

    L: float  # the span the grid covers
    nodes: np.ndarray
    weights: np.ndarray
    panels: int
    modes: np.ndarray = field(repr=False)  # (max_modes, n_nodes) e_j(x_i)
    dmodes: np.ndarray = field(repr=False)  # e_j'(x_i)
    d2modes: np.ndarray = field(repr=False)  # e_j''(x_i)

    @property
    def n_nodes(self) -> int:
        return self.nodes.size


def make_grid(basis: Basis) -> QuadratureGrid:
    """Build the quadrature grid for a basis: 12-point panels, >= 1 per mode and >= 20 in all."""
    panels = max(MIN_PANELS, PANELS_PER_MODE * basis.max_modes)
    ref_x, ref_w = np.array(GAUSS_NODES), np.array(GAUSS_WEIGHTS)
    width = basis.L / panels
    left = np.arange(panels) * width
    # Map the reference rule onto every panel; row-major flatten keeps nodes sorted.
    nodes = (left[:, None] + 0.5 * width * (ref_x[None, :] + 1.0)).ravel()
    weights = np.broadcast_to(0.5 * width * ref_w, (panels, POINTS_PER_PANEL)).ravel().copy()

    k = basis.wavenumbers()[:, None]
    scale = np.sqrt(2.0 / basis.L)
    phase = k * nodes[None, :]
    modes = scale * np.sin(phase)
    dmodes = scale * k * np.cos(phase)
    d2modes = -scale * k**2 * np.sin(phase)
    for arr in (nodes, weights, modes, dmodes, d2modes):
        arr.setflags(write=False)
    return QuadratureGrid(basis.L, nodes, weights, panels, modes, dmodes, d2modes)


def check_grid(basis: Basis, grid: QuadratureGrid) -> None:
    """Refuse a grid that does not cover the basis's span for every retained mode; a grid
    for more modes is accepted."""
    if grid.L != basis.L:
        raise ValueError(f"span mismatch: QuadratureGrid.L = {grid.L}, Basis.L = {basis.L}")
    if len(grid.modes) < basis.max_modes:
        raise ValueError(
            f"mode capacity mismatch: the grid tabulates {len(grid.modes)} modes, "
            f"the basis retains {basis.max_modes}"
        )


def displayed_to_modal(amplitude: float | np.ndarray, L: float):
    """Convert a displayed amplitude c-bar_j to the modal coefficient c_j."""
    return np.sqrt(L / 2.0) * amplitude


def modal_to_displayed(coeff: float | np.ndarray, L: float):
    """Convert a modal coefficient c_j to the displayed amplitude c-bar_j."""
    return np.sqrt(2.0 / L) * coeff
