"""Cable-hanger nonlinearity: rest shape, elongation, restoring force, energy.

Two parabolic cables at rest height s(x) = -(a/2)x^2 + (aL/2)x + s0 hang the
deck through rigid hangers. A deflection u of the hanger attachment line
changes the cable arc length from L0 = int sqrt(1 + s_x^2) to
L(u) = int Xi(u), Xi(u) = sqrt(1 + (u_x + s_x)^2), and the cable answers with
the nodal force density

    h(u) = [b (L0 - L(u)) - c xi0] (u_x + s_x) / Xi(u),

a global first pass for L(u) followed by a nodal second pass. The vertical and
torsional channels feel the two cables through

    f = h(w + l th) + h(w - l th),   f-bar = l [h(w + l th) - h(w - l th)],

and the stored cable energy is Pi(u) = (b/2)(L(u) - L0)^2 + c int xi0 (Xi - xi0),
whose directional derivative is d/dtau Pi(u + tau phi)|_0 = -(h(u), phi_x)_0.

The force law is written once, in ``_h_from_slope`` (lines on a leading axis).
``make_pair_projection`` evaluates both lines as one (2, N) array and projects
f and f-bar onto the mode slopes for the modal right-hand side. ``arc_length``,
``h_of`` and ``pi_energy`` take a modal vector or a stack of rows (k, n), one
line per row; slopes and span integrals use ``np.vecmat`` and ``np.vecdot``,
which reduce each row on its own, so a row of a stack gives the lone-vector
result bit for bit (a BLAS matmul over the stack does not). Each call makes a
few (k, nodes) temporaries, so callers bound k (``diagnostics.ROW_BLOCK``).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .spectral import Basis, QuadratureGrid

__all__ = [
    "CableGeometry",
    "make_geometry",
    "big_xi",
    "arc_length",
    "h_of",
    "pi_energy",
    "make_pair_projection",
]


@dataclass(frozen=True)
class CableGeometry:
    """Rest geometry plus stiffness of the two cables, cached on one grid.

    The cached L0 is always the quadrature value of int sqrt(1 + s_x^2) on the
    construction grid, so that Xi(0) = xi0 and Pi(0) = 0 hold exactly; a
    tabulated arc length only ever enters the *derivation* of b (see the cli
    module), never the force law itself.
    """

    a: float
    s0: float
    b: float
    c: float
    L: float
    sx: np.ndarray = field(repr=False)  # s_x at grid nodes
    xi0: np.ndarray = field(repr=False)  # sqrt(1 + s_x^2) at grid nodes
    L0: float = 0.0
    int_abs_sx: float = 0.0  # int |s_x|, used by lemma constants
    max_xi0: float = 1.0
    int_xi0_sq: float = 0.0  # int xi0^2, the cable energy floor scale


def make_geometry(
    a: float,
    s0: float,
    b: float,
    c: float,
    basis: Basis,
    grid: QuadratureGrid,
    allow_flat: bool = False,
) -> CableGeometry:
    """Build a CableGeometry on a grid; allow_flat permits the straight cable a=0."""
    if a < 0.0 or (a == 0.0 and not allow_flat):
        raise ValueError(f"tension parameter must be positive, got a={a}")
    if not s0 > 0.0:
        raise ValueError(f"hanger length must be positive, got s0={s0}")
    if b < 0.0 or c < 0.0:
        raise ValueError(f"cable stiffnesses must be nonnegative, got b={b}, c={c}")
    sx = a * (0.5 * basis.L - grid.nodes)
    xi0 = np.sqrt(1.0 + sx * sx)
    sx.setflags(write=False)
    xi0.setflags(write=False)
    return CableGeometry(
        a=a,
        s0=s0,
        b=b,
        c=c,
        L=basis.L,
        sx=sx,
        xi0=xi0,
        L0=float(np.vecdot(xi0, grid.weights)),  # arc_length(0) bit for bit
        int_abs_sx=float(grid.weights @ np.abs(sx)),
        # The rest slope peaks at the span ends, which Gauss nodes exclude, so
        # the supremum is taken in closed form rather than over the nodes.
        max_xi0=float(np.sqrt(1.0 + (0.5 * a * basis.L) ** 2)),
        int_xi0_sq=float(grid.weights @ (xi0 * xi0)),
    )


def big_xi(u_x_nodal: np.ndarray, geometry: CableGeometry) -> np.ndarray:
    """Stretched-element length Xi(u) = sqrt(1 + (u_x + s_x)^2) at the nodes."""
    total = np.asarray(u_x_nodal, dtype=float) + geometry.sx
    return np.sqrt(1.0 + total * total)


def _h_from_slope(
    u_x_nodal: np.ndarray, geometry: CableGeometry, weights: np.ndarray
) -> np.ndarray:
    """h at the nodes from nodal slopes; each leading index is one hanger line."""
    total = u_x_nodal + geometry.sx
    xi = np.sqrt(1.0 + total * total)
    stretch = geometry.b * (geometry.L0 - np.vecdot(xi, weights))
    return (stretch[..., None] - geometry.c * geometry.xi0) * total / xi


def _slope(u: np.ndarray, grid: QuadratureGrid) -> np.ndarray:
    u = np.asarray(u, dtype=float)
    n = u.shape[-1]
    if n > grid.dmodes.shape[0]:
        raise ValueError(
            f"modal vector of length {n} does not fit a grid built for "
            f"{grid.dmodes.shape[0]} modes"
        )
    return np.vecmat(u, grid.dmodes[:n])


def arc_length(u: np.ndarray, geometry: CableGeometry, grid: QuadratureGrid) -> float | np.ndarray:
    """Deformed cable arc length L(u) = int Xi(u), one value per row of u."""
    return np.vecdot(big_xi(_slope(u, grid), geometry), grid.weights)


def h_of(u: np.ndarray, geometry: CableGeometry, grid: QuadratureGrid) -> np.ndarray:
    """Cable force density h(u) at the grid nodes (global pass, then nodal), per row of u."""
    return _h_from_slope(_slope(u, grid), geometry, grid.weights)


def pi_energy(u: np.ndarray, geometry: CableGeometry, grid: QuadratureGrid) -> float | np.ndarray:
    """Cable energy Pi(u) = (b/2)(L(u) - L0)^2 + c int xi0 (Xi(u) - xi0), per row of u."""
    xi = big_xi(_slope(u, grid), geometry)
    stretch_term = 0.5 * geometry.b * (np.vecdot(xi, grid.weights) - geometry.L0) ** 2
    tension_term = geometry.c * np.vecdot(geometry.xi0 * (xi - geometry.xi0), grid.weights)
    return stretch_term + tension_term


def make_pair_projection(geometry, grid, ell, n_w, n_t, scale_w=1.0, scale_t=1.0):
    """Build v = [w, th] -> (scale_w (f, e_j')_0 for j <= n_w, scale_t (f-bar, e_j')_0 for j <= n_t).

    One table product gives the slopes of both lines w +- l th as a (2, N)
    array. f and f-bar / l are formed node by node before projecting, so
    mirroring th (which swaps the lines) keeps f and negates f-bar exactly.
    """
    dw, dt = grid.dmodes[:n_w], grid.dmodes[:n_t]
    slopes = np.concatenate([np.tile(dw, 2), np.hstack([ell * dt, -ell * dt])])
    to_w = dw * (scale_w * grid.weights)
    to_t = dt * (scale_t * ell * grid.weights)

    def project(v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        h = _h_from_slope((v @ slopes).reshape(2, -1), geometry, grid.weights)
        return to_w @ (h[0] + h[1]), to_t @ (h[0] - h[1])

    return project

