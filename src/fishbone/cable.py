"""Cable-hanger nonlinearity: rest shape, elongation, restoring force, energy.

Two parabolic cables at rest height s(x) = -(a/2)x^2 + (aL/2)x + s0 hang the
deck through rigid hangers; ``make_geometry`` takes a = 0, the straight
cable, only when it is slack (b = c = 0), and refuses a grid of another span
than its basis (``spectral.check_grid``): s_x reads the basis's span, L0 the
grid's nodes. A deflection u of the hanger
attachment line changes the cable arc length from L0 = int sqrt(1 + s_x^2) to
L(u) = int Xi(u), Xi(u) = sqrt(1 + (u_x + s_x)^2), and the cable answers with
the nodal force density

    h(u) = [b (L0 - L(u)) - c xi0] (u_x + s_x) / Xi(u),

a global first pass for L(u) followed by a nodal second pass. The vertical and
torsional channels feel the two cables through

    f = h(w + l th) + h(w - l th),   f-bar = l [h(w + l th) - h(w - l th)],

and the stored cable energy is Pi(u) = (b/2)(L(u) - L0)^2 + c int xi0 (Xi - xi0),
whose directional derivative is d/dtau Pi(u + tau phi)|_0 = -(h(u), phi_x)_0.

The force law is written once, in ``force_law(geometry, shape)``, which binds
its work arrays for lines of one shape and returns h(total), writing h over the
total slopes u_x + s_x: ``h_of`` binds it once per call, and the RHS of
``dynamics`` (both lines w +- l th at once) once per run. The geometry folds b
into the quadrature weights and stores the rows [1; -(c xi0 - b L0)], so with
the pull Xi @ (-b weights) the gap b (L0 - L(u)) - c xi0 is [pull, 1] @ rows:
two exact products, whose sum rounds once, as one subtraction would. L and Pi are
written once, in ``length_and_energy``: both from one Xi pass over nodal slopes,
for ``arc_length``, ``pi_energy`` and ``diagnostics.lemma_suite``. ``arc_length``,
``h_of`` and ``pi_energy`` take a modal vector or a stack of rows (k, n), one
line per row; slopes and span integrals use ``np.vecmat`` and ``np.vecdot``,
which reduce each row on its own, so a row of a stack gives the lone-vector
result bit for bit (a BLAS matmul over the stack does not). Each call makes a
few (k, nodes) temporaries, so callers bound k (``diagnostics.ROW_BLOCK``).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .spectral import Basis, QuadratureGrid, check_grid

__all__ = [
    "CableGeometry",
    "make_geometry",
    "length_and_energy",
    "arc_length",
    "force_law",
    "h_of",
    "pi_energy",
]


@dataclass(frozen=True)
class CableGeometry:
    """Rest geometry plus stiffness of the two cables, cached on one grid.

    The cached L0 is always the quadrature value of int sqrt(1 + s_x^2) on the
    construction grid, so that Xi(0) = xi0 and Pi(0) = 0 hold exactly; a
    tabulated arc length only ever enters the *derivation* of b (see the cli
    module), never the force law itself. The force law reads b, c and L0 only
    through ``b_weights`` and ``gap_rows``, so h(0) = -c s_x holds to rounding of b L0.
    """

    a: float
    s0: float
    b: float
    c: float
    span: float  # the construction grid's span; the arrays below hold one entry per node
    sx: np.ndarray = field(repr=False)  # s_x at grid nodes
    xi0: np.ndarray = field(repr=False)  # sqrt(1 + s_x^2) at grid nodes
    b_weights: np.ndarray = field(repr=False)  # -b times the weights: Xi @ b_weights = -b int Xi
    # [1; -(c xi0 - b L0)]: h = ([Xi @ b_weights, 1] @ gap_rows) (u_x + s_x) / Xi
    gap_rows: np.ndarray = field(repr=False)
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
) -> CableGeometry:
    """Build a CableGeometry on a grid that fits the basis (``spectral.check_grid``); a
    straight cable (a = 0) must be slack (b = c = 0)."""
    check_grid(basis, grid)
    for name, value in (("a", a), ("s0", s0), ("b", b), ("c", c)):
        if not np.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")
    if a < 0.0 or (a == 0.0 and (b != 0.0 or c != 0.0)):
        raise ValueError(f"tension parameter must be positive, got a={a}")
    if not s0 > 0.0:
        raise ValueError(f"hanger length must be positive, got s0={s0}")
    if b < 0.0 or c < 0.0:
        raise ValueError(f"cable stiffnesses must be nonnegative, got b={b}, c={c}")
    sx = a * (0.5 * basis.L - grid.nodes)
    xi0 = np.sqrt(1.0 + sx * sx)
    L0 = float(np.vecdot(xi0, grid.weights))  # arc_length(0) bit for bit
    b_weights = -b * grid.weights
    gap_rows = np.array([[1.0] * xi0.size, -(c * xi0 - b * L0)])
    for arr in (sx, xi0, b_weights, gap_rows):
        arr.setflags(write=False)
    return CableGeometry(
        a=a,
        s0=s0,
        b=b,
        c=c,
        span=grid.L,
        sx=sx,
        xi0=xi0,
        b_weights=b_weights,
        gap_rows=gap_rows,
        L0=L0,
        # |s_x| has a kink at L/2, inside a panel when the panel count is odd, and
        # the rest slope peaks at the span ends, which Gauss nodes exclude, so both
        # are taken in closed form rather than over the nodes.
        int_abs_sx=0.25 * a * basis.L**2,
        max_xi0=float(np.sqrt(1.0 + (0.5 * a * basis.L) ** 2)),
        int_xi0_sq=float(grid.weights @ (xi0 * xi0)),
    )


def force_law(geometry: CableGeometry, shape: tuple[int, ...]):
    """h(total): h at the nodes, written over the total slopes u_x + s_x of lines of ``shape``.

    One line per leading index. The work arrays (Xi, the gap and each line's [pull, 1]),
    the ufuncs, the 1 of 1 + t^2 (a 0-d array, so no call converts a Python float) and the
    geometry's arrays are bound here, once. A call makes seven numpy calls with positional
    out: Xi, the pull Xi @ (-b weights) into column 0 of [pull, 1], the gap
    [pull, 1] @ [1; -(c xi0 - b L0)], then (total / Xi) gap. Both products of the gap are
    exact, so it is pull - (c xi0 - b L0) rounded once, good to a few ulp of b L0.
    """
    xi, gap, pull_one = np.empty(shape), np.empty(shape), np.zeros((*shape[:-1], 2))
    pull_one[..., 1] = 1.0
    pull, one = pull_one[..., 0], np.array(1.0)
    b_weights, gap_rows, gap_from = geometry.b_weights, geometry.gap_rows, pull_one.dot
    multiply, add, sqrt, vecdot, divide = np.multiply, np.add, np.sqrt, np.vecdot, np.divide

    def h(total: np.ndarray) -> np.ndarray:
        multiply(total, total, xi)
        sqrt(add(one, xi, xi), xi)  # Xi(u)
        vecdot(xi, b_weights, pull)
        gap_from(gap_rows, gap)
        return multiply(divide(total, xi, total), gap, total)

    return h


def _slope(u: np.ndarray, grid: QuadratureGrid) -> np.ndarray:
    u = np.asarray(u, dtype=float)
    n = u.shape[-1]
    if n > grid.dmodes.shape[0]:
        raise ValueError(
            f"modal vector of length {n} does not fit a grid built for "
            f"{grid.dmodes.shape[0]} modes"
        )
    return np.vecmat(u, grid.dmodes[:n])


def length_and_energy(u_x: np.ndarray, geometry: CableGeometry, grid: QuadratureGrid) -> tuple:
    """L(u) = int Xi(u) and Pi(u) = (b/2)(L(u) - L0)^2 + c int xi0 (Xi(u) - xi0), one of each
    per row of nodal slopes u_x, from one pass of Xi(u) = sqrt(1 + (u_x + s_x)^2)."""
    total = u_x + geometry.sx
    xi = np.sqrt(1.0 + total * total)
    length = np.vecdot(xi, grid.weights)
    tension_term = geometry.c * np.vecdot(geometry.xi0 * (xi - geometry.xi0), grid.weights)
    return length, 0.5 * geometry.b * (length - geometry.L0) ** 2 + tension_term


def arc_length(u: np.ndarray, geometry: CableGeometry, grid: QuadratureGrid) -> float | np.ndarray:
    """Deformed cable arc length L(u) = int Xi(u), one value per row of u."""
    return length_and_energy(_slope(u, grid), geometry, grid)[0]


def h_of(u: np.ndarray, geometry: CableGeometry, grid: QuadratureGrid) -> np.ndarray:
    """Cable force density h(u) at the grid nodes (global pass, then nodal), per row of u."""
    total = _slope(u, grid) + geometry.sx
    return force_law(geometry, total.shape)(total)


def pi_energy(u: np.ndarray, geometry: CableGeometry, grid: QuadratureGrid) -> float | np.ndarray:
    """Cable energy Pi(u) = (b/2)(L(u) - L0)^2 + c int xi0 (Xi(u) - xi0), per row of u."""
    return length_and_energy(_slope(u, grid), geometry, grid)[1]
