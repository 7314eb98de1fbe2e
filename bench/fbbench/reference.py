"""Reference right-hand side of the modal equations, written apart from the program.

The equations are the ones stated in the ``fishbone.dynamics`` and
``fishbone.cable`` docstrings. For vertical mode j <= n_w and torsional mode
j <= n_t, with k_j = j pi / L and e_j(x) = sqrt(2/L) sin(k_j x):

    M w_j'' = -mu w_j' - D k_j^4 w_j - [S sum_r k_r^2 w_r^2 - P] k_j^2 w_j
              - beta Upsilon th_j' - eta th_j + (f, e_j')_0 + (M g, e_j)_0
    (M l^2 / 3) th_j'' = -zeta th_j' - (eps k_j^4 + kappa k_j^2) th_j + (f-bar, e_j')_0

with mu = delta + beta, eta = beta Ustream, the wind couplings present only on
the common prefix j <= min(n_w, n_t), and

    f = h(w + l th) + h(w - l th),   f-bar = l [h(w + l th) - h(w - l th)],
    h(u) = [b (L0 - L(u)) - c xi0] (u_x + s_x) / Xi(u),
    Xi(u) = sqrt(1 + (u_x + s_x)^2),   L(u) = int Xi(u),   L0 = int xi0,
    s_x = a (L/2 - x),   xi0 = sqrt(1 + s_x^2).

Every integral, the gravity load included, is taken with this module's own
composite Gauss-Legendre rule of 2048 panels of 6 points (12,288
nodes against the program's 400 at the Tacoma Narrows size). The coefficients
come in as a plain mapping, so the reference shares no code with the package.
"""

from __future__ import annotations

import math

import numpy as np

PANELS = 2048
POINTS = 6

COEFFICIENTS = (
    "M", "D", "eps", "kappa", "ell", "delta", "zeta", "beta", "Upsilon",
    "Ustream", "P", "S", "g", "L", "a", "b", "c",
)


def gauss_rule(span: float, panels: int, points: int) -> tuple[np.ndarray, np.ndarray]:
    """Composite Gauss-Legendre nodes and weights on (0, span)."""
    ref_x, ref_w = np.polynomial.legendre.leggauss(points)
    width = span / panels
    left = np.arange(panels) * width
    nodes = (left[:, None] + 0.5 * width * (ref_x[None, :] + 1.0)).ravel()
    weights = np.tile(0.5 * width * ref_w, panels)
    return nodes, weights


def coefficients_from_manifest(text: str) -> dict[str, float]:
    """Coefficients from a run's manifest.cfg (flat ``section.key = value`` lines)."""
    values: dict[str, str] = {}
    for line in text.splitlines():
        line = line.split("#", 1)[0].strip()
        if "=" in line:
            key, value = (part.strip() for part in line.split("=", 1))
            values[key] = value
    out = {}
    for name in COEFFICIENTS:
        if name in ("a", "b", "c"):
            key = f"cable.{name}"
        elif name == "L":
            key = "basis.L"
        else:
            key = f"model.{name}"
        out[name] = float(values[key])
    out["n_w"] = int(values["basis.n_w"])
    out["n_t"] = int(values["basis.n_t"])
    return out


def coefficients_from_objects(params, geometry, basis) -> dict[str, float]:
    """Coefficients read off the program's parameter objects (field values only)."""
    out = {name: float(getattr(params, name)) for name in COEFFICIENTS if name not in ("a", "b", "c")}
    out.update(a=float(geometry.a), b=float(geometry.b), c=float(geometry.c))
    out["L"] = float(basis.L)
    out["n_w"], out["n_t"] = basis.n_w, basis.n_t
    return out


class ReferenceRHS:
    """f(y) on packed vectors [w, wdot, th, thdot], from the stated equations."""

    def __init__(self, coeffs: dict[str, float]):
        self.c = dict(coeffs)
        self.n_w, self.n_t = int(coeffs["n_w"]), int(coeffs["n_t"])
        span = self.c["L"]
        self.x, self.q = gauss_rule(span, PANELS, POINTS)
        n = max(self.n_w, self.n_t)
        self.k = np.arange(1, n + 1) * (math.pi / span)
        phase = self.k[:, None] * self.x[None, :]
        norm = math.sqrt(2.0 / span)
        self.e = norm * np.sin(phase)
        self.ex = norm * self.k[:, None] * np.cos(phase)
        self.sx = self.c["a"] * (0.5 * span - self.x)
        self.xi0 = np.sqrt(1.0 + self.sx**2)
        self.L0 = float(self.q @ self.xi0)
        self.gravity = self.e[: self.n_w] @ (self.q * (self.c["M"] * self.c["g"]))

    def h(self, ux: np.ndarray) -> np.ndarray:
        total = ux + self.sx
        xi = np.sqrt(1.0 + total**2)
        length = float(self.q @ xi)
        return (self.c["b"] * (self.L0 - length) - self.c["c"] * self.xi0) * total / xi

    def __call__(self, y: np.ndarray) -> np.ndarray:
        c, n_w, n_t = self.c, self.n_w, self.n_t
        w, wdot = y[:n_w], y[n_w : 2 * n_w]
        th, thdot = y[2 * n_w : 2 * n_w + n_t], y[2 * n_w + n_t :]
        kw, kt = self.k[:n_w], self.k[:n_t]
        ell = c["ell"]
        wx = w @ self.ex[:n_w]
        thx = th @ self.ex[:n_t]
        h_plus, h_minus = self.h(wx + ell * thx), self.h(wx - ell * thx)
        f_proj = self.ex[:n_w] @ (self.q * (h_plus + h_minus))
        fbar_proj = self.ex[:n_t] @ (self.q * (ell * (h_plus - h_minus)))

        mu = c["delta"] + c["beta"]
        eta = c["beta"] * c["Ustream"]
        stretch = c["S"] * float(np.sum(kw**2 * w**2)) - c["P"]
        force_w = (
            -mu * wdot - c["D"] * kw**4 * w - stretch * kw**2 * w + f_proj + self.gravity
        )
        common = min(n_w, n_t)
        force_w[:common] -= c["beta"] * c["Upsilon"] * thdot[:common] + eta * th[:common]
        force_t = -c["zeta"] * thdot - (c["eps"] * kt**4 + c["kappa"] * kt**2) * th + fbar_proj
        inertia_t = c["M"] * ell**2 / 3.0
        return np.concatenate([wdot, force_w / c["M"], thdot, force_t / inertia_t])


def rhs_disagreement(program_rhs, reference: ReferenceRHS, states) -> float:
    """Largest relative difference of the accelerations over the given states.

    Each acceleration block (vertical, torsional) is scaled by the reference's
    largest entry in that block over all states, so a small torsional block is
    not drowned by the vertical one.
    """
    n_w, n_t = reference.n_w, reference.n_t
    got = np.array([program_rhs(0.0, np.asarray(y, dtype=float)) for y in states])
    want = np.array([reference(np.asarray(y, dtype=float)) for y in states])
    worst = 0.0
    for block in (slice(n_w, 2 * n_w), slice(2 * n_w + n_t, None)):
        scale = float(np.max(np.abs(want[:, block])))
        diff = float(np.max(np.abs(got[:, block] - want[:, block])))
        worst = max(worst, diff / scale if scale > 0.0 else diff)
    return worst
