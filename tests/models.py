"""The test models, each written once: the bridge model, the modal states the tests share,
a cable geometry rebuilt on another grid and the 16-times-panel reference grid.

A plain module that pytest does not collect; the test files and ``tools/`` import it.
"""

from unittest import mock

import numpy as np

from fishbone import spectral
from fishbone.cable import make_geometry
from fishbone.dynamics import ModalState, ModelParams
from fishbone.spectral import Basis, make_grid


def cable_setup(n_w=4, n_t=3, L=np.pi, a=0.2, b=1.0, c=1.0, **over):
    """(params, geometry, basis, grid) of the bridge at n_w + n_t modes over a span L.

    The parabolic cables have the slope scale a and the stiffnesses b and c
    (a = b = c = 0: no cables); the model is ``ModelParams(L=L, **over)``.
    """
    basis = Basis(L=L, n_w=n_w, n_t=n_t)
    grid = make_grid(basis)
    geometry = make_geometry(a, 1.0, b, c, basis, grid)
    return ModelParams(L=L, **over), geometry, basis, grid


def rebuilt(geometry, basis, grid, **stiffnesses):
    """The geometry's cables built on another basis and grid, or with other b and c."""
    fields = dict(a=geometry.a, s0=geometry.s0, b=geometry.b, c=geometry.c) | stiffnesses
    return make_geometry(**fields, basis=basis, grid=grid)


def reference_grid(basis):
    """``make_grid``'s rule with 16 times the panels: the reference of the quadrature checks."""
    with mock.patch.multiple(
        spectral, MIN_PANELS=16 * spectral.MIN_PANELS, PANELS_PER_MODE=16 * spectral.PANELS_PER_MODE
    ):
        return make_grid(basis)


def random_state(rng, n_w, n_t, scale=1.0):
    """A state of independent normal entries of deviation scale, drawn w, wdot, th, thdot."""
    return ModalState(*(scale * rng.standard_normal(n) for n in (n_w, n_w, n_t, n_t)))


def state_3_2(n_w=3, n_t=2):
    """The 3+2 state of the integrator tests and the toy scenario, zero-padded to n_w + n_t."""

    def padded(values, n):
        return np.pad(values, (0, n - len(values)))

    return ModalState(
        padded([0.1, -0.05, 0.02], n_w), padded([0.0, 0.03, 0.0], n_w),
        padded([0.05, -0.02], n_t), padded([0.01, 0.0], n_t),
    )


def state_4_3():
    """The 4+3 state of the energy-conservation and energy-identity runs."""
    return ModalState(
        [0.3, -0.1, 0.05, 0.02], [0.0, 0.1, -0.02, 0.0], [0.2, -0.05, 0.02], [0.05, 0.0, -0.01]
    )
