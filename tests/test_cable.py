"""Tests for the cable-hanger nonlinearity: geometry, forces, and energy."""

import numpy as np
import pytest

from fishbone.cable import (
    arc_length,
    big_xi,
    h_of,
    make_geometry,
    make_pair_projection,
    pi_energy,
)
from fishbone.diagnostics import ROW_BLOCK
from fishbone.spectral import Basis, eval_modal, make_grid

A, S0, B, C = 0.2, 1.0, 1.0, 1.0


def default_setup(n_w=4, n_t=3, L=np.pi, a=A, b=B, c=C):
    basis = Basis(L=L, n_w=n_w, n_t=n_t)
    grid = make_grid(basis)
    geometry = make_geometry(a, S0, b, c, basis, grid)
    return basis, grid, geometry


class TestGeometry:
    def test_rest_shape_derived_quantities(self):
        """Slope, element length, and the summary integrals match closed forms."""
        basis, grid, geo = default_setup()
        L = basis.L
        np.testing.assert_allclose(geo.sx, A * (L / 2.0 - grid.nodes), rtol=1e-14)
        np.testing.assert_allclose(geo.xi0, np.sqrt(1.0 + geo.sx**2), rtol=1e-14)
        np.testing.assert_allclose(geo.int_abs_sx, A * L**2 / 4.0, rtol=1e-12)
        np.testing.assert_allclose(geo.max_xi0, np.sqrt(1.0 + (A * L / 2.0) ** 2), rtol=1e-12)
        np.testing.assert_allclose(geo.int_xi0_sq, L + A**2 * L**3 / 12.0, rtol=1e-12)

    def test_rest_arc_length_analytic(self):
        """L0 matches the closed-form parabola arc length and its frozen value."""
        basis, grid, geo = default_setup()
        z = A * basis.L / 2.0
        exact = (z * np.sqrt(1.0 + z**2) + np.arcsinh(z)) / A
        np.testing.assert_allclose(geo.L0, exact, rtol=1e-12)
        np.testing.assert_allclose(geo.L0, 3.1925304741244744, rtol=1e-13)

    def test_rest_state_is_reference(self):
        """The undeformed state has L(0) = L0 and Pi(0) = 0."""
        basis, grid, geo = default_setup()
        zero = np.zeros(basis.n_w)
        np.testing.assert_allclose(arc_length(zero, geo, grid), geo.L0, rtol=1e-14)
        assert abs(pi_energy(zero, geo, grid)) < 1e-12

    def test_flat_cable_requires_opt_in(self):
        """a = 0 needs allow_flat; tension with a flat cable is contradictory."""
        basis = Basis(L=np.pi, n_w=2, n_t=2)
        grid = make_grid(basis)
        with pytest.raises(ValueError):
            make_geometry(0.0, S0, B, C, basis, grid)
        geo = make_geometry(0.0, S0, 0.0, 0.0, basis, grid, allow_flat=True)
        assert geo.L0 == pytest.approx(np.pi)

    def test_negative_stiffness_rejected(self):
        """Negative b or c is rejected."""
        basis = Basis(L=np.pi, n_w=2, n_t=2)
        grid = make_grid(basis)
        with pytest.raises(ValueError):
            make_geometry(A, S0, -1.0, C, basis, grid)
        with pytest.raises(ValueError):
            make_geometry(A, S0, B, -1.0, basis, grid)


class TestForceDensity:
    def test_zero_state_force_is_slope_tension(self):
        """h(0) = -c s_x exactly: at rest only the pretension survives."""
        basis, grid, geo = default_setup()
        h0 = h_of(np.zeros(basis.n_w), geo, grid)
        np.testing.assert_allclose(h0, -C * geo.sx, rtol=1e-12, atol=1e-14)

    def test_zero_state_projection_formula(self):
        """(f(0), e_j')_0 = -2 c a sqrt(2L) (1-(-1)^j)/(j pi)."""
        basis, grid, geo = default_setup(n_w=6, n_t=3)
        L = basis.L
        fw, _ = make_pair_projection(geo, grid, 1.0, 6, 3)(np.zeros(9))
        j = np.arange(1, 7)
        exact = -2.0 * C * A * np.sqrt(2.0 * L) * (1.0 - (-1.0) ** j) / (j * np.pi)
        np.testing.assert_allclose(fw, exact, rtol=1e-10, atol=1e-12)

    def test_xi_lower_bound(self):
        """Xi(u) >= 1 pointwise for any state."""
        basis, grid, geo = default_setup()
        rng = np.random.default_rng(11)
        for _ in range(50):
            u = rng.standard_normal(basis.n_w)
            slope = eval_modal(u, basis, grid, 1)
            assert np.all(big_xi(slope, geo) >= 1.0)

    def test_disabled_cables_return_zeros(self):
        """b = c = 0 produces exact zero forces and projections."""
        basis = Basis(L=np.pi, n_w=3, n_t=2)
        grid = make_grid(basis)
        geo = make_geometry(A, S0, 0.0, 0.0, basis, grid)
        rng = np.random.default_rng(5)
        w, th = rng.standard_normal(3), rng.standard_normal(2)
        assert not h_of(w, geo, grid).any()
        fw, ft = make_pair_projection(geo, grid, 1.3, 3, 2)(np.concatenate([w, th]))
        assert not fw.any() and not ft.any()

    def test_fine_grid_projection_oracle(self):
        """Projections agree with a 10x-finer independent quadrature to 1e-6."""
        basis, grid, geo = default_setup(n_w=5, n_t=3)
        fine_basis = Basis(L=basis.L, n_w=50, n_t=3)
        fine_grid = make_grid(fine_basis)
        fine_geo = make_geometry(A, S0, B, C, fine_basis, fine_grid)
        coarse = make_pair_projection(geo, grid, 1.1, 5, 3)
        fine = make_pair_projection(fine_geo, fine_grid, 1.1, 5, 3)
        rng = np.random.default_rng(17)
        for _ in range(5):
            w = 0.4 * rng.standard_normal(5)
            th = 0.4 * rng.standard_normal(3)
            fw, ft = coarse(np.concatenate([w, th]))
            fw_ref, ft_ref = fine(np.concatenate([w, th]))
            scale = max(np.abs(fw_ref).max(), np.abs(ft_ref).max())
            np.testing.assert_allclose(fw, fw_ref, rtol=0, atol=1e-6 * scale)
            np.testing.assert_allclose(ft, ft_ref, rtol=0, atol=1e-6 * scale)


class TestVariationalIdentity:
    def test_energy_gradient_matches_force(self):
        """d/dtau Pi(u + tau phi) at 0 equals -(h(u), phi_x)_0."""
        basis, grid, geo = default_setup(n_w=5, n_t=3)
        rng = np.random.default_rng(23)
        tau = 1e-5
        for _ in range(10):
            u = 0.6 * rng.standard_normal(5)
            phi = rng.standard_normal(5)
            plus = pi_energy(u + tau * phi, geo, grid)
            minus = pi_energy(u - tau * phi, geo, grid)
            derivative = (plus - minus) / (2.0 * tau)
            h = h_of(u, geo, grid)
            phi_x = eval_modal(phi, basis, grid, 1)
            pairing = -float(grid.weights @ (h * phi_x))
            np.testing.assert_allclose(derivative, pairing, rtol=1e-4, atol=1e-10)

    def test_arc_length_lipschitz(self):
        """|L(u) - L(v)| <= sqrt(L) ||u_x - v_x||_0 (slope is 1-Lipschitz)."""
        basis, grid, geo = default_setup()
        rng = np.random.default_rng(31)
        for _ in range(25):
            u = rng.standard_normal(basis.n_w)
            v = rng.standard_normal(basis.n_w)
            du = eval_modal(u - v, basis, grid, 1)
            slope_norm = np.sqrt(float(grid.weights @ du**2))
            lhs = abs(arc_length(u, geo, grid) - arc_length(v, geo, grid))
            assert lhs <= np.sqrt(basis.L) * slope_norm + 1e-12


class TestRowStacks:
    def test_stack_equals_row_by_row(self):
        """On a (k, n) stack each row's value equals the single-vector call bit for bit.

        k = ROW_BLOCK + 1 hanger lines w +- l th of a 4+3 basis, th zero-padded,
        so a call of more rows than a diagnostics block sees the same values.
        """
        basis, grid, geo = default_setup(n_w=4, n_t=3)
        rng = np.random.default_rng(41)
        ell, pairs = 1.3, ROW_BLOCK // 2 + 1
        w = rng.standard_normal((pairs, 4))
        th = np.zeros((pairs, 4))
        th[:, :3] = rng.standard_normal((pairs, 3))
        lines = np.stack([w + ell * th, w - ell * th], axis=1).reshape(-1, 4)[: ROW_BLOCK + 1]
        assert lines.shape == (ROW_BLOCK + 1, 4)
        for fn in (arc_length, h_of, pi_energy):
            stacked = fn(lines, geo, grid)
            rows = np.array([fn(u, geo, grid) for u in lines])
            assert stacked.shape == rows.shape
            np.testing.assert_array_equal(stacked, rows)


if __name__ == "__main__":
    pytest.main([__file__, "-v"])
