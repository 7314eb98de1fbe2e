"""Tests for the orthonormal sine basis and composite Gauss-Legendre grid."""

import numpy as np
import pytest

from fishbone.spectral import (
    GAUSS_NODES,
    GAUSS_WEIGHTS,
    POINTS_PER_PANEL,
    Basis,
    displayed_to_modal,
    make_grid,
    modal_to_displayed,
)


class TestBasis:
    def test_wavenumbers(self):
        """wavenumbers() is j*pi/L for j = 1..max_modes."""
        basis = Basis(L=4.0, n_w=3, n_t=2)
        np.testing.assert_allclose(
            basis.wavenumbers(), np.array([1, 2, 3]) * np.pi / 4.0, rtol=1e-15
        )

    def test_wavenumbers_default_count(self):
        """Without an argument, wavenumbers covers every retained mode."""
        basis = Basis(L=np.pi, n_w=4, n_t=6)
        assert basis.max_modes == 6
        assert basis.wavenumbers().shape == (6,)

    def test_validation(self):
        """Nonpositive span or mode counts are rejected."""
        with pytest.raises(ValueError):
            Basis(L=0.0, n_w=3, n_t=2)
        with pytest.raises(ValueError):
            Basis(L=1.0, n_w=0, n_t=2)
        with pytest.raises(ValueError):
            Basis(L=1.0, n_w=3, n_t=0)


class TestQuadratureGrid:
    def test_weights_sum_to_span(self):
        """Quadrature weights integrate the constant 1 to L."""
        for L in (np.pi, 853.44, 0.7):
            basis = Basis(L=L, n_w=6, n_t=4)
            grid = make_grid(basis)
            np.testing.assert_allclose(grid.weights.sum(), L, rtol=1e-12)

    def test_panel_count_scales_with_modes(self):
        """Panels = max(20, max_modes)."""
        small = make_grid(Basis(L=np.pi, n_w=3, n_t=2))
        assert small.panels == 20
        floor = make_grid(Basis(L=np.pi, n_w=20, n_t=4))
        assert floor.panels == 20
        large = make_grid(Basis(L=np.pi, n_w=24, n_t=4))
        assert large.panels == 24

    def test_gram_identity(self):
        """The cached mode table is orthonormal under the weights."""
        basis = Basis(L=2.5, n_w=8, n_t=8)
        grid = make_grid(basis)
        gram = (grid.modes * grid.weights) @ grid.modes.T
        np.testing.assert_allclose(gram, np.eye(8), atol=1e-10)

    def test_derivative_tables(self):
        """The mode, slope and curvature tables match the analytic mode shapes."""
        basis = Basis(L=3.0, n_w=5, n_t=5)
        grid = make_grid(basis)
        k = basis.wavenumbers()
        scale = np.sqrt(2.0 / basis.L)
        for j in range(5):
            np.testing.assert_allclose(
                grid.modes[j], scale * np.sin(k[j] * grid.nodes), rtol=1e-13, atol=1e-13
            )
            np.testing.assert_allclose(
                grid.dmodes[j],
                scale * k[j] * np.cos(k[j] * grid.nodes),
                rtol=1e-13,
                atol=1e-13,
            )
            np.testing.assert_allclose(
                grid.d2modes[j],
                -scale * k[j] ** 2 * np.sin(k[j] * grid.nodes),
                rtol=1e-13,
                atol=1e-11,
            )

    def test_rule_is_numpys_leggauss(self):
        """The literal reference rule is numpy's Gauss-Legendre rule bit for bit, and sets the panel size."""
        nodes, weights = np.polynomial.legendre.leggauss(POINTS_PER_PANEL)
        assert np.array_equal(GAUSS_NODES, nodes) and np.array_equal(GAUSS_WEIGHTS, weights)
        assert POINTS_PER_PANEL == len(GAUSS_NODES) == len(GAUSS_WEIGHTS) == 12

    def test_polynomial_exactness(self):
        """12-point panels integrate degree-23 polynomials to round-off."""
        basis = Basis(L=2.0, n_w=1, n_t=1)
        grid = make_grid(basis)
        exact = 2.0**24 / 24.0
        np.testing.assert_allclose(grid.weights @ grid.nodes**23, exact, rtol=1e-13)


class TestEvalProject:
    def test_round_trip(self):
        """Projecting nodal values recovers the coefficients of a modal expansion."""
        rng = np.random.default_rng(7)
        basis = Basis(L=1.7, n_w=7, n_t=4)
        grid = make_grid(basis)
        for _ in range(20):
            coeffs = rng.standard_normal(7)
            values = coeffs @ grid.modes[:7]
            np.testing.assert_allclose(
                grid.modes[:7] @ (grid.weights * values), coeffs, rtol=1e-12, atol=1e-12
            )

    def test_eval_derivative_orders(self):
        """The mode tables give the function, slope and curvature of an expansion."""
        basis = Basis(L=np.pi, n_w=3, n_t=2)
        grid = make_grid(basis)
        coeffs = np.array([1.0, -0.5, 0.25])
        k = basis.wavenumbers()
        scale = np.sqrt(2.0 / np.pi)
        x = grid.nodes
        direct = scale * sum(c * np.sin(kj * x) for c, kj in zip(coeffs, k))
        slope = scale * sum(c * kj * np.cos(kj * x) for c, kj in zip(coeffs, k))
        curve = -scale * sum(c * kj**2 * np.sin(kj * x) for c, kj in zip(coeffs, k))
        np.testing.assert_allclose(coeffs @ grid.modes[:3], direct, atol=1e-12)
        np.testing.assert_allclose(coeffs @ grid.dmodes[:3], slope, atol=1e-12)
        np.testing.assert_allclose(coeffs @ grid.d2modes[:3], curve, atol=1e-11)

    def test_project_known_series(self):
        """Projecting x(L-x) reproduces its analytic sine coefficients."""
        basis = Basis(L=2.2, n_w=9, n_t=2)
        grid = make_grid(basis)
        L = basis.L
        values = grid.nodes * (L - grid.nodes)
        coeffs = grid.modes[:9] @ (grid.weights * values)
        j = np.arange(1, 10)
        exact = np.where(j % 2 == 1, np.sqrt(L / 2.0) * 8.0 * L**2 / (j**3 * np.pi**3), 0.0)
        np.testing.assert_allclose(coeffs, exact, rtol=1e-10, atol=1e-12)


class TestAmplitudeConversion:
    def test_displayed_round_trip(self):
        """displayed -> modal -> displayed is the identity."""
        rng = np.random.default_rng(3)
        for L in (np.pi, 853.44):
            amp = rng.standard_normal(5)
            back = modal_to_displayed(displayed_to_modal(amp, L), L)
            np.testing.assert_allclose(back, amp, rtol=1e-15)

    def test_displayed_amplitude_is_peak_value(self):
        """A displayed amplitude equals the physical peak of a single mode."""
        basis = Basis(L=853.44, n_w=9, n_t=2)
        grid = make_grid(basis)
        coeffs = np.zeros(9)
        coeffs[8] = displayed_to_modal(3.0, basis.L)
        values = coeffs @ grid.modes[:9]
        assert abs(np.max(np.abs(values)) - 3.0) < 1e-3


if __name__ == "__main__":
    pytest.main([__file__, "-v"])
