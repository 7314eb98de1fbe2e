"""Tests for the cable-hanger nonlinearity: geometry, forces, and energy."""

import numpy as np
import pytest

from fishbone.cable import (
    arc_length,
    force_law,
    h_of,
    make_geometry,
    pi_energy,
)
from fishbone.diagnostics import ROW_BLOCK
from fishbone.dynamics import ModelParams, channel_slices, make_packed_rhs
from fishbone.cli import load_preset
from fishbone.spectral import Basis, make_grid
from models import cable_setup, rebuilt

A, S0, B, C = 0.2, 1.0, 1.0, 1.0


def pair_projection(geometry, basis, grid, ell, w, th):
    """(f, e_j')_0 for j <= n_w and (f-bar, e_j')_0 for j <= n_t, read off the packed RHS.

    The cable part is the RHS minus the RHS of the same rest shape without cable pull.
    """
    params = ModelParams(L=basis.L, ell=ell)
    bare = rebuilt(geometry, basis, grid, b=0.0, c=0.0)
    where = channel_slices(basis.n_w, basis.n_t)
    y = np.zeros(where.thdot.stop)
    y[where.w], y[where.th] = w, th
    part = make_packed_rhs(params, geometry, basis, grid)(0.0, y)
    part -= make_packed_rhs(params, bare, basis, grid)(0.0, y)
    return part[where.wdot], part[where.thdot] * ell**2 / 3.0


class TestGeometry:
    def test_rest_shape_derived_quantities(self):
        """Slope, element length, and the summary integrals match closed forms."""
        _, geo, basis, grid = cable_setup()
        L = basis.L
        np.testing.assert_allclose(geo.sx, A * (L / 2.0 - grid.nodes), rtol=1e-14)
        np.testing.assert_allclose(geo.xi0, np.sqrt(1.0 + geo.sx**2), rtol=1e-14)
        np.testing.assert_allclose(geo.int_abs_sx, A * L**2 / 4.0, rtol=1e-12)
        np.testing.assert_allclose(geo.max_xi0, np.sqrt(1.0 + (A * L / 2.0) ** 2), rtol=1e-12)
        np.testing.assert_allclose(geo.int_xi0_sq, L + A**2 * L**3 / 12.0, rtol=1e-12)

    def test_abs_slope_integral_is_exact_on_an_odd_panel_count(self):
        """int |s_x| = a L^2 / 4 also when the kink of |s_x| at L/2 falls inside a panel.

        At 21 modes the grid has 21 panels, so L/2 is the middle of one; a quadrature
        of |s_x| there is off by about 1e-5 relative.
        """
        _, geo, basis, grid = cable_setup(n_w=21, n_t=3)
        assert grid.panels % 2 == 1
        np.testing.assert_allclose(geo.int_abs_sx, A * basis.L**2 / 4.0, rtol=1e-15)

    def test_rest_arc_length_analytic(self):
        """L0 matches the closed-form parabola arc length and its frozen value."""
        _, geo, basis, grid = cable_setup()
        z = A * basis.L / 2.0
        exact = (z * np.sqrt(1.0 + z**2) + np.arcsinh(z)) / A
        np.testing.assert_allclose(geo.L0, exact, rtol=1e-12)
        np.testing.assert_allclose(geo.L0, 3.1925304741244744, rtol=1e-13)

    def test_rest_state_is_reference(self):
        """The undeformed state has L(0) = L0 and Pi(0) = 0."""
        _, geo, basis, grid = cable_setup()
        zero = np.zeros(basis.n_w)
        np.testing.assert_allclose(arc_length(zero, geo, grid), geo.L0, rtol=1e-14)
        assert abs(pi_energy(zero, geo, grid)) < 1e-12

    def test_flat_cable_requires_opt_in(self):
        """a = 0 needs a slack cable; tension with a flat cable is contradictory."""
        basis = Basis(L=np.pi, n_w=2, n_t=2)
        grid = make_grid(basis)
        with pytest.raises(ValueError):
            make_geometry(0.0, S0, B, C, basis, grid)
        geo = make_geometry(0.0, S0, 0.0, 0.0, basis, grid)
        assert geo.L0 == pytest.approx(np.pi)

    def test_negative_stiffness_rejected(self):
        """Negative b or c is rejected."""
        basis = Basis(L=np.pi, n_w=2, n_t=2)
        grid = make_grid(basis)
        with pytest.raises(ValueError):
            make_geometry(A, S0, -1.0, C, basis, grid)
        with pytest.raises(ValueError):
            make_geometry(A, S0, B, -1.0, basis, grid)
        with pytest.raises(ValueError, match="cable stiffnesses must be nonnegative"):
            make_geometry(0.0, S0, -1.0, 0.0, basis, grid)

    def test_nonfinite_parameters_rejected(self):
        """NaN or inf in a, s0, b or c is refused, naming the parameter."""
        basis = Basis(L=np.pi, n_w=2, n_t=2)
        grid = make_grid(basis)
        for index, name in enumerate(("a", "s0", "b", "c")):
            for value in (np.nan, np.inf):
                args = [A, S0, B, C]
                args[index] = value
                with pytest.raises(ValueError, match=f"{name} must be finite"):
                    make_geometry(*args, basis, grid)


    def test_grid_of_another_span_rejected(self):
        """A grid that does not fit the basis is refused, naming both spans: on a basis of
        span pi with a grid over 2 pi, L0 would be 6.934, not the rest length 3.193."""
        basis = Basis(L=np.pi, n_w=4, n_t=3)
        wrong = make_grid(Basis(L=2.0 * np.pi, n_w=4, n_t=3))
        with pytest.raises(ValueError, match=r"QuadratureGrid.L = 6.28\d*, Basis.L = 3.14"):
            make_geometry(A, S0, B, C, basis, wrong)
        small = make_grid(Basis(L=np.pi, n_w=2, n_t=1))
        with pytest.raises(ValueError, match="the grid tabulates 2 modes, the basis retains 4"):
            make_geometry(A, S0, B, C, basis, small)

    def test_modal_vector_longer_than_the_grid_refused(self):
        """A modal vector with more modes than the grid tabulates is refused, naming both
        counts, rather than cut to the grid's modes."""
        _, geo, basis, grid = cable_setup()
        tabulated = grid.dmodes.shape[0]
        message = f"length {tabulated + 1} does not fit a grid built for {tabulated} modes"
        with pytest.raises(ValueError, match=message):
            pi_energy(np.zeros(tabulated + 1), geo, grid)


class TestForceDensity:
    def test_zero_state_force_is_slope_tension(self):
        """h(0) = -c s_x exactly: at rest only the pretension survives."""
        _, geo, basis, grid = cable_setup()
        h0 = h_of(np.zeros(basis.n_w), geo, grid)
        np.testing.assert_allclose(h0, -C * geo.sx, rtol=1e-12, atol=1e-14)

    def test_zero_state_projection_formula(self):
        """(f(0), e_j')_0 = -2 c a sqrt(2L) (1-(-1)^j)/(j pi)."""
        _, geo, basis, grid = cable_setup(n_w=6, n_t=3)
        L = basis.L
        fw, _ = pair_projection(geo, basis, grid, 1.0, np.zeros(6), np.zeros(3))
        j = np.arange(1, 7)
        exact = -2.0 * C * A * np.sqrt(2.0 * L) * (1.0 - (-1.0) ** j) / (j * np.pi)
        np.testing.assert_allclose(fw, exact, rtol=1e-10, atol=1e-12)

    def test_xi_lower_bound(self):
        """Xi(u) >= 1 pointwise for any state: with b = 0, h(u) = -c xi0 (u_x + s_x) / Xi(u),
        so |h| <= c xi0 |u_x + s_x| at every node."""
        _, geo, basis, grid = cable_setup(b=0.0)
        rng = np.random.default_rng(11)
        for _ in range(50):
            u = rng.standard_normal(basis.n_w)
            total = u @ grid.dmodes[: u.size] + geo.sx
            assert np.all(np.abs(h_of(u, geo, grid)) <= (1.0 + 1e-12) * C * geo.xi0 * np.abs(total))

    def test_disabled_cables_return_zeros(self):
        """b = c = 0 produces exact zero forces and projections."""
        basis = Basis(L=np.pi, n_w=3, n_t=2)
        grid = make_grid(basis)
        geo = make_geometry(A, S0, 0.0, 0.0, basis, grid)
        rng = np.random.default_rng(5)
        w, th = rng.standard_normal(3), rng.standard_normal(2)
        assert not h_of(w, geo, grid).any()
        fw, ft = pair_projection(geo, basis, grid, 1.3, w, th)
        assert not fw.any() and not ft.any()

    def test_fine_grid_projection_oracle(self):
        """Projections agree with a 10x-finer independent quadrature to 1e-6."""
        _, geo, basis, grid = cable_setup(n_w=5, n_t=3)
        fine_basis = Basis(L=basis.L, n_w=50, n_t=3)
        fine_grid = make_grid(fine_basis)
        fine_geo = rebuilt(geo, fine_basis, fine_grid)
        rng = np.random.default_rng(17)
        for _ in range(5):
            w = 0.4 * rng.standard_normal(5)
            th = 0.4 * rng.standard_normal(3)
            fw, ft = pair_projection(geo, basis, grid, 1.1, w, th)
            fw_ref, ft_ref = pair_projection(fine_geo, basis, fine_grid, 1.1, w, th)
            scale = max(np.abs(fw_ref).max(), np.abs(ft_ref).max())
            np.testing.assert_allclose(fw, fw_ref, rtol=0, atol=1e-6 * scale)
            np.testing.assert_allclose(ft, ft_ref, rtol=0, atol=1e-6 * scale)


def folded_law_error(geo, grid, slope_scale, seeds=range(20)):
    """Worst |h - h_ref| / max |h_ref| of force_law on random (k, nodes) slope stacks.

    h_ref = [b (L0 - int Xi) - c xi0] (u_x + s_x) / Xi, written out without the folded weights.
    """
    worst = 0.0
    for seed in seeds:
        rng = np.random.default_rng(seed)
        k = int(rng.integers(1, 9))
        total = geo.sx + slope_scale * rng.standard_normal((k, grid.n_nodes))
        xi = np.sqrt(1.0 + total**2)
        pull = geo.b * (geo.L0 - xi @ grid.weights)
        expected = (pull[:, None] - geo.c * geo.xi0) * total / xi
        h = force_law(geo, grid, total.shape)(total.copy())
        worst = max(worst, np.abs(h - expected).max() / np.abs(expected).max())
    return worst


class TestFoldedForceLaw:
    """The force law with b folded into the weights against the law written out.

    ``force_law`` builds -b weights and c xi0 - b L0, so b L0 cancels against b int Xi
    inside one subtraction; the written-out law cancels L0 - int Xi first. Both
    round at a few ulp of b L0, which on the dimensional Tacoma geometry is
    2.3e10 against max |h| of about 1.5e7. Worst measured errors over 20 stacks
    of 1 to 8 rows each (bound: ten times that, rounded up to a power of ten):
    Tacoma 3.8e-13 (1e-11), nondimensional 1.9e-15 (1e-13), b = 0 2.4e-16
    (1e-14, nothing cancels), c = 0 9.6e-14 (1e-12). With c = 0 the error
    grows as the slopes shrink, since h itself is then the cancelled pull.
    """

    @pytest.mark.parametrize("slope_scale", [1e-4, 1e-2])
    def test_tacoma_geometry(self, slope_scale):
        tnb = load_preset("tnb").scenario
        geo, basis = tnb.geometry, tnb.basis
        grid = make_grid(basis)
        assert geo.b * geo.L0 > 2e10
        assert folded_law_error(geo, grid, slope_scale) < 1e-11

    @pytest.mark.parametrize("b, c, bound", [(B, C, 1e-13), (0.0, C, 1e-14), (B, 0.0, 1e-12)])
    @pytest.mark.parametrize("slope_scale", [0.1, 1.0])
    def test_nondimensional_geometry(self, b, c, bound, slope_scale):
        _, geo, basis, grid = cable_setup(b=b, c=c)
        assert folded_law_error(geo, grid, slope_scale) < bound

    def test_tacoma_slack_stretching(self):
        """b = 0 on the dimensional geometry: only the pretension c xi0 is left."""
        preset = load_preset("tnb").scenario
        tnb, basis = preset.geometry, preset.basis
        grid = make_grid(basis)
        geo = rebuilt(tnb, basis, grid, b=0.0)
        assert folded_law_error(geo, grid, 1e-2) < 1e-14


def subtraction_law(total, geo, grid):
    """The force law as it was written before ``force_law``, in seven ufunc calls: Xi, the
    pull Xi @ (-b weights), the gap pull - (c xi0 - b L0) as one subtraction, then
    (total / Xi) gap."""
    xi = np.sqrt(np.add(1.0, np.multiply(total, total)))
    gap = np.subtract(np.vecdot(xi, -geo.b * grid.weights)[..., None], geo.c * geo.xi0 - geo.b * geo.L0)
    return np.multiply(np.divide(total, xi), gap)


def law_geometry(name):
    """A cable geometry, its grid and a slope scale of its states: the Tacoma bridge, where
    b L0 > 2e10, the nondimensional one, and that one without b or without c."""
    if name == "tnb":
        scenario = load_preset("tnb").scenario
        assert scenario.geometry.b * scenario.geometry.L0 > 2e10
        return scenario.geometry, scenario.grid, 1e-2
    _, geo, _, grid = cable_setup(**{"nondimensional": {}, "b = 0": {"b": 0.0}, "c = 0": {"c": 0.0}}[name])
    return geo, grid, 0.5


class TestForceLawBits:
    """force_law gives the subtraction law's bits: [pull, 1] @ [1; -(c xi0 - b L0)] sums two
    exact products, so it rounds once, where the subtraction rounds."""

    @pytest.mark.parametrize("name", ["tnb", "nondimensional", "b = 0", "c = 0"])
    @pytest.mark.parametrize("lead", [(), (1,), (2,), (7,)], ids=["line", "1 line", "2 lines", "7 lines"])
    def test_lines_and_stacks(self, name, lead):
        geo, grid, scale = law_geometry(name)
        rng = np.random.default_rng(sum(lead))
        total = geo.sx + scale * rng.standard_normal((*lead, geo.sx.size))
        h = force_law(geo, grid, total.shape)(total.copy())
        np.testing.assert_array_equal(h.view(np.uint64), subtraction_law(total, geo, grid).view(np.uint64))

    @pytest.mark.parametrize("name", ["tnb", "nondimensional", "b = 0", "c = 0"])
    def test_non_finite_lines_stay_where_they_were(self, name):
        """A line with an inf slope and one with a nan slope give the subtraction law's values,
        so a blow-up shows in the same entries; the finite line beside them keeps its bits."""
        geo, grid, scale = law_geometry(name)
        total = geo.sx + scale * np.random.default_rng(3).standard_normal((3, geo.sx.size))
        total[1, 17], total[2, 40] = np.inf, np.nan
        line = total[1].copy()
        with np.errstate(invalid="ignore"):  # as integrate runs the law
            h, expected = force_law(geo, grid, total.shape)(total.copy()), subtraction_law(total, geo, grid)
            h_line = force_law(geo, grid, line.shape)(line.copy())
            expected_line = subtraction_law(line, geo, grid)
        assert not np.isfinite(h[1]).any() and not np.isfinite(h[2]).any()
        np.testing.assert_array_equal(h, expected)
        np.testing.assert_array_equal(h[0].view(np.uint64), expected[0].view(np.uint64))
        np.testing.assert_array_equal(h_line, expected_line)


class TestVariationalIdentity:
    def test_energy_gradient_matches_force(self):
        """d/dtau Pi(u + tau phi) at 0 equals -(h(u), phi_x)_0."""
        _, geo, basis, grid = cable_setup(n_w=5, n_t=3)
        rng = np.random.default_rng(23)
        tau = 1e-5
        for _ in range(10):
            u = 0.6 * rng.standard_normal(5)
            phi = rng.standard_normal(5)
            plus = pi_energy(u + tau * phi, geo, grid)
            minus = pi_energy(u - tau * phi, geo, grid)
            derivative = (plus - minus) / (2.0 * tau)
            h = h_of(u, geo, grid)
            phi_x = phi @ grid.dmodes[: phi.size]
            pairing = -float(grid.weights @ (h * phi_x))
            np.testing.assert_allclose(derivative, pairing, rtol=1e-4, atol=1e-10)

    def test_arc_length_lipschitz(self):
        """|L(u) - L(v)| <= sqrt(L) ||u_x - v_x||_0 (slope is 1-Lipschitz)."""
        _, geo, basis, grid = cable_setup()
        rng = np.random.default_rng(31)
        for _ in range(25):
            u = rng.standard_normal(basis.n_w)
            v = rng.standard_normal(basis.n_w)
            du = (u - v) @ grid.dmodes[: u.size]
            slope_norm = np.sqrt(float(grid.weights @ du**2))
            lhs = abs(arc_length(u, geo, grid) - arc_length(v, geo, grid))
            assert lhs <= np.sqrt(basis.L) * slope_norm + 1e-12


class TestRowStacks:
    def test_stack_equals_row_by_row(self):
        """On a (k, n) stack each row's value equals the single-vector call bit for bit.

        k = ROW_BLOCK + 1 hanger lines w +- l th of a 4+3 basis, th zero-padded,
        so a call of more rows than a diagnostics block sees the same values.
        """
        _, geo, basis, grid = cable_setup(n_w=4, n_t=3)
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
