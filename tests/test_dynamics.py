"""Tests for the modal right-hand side, the parameters and the coefficient table."""

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from fishbone.cable import h_of
from fishbone.dynamics import (
    ModalState,
    ModelParams,
    linear_operator,
    make_packed_rhs,
    mode_coefficients,
)
from fishbone.cli import load_preset
from fishbone.linear import characteristic_roots
from fishbone.spectral import Basis, make_grid
from models import cable_setup, random_state, rebuilt


def unpacked_rhs(state, params, geometry, basis, grid):
    """The packed RHS at one state, unpacked into its four channels."""
    dy = make_packed_rhs(params, geometry, basis, grid)(0.0, state.pack())
    return ModalState.unpack(dy, basis.n_w, basis.n_t)


class TestModelParams:
    def test_mu_is_delta_plus_beta(self):
        """mu = delta + beta is derived, never stored."""
        p = ModelParams(delta=0.3, beta=0.2)
        assert p.mu == pytest.approx(0.5)

    def test_eta_is_beta_times_speed(self):
        """eta = beta * Ustream is derived, never stored."""
        p = ModelParams(beta=0.01, Ustream=30.0)
        assert p.eta == pytest.approx(0.3)

    def test_positive_groups(self):
        """M, D, eps, ell, L must be positive."""
        for name in ("M", "D", "eps", "ell", "L"):
            for value in (0.0, np.nan, np.inf):
                with pytest.raises(ValueError, match=name):
                    ModelParams(**{name: value})

    def test_nonnegative_groups(self):
        """kappa, delta, zeta, beta, P, S must be nonnegative."""
        for name in ("kappa", "delta", "zeta", "beta", "P", "S"):
            for value in (-1e-9, np.nan, np.inf):
                with pytest.raises(ValueError, match=name):
                    ModelParams(**{name: value})

    def test_signed_fields_finite(self):
        """Upsilon, Ustream and g take either sign but must be finite."""
        for name in ("Upsilon", "Ustream", "g"):
            for value in (np.nan, np.inf, -np.inf):
                with pytest.raises(ValueError, match=f"{name} must be finite"):
                    ModelParams(**{name: value})

    def test_chord_offset_bounded(self):
        """|Upsilon| <= ell is enforced."""
        with pytest.raises(ValueError):
            ModelParams(ell=1.0, Upsilon=1.5)
        ModelParams(ell=1.0, Upsilon=-1.0)


class TestModalState:
    def test_pack_unpack_round_trip(self):
        """pack/unpack is the identity on [w, wdot, th, thdot]."""
        rng = np.random.default_rng(0)
        basis = Basis(L=np.pi, n_w=4, n_t=2)
        state = random_state(rng, basis.n_w, basis.n_t)
        back = ModalState.unpack(state.pack(), 4, 2)
        for field in ("w", "wdot", "th", "thdot"):
            np.testing.assert_array_equal(getattr(back, field), getattr(state, field))

    def test_nonfinite_rejected(self):
        """NaN or inf entries are rejected on construction."""
        with pytest.raises(ValueError):
            ModalState(np.array([np.nan]), np.zeros(1), np.zeros(1), np.zeros(1))

    def test_dimension_mismatch_rejected(self):
        """Velocity vectors must match their coefficient vectors."""
        with pytest.raises(ValueError):
            ModalState(np.zeros(3), np.zeros(2), np.zeros(1), np.zeros(1))


class TestRhs:
    def test_zero_state_unloaded_equilibrium(self):
        """Zero state with g = 0 and no cables has zero derivative."""
        params, geo, basis, grid = cable_setup(n_w=3, n_t=2, a=0.0, b=0.0, c=0.0)
        d = unpacked_rhs(ModalState.zero(basis), params, geo, basis, grid)
        assert not d.pack().any()

    def test_rest_state_balances_gravity(self):
        """a = Mg/(2H), c = H makes the zero state an exact equilibrium."""
        M, g, H = 7198.0, 9.8, 4.5413e7
        params, geo, basis, grid = cable_setup(
            n_w=6, n_t=3, L=853.44, a=M * g / (2.0 * H), b=0.0, c=H,
            M=M, D=3.0e10, eps=1.0e12, kappa=5.0e5, ell=6.0, g=g,
        )
        d = unpacked_rhs(ModalState.zero(basis), params, geo, basis, grid)
        scale = np.abs(mode_coefficients(params, basis.n_w, 1).load).max() / M
        assert np.abs(d.pack()).max() < 1e-9 * scale

    def test_single_mode_formula(self):
        """One-mode nondimensional rhs matches the written-out ODE."""
        params, geo, basis, grid = cable_setup(
            n_w=3, n_t=2, a=0.0, b=0.0, c=0.0,
            delta=0.1, beta=0.05, Upsilon=0.4, Ustream=2.0, g=0.7, ell=1.0,
        )
        rng = np.random.default_rng(1)
        state = random_state(rng, basis.n_w, basis.n_t)
        d = unpacked_rhs(state, params, geo, basis, grid)
        j = np.arange(1, basis.n_w + 1)
        gravity = params.g * np.sqrt(2.0 * np.pi) * (1.0 - (-1.0) ** j) / (j * np.pi)
        coupled = np.zeros(basis.n_w)
        coupled[: basis.n_t] = (
            -params.beta * params.Upsilon * state.thdot - params.eta * state.th
        )
        expected_acc = -params.mu * state.wdot - j**4.0 * state.w + coupled + gravity
        np.testing.assert_allclose(d.wdot, expected_acc, rtol=1e-12, atol=1e-12)
        np.testing.assert_array_equal(d.w, state.wdot)
        k = np.arange(1, basis.n_t + 1)
        torsion = -3.0 * (params.eps * k**4.0 + params.kappa * k**2.0) * state.th
        np.testing.assert_allclose(d.thdot, torsion, rtol=1e-12, atol=1e-12)

    def test_stretching_term_quadrature_oracle(self):
        """The Woinowsky-Krieger bracket uses ||w_x||^2 = sum (r pi/L)^2 w_r^2."""
        params, geo, basis, grid = cable_setup(
            n_w=5, n_t=2, L=2.0, a=0.0, b=0.0, c=0.0, S=1.7, P=0.4
        )
        base = replace(params, S=0.0, P=0.0)
        rng = np.random.default_rng(3)
        state = ModalState(
            rng.standard_normal(5), np.zeros(5), np.zeros(2), np.zeros(2)
        )
        d_with = unpacked_rhs(state, params, geo, basis, grid)
        d_without = unpacked_rhs(state, base, geo, basis, grid)
        k = basis.wavenumbers()
        slope = state.w @ grid.dmodes[: basis.n_w]
        norm_sq = float(grid.weights @ slope**2)
        expected = -(params.S * norm_sq - params.P) * k**2 * state.w
        np.testing.assert_allclose(
            d_with.wdot - d_without.wdot, expected, rtol=1e-9, atol=1e-12
        )

    def test_linearity_without_cables(self):
        """With b = c = 0, S = 0 the rhs minus the g load is linear."""
        params, geo, basis, grid = cable_setup(
            n_w=3, n_t=2, a=0.0, b=0.0, c=0.0,
            delta=0.2, beta=0.1, Upsilon=0.3, Ustream=1.5, g=0.5, zeta=0.4, kappa=0.6,
        )
        rng = np.random.default_rng(4)
        load = np.zeros(2 * basis.n_w + 2 * basis.n_t)
        load[basis.n_w : 2 * basis.n_w] = mode_coefficients(params, basis.n_w, 1).load / params.M
        for alpha in (2.0, -0.5, 10.0):
            state = random_state(rng, basis.n_w, basis.n_t)
            scaled = ModalState(
                alpha * state.w, alpha * state.wdot, alpha * state.th, alpha * state.thdot
            )
            lhs = unpacked_rhs(scaled, params, geo, basis, grid).pack() - load
            ref = alpha * (unpacked_rhs(state, params, geo, basis, grid).pack() - load)
            np.testing.assert_allclose(lhs, ref, rtol=1e-12, atol=1e-12)

    def test_torsional_block_decouples_without_cables(self):
        """With b = c = 0 the torsional derivatives ignore the w channel."""
        params, geo, basis, grid = cable_setup(
            n_w=3, n_t=2, a=0.0, b=0.0, c=0.0,
            delta=0.2, beta=0.1, Upsilon=0.3, Ustream=1.5, zeta=0.4, kappa=0.6,
        )
        rng = np.random.default_rng(5)
        state = random_state(rng, basis.n_w, basis.n_t)
        perturbed = ModalState(
            state.w + rng.standard_normal(basis.n_w),
            state.wdot + rng.standard_normal(basis.n_w),
            state.th,
            state.thdot,
        )
        d0 = unpacked_rhs(state, params, geo, basis, grid)
        d1 = unpacked_rhs(perturbed, params, geo, basis, grid)
        np.testing.assert_array_equal(d0.thdot, d1.thdot)
        np.testing.assert_array_equal(d0.th, d1.th)

    def test_flow_reversal_mirror(self):
        """Reversing the flow and mirroring theta flips exactly the torsional block."""
        params, geo, basis, grid = cable_setup(
            n_w=3, n_t=2, delta=0.1, beta=0.2, Upsilon=0.5, Ustream=3.0, zeta=0.3, kappa=0.2, g=0.6
        )
        mirrored_params = replace(params, Upsilon=-0.5, Ustream=-3.0)
        rng = np.random.default_rng(6)
        for _ in range(5):
            state = random_state(rng, basis.n_w, basis.n_t, 0.5)
            mirrored = ModalState(state.w, state.wdot, -state.th, -state.thdot)
            d = unpacked_rhs(state, params, geo, basis, grid)
            dm = unpacked_rhs(mirrored, mirrored_params, geo, basis, grid)
            np.testing.assert_array_equal(dm.wdot, d.wdot)
            np.testing.assert_array_equal(dm.w, d.w)
            np.testing.assert_array_equal(dm.thdot, -d.thdot)
            np.testing.assert_array_equal(dm.th, -d.th)

    def test_cable_part_is_both_hanger_lines(self):
        """The cable part of the rhs projects h(w + l th) +- h(w - l th), th zero-padded."""
        n_w, n_t, M, ell = 5, 3, 2.5, 0.7
        params, geo, basis, grid = cable_setup(n_w=n_w, n_t=n_t, M=M, ell=ell, delta=0.1)
        bare = rebuilt(geo, basis, grid, b=0.0, c=0.0)
        with_cables = make_packed_rhs(params, geo, basis, grid)
        without = make_packed_rhs(params, bare, basis, grid)
        rng = np.random.default_rng(9)
        for _ in range(5):
            state = random_state(rng, basis.n_w, basis.n_t, 0.5)
            y = state.pack()
            part = with_cables(0.0, y) - without(0.0, y)
            th = np.concatenate([state.th, np.zeros(n_w - n_t)])
            h_up = h_of(state.w + ell * th, geo, grid)
            h_down = h_of(state.w - ell * th, geo, grid)
            f_w = grid.dmodes[:n_w] @ (grid.weights * (h_up + h_down)) / M
            f_t = grid.dmodes[:n_t] @ (grid.weights * ell * (h_up - h_down)) * 3.0 / (M * ell**2)
            expected = np.concatenate([np.zeros(n_w), f_w, np.zeros(n_t), f_t])
            scale = np.abs(expected).max()
            np.testing.assert_allclose(part, expected, rtol=0, atol=1e-12 * scale)

    @pytest.mark.parametrize("nodes", [1, 7, 64, 320])
    def test_line_mix_is_add_and_subtract(self, nodes):
        """[[1, 1], [1, -1]] @ [h_up; h_down] gives np.add and np.subtract bit for bit,
        with the lines in either order, as the RHS forms f and f-bar / l."""
        mix = np.array([[1.0, 1.0], [1.0, -1.0]])
        rng = np.random.default_rng(nodes)
        for _ in range(20):
            magnitudes = 10.0 ** rng.uniform(-12, 12, size=(2, nodes))
            lines = rng.standard_normal((2, nodes)) * magnitudes
            lines[1, ::3] = -lines[0, ::3] * (1.0 + 1e-15 * rng.standard_normal(lines[0, ::3].shape))
            for first, second in (lines, lines[::-1]):
                out = np.empty((2, nodes))
                np.dot(mix, np.array([first, second]), out)
                np.testing.assert_array_equal(out[0], np.add(first, second), strict=True)
                np.testing.assert_array_equal(out[1], np.subtract(first, second), strict=True)

    def test_returned_derivative_is_never_reused(self):
        """The kernel's scratch buffers stay inside it: every call returns a new array.

        RK4 holds k1 to k4 at once, so a later call must not change an earlier result.
        """
        params, geo, basis, grid = cable_setup(n_w=4, n_t=3, S=1.3, P=0.2, delta=0.1, g=0.4)
        rhs = make_packed_rhs(params, geo, basis, grid)
        rng = np.random.default_rng(12)
        y1 = random_state(rng, basis.n_w, basis.n_t).pack()
        y2 = random_state(rng, basis.n_w, basis.n_t).pack()
        first = rhs(0.0, y1)
        kept, y1_kept = first.copy(), y1.copy()
        rhs(0.0, y2)
        np.testing.assert_array_equal(first, kept)
        np.testing.assert_array_equal(y1, y1_kept)
        again = rhs(0.0, y1)
        np.testing.assert_array_equal(again, first)
        assert not np.shares_memory(again, first)

    @pytest.mark.parametrize("name", ["free", "wind_stretch"])
    def test_calls_allocate_only_the_derivative(self, name):
        """Ten calls on a preset raise the traced peak by less than one (2, nodes) array.

        The work arrays are built once per make_packed_rhs; a call allocates only
        the derivative it returns.
        """
        scenario = load_preset(name).scenario
        grid = make_grid(scenario.basis)
        rhs = make_packed_rhs(scenario.params, scenario.geometry, scenario.basis, grid)
        y = scenario.initial.pack()
        rhs(0.0, y)
        tracemalloc.start()  # traces what is allocated from here on
        try:
            for _ in range(10):
                rhs(0.0, y)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert grid.n_nodes == 240
        assert peak < 2 * grid.n_nodes * 8

    def test_linear_operator_alone_without_cables_and_stretching(self):
        """With b = c = 0 and S = 0 the RHS is A y + c and never evaluates the cubic terms.

        At w_1 = 1e200 the cable slopes and ||w_x||^2 overflow, so evaluating
        either term with a zero coefficient would give 0 * inf = NaN.
        """
        params, geo, basis, grid = cable_setup(
            b=0.0, c=0.0, delta=0.2, beta=0.1, Upsilon=0.3, Ustream=1.5, zeta=0.4, kappa=0.6, g=0.5, P=0.3
        )
        rhs = make_packed_rhs(params, geo, basis, grid)
        A, c = linear_operator(params, basis)
        huge = np.zeros(len(c))
        huge[0] = 1e200
        assert np.isfinite(rhs(0.0, huge)).all()
        rng = np.random.default_rng(13)
        for _ in range(10):
            y = random_state(rng, basis.n_w, basis.n_t).pack()
            expected = A @ y + c
            scale = np.abs(expected).max()
            np.testing.assert_allclose(rhs(0.0, y), expected, rtol=1e-15, atol=1e-15 * scale)

    def test_couplings_zero_padded(self):
        """Vertical modes beyond n_t receive no piston coupling."""
        params, geo, basis, grid = cable_setup(
            n_w=4, n_t=2, a=0.0, b=0.0, c=0.0, beta=0.3, Upsilon=0.7, Ustream=2.0
        )
        rng = np.random.default_rng(7)
        state = ModalState(
            np.zeros(4), np.zeros(4), rng.standard_normal(2), rng.standard_normal(2)
        )
        d = unpacked_rhs(state, params, geo, basis, grid)
        assert d.wdot[2] == 0.0 and d.wdot[3] == 0.0
        assert d.wdot[0] != 0.0


class TestLinearOperator:
    def test_mode_blocks_match_characteristic_roots(self):
        """Each mode's (w_j, w_j', th_j, th_j') block of A has the closed-form roots."""
        params = ModelParams(
            M=2.0, D=1.5, eps=0.8, kappa=0.3, ell=1.2, delta=0.2, zeta=0.15,
            beta=0.1, Upsilon=0.6, Ustream=3.0, g=0.4,
        )
        n_w, n_t = 5, 3
        A, c = linear_operator(params, Basis(L=np.pi, n_w=n_w, n_t=n_t))
        outside = np.ones(A.shape, dtype=bool)
        vertical, torsional = characteristic_roots(params, n_w, n_t)
        for j in range(1, n_w + 1):
            idx, expected = [j - 1, n_w + j - 1], [*vertical[j - 1]]
            if j <= n_t:
                idx += [2 * n_w + j - 1, 2 * n_w + n_t + j - 1]
                expected += [*torsional[j - 1]]
            block = np.ix_(idx, idx)
            outside[block] = False
            np.testing.assert_allclose(
                np.sort_complex(np.linalg.eigvals(A[block])), np.sort_complex(expected), rtol=1e-10
            )
        assert not A[outside].any()
        np.testing.assert_allclose(c[n_w : 2 * n_w], mode_coefficients(params, n_w, 1).load / params.M)

    def test_wind_enters_the_vertical_rows_only(self):
        """On ``damped`` the th and thdot rows of A and c are the same bits with the wind on
        and with beta = Ustream = Upsilon = 0, while the wdot rows differ: no torsion row
        reads the flow, so at linear order the wind cannot act on torsion."""
        scenario = load_preset("damped").scenario
        still = replace(scenario.params, beta=0.0, Ustream=0.0, Upsilon=0.0)
        (A, c), (A0, c0) = (linear_operator(p, scenario.basis) for p in (scenario.params, still))
        n_w, n_t = scenario.basis.n_w, scenario.basis.n_t
        torsion = slice(2 * n_w, 2 * n_w + 2 * n_t)
        assert np.array_equal(A[torsion], A0[torsion]) and np.array_equal(c[torsion], c0[torsion])
        assert not np.array_equal(A[n_w : 2 * n_w], A0[n_w : 2 * n_w])


    def test_span_mismatch_rejected(self):
        """A basis on another span than the model is refused, not mixed into A."""
        _, geometry, basis, grid = cable_setup(n_w=3, n_t=2, L=2.0)
        with pytest.raises(ValueError, match="ModelParams.L = 3.14159.*Basis.L = 2.0"):
            make_packed_rhs(ModelParams(), geometry, basis, grid)


class TestGridFit:
    """make_packed_rhs refuses a grid or a cable geometry that does not fit the basis."""

    def test_grid_of_another_span(self):
        params, geo, basis, _ = cable_setup(n_w=3, n_t=2)
        wrong = make_grid(Basis(L=2.0 * np.pi, n_w=3, n_t=2))
        with pytest.raises(ValueError, match=r"QuadratureGrid.L = 6.28\d*, Basis.L = 3.14"):
            make_packed_rhs(params, geo, basis, wrong)

    def test_grid_for_fewer_modes(self):
        params, geo, basis, _ = cable_setup(n_w=3, n_t=2)
        small = make_grid(Basis(L=np.pi, n_w=2, n_t=1))  # the same 240 nodes
        with pytest.raises(ValueError, match="the grid tabulates 2 modes, the basis retains 3"):
            make_packed_rhs(params, geo, basis, small)

    def test_geometry_on_another_grid(self):
        """Another node count, or the same count over another span, is refused."""
        params, geo, basis, grid = cable_setup(n_w=3, n_t=2)
        finer = Basis(L=np.pi, n_w=30, n_t=2)  # 30 panels: 360 nodes
        geo_360 = rebuilt(geo, finer, make_grid(finer))
        with pytest.raises(ValueError, match=r"built on 360 nodes over a span of 3.14\d*, the grid has 240"):
            make_packed_rhs(params, geo_360, basis, grid)
        geo_2pi = cable_setup(n_w=3, n_t=2, L=2.0 * np.pi)[1]
        message = r"built on 240 nodes over a span of 6.28\d*, the grid has 240 nodes over 3.14"
        with pytest.raises(ValueError, match=message):
            make_packed_rhs(params, geo_2pi, basis, grid)

    def test_finer_grid_accepted(self):
        """More modes and nodes on the same span, with a geometry on them, give the same RHS
        to quadrature accuracy."""
        params, geo, basis, grid = cable_setup(n_w=3, n_t=2, S=1.0)
        fine_grid = make_grid(Basis(L=np.pi, n_w=30, n_t=2))
        fine_geo = rebuilt(geo, basis, fine_grid)
        y = random_state(np.random.default_rng(2), basis.n_w, basis.n_t).pack()
        want = make_packed_rhs(params, geo, basis, grid)(0.0, y)
        got = make_packed_rhs(params, fine_geo, basis, fine_grid)(0.0, y)
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


class TestModeCoefficients:
    def test_formulas(self):
        """Each field of the table is the coefficient its comment names, mode by mode."""
        params = ModelParams(M=2.0, D=1.5, eps=0.8, kappa=0.3, ell=1.2, P=0.7, g=0.4, L=2.5)
        co = mode_coefficients(params, 5, 3)
        j = np.arange(1, 6)
        kw, kt = j * np.pi / 2.5, np.arange(1, 4) * np.pi / 2.5
        assert co.inv_m == pytest.approx(0.5, rel=1e-15)
        assert co.inv_it == pytest.approx(3.0 / (2.0 * 1.44), rel=1e-15)
        expected = {
            "k2": kw**2, "bending": 1.5 * kw**4, "prestress": 0.7 * kw**2,
            "warping": 0.8 * kt**4, "torsion": 0.3 * kt**2,
            "load": 2.0 * 0.4 * np.sqrt(5.0) * (1.0 - (-1.0) ** j) / (j * np.pi),
        }
        for name, value in expected.items():
            np.testing.assert_allclose(getattr(co, name), value, rtol=1e-14, err_msg=name)


class TestGLoadProjection:
    def test_formula(self):
        """The table's load is (Mg, e_j)_0 = M g sqrt(2L) (1-(-1)^j)/(j pi), zero for even j."""
        params = ModelParams(M=3.0, g=2.0, L=5.0)
        proj = mode_coefficients(params, 4, 1).load
        j = np.arange(1, 5)
        expected = 3.0 * 2.0 * np.sqrt(10.0) * (1.0 - (-1.0) ** j) / (j * np.pi)
        np.testing.assert_allclose(proj, expected, rtol=1e-15)
        assert proj[1] == 0.0 and proj[3] == 0.0


if __name__ == "__main__":
    pytest.main([__file__, "-v"])
