"""Tests for the modal right-hand side, parameters, and piston pressure."""

import numpy as np
import pytest

from fishbone.cable import h_of, make_geometry
from fishbone.dynamics import (
    ModalState,
    ModelParams,
    g_load_projection,
    linear_operator,
    make_packed_rhs,
    piston_pressure,
    rhs,
)
from fishbone.linear import characteristic_roots
from fishbone.spectral import Basis, eval_modal, make_grid


def nodeck_setup(n_w=3, n_t=2, L=np.pi, **params):
    basis = Basis(L=L, n_w=n_w, n_t=n_t)
    grid = make_grid(basis)
    geometry = make_geometry(0.0, 1.0, 0.0, 0.0, basis, grid, allow_flat=True)
    return ModelParams(L=L, **params), geometry, basis, grid


def cable_setup(n_w=3, n_t=2, L=np.pi, a=0.2, b=1.0, c=1.0, **params):
    basis = Basis(L=L, n_w=n_w, n_t=n_t)
    grid = make_grid(basis)
    geometry = make_geometry(a, 1.0, b, c, basis, grid)
    return ModelParams(L=L, **params), geometry, basis, grid


def random_state(rng, basis, scale=1.0):
    return ModalState(
        scale * rng.standard_normal(basis.n_w),
        scale * rng.standard_normal(basis.n_w),
        scale * rng.standard_normal(basis.n_t),
        scale * rng.standard_normal(basis.n_t),
    )


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
            with pytest.raises(ValueError):
                ModelParams(**{name: 0.0})

    def test_nonnegative_groups(self):
        """kappa, delta, zeta, beta, P, S must be nonnegative."""
        for name in ("kappa", "delta", "zeta", "beta", "P", "S"):
            with pytest.raises(ValueError):
                ModelParams(**{name: -1e-9})

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
        state = random_state(rng, basis)
        back = ModalState.unpack(state.pack(), 4, 2, t=state.t)
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
        params, geo, basis, grid = nodeck_setup()
        d = rhs(ModalState.zero(basis), params, geo, basis, grid)
        assert not d.pack().any()

    def test_rest_state_balances_gravity(self):
        """a = Mg/(2H), c = H makes the zero state an exact equilibrium."""
        M, g, H = 7198.0, 9.8, 4.5413e7
        basis = Basis(L=853.44, n_w=6, n_t=3)
        grid = make_grid(basis)
        geo = make_geometry(M * g / (2.0 * H), 1.0, 0.0, H, basis, grid)
        params = ModelParams(M=M, D=3.0e10, eps=1.0e12, kappa=5.0e5, ell=6.0, g=g, L=853.44)
        d = rhs(ModalState.zero(basis), params, geo, basis, grid)
        scale = np.abs(g_load_projection(params, basis.n_w)).max() / M
        assert np.abs(d.pack()).max() < 1e-9 * scale

    def test_single_mode_formula(self):
        """One-mode nondimensional rhs matches the written-out ODE."""
        params, geo, basis, grid = nodeck_setup(
            delta=0.1, beta=0.05, Upsilon=0.4, Ustream=2.0, g=0.7, ell=1.0
        )
        rng = np.random.default_rng(1)
        state = random_state(rng, basis)
        d = rhs(state, params, geo, basis, grid)
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
        params, geo, basis, grid = nodeck_setup(n_w=5, n_t=2, L=2.0, S=1.7, P=0.4)
        base = ModelParams(L=2.0)
        rng = np.random.default_rng(3)
        state = ModalState(
            rng.standard_normal(5), np.zeros(5), np.zeros(2), np.zeros(2)
        )
        d_with = rhs(state, params, geo, basis, grid)
        d_without = rhs(state, base, geo, basis, grid)
        k = basis.wavenumbers(5)
        slope = eval_modal(state.w, basis, grid, 1)
        norm_sq = float(grid.weights @ slope**2)
        expected = -(params.S * norm_sq - params.P) * k**2 * state.w
        np.testing.assert_allclose(
            d_with.wdot - d_without.wdot, expected, rtol=1e-9, atol=1e-12
        )

    def test_dimension_mismatch(self):
        """A state sized for another basis is refused."""
        params, geo, basis, grid = nodeck_setup()
        bad = ModalState(np.zeros(4), np.zeros(4), np.zeros(2), np.zeros(2))
        with pytest.raises(ValueError):
            rhs(bad, params, geo, basis, grid)

    def test_linearity_without_cables(self):
        """With b = c = 0, S = 0 the rhs minus the g load is linear."""
        params, geo, basis, grid = nodeck_setup(
            delta=0.2, beta=0.1, Upsilon=0.3, Ustream=1.5, g=0.5, zeta=0.4, kappa=0.6
        )
        rng = np.random.default_rng(4)
        load = np.zeros(2 * basis.n_w + 2 * basis.n_t)
        load[basis.n_w : 2 * basis.n_w] = g_load_projection(params, basis.n_w) / params.M
        for alpha in (2.0, -0.5, 10.0):
            state = random_state(rng, basis)
            scaled = ModalState(
                alpha * state.w, alpha * state.wdot, alpha * state.th, alpha * state.thdot
            )
            lhs = rhs(scaled, params, geo, basis, grid).pack() - load
            ref = alpha * (rhs(state, params, geo, basis, grid).pack() - load)
            np.testing.assert_allclose(lhs, ref, rtol=1e-12, atol=1e-12)

    def test_torsional_block_decouples_without_cables(self):
        """With b = c = 0 the torsional derivatives ignore the w channel."""
        params, geo, basis, grid = nodeck_setup(
            delta=0.2, beta=0.1, Upsilon=0.3, Ustream=1.5, zeta=0.4, kappa=0.6
        )
        rng = np.random.default_rng(5)
        state = random_state(rng, basis)
        perturbed = ModalState(
            state.w + rng.standard_normal(basis.n_w),
            state.wdot + rng.standard_normal(basis.n_w),
            state.th,
            state.thdot,
        )
        d0 = rhs(state, params, geo, basis, grid)
        d1 = rhs(perturbed, params, geo, basis, grid)
        np.testing.assert_array_equal(d0.thdot, d1.thdot)
        np.testing.assert_array_equal(d0.th, d1.th)

    def test_flow_reversal_mirror(self):
        """Reversing the flow and mirroring theta flips exactly the torsional block."""
        params, geo, basis, grid = cable_setup(
            delta=0.1, beta=0.2, Upsilon=0.5, Ustream=3.0, zeta=0.3, kappa=0.2, g=0.6
        )
        mirrored_params = ModelParams(
            L=params.L, delta=0.1, beta=0.2, Upsilon=-0.5, Ustream=-3.0,
            zeta=0.3, kappa=0.2, g=0.6,
        )
        rng = np.random.default_rng(6)
        for _ in range(5):
            state = random_state(rng, basis, scale=0.5)
            mirrored = ModalState(state.w, state.wdot, -state.th, -state.thdot)
            d = rhs(state, params, geo, basis, grid)
            dm = rhs(mirrored, mirrored_params, geo, basis, grid)
            np.testing.assert_array_equal(dm.wdot, d.wdot)
            np.testing.assert_array_equal(dm.w, d.w)
            np.testing.assert_array_equal(dm.thdot, -d.thdot)
            np.testing.assert_array_equal(dm.th, -d.th)

    def test_cable_part_is_both_hanger_lines(self):
        """The cable part of the rhs projects h(w + l th) +- h(w - l th), th zero-padded."""
        n_w, n_t, M, ell = 5, 3, 2.5, 0.7
        params, geo, basis, grid = cable_setup(n_w=n_w, n_t=n_t, M=M, ell=ell, delta=0.1)
        bare = make_geometry(geo.a, geo.s0, 0.0, 0.0, basis, grid)
        with_cables = make_packed_rhs(params, geo, basis, grid)
        without = make_packed_rhs(params, bare, basis, grid)
        rng = np.random.default_rng(9)
        for _ in range(5):
            state = random_state(rng, basis, scale=0.5)
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

    def test_couplings_zero_padded(self):
        """Vertical modes beyond n_t receive no piston coupling."""
        params, geo, basis, grid = nodeck_setup(
            n_w=4, n_t=2, beta=0.3, Upsilon=0.7, Ustream=2.0
        )
        rng = np.random.default_rng(7)
        state = ModalState(
            np.zeros(4), np.zeros(4), rng.standard_normal(2), rng.standard_normal(2)
        )
        d = rhs(state, params, geo, basis, grid)
        assert d.wdot[2] == 0.0 and d.wdot[3] == 0.0
        assert d.wdot[0] != 0.0


class TestLinearOperator:
    def test_mode_blocks_match_characteristic_roots(self):
        """Each mode's (w_j, w_j', th_j, th_j') block of A has the closed-form roots."""
        params = ModelParams(
            M=2.0, D=1.5, eps=0.8, kappa=0.3, ell=1.2, delta=0.2, zeta=0.15,
            beta=0.1, Upsilon=0.6, Ustream=3.0, g=0.4, L=np.pi,
        )
        n_w, n_t = 5, 3
        A, c = linear_operator(params, Basis(L=np.pi, n_w=n_w, n_t=n_t))
        outside = np.ones(A.shape, dtype=bool)
        for j in range(1, n_w + 1):
            idx = [j - 1, n_w + j - 1]
            if j <= n_t:
                idx += [2 * n_w + j - 1, 2 * n_w + n_t + j - 1]
            block = np.ix_(idx, idx)
            outside[block] = False
            expected = characteristic_roots(j, params)[: len(idx)]
            np.testing.assert_allclose(
                np.sort_complex(np.linalg.eigvals(A[block])), np.sort_complex(expected), rtol=1e-10
            )
        assert not A[outside].any()
        np.testing.assert_allclose(c[n_w : 2 * n_w], g_load_projection(params, n_w) / params.M)


class TestGLoadProjection:
    def test_formula(self):
        """(Mg, e_j)_0 = M g sqrt(2L) (1-(-1)^j)/(j pi), zero for even j."""
        params = ModelParams(M=3.0, g=2.0, L=5.0)
        proj = g_load_projection(params, 4)
        j = np.arange(1, 5)
        expected = 3.0 * 2.0 * np.sqrt(10.0) * (1.0 - (-1.0) ** j) / (j * np.pi)
        np.testing.assert_allclose(proj, expected, rtol=1e-15)
        assert proj[1] == 0.0 and proj[3] == 0.0


class TestPistonPressure:
    def test_static_unforced_is_zero(self):
        """All velocities zero and eta = 0 gives zero pressure."""
        params, geo, basis, grid = nodeck_setup(beta=0.4, Upsilon=0.2)
        state = ModalState(np.ones(3), np.zeros(3), np.ones(2), np.zeros(2))
        assert piston_pressure(state, params, basis, grid, 1.0, 0.1) == 0.0

    def test_pure_plunge(self):
        """theta = 0 reduces the pressure to -beta w_t(x)."""
        params, geo, basis, grid = nodeck_setup(beta=0.4, Upsilon=0.2, Ustream=3.0)
        rng = np.random.default_rng(8)
        wdot = rng.standard_normal(3)
        state = ModalState(np.zeros(3), wdot, np.zeros(2), np.zeros(2))
        x = 0.9
        shapes = np.sqrt(2.0 / np.pi) * np.sin(np.arange(1, 4) * x)
        expected = -params.beta * float(shapes @ wdot)
        for Y in (-0.5, 0.0, 1.0):
            assert piston_pressure(state, params, basis, grid, x, Y) == pytest.approx(
                expected, rel=1e-14
            )

    def test_pure_mode2_twist_rate(self):
        """A pure mode-2 twist rate at Y = ell gives -beta ell thdot_2 e_2(x)."""
        params, geo, basis, grid = nodeck_setup(beta=0.25, ell=1.3)
        state = ModalState(np.zeros(3), np.zeros(3), np.zeros(2), np.array([0.0, 0.7]))
        x = 1.1
        expected = -0.25 * 1.3 * 0.7 * np.sqrt(2.0 / np.pi) * np.sin(2.0 * x)
        assert piston_pressure(state, params, basis, grid, x, 1.3) == pytest.approx(
            expected, rel=1e-14
        )

    def test_domain_guards(self):
        """Points off the deck are rejected."""
        params, geo, basis, grid = nodeck_setup(ell=1.0)
        state = ModalState.zero(basis)
        with pytest.raises(ValueError):
            piston_pressure(state, params, basis, grid, -0.1, 0.0)
        with pytest.raises(ValueError):
            piston_pressure(state, params, basis, grid, 1.0, 1.5)


if __name__ == "__main__":
    pytest.main([__file__, "-v"])
