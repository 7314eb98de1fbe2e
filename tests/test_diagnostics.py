"""Tests for energy channels, the energy identity, and the Lyapunov machinery."""

import tracemalloc

import numpy as np
import pytest

import fishbone.diagnostics
from fishbone import cable
from fishbone.cable import make_geometry, pi_energy
from fishbone.cli import load_preset
from fishbone.diagnostics import (
    DRAW_BLOCK,
    ROW_BLOCK,
    absorbing_params,
    attach_energies,
    difference_energy,
    energies,
    format_report,
    lemma_suite,
    lyapunov_value,
    random_states,
    sandwich_constants,
)
from fishbone.dynamics import (
    ModalState,
    ModelParams,
    channel_slices,
    linear_operator,
    mode_coefficients,
)
from fishbone.integrate import IntegratorConfig, Trajectory, integrate
from fishbone.spectral import Basis, make_grid


def cable_setup(n_w=4, n_t=3, L=np.pi, a=0.2, b=1.0, c=1.0, **over):
    params = ModelParams(L=L, **over)
    basis = Basis(L=L, n_w=n_w, n_t=n_t)
    grid = make_grid(basis)
    geo = make_geometry(a, 1.0, b, c, basis, grid)
    return params, geo, basis, grid


def reference_lemma_suite(samples, radius, geo, basis, grid, seed):
    """The lemma suite's checks one sample at a time, from the public cable functions.

    v and z are drawn DRAW_BLOCK pairs at a time, a v call then a z call per draw.
    """
    rng = np.random.default_rng(seed)
    span = basis.L
    k2 = basis.wavenumbers() ** 2
    c_pi = geo.b * np.sqrt(span) * (span / np.pi) * radius + geo.c * geo.max_xi0
    c_c = geo.b * (span + geo.int_abs_sx)
    c_c_bar = geo.c * geo.max_xi0 * (span + geo.int_abs_sx) + geo.b * geo.L0**2
    names = ("arc_lipschitz", "pi_lipschitz", "h_weak", "h_l2", "interpolation", "spectral")
    sides = {name: [] for name in names}  # (lhs, rhs) of each inequality
    required = []
    pairs = []
    for start in range(0, samples, DRAW_BLOCK):
        count = min(DRAW_BLOCK, samples - start)
        vs = random_states(rng, basis, radius, count)
        pairs += zip(vs, random_states(rng, basis, radius, count))
    for v, z in pairs:
        vx, zx = v @ grid.dmodes, z @ grid.dmodes
        l1_diff = grid.weights @ np.abs(vx - zx)
        l1_v = grid.weights @ np.abs(vx)
        arc = abs(cable.arc_length(v, geo, grid) - cable.arc_length(z, geo, grid))
        sides["arc_lipschitz"].append((arc, l1_diff))
        pi_v = cable.pi_energy(v, geo, grid)
        sides["pi_lipschitz"].append((abs(pi_v - cable.pi_energy(z, geo, grid)), c_pi * l1_diff))
        h_v = cable.h_of(v, geo, grid)
        sides["h_weak"].append((grid.weights @ (h_v * vx), -pi_v + c_c * l1_v + c_c_bar))
        sides["h_l2"].append(
            (grid.weights @ (h_v * h_v), 2.0 * geo.b**2 * span * l1_v**2 + 2.0 * geo.c**2 * geo.int_xi0_sq)
        )
        n0, n1, n2 = v @ v, k2 @ (v * v), k2**2 @ (v * v)
        sides["interpolation"].append((n1 * n1, n0 * n2))
        sides["spectral"] += [(n0, n1), (n1, n2)]
        required.append(n1 - 0.1 * (n2 + n1 * n1))
    report = {"growth_bound.max_required_C": max(required)}
    for name, pairs in sides.items():
        lhs, rhs = np.array(pairs).T
        slack = rhs - lhs
        scale = np.maximum(1.0, np.maximum(np.abs(lhs), np.abs(rhs)))
        report[f"{name}.violations"] = int(np.sum(slack < -1e-9 * scale))
        report[f"{name}.worst_slack"] = slack.min()
    return report


def assert_matches_reference(report, expected):
    """The reference's violation counts exactly, its slacks and growth constant to 1e-12."""
    for key, value in expected.items():
        if key.endswith(".violations"):
            assert report[key] == value, key
        else:
            np.testing.assert_allclose(report[key], value, rtol=1e-12, err_msg=key)


def random_modal_state(rng, basis, radius=1.0):
    draw = lambda n: random_states(rng, basis, radius, 1)[0][:n]
    return ModalState(
        draw(basis.n_w), draw(basis.n_w), draw(basis.n_t), draw(basis.n_t)
    )


class TestEnergyBreakdown:
    def test_channel_formulas(self):
        """Each channel matches its modal-sum definition with M, D folded in."""
        params, geo, basis, grid = cable_setup(
            n_w=3,
            n_t=3,
            M=2.0,
            D=1.5,
            eps=0.7,
            kappa=0.4,
            ell=1.2,
            S=0.8,
            P=0.3,
            g=0.25,
        )
        w = np.array([0.3, -0.2, 0.1])
        wdot = np.array([0.1, 0.0, -0.05])
        th = np.array([0.2, 0.1, -0.1])
        thdot = np.array([0.0, 0.15, 0.05])
        e = energies(ModalState(w, wdot, th, thdot), params, geo, basis, grid)
        k2 = np.arange(1, 4.0) ** 2  # (j pi / L)^2 at L = pi
        h1w = k2 @ w**2
        np.testing.assert_allclose(e.kinetic_w, 0.5 * 2.0 * wdot @ wdot, rtol=1e-12)
        np.testing.assert_allclose(e.bending, 0.5 * 1.5 * k2**2 @ w**2, rtol=1e-12)
        np.testing.assert_allclose(
            e.kinetic_th, 2.0 * 1.2**2 / 6.0 * thdot @ thdot, rtol=1e-12
        )
        np.testing.assert_allclose(e.warping, 0.5 * 0.7 * k2**2 @ th**2, rtol=1e-12)
        np.testing.assert_allclose(e.torsion, 0.5 * 0.4 * k2 @ th**2, rtol=1e-12)
        np.testing.assert_allclose(e.stretch, 0.25 * 0.8 * h1w**2, rtol=1e-12)
        np.testing.assert_allclose(e.prestress, -0.5 * 0.3 * h1w, rtol=1e-12)
        np.testing.assert_allclose(
            e.load, -mode_coefficients(params, 3, 1).load @ w, rtol=1e-12
        )
        expected_cable = pi_energy(w + 1.2 * th, geo, grid) + pi_energy(
            w - 1.2 * th, geo, grid
        )
        np.testing.assert_allclose(e.cable, expected_cable, rtol=1e-12)

    def test_aggregates(self):
        """E, Eplus, Efull stack the channels in the documented groups."""
        params, geo, basis, grid = cable_setup(S=0.8, P=0.3, g=0.25)
        state = random_modal_state(np.random.default_rng(0), basis)
        e = energies(state, params, geo, basis, grid)
        np.testing.assert_allclose(
            e.E, e.kinetic_w + e.bending + e.kinetic_th + e.warping + e.torsion
        )
        np.testing.assert_allclose(e.Eplus, e.E + e.stretch + e.cable)
        np.testing.assert_allclose(e.Efull, e.Eplus + e.prestress + e.load)

    def test_zero_state_zero_energy(self):
        """The rest state carries no energy in any channel."""
        params, geo, basis, grid = cable_setup(S=1.0, P=0.5, g=0.3)
        e = energies(ModalState.zero(basis), params, geo, basis, grid)
        assert e.E == 0.0 and e.Eplus == 0.0 and e.Efull == 0.0

    def test_flat_massless_cable_channel_skipped(self):
        """b = c = 0 makes the cable channel exactly zero."""
        params, geo, basis, grid = cable_setup(a=0.0, b=0.0, c=0.0)
        state = random_modal_state(np.random.default_rng(1), basis)
        assert energies(state, params, geo, basis, grid).cable == 0.0


    def test_span_mismatch_rejected(self):
        """energies and attach_energies refuse a model on another span than the basis."""
        _, geo, basis, grid = cable_setup(L=2.0)
        state = ModalState.zero(basis)
        traj = Trajectory(np.zeros(3), np.zeros((3, 14)), basis.n_w, basis.n_t)
        with pytest.raises(ValueError, match="ModelParams.L = 3.14159.*Basis.L = 2.0"):
            energies(state, ModelParams(), geo, basis, grid)
        with pytest.raises(ValueError, match="ModelParams.L = 3.14159.*Basis.L = 2.0"):
            attach_energies(traj, ModelParams(), geo, basis, grid)

    def test_grid_and_geometry_must_fit_the_basis(self):
        """energies, attach_energies and lyapunov_value refuse a grid of another span and a
        geometry built on another grid."""
        params, geo, basis, grid = cable_setup()
        state = random_modal_state(np.random.default_rng(1), basis)
        traj = Trajectory(np.zeros(3), np.zeros((3, 14)), basis.n_w, basis.n_t)
        wrong_grid = make_grid(Basis(L=2.0 * np.pi, n_w=4, n_t=3))
        wrong_geo = cable_setup(L=2.0 * np.pi)[1]
        for grid_, geo_, message in (
            (wrong_grid, geo, r"QuadratureGrid.L = 6.28\d*, Basis.L = 3.14"),
            (grid, wrong_geo, r"built on 240 nodes over a span of 6.28\d*, the grid has 240 nodes over 3.14"),
        ):
            with pytest.raises(ValueError, match=message):
                energies(state, params, geo_, basis, grid_)
            with pytest.raises(ValueError, match=message):
                attach_energies(traj, params, geo_, basis, grid_)
            with pytest.raises(ValueError, match=message):
                lyapunov_value(state, params, geo_, basis, grid_, 0.02)

    def test_state_must_fit_the_basis(self):
        """A state whose mode counts differ from the basis is refused, even at the same row width."""
        params, geo, basis, grid = cable_setup(n_w=4, n_t=3)
        swapped = ModalState(np.zeros(3), np.zeros(3), np.zeros(4), np.zeros(4))
        with pytest.raises(ValueError, match=r"\(3, 4\) modes does not fit the basis"):
            energies(swapped, params, geo, basis, grid)
        with pytest.raises(ValueError, match=r"\(3, 4\) modes does not fit the basis"):
            lyapunov_value(swapped, params, geo, basis, grid, 0.02)


class TestEnergyIdentity:
    def test_conservative_residual_equals_drift(self):
        """With zero damping and wind the residual is the relative energy drift."""
        params, geo, basis, grid = cable_setup(S=0.5, P=0.2, g=0.3, eps=0.5, kappa=0.3)
        y0 = ModalState(
            np.array([0.1, -0.05, 0.02, 0.0]),
            np.array([0.0, 0.03, 0.0, 0.0]),
            np.array([0.05, -0.02, 0.0]),
            np.array([0.01, 0.0, 0.0]),
        )
        cfg = IntegratorConfig(method="rk4", dt=1e-3, t_end=5.0, sample_every=5e-2)
        traj = integrate(y0, params, geo, basis, cfg)
        residual = attach_energies(traj, params, geo, basis, grid).diagnostics["residual"]
        efull = energies(traj.data, params, geo, basis, grid).Efull
        drift = (efull - efull[0]) / max(abs(efull[0]), 1.0)
        np.testing.assert_allclose(residual, drift, rtol=1e-12, atol=1e-16)
        assert np.max(np.abs(residual)) <= 1e-6

    def test_damped_forced_residual_small(self):
        """Dissipation and wind integrals close the identity to 1e-5."""
        params, geo, basis, grid = cable_setup(
            delta=0.1,
            zeta=0.05,
            beta=0.02,
            Upsilon=0.5,
            Ustream=2.0,
            g=0.3,
            S=0.5,
            P=0.2,
            eps=0.5,
            kappa=0.3,
        )
        y0 = ModalState(
            np.array([0.1, -0.05, 0.02, 0.0]),
            np.array([0.0, 0.03, 0.0, 0.0]),
            np.array([0.05, -0.02, 0.0]),
            np.array([0.01, 0.0, 0.0]),
        )
        cfg = IntegratorConfig(method="rk4", dt=1e-3, t_end=5.0)
        traj = integrate(y0, params, geo, basis, cfg)
        residual = attach_energies(traj, params, geo, basis, grid).diagnostics["residual"]
        assert residual[0] == 0.0
        assert np.max(np.abs(residual)) <= 1e-5

    def test_two_samples_give_one_trapezoid(self):
        """Two samples give the residual [0, r], r the identity closed by one trapezoid
        over the interval, not a missing column."""
        params, geo, basis, grid = cable_setup(
            delta=0.1, zeta=0.05, beta=0.02, Upsilon=0.5, Ustream=2.0, S=0.5
        )
        rows = np.random.default_rng(3).standard_normal((2, 2 * basis.n_w + 2 * basis.n_t))
        traj = Trajectory(times=np.array([0.0, 0.25]), data=rows, n_w=basis.n_w, n_t=basis.n_t)
        residual = attach_energies(traj, params, geo, basis, grid).diagnostics["residual"]
        efull = energies(rows, params, geo, basis, grid).Efull
        _, wdot, th, thdot = (rows[:, k] for k in channel_slices(basis.n_w, basis.n_t))
        nc = min(basis.n_w, basis.n_t)
        power = [
            params.mu * wdot[i] @ wdot[i]
            + params.zeta * thdot[i] @ thdot[i]
            + params.beta * params.Upsilon * thdot[i, :nc] @ wdot[i, :nc]
            + params.eta * th[i, :nc] @ wdot[i, :nc]
            for i in (0, 1)
        ]
        r = (efull[1] - efull[0] + 0.125 * (power[0] + power[1])) / max(abs(efull[0]), 1.0)
        assert residual[0] == 0.0
        np.testing.assert_allclose(residual[1], r, rtol=1e-12)

    def test_residual_reads_its_own_params_not_attached_energies(self):
        """attach_energies under a second model replaces the residual with one from that model's
        Efull, not the Efull the first call attached."""
        params, geo, basis, grid = cable_setup(S=2.0, delta=0.1)
        y0 = ModalState(
            np.array([0.3, -0.1, 0.0, 0.0]), np.zeros(4), np.array([0.05, 0.0, 0.0]), np.zeros(3)
        )
        cfg = IntegratorConfig(method="rk4", dt=1e-2, t_end=1.0, sample_every=0.1)
        traj = integrate(y0, params, geo, basis, cfg)
        bare = Trajectory(traj.times, traj.data, traj.n_w, traj.n_t)
        attached = attach_energies(traj, params, geo, basis, grid).diagnostics["residual"].copy()
        unstretched = ModelParams(delta=0.1)
        residual = attach_energies(traj, unstretched, geo, basis, grid).diagnostics["residual"]
        expected = attach_energies(bare, unstretched, geo, basis, grid).diagnostics["residual"]
        np.testing.assert_array_equal(residual, expected)
        assert np.max(np.abs(residual)) > 1e-3  # dropping S breaks the identity on this run
        assert np.max(np.abs(attached)) < 1e-3

    def test_attach_energies_fills_diagnostics(self):
        """attach_energies records the E series and the residual in place."""
        params, geo, basis, grid = cable_setup(delta=0.1, zeta=0.05)
        y0 = ModalState(
            np.array([0.1, 0.0, 0.0, 0.0]),
            np.zeros(4),
            np.array([0.05, 0.0, 0.0]),
            np.zeros(3),
        )
        cfg = IntegratorConfig(method="rk4", dt=1e-2, t_end=1.0, sample_every=0.1)
        traj = attach_energies(integrate(y0, params, geo, basis, cfg), params, geo, basis, grid)
        for key in ("E", "Eplus", "Efull", "residual"):
            assert key in traj.diagnostics
            assert len(traj.diagnostics[key]) == len(traj)
        e0 = energies(y0, params, geo, basis, grid)
        np.testing.assert_allclose(traj.diagnostics["Efull"][0], e0.Efull, rtol=1e-12)

    def test_rows_match_single_states(self):
        """attach_energies and energies over more rows than a block equal energies state by state,
        bit for bit."""
        params, geo, basis, grid = cable_setup(S=0.5, P=0.2, g=0.3, ell=1.3)
        rng = np.random.default_rng(9)
        count = ROW_BLOCK + 1
        traj = Trajectory(
            times=np.arange(count, dtype=float),
            data=0.3 * rng.standard_normal((count, 14)),
            n_w=basis.n_w,
            n_t=basis.n_t,
        )
        attach_energies(traj, params, geo, basis, grid)
        single = [energies(traj.state(i), params, geo, basis, grid) for i in range(count)]
        rows = energies(traj.data, params, geo, basis, grid)
        for key in ("E", "Eplus", "Efull"):
            np.testing.assert_array_equal(traj.diagnostics[key], [getattr(e, key) for e in single])
            np.testing.assert_array_equal(getattr(rows, key), [getattr(e, key) for e in single])

    def test_energy_rate_matches_linear_operator(self):
        """Along f = A y + c the energy drains at the identity's power, state by state.

        Without cables and stretching Efull is quadratic plus linear, so the central
        difference [Efull(y + h f) - Efull(y - h f)] / 2h is its exact rate along f.
        """
        params, geo, basis, grid = cable_setup(
            n_w=5, n_t=3, L=2.5, a=0.0, b=0.0, c=0.0,
            M=1.7, D=2.3, ell=1.4, eps=0.6, kappa=0.45, P=0.35, g=0.8,
            delta=0.21, zeta=0.13, beta=0.07, Upsilon=0.9, Ustream=2.6,
        )
        A, c = linear_operator(params, basis)
        n_w, n_t, h = basis.n_w, basis.n_t, 0.5

        def efull(y):
            return energies(ModalState.unpack(y, n_w, n_t), params, geo, basis, grid).Efull

        rng = np.random.default_rng(17)
        for _ in range(10):
            y = rng.standard_normal(len(A))
            f = A @ y + c
            rate = (efull(y + h * f) - efull(y - h * f)) / (2.0 * h)
            s = ModalState.unpack(y, n_w, n_t)
            power = (
                params.mu * (s.wdot @ s.wdot)
                + params.zeta * (s.thdot @ s.thdot)
                + params.beta * params.Upsilon * (s.thdot @ s.wdot[:n_t])
                + params.eta * (s.th @ s.wdot[:n_t])
            )
            assert rate == pytest.approx(-power, rel=1e-9)


class TestLyapunov:
    @pytest.mark.parametrize(
        "P, S, g",
        [(0.0, 0.0, 0.0), (0.5, 1.0, 0.0), (0.0, 1.0, 0.3), (2.0, 0.5, 1.0)],
        ids=["unloaded", "prestress", "gravity", "both"],
    )
    def test_sandwich_bounds(self, P, S, g):
        """c0 Eplus - c2 <= V <= c1 Eplus + c2 on random states, with the prestress and
        gravity Young remainders of c2 and their 2 nu in c0 and c1 when P or g is on."""
        params, geo, basis, grid = cable_setup(
            P=P,
            S=S,
            g=g,
            n_w=6,
            n_t=6,
            delta=0.3,
            zeta=0.25,
            beta=0.05,
            Upsilon=0.4,
            Ustream=1.0,
            eps=0.7,
            kappa=0.4,
            ell=1.2,
        )
        nu = 0.02
        c0, c1, c2 = sandwich_constants(params, geo, nu)
        assert c0 > 0.0
        rng = np.random.default_rng(12)
        states = [random_modal_state(rng, basis, radius=3.0) for _ in range(50)]
        values = []
        for state in states:
            v = lyapunov_value(state, params, geo, basis, grid, nu)
            ep = energies(state, params, geo, basis, grid).Eplus
            slack = 1e-9 * max(1.0, abs(v), abs(ep))
            assert c0 * ep - c2 <= v + slack
            assert v <= c1 * ep + c2 + slack
            values.append(v)
        rows = np.array([state.pack() for state in states])
        np.testing.assert_array_equal(lyapunov_value(rows, params, geo, basis, grid, nu), values)

    def test_prestress_needs_stretching(self):
        """With P > 0 the sandwich charges prestress to the stretching energy, so S = 0 is refused."""
        params, geo, basis, grid = cable_setup(P=0.5, S=0.0, delta=0.1, zeta=0.1)
        with pytest.raises(ValueError, match=r"needs S > 0"):
            sandwich_constants(params, geo, 0.02)

    def test_nu_must_be_positive(self):
        """The Lyapunov perturbation parameter must be positive."""
        params, geo, basis, grid = cable_setup()
        with pytest.raises(ValueError, match="nu"):
            lyapunov_value(ModalState.zero(basis), params, geo, basis, grid, 0.0)

    def test_absorbing_unit_damping_frozen_values(self):
        """mu = zeta = l = beta = 1 gives nubar = 1/3 and threshold 1/27."""
        params = ModelParams(delta=0.0, beta=1.0, zeta=1.0, ell=1.0, eps=0.03)
        lp = absorbing_params(params)
        np.testing.assert_allclose(lp.nubar, 1.0 / 3.0, rtol=1e-12)
        np.testing.assert_allclose(lp.epsbar, 1.0 / 27.0, rtol=1e-12)
        np.testing.assert_allclose(lp.nu, 1.0 / 6.0, rtol=1e-12)
        assert lp.admissible  # eps = 0.03 < 1/27

    def test_absorbing_threshold_rejects_stiff_warping(self):
        """eps at or above the threshold is reported inadmissible."""
        params = ModelParams(delta=0.0, beta=1.0, zeta=1.0, ell=1.0, eps=1.0)
        lp = absorbing_params(params)
        assert not lp.admissible
        assert "threshold" in lp.reason

    def test_absorbing_light_damping_frozen_value(self):
        """mu = zeta = 0.01 gives nubar = zeta/(zeta + 2) exactly."""
        lp = absorbing_params(ModelParams(delta=0.01, zeta=0.01))
        np.testing.assert_allclose(lp.nubar, 0.004975124378109453, rtol=1e-12)
        assert lp.epsbar == np.inf  # beta = 0 puts no ceiling on eps
        assert lp.admissible

    def test_absorbing_zero_damping_inadmissible(self):
        """Zero damping admits no absorbing set."""
        lp = absorbing_params(ModelParams())
        assert not lp.admissible
        assert "zero damping" in lp.reason
        assert lp.nubar == 0.0

    def test_dimensional_model_refused(self):
        """On the dimensional ``damped`` preset the constants would read nubar 0.5, nu 0.25
        and c0 = -2627.02 at that nu; both refuse it, naming the normalization."""
        scenario = load_preset("damped").scenario
        with pytest.raises(ValueError, match=r"normalization M = D = 1, L = pi"):
            sandwich_constants(scenario.params, scenario.geometry, 0.25)
        with pytest.raises(ValueError, match=r"normalization M = D = 1, L = pi"):
            absorbing_params(scenario.params)

    def test_lyapunov_value_refuses_a_dimensional_model(self):
        """At M = 5, D = 2 the functional is not the normalized one, so V is refused rather
        than reported (it would read 0 for the zero state)."""
        params, geo, basis, grid = cable_setup(M=5.0, D=2.0, delta=0.1, zeta=0.1)
        with pytest.raises(ValueError, match=r"lyapunov_value holds in the normalization"):
            lyapunov_value(ModalState.zero(basis), params, geo, basis, grid, 0.02)

    def test_absorbing_explicit_nu_kept(self):
        """A caller-supplied nu is carried through unchanged."""
        lp = absorbing_params(ModelParams(delta=0.5, zeta=0.5), nu=0.07)
        assert lp.nu == 0.07


class TestLemmaSuite:
    def test_zero_violations_on_cable(self):
        """All inequality families hold on a 200-sample run in the radius-5 ball."""
        _, geo, basis, grid = cable_setup(n_w=8, n_t=8)
        report = lemma_suite(200, 5.0, geo, basis, grid, seed=42)
        assert report["violations"] == 0
        for name in (
            "arc_lipschitz",
            "pi_lipschitz",
            "h_weak",
            "h_l2",
            "interpolation",
            "spectral",
        ):
            assert report[f"{name}.violations"] == 0
            assert report[f"{name}.worst_slack"] >= -1e-9
        assert np.isfinite(report["growth_bound.max_required_C"])

    def test_grid_for_more_modes(self):
        """A grid that tabulates more modes than the basis (accepted by ``check_span``) gives
        the slopes of the basis's modes, as ``energies`` takes them."""
        basis = Basis(L=np.pi, n_w=3, n_t=2)
        grid = make_grid(Basis(L=np.pi, n_w=25, n_t=25))
        geo = make_geometry(0.2, 1.0, 1.0, 1.0, basis, grid)
        report = lemma_suite(200, 5.0, geo, basis, grid, seed=5)
        assert report["violations"] == 0
        assert np.isfinite(report["growth_bound.max_required_C"])

    def test_empty_run(self):
        """Zero samples yields an empty but well-formed report."""
        _, geo, basis, grid = cable_setup()
        report = lemma_suite(0, 5.0, geo, basis, grid)
        assert report["violations"] == 0
        assert report["arc_lipschitz.worst_slack"] == np.inf

    @pytest.mark.parametrize("samples", [0, ROW_BLOCK, ROW_BLOCK + 1])
    def test_one_xi_pass_per_stack(self, samples, monkeypatch):
        """A block takes Xi once for v and once for z (L and Pi of each) and once inside h(v)."""
        calls = {"length_and_energy": 0, "force_law": 0}

        def counted(name):
            true_fn = getattr(cable, name)

            def fn(*args):
                calls[name] += 1
                return true_fn(*args)

            return fn

        for name in calls:
            monkeypatch.setattr(cable, name, counted(name))
        _, geo, basis, grid = cable_setup(n_w=6, n_t=4)
        report = lemma_suite(samples, 5.0, geo, basis, grid, seed=2)
        blocks = -(-samples // ROW_BLOCK)
        assert calls == {"length_and_energy": 2 * blocks, "force_law": blocks}
        assert report["samples"] == samples and report["violations"] == 0

    def test_negative_samples_rejected(self):
        """A negative sample count is an error."""
        _, geo, basis, grid = cable_setup()
        with pytest.raises(ValueError, match="nonnegative"):
            lemma_suite(-1, 5.0, geo, basis, grid)

    def test_grid_and_geometry_of_another_span_rejected(self):
        """A grid or a cable geometry over 2 pi with a basis on pi is refused, naming the
        spans, rather than checked on wrong numbers."""
        _, geo, basis, grid = cable_setup()
        _, geo_2pi, _, grid_2pi = cable_setup(L=2.0 * np.pi)
        with pytest.raises(ValueError, match=r"QuadratureGrid.L = 6.28\d*, Basis.L = 3.14"):
            lemma_suite(10, 5.0, geo_2pi, basis, grid_2pi)
        with pytest.raises(ValueError, match=r"built on 240 nodes over a span of 6.28\d*, the grid has 240"):
            lemma_suite(10, 5.0, geo_2pi, basis, grid)

    def test_spectral_chain_skipped_on_long_spans(self):
        """The norm chain is only asserted when the span keeps it valid."""
        _, geo, basis, grid = cable_setup(n_w=3, n_t=2, L=853.44, a=7.7665e-4)
        report = lemma_suite(5, 5.0, geo, basis, grid, seed=1)
        assert "spectral.violations" not in report
        assert report["violations"] == 0

    def test_format_report_lines(self):
        """The serialized report is 'key: value' lines including the total."""
        _, geo, basis, grid = cable_setup()
        report = lemma_suite(10, 2.0, geo, basis, grid, seed=3)
        text = format_report(report)
        lines = text.splitlines()
        assert len(lines) == len(report)
        assert "violations: 0" in text
        assert all(": " in line for line in lines)

    @pytest.mark.parametrize("scale", [1.0, -1.0, 100.0])
    def test_blocks_match_per_sample_reference(self, scale, monkeypatch):
        """2 ROW_BLOCK + 1 samples give the per-sample reference's counts and slacks.

        The force h is scaled: flipped it fails h_weak on some samples, a
        hundredfold it fails h_l2 on every sample, so the counts are compared
        where they are not zero and a skipped sample shows.
        """
        true_h = cable.h_of
        monkeypatch.setattr(cable, "h_of", lambda u, geo, grid: scale * true_h(u, geo, grid))
        _, geo, basis, grid = cable_setup(n_w=6, n_t=4)
        samples = 2 * ROW_BLOCK + 1
        report = lemma_suite(samples, 5.0, geo, basis, grid, seed=11)
        expected = reference_lemma_suite(samples, 5.0, geo, basis, grid, seed=11)
        assert (report["h_weak.violations"] > 0) == (scale < 0.0)
        assert (report["h_l2.violations"] == samples) == (scale > 1.0)
        assert_matches_reference(report, expected)

    def test_draws_match_per_sample_reference(self):
        """DRAW_BLOCK + ROW_BLOCK + 1 samples, two draws with a partial block in the second,
        give the reference's counts and slacks: the v/z pairing follows the draws."""
        _, geo, basis, grid = cable_setup(n_w=6, n_t=4)
        samples = DRAW_BLOCK + ROW_BLOCK + 1
        report = lemma_suite(samples, 5.0, geo, basis, grid, seed=13)
        assert_matches_reference(report, reference_lemma_suite(samples, 5.0, geo, basis, grid, seed=13))

    def test_random_states_radius_and_determinism(self):
        """Sampled states stay in the H^2 ball and are seed-deterministic."""
        basis = Basis(L=np.pi, n_w=6, n_t=4)
        rng = np.random.default_rng(5)
        vs = random_states(rng, basis, 3.0, 40)
        assert vs.shape == (40, 6)
        k4 = basis.wavenumbers() ** 4
        norms = np.sqrt((vs * vs) @ k4)
        assert np.all(norms <= 3.0 * (1.0 + 1e-12))
        again = random_states(np.random.default_rng(5), basis, 3.0, 40)
        np.testing.assert_array_equal(
            random_states(np.random.default_rng(5), basis, 3.0, 40), again
        )


class TestRandomStateBlocks:
    """``random_states`` rows do not depend on the draw's size, and ``lemma_suite`` holds one draw."""

    @pytest.mark.parametrize("draw", [ROW_BLOCK, DRAW_BLOCK])
    @pytest.mark.parametrize("count", [33, 65, 97, 129, 257])
    def test_rows_equal_the_whole_array_formula(self, monkeypatch, draw, count):
        """Each row's bits are the formula's on all count rows at once, wherever a draw or
        block boundary cuts. H² norms taken as a (rows, n) @ (n,) product failed here for
        some of the eight seeds at every count with 32-row draws, and at 257 with 256-row
        draws: a row's bits hung on the product's shape."""
        monkeypatch.setattr(fishbone.diagnostics, "DRAW_BLOCK", draw)
        basis = Basis(L=np.pi, n_w=10, n_t=4)
        decay, k4 = np.arange(1, basis.max_modes + 1) ** -3.0, basis.wavenumbers() ** 4
        for seed in range(8):
            states = random_states(np.random.default_rng(seed), basis, 2.5, count)
            stream = np.random.default_rng(seed)
            raw = stream.standard_normal((count, basis.max_modes)) * decay
            targets = 2.5 * stream.uniform(0.0, 1.0, size=count)
            norms = np.sqrt(np.vecdot(raw * raw, k4))
            assert np.array_equal(states, raw * (targets / norms)[:, None]), f"seed {seed}"

    def test_lemma_suite_memory_is_bounded(self):
        """20,000 pairs of verify's setup hold one draw of samples, not both 20,000-row sets.

        The traced peak is 0.54 MB at 240 nodes; drawing both sets whole took it to 5.4 MB.
        """
        _, geo, basis, grid = cable_setup(n_w=10, n_t=4)
        lemma_suite(ROW_BLOCK, 5.0, geo, basis, grid, seed=1)  # first-call caches
        tracemalloc.start()
        try:
            report = lemma_suite(20000, 5.0, geo, basis, grid, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report["samples"] == 20000 and report["violations"] == 0
        assert peak < 1.5e6, f"lemma_suite(20000) peaked at {peak / 1e6:.2f} MB"


class TestDifferenceEnergy:
    def make_traj(self, data, n_w=2, n_t=1):
        times = np.arange(len(data), dtype=float)
        return Trajectory(times=times, data=np.asarray(data, dtype=float), n_w=n_w, n_t=n_t)

    def test_identical_trajectories_zero(self):
        """The difference energy of a trajectory with itself vanishes."""
        params = ModelParams(M=2.0, D=1.5, eps=0.7, kappa=0.4, ell=1.2)
        traj = self.make_traj(np.random.default_rng(2).standard_normal((4, 6)))
        np.testing.assert_array_equal(difference_energy(traj, traj, params), 0.0)

    def test_formula(self):
        """The series matches the channel formula computed by hand."""
        params = ModelParams(M=2.0, D=1.5, eps=0.7, kappa=0.4, ell=1.2)
        a = self.make_traj([[0.3, -0.1, 0.0, 0.2, 0.1, 0.05]])
        b = self.make_traj([[0.1, 0.1, 0.1, 0.0, -0.1, 0.15]])
        dw, dwdot = np.array([0.2, -0.2]), np.array([-0.1, 0.2])
        dth, dthdot = np.array([0.2]), np.array([-0.1])
        k2w = np.array([1.0, 4.0])
        expected = (
            0.5 * 2.0 * dwdot @ dwdot
            + 0.5 * 1.5 * k2w**2 @ dw**2
            + 2.0 * 1.2**2 / 6.0 * dthdot @ dthdot
            + 0.5 * 0.7 * dth @ dth
            + 0.5 * 0.4 * dth @ dth
        )
        np.testing.assert_allclose(difference_energy(a, b, params), [expected], rtol=1e-12)

    def test_quadratic_energy_of_the_difference(self):
        """The series is E of the difference state, the deck part of energies, bit for bit."""
        params, geo, basis, grid = cable_setup(M=2.0, D=1.5, eps=0.7, kappa=0.4, ell=1.2, g=0.3)
        rng = np.random.default_rng(4)
        a = self.make_traj(rng.standard_normal((5, 14)), n_w=4, n_t=3)
        b = self.make_traj(rng.standard_normal((5, 14)), n_w=4, n_t=3)
        expected = [
            energies(ModalState.unpack(a.data[i] - b.data[i], 4, 3), params, geo, basis, grid).E
            for i in range(5)
        ]
        np.testing.assert_array_equal(difference_energy(a, b, params), expected)

    def test_mode_count_mismatch_rejected(self):
        """Trajectories must retain the same numbers of modes."""
        params = ModelParams()
        a = self.make_traj(np.zeros((2, 6)), n_w=2, n_t=1)
        b = self.make_traj(np.zeros((2, 6)), n_w=1, n_t=2)
        with pytest.raises(ValueError, match="mode counts"):
            difference_energy(a, b, params)

    def test_time_grid_mismatch_rejected(self):
        """Trajectories must share one sampling grid."""
        params = ModelParams()
        a = self.make_traj(np.zeros((3, 6)))
        b = self.make_traj(np.zeros((3, 6)))
        b.times = b.times + 0.5
        with pytest.raises(ValueError, match="time grids"):
            difference_energy(a, b, params)


if __name__ == "__main__":
    pytest.main([__file__, "-v"])
