"""Tests for fixed-step RK4 and the adaptive embedded 5(4) integrator."""

import math
import os
import re
import sys

import numpy as np
import pytest

import fishbone.integrate
from fishbone.cable import make_geometry
from fishbone.diagnostics import energies
from fishbone.dynamics import ModalState, ModelParams, make_packed_rhs
from fishbone.integrate import (
    IntegrationError,
    IntegratorConfig,
    NonFiniteState,
    StepBudgetExceeded,
    StepUnderflow,
    Trajectory,
    integrate,
    sample_times,
)
from fishbone.linear import undamped_frequencies
from fishbone.spectral import Basis, make_grid


def flat_setup(n_w=3, n_t=2, L=np.pi, **params):
    basis = Basis(L=L, n_w=n_w, n_t=n_t)
    grid = make_grid(basis)
    geometry = make_geometry(0.0, 1.0, 0.0, 0.0, basis, grid)
    return ModelParams(L=L, **params), geometry, basis, grid


def cable_setup(n_w=3, n_t=2, L=np.pi, a=0.2, b=1.0, c=1.0, **params):
    basis = Basis(L=L, n_w=n_w, n_t=n_t)
    grid = make_grid(basis)
    geometry = make_geometry(a, 1.0, b, c, basis, grid)
    return ModelParams(L=L, **params), geometry, basis, grid


BENCH_STATE = dict(
    w=[0.1, -0.05, 0.02], wdot=[0.0, 0.03, 0.0], th=[0.05, -0.02], thdot=[0.01, 0.0]
)


class TestConfigValidation:
    def test_positive_requirements(self):
        """dt, rtol, and horizon must be positive; they and the cadence must be finite."""
        for kwargs in (dict(dt=0.0), dict(rtol=0.0), dict(t_end=0.0)):
            with pytest.raises(ValueError):
                IntegratorConfig(**kwargs)
        for name in ("dt", "rtol", "t_end", "sample_every"):
            for value in (np.nan, np.inf):
                with pytest.raises(ValueError, match=f"{name} must be finite"):
                    IntegratorConfig(**{name: value})

    def test_cadence_not_finer_than_step(self):
        """sample_every below dt is rejected."""
        with pytest.raises(ValueError):
            IntegratorConfig(dt=1e-2, sample_every=1e-3)

    def test_cadence_within_horizon(self):
        """sample_every beyond t_end is rejected: it would shrink the step five times and
        sample only t = 0 and t_end."""
        with pytest.raises(ValueError, match="between the step 0.001 and t_end 1"):
            IntegratorConfig(dt=1e-3, t_end=1.0, sample_every=5.0)
        assert len(sample_times(IntegratorConfig(dt=1e-3, t_end=1.0, sample_every=1.0))) == 2

    def test_step_count_within_index_range(self):
        """A step count beyond numpy's index range is rejected before any array is sized."""
        for dt, t_end in ((1e-300, 1.0), (5e-324, 1e300)):
            with pytest.raises(ValueError, match="exceed numpy's index range"):
                IntegratorConfig(dt=dt, t_end=t_end)

    def test_unknown_method(self):
        """Only rk4 and adaptive45 exist."""
        with pytest.raises(ValueError):
            IntegratorConfig(method="euler")

    def test_dimension_mismatch(self):
        """A state sized for another basis is refused."""
        params, geo, basis, grid = flat_setup()
        bad = ModalState(np.zeros(4), np.zeros(4), np.zeros(2), np.zeros(2))
        with pytest.raises(ValueError, match=r"\(4, 2\) modes does not match the \(3, 2\)"):
            integrate(bad, params, geo, basis, IntegratorConfig(dt=1e-2, t_end=0.1), grid)


class TestTrajectoryShape:
    def test_zero_initial_data_stays_zero(self):
        """y0 = 0 with g = 0 and no cables is the identically zero trajectory."""
        params, geo, basis, grid = flat_setup()
        cfg = IntegratorConfig(method="rk4", dt=1e-2, t_end=1.0)
        traj = integrate(ModalState.zero(basis), params, geo, basis, cfg)
        assert not traj.data.any()

    def test_uniform_cadence_and_endpoint(self):
        """RK4 sampling is uniform and lands exactly on t_end."""
        params, geo, basis, grid = flat_setup()
        cfg = IntegratorConfig(method="rk4", dt=1e-2, t_end=0.5, sample_every=5e-2)
        traj = integrate(ModalState.zero(basis), params, geo, basis, cfg)
        assert traj.times[0] == 0.0
        assert traj.times[-1] == pytest.approx(0.5, abs=1e-12)
        np.testing.assert_allclose(np.diff(traj.times), 5e-2, rtol=1e-9)
        assert np.all(np.diff(traj.times) > 0)

    @pytest.mark.parametrize(
        "dt, t_end, sample_every, n_samples",
        [(3e-3, 1.0, None, 334), (1e-2, 0.5, 5e-2, 11), (0.1, 1.0, 0.3, 5)],
        ids=["every-step", "cadence-divides", "cadence-rounded"],
    )
    def test_one_clock_for_both_methods(self, dt, t_end, sample_every, n_samples):
        """RK4 and adaptive45 sample one config at the same times, every stride-th nudged step.

        A cadence of 0.3 over a 0.1 step rounds to three steps, so the ten steps of
        t_end = 1 are nudged to twelve and the samples fall every 0.25.
        """
        params, geo, basis, grid = cable_setup(g=0.3)
        y0 = ModalState(**{k: np.array(v) for k, v in BENCH_STATE.items()})
        times = {}
        for method in ("rk4", "adaptive45"):
            cfg = IntegratorConfig(method=method, dt=dt, t_end=t_end, sample_every=sample_every)
            times[method] = integrate(y0, params, geo, basis, cfg, grid).times
            assert np.array_equal(times[method], sample_times(cfg))
        assert np.array_equal(times["rk4"], times["adaptive45"])
        np.testing.assert_allclose(times["rk4"], np.linspace(0.0, t_end, n_samples), rtol=0, atol=1e-12)

    def test_step_nudge_lands_on_horizon(self):
        """A dt that does not divide t_end is nudged to an integer step count."""
        params, geo, basis, grid = flat_setup()
        cfg = IntegratorConfig(method="rk4", dt=3e-3, t_end=1.0)
        traj = integrate(ModalState.zero(basis), params, geo, basis, cfg)
        assert traj.times[-1] == pytest.approx(1.0, abs=1e-12)

    def test_state_accessor_round_trip(self):
        """Trajectory.state(i) rebuilds the ModalState at sample i."""
        params, geo, basis, grid = cable_setup(g=0.3)
        cfg = IntegratorConfig(method="rk4", dt=1e-2, t_end=0.2)
        y0 = ModalState(**{k: np.array(v) for k, v in BENCH_STATE.items()})
        traj = integrate(y0, params, geo, basis, cfg)
        mid = traj.state(3)
        np.testing.assert_array_equal(mid.w, traj.w[3])
        np.testing.assert_array_equal(mid.thdot, traj.thdot[3])


class TestAgainstClosedForms:
    def test_undamped_torsional_mode(self):
        """A single undamped torsional mode follows its sine/cosine solution."""
        params, geo, basis, grid = flat_setup(
            n_w=2, n_t=3, eps=0.7, kappa=0.4, ell=1.2, M=1.5
        )
        gam = undamped_frequencies(params, 2, 3)[1]
        for j, th0, th1 in ((1, 0.3, -0.1), (3, -0.2, 0.25)):
            period = 2.0 * np.pi / gam[j - 1]
            cfg = IntegratorConfig(method="rk4", dt=period / 200.0, t_end=10.0 * period)
            th = np.zeros(3)
            thdot = np.zeros(3)
            th[j - 1], thdot[j - 1] = th0, th1
            y0 = ModalState(np.zeros(2), np.zeros(2), th, thdot)
            traj = integrate(y0, params, geo, basis, cfg)
            g = gam[j - 1]
            exact = (th1 / g) * np.sin(g * traj.times) + th0 * np.cos(g * traj.times)
            amp = np.sqrt(th0**2 + (th1 / g) ** 2)
            np.testing.assert_allclose(traj.th[:, j - 1], exact, rtol=0, atol=1e-6 * amp)

    def test_time_reversibility(self):
        """Flipping velocities and integrating one period returns the state."""
        params, geo, basis, grid = flat_setup(eps=0.5, kappa=0.3, ell=1.0)
        gam = undamped_frequencies(params, 3, 2)[1]
        period = 2.0 * np.pi / gam[0]
        cfg = IntegratorConfig(method="rk4", dt=period / 1000.0, t_end=period)
        y0 = ModalState(
            np.array([0.2, -0.1, 0.05]),
            np.array([0.0, 0.1, 0.0]),
            np.array([0.3, 0.0]),
            np.array([0.0, 0.05]),
        )
        fwd = integrate(y0, params, geo, basis, cfg)
        end = fwd.state(len(fwd) - 1)
        flipped = ModalState(end.w, -end.wdot, end.th, -end.thdot)
        back = integrate(flipped, params, geo, basis, cfg)
        final = back.state(len(back) - 1)
        np.testing.assert_allclose(final.w, y0.w, rtol=0, atol=1e-8)
        np.testing.assert_allclose(final.th, y0.th, rtol=0, atol=1e-8)
        np.testing.assert_allclose(final.wdot, -y0.wdot, rtol=0, atol=1e-8)
        np.testing.assert_allclose(final.thdot, -y0.thdot, rtol=0, atol=1e-8)

    def test_conservative_energy_drift(self):
        """The full nonlinear energy drifts below 1e-6 on a conservative run."""
        params, geo, basis, grid = cable_setup(
            eps=0.5, kappa=0.3, S=1.0, P=0.5, ell=1.0
        )
        cfg = IntegratorConfig(method="rk4", dt=1e-3, t_end=10.0, sample_every=5e-2)
        y0 = ModalState(**{k: np.array(v) for k, v in BENCH_STATE.items()})
        traj = integrate(y0, params, geo, basis, cfg)
        e0 = energies(y0, params, geo, basis, grid).Efull
        drift = np.abs(energies(traj.data, params, geo, basis, grid).Efull - e0).max()
        assert drift / max(abs(e0), 1.0) <= 1e-6


def grown(tree):
    """Every rooted tree made by adding one leaf to ``tree``; a tree is the sorted tuple of
    its subtrees, so equal trees compare equal."""
    yield tuple(sorted(tree + ((),)))
    for i, child in enumerate(tree):
        for bigger in grown(child):
            yield tuple(sorted(tree[:i] + (bigger,) + tree[i + 1:]))


ROOTED_TREES = [{()}]  # by order 1..5: 1, 1, 2, 4 and 9 trees
for _ in range(4):
    ROOTED_TREES.append({bigger for tree in ROOTED_TREES[-1] for bigger in grown(tree)})


def stage_weights(tree, a, c):
    """The tree's elementary weight per stage: over its subtrees, the product of a times
    theirs, with c for a leaf. The order condition of ``tree`` reads b @ this = 1 / density."""
    out = np.ones(len(c))
    for child in tree:
        out = out * (c if child == () else a @ stage_weights(child, a, c))
    return out


def order(tree):
    return 1 + sum(order(child) for child in tree)


def density(tree):
    return order(tree) * math.prod(density(child) for child in tree)


class TestTableau:
    """The adaptive pair's coefficients meet their order conditions, so a mistyped digit
    fails here and not only as a costlier or less accurate run."""

    c = fishbone.integrate._RK45_C
    a = fishbone.integrate._RK45_TABLEAU[:7]
    b = fishbone.integrate._RK45_TABLEAU[7]
    b_hat = b - fishbone.integrate._RK45_TABLEAU[8]  # row 8 is the error row b - b_hat

    def test_rows_sum_to_the_stage_times_and_the_last_stage_is_fsal(self):
        np.testing.assert_allclose(self.a.sum(axis=1), self.c, rtol=0, atol=1e-15)
        assert self.c[6] == 1.0 and self.b[6] == 0.0
        assert np.array_equal(self.a[6], self.b)

    def test_b_is_fifth_order_and_b_hat_fourth(self):
        """b meets all 17 conditions through order 5 and b_hat the 8 through order 4; b_hat
        misses the order-5 quadrature condition sum b_hat c^4 = 1/5 (by 5.8e-4)."""
        assert [len(trees) for trees in ROOTED_TREES] == [1, 1, 2, 4, 9]
        for trees in ROOTED_TREES:
            for tree in trees:
                phi = stage_weights(tree, self.a, self.c)
                assert self.b @ phi == pytest.approx(1 / density(tree), rel=0, abs=1e-14), tree
                if order(tree) <= 4:
                    assert self.b_hat @ phi == pytest.approx(1 / density(tree), rel=0, abs=1e-14), tree
        assert abs(self.b_hat @ self.c**4 - 1 / 5) > 1e-4


class TestAdaptive:
    def test_matches_rk4_on_smooth_problem(self):
        """Tight-tolerance adaptive45 agrees with fine RK4."""
        params, geo, basis, grid = cable_setup(delta=0.05, g=0.3, eps=0.5, kappa=0.3)
        y0 = ModalState(**{k: np.array(v) for k, v in BENCH_STATE.items()})
        fine = IntegratorConfig(method="rk4", dt=2e-4, t_end=2.0, sample_every=0.1)
        loose = IntegratorConfig(method="adaptive45", rtol=1e-10, t_end=2.0, sample_every=0.1)
        ref = integrate(y0, params, geo, basis, fine)
        adaptive = integrate(y0, params, geo, basis, loose)
        np.testing.assert_allclose(adaptive.times, ref.times, atol=1e-12)
        scale = np.abs(ref.data).max()
        np.testing.assert_allclose(adaptive.data, ref.data, rtol=0, atol=1e-7 * scale)

    def test_tolerance_controls_error(self):
        """Loosening rtol by 1e4, and with it atol = rtol / 100, visibly degrades accuracy."""
        params, geo, basis, grid = cable_setup(g=0.3, eps=0.5, kappa=0.3)
        y0 = ModalState(**{k: np.array(v) for k, v in BENCH_STATE.items()})
        ref_cfg = IntegratorConfig(method="rk4", dt=1e-4, t_end=2.0)
        ref = integrate(y0, params, geo, basis, ref_cfg).data[-1]
        errs = []
        for rtol in (1e-4, 1e-8):
            cfg = IntegratorConfig(method="adaptive45", rtol=rtol, t_end=2.0)
            traj = integrate(y0, params, geo, basis, cfg)
            errs.append(np.abs(traj.data[-1] - ref).max())
        assert errs[1] < errs[0] / 10.0

    def test_nonfinite_state_reports_time(self):
        """A blowup aborts with the first bad time and entry named, and no numpy warning."""
        params, geo, basis, grid = flat_setup(g=1.0)
        blow = ModelParams(L=np.pi, P=200.0)
        y0 = ModalState(
            np.array([1.0, 0.0, 0.0]), np.zeros(3), np.zeros(2), np.zeros(2)
        )
        cfg = IntegratorConfig(method="rk4", dt=0.25, t_end=400.0)
        with pytest.raises(NonFiniteState) as info:
            integrate(y0, blow, geo, basis, cfg)
        assert np.isfinite(info.value.time)
        assert isinstance(info.value, IntegrationError)
        assert re.search(r"t=\S+, first in (w|wdot|th|thdot)_[1-9]\d*$", str(info.value))

    @pytest.mark.parametrize("method", ["rk4", "adaptive45"])
    @pytest.mark.parametrize("index", range(14))
    def test_nonfinite_state_names_the_entry(self, monkeypatch, method, index):
        """The message names the channel and mode of the first non-finite packed entry."""
        params, geo, basis, grid = flat_setup(n_w=4, n_t=3)
        expected = (
            [f"w_{j}" for j in range(1, 5)] + [f"wdot_{j}" for j in range(1, 5)]
            + [f"th_{j}" for j in range(1, 4)] + [f"thdot_{j}" for j in range(1, 4)]
        )[index]
        field = np.zeros(14)
        field[index] = np.nan
        monkeypatch.setattr(fishbone.integrate, "make_packed_rhs", lambda *_args: lambda t, y: field)
        y0 = ModalState(np.zeros(4), np.zeros(4), np.zeros(3), np.zeros(3))
        cfg = IntegratorConfig(method=method, dt=0.1, t_end=0.1)
        with pytest.raises(NonFiniteState) as info:
            integrate(y0, params, geo, basis, cfg)
        assert str(info.value).endswith(f"first in {expected}")

    def test_step_underflow(self, monkeypatch):
        """A finite-time singularity collapses the step below the floor."""
        params, geo, basis, grid = flat_setup()
        dim = 2 * basis.n_w + 2 * basis.n_t
        t_blow = 0.4871384727

        def singular_field(*_args):
            return lambda t, y: np.ones(dim) / (t_blow - t)

        monkeypatch.setattr(fishbone.integrate, "make_packed_rhs", singular_field)
        y0 = ModalState(np.zeros(3), np.zeros(3), np.zeros(2), np.zeros(2))
        cfg = IntegratorConfig(method="adaptive45", dt=1e-3, t_end=1.0)
        with pytest.raises(StepUnderflow) as info:
            integrate(y0, params, geo, basis, cfg)
        assert isinstance(info.value, IntegrationError)
        assert "underflow" in str(info.value)
        assert 0.0 < info.value.time < t_blow


class TestStepBudget:
    """DP45 stops after TRIALS_PER_RK4_STEP trial steps per step of the RK4 clock."""

    @staticmethod
    def counted(field, calls):
        def make(*_args):
            def f(t, y):
                calls.append(t)
                return field(t, y)

            return f

        return make

    def test_field_that_keeps_steps_tiny_hits_the_budget(self, monkeypatch):
        """A fast forcing keeps accepted steps far above the underflow floor but far below dt;
        with the budget lowered the run raises a typed error that names it, after exactly
        that many trials (the first stage plus six RHS calls per trial)."""
        params, geo, basis, grid = flat_setup()
        dim = 2 * basis.n_w + 2 * basis.n_t
        calls = []
        monkeypatch.setattr(
            fishbone.integrate, "make_packed_rhs",
            self.counted(lambda t, y: np.full(dim, math.sin(1e5 * t)), calls),
        )
        monkeypatch.setattr(fishbone.integrate, "TRIALS_PER_RK4_STEP", 3)
        y0 = ModalState(np.zeros(3), np.zeros(3), np.zeros(2), np.zeros(2))
        cfg = IntegratorConfig(method="adaptive45", dt=0.1, t_end=1.0)
        with pytest.raises(StepBudgetExceeded) as info:
            integrate(y0, params, geo, basis, cfg)
        assert isinstance(info.value, IntegrationError)
        assert "step budget of 30 trial steps (3 per RK4 step)" in str(info.value)
        assert len(calls) == 1 + 6 * 30
        assert 0.0 < info.value.time < 1e-3

    def test_budget_allows_exactly_its_trials(self, monkeypatch):
        """A one-step clock whose run takes T trials passes with a budget of T and fails with T - 1."""
        params, geo, basis, grid = flat_setup(g=0.3, delta=0.1)
        calls = []
        monkeypatch.setattr(
            fishbone.integrate, "make_packed_rhs",
            self.counted(make_packed_rhs(params, geo, basis, grid), calls),
        )
        y0 = ModalState(np.array([0.5, 0.1, 0.0]), np.zeros(3), np.array([0.2, 0.0]), np.zeros(2))
        cfg = IntegratorConfig(method="adaptive45", dt=1.0, t_end=1.0)
        integrate(y0, params, geo, basis, cfg)
        trials, rest = divmod(len(calls) - 1, 6)
        assert rest == 0 and trials > 2
        monkeypatch.setattr(fishbone.integrate, "TRIALS_PER_RK4_STEP", trials)
        integrate(y0, params, geo, basis, cfg)
        monkeypatch.setattr(fishbone.integrate, "TRIALS_PER_RK4_STEP", trials - 1)
        with pytest.raises(StepBudgetExceeded):
            integrate(y0, params, geo, basis, cfg)


class TestCounters:
    """The trajectory's counters are the work the run did, as a counting RHS sees it."""

    def test_rk4_makes_four_calls_per_step(self, monkeypatch):
        params, geo, basis, grid = cable_setup(g=0.3)
        calls = []
        monkeypatch.setattr(
            fishbone.integrate, "make_packed_rhs",
            TestStepBudget.counted(make_packed_rhs(params, geo, basis, grid), calls),
        )
        y0 = ModalState(**{k: np.array(v) for k, v in BENCH_STATE.items()})
        cfg = IntegratorConfig(method="rk4", dt=3e-3, t_end=1.0, sample_every=0.1)  # 333 steps nudged to 11 x 33
        counters = integrate(y0, params, geo, basis, cfg).counters
        assert counters == {"steps": 363, "rhs_calls": 4 * 363, "dt": 1.0 / 363}
        assert len(calls) == counters["rhs_calls"]

    def test_dp45_makes_one_call_and_six_per_trial(self, monkeypatch):
        """A large first step makes the run reject some trials. Each trial calls the RHS at
        t + c_2 h first and at t + h last, so the calls give every trial's t and h; a trial is
        accepted if the next one starts at its t + h."""
        params, geo, basis, grid = cable_setup(n_w=4, n_t=3, S=1.3, delta=0.1, g=0.4, eps=0.5, kappa=0.3)
        calls = []
        monkeypatch.setattr(
            fishbone.integrate, "make_packed_rhs",
            TestStepBudget.counted(make_packed_rhs(params, geo, basis, grid), calls),
        )
        y0 = ModalState(*(0.2 * np.random.default_rng(5).standard_normal(n) for n in (4, 4, 3, 3)))
        cfg = IntegratorConfig(method="adaptive45", dt=0.2, t_end=3.0, sample_every=0.2)
        counters = integrate(y0, params, geo, basis, cfg).counters
        trials = counters["accepted"] + counters["rejected"]
        assert len(calls) == counters["rhs_calls"] == 1 + 6 * trials
        first, last = np.array(calls[1::6]), np.array(calls[6::6])
        h = (last - first) / (1 - fishbone.integrate._RK45_C[1])
        starts = last - h
        accepted = np.append(np.isclose(starts[1:], last[:-1], rtol=0, atol=1e-9), True)
        assert counters["rejected"] == np.count_nonzero(~accepted) > 0
        steps = h[accepted]
        assert counters["h_last"] == pytest.approx(steps[-1], rel=1e-6)
        assert counters["h_min"] == pytest.approx(steps[:-1].min(), rel=1e-6)
        assert counters["h_max"] == pytest.approx(steps[:-1].max(), rel=1e-6)
        assert steps.sum() == pytest.approx(cfg.t_end, rel=1e-9)

    def test_one_step_run_and_a_bare_trajectory(self):
        """A run of one accepted step reports it as its smallest, largest and last;
        a trajectory built by hand has no counters."""
        params, geo, basis, grid = flat_setup(g=0.3)
        cfg = IntegratorConfig(method="adaptive45", dt=0.5, t_end=1e-3)
        counters = integrate(ModalState.zero(basis), params, geo, basis, cfg, grid).counters
        assert counters == {
            "accepted": 1, "rejected": 0, "rhs_calls": 7, "h_min": 1e-3, "h_max": 1e-3, "h_last": 1e-3
        }
        assert Trajectory(np.zeros(1), np.zeros((1, 10)), basis.n_w, basis.n_t).counters == {}


class TestRunLongBuffers:
    """The step loops, on buffers made once per run, match the same tableau products on
    a fresh stack [y, k...] per step, zeros where the run-long stacks hold older k rows.

    They must agree bit for bit: a sample that aliased the live state, a stage that
    read a buffer a later stage had overwritten, or a stale k row that a zero tableau
    entry did not cancel would change the samples.
    """

    def setup_method(self):
        self.model = cable_setup(n_w=4, n_t=3, S=1.3, P=0.2, delta=0.1, zeta=0.05, g=0.4, eps=0.5, kappa=0.3)
        rng = np.random.default_rng(5)
        self.y0 = ModalState(*(0.2 * rng.standard_normal(n) for n in (4, 4, 3, 3)))

    def test_rk4_matches_a_fresh_array_loop(self):
        cfg = IntegratorConfig(method="rk4", dt=0.01, t_end=3.0, sample_every=0.05)
        params, geo, basis, grid = self.model
        traj = integrate(self.y0, params, geo, basis, cfg, grid)
        f = make_packed_rhs(params, geo, basis, grid)
        n_steps, stride = 300, 5
        dt = cfg.t_end / n_steps
        half, third, sixth = 0.5 * dt, dt / 3.0, dt / 6.0
        to_k2, to_k3, to_k4, to_y = np.array(
            [[1.0, half, 0.0, 0.0, 0.0], [1.0, 0.0, half, 0.0, 0.0], [1.0, 0.0, 0.0, dt, 0.0],
             [1.0, sixth, third, third, sixth]]
        )
        y = self.y0.pack()
        rows = [y]
        for i in range(1, n_steps + 1):
            t = (i - 1) * dt
            stack = np.zeros((5, y.size))  # [y, k1, k2, k3, k4]
            stack[0] = y
            stack[1] = f(t, y)
            stack[2] = f(t + half, to_k2 @ stack)
            stack[3] = f(t + half, to_k3 @ stack)
            stack[4] = f(t + dt, to_k4 @ stack)
            y = to_y @ stack
            if i % stride == 0:
                rows.append(y)
        assert len(traj) == n_steps // stride + 1
        assert np.array_equal(traj.data, np.array(rows))

    def test_dp45_matches_a_fresh_array_loop(self):
        """The whole controller on fresh arrays; the large first step makes it reject some."""
        cfg = IntegratorConfig(method="adaptive45", dt=0.2, rtol=1e-8, t_end=3.0, sample_every=0.2)
        params, geo, basis, grid = self.model
        traj = integrate(self.y0, params, geo, basis, cfg, grid)
        f = make_packed_rhs(params, geo, basis, grid)
        fi = fishbone.integrate
        times = sample_times(cfg)
        y, t, h, err_prev, rejected = self.y0.pack(), 0.0, cfg.dt, 1.0, 0
        k0 = f(t, y)
        rows = [y]
        while t < cfg.t_end - 0.5 * fi.UNDERFLOW_FRACTION * cfg.t_end:
            h = min(h, cfg.t_end - t)
            tableau = np.zeros((9, 8))  # columns: y, then k0..k6
            tableau[1:8, 0], tableau[:, 1:] = 1.0, h * fi._RK45_TABLEAU
            stack = np.zeros((8, y.size))  # [y, k0, ..., k6]
            stack[0], stack[1] = y, k0
            for i in range(1, 7):
                stack[i + 1] = f(t + fi._RK45_C[i] * h, tableau[i, :7] @ stack[:7])
            y5 = tableau[7, :7] @ stack[:7]
            e = (tableau[8, 1:] @ stack[1:]) / (cfg.rtol / 100 + cfg.rtol * np.maximum(np.abs(y), np.abs(y5)))
            err = math.sqrt(float(e @ e) / e.size)
            if err > 1.0:
                h, rejected = 0.5 * h, rejected + 1
                continue
            while len(rows) < len(times) and times[len(rows)] <= t + h * (1 + 1e-12):
                theta = min(1.0, max(0.0, (times[len(rows)] - t) / h))
                rows.append(fi._hermite(theta, y, stack[1], y5, stack[7], h))
            y, t = y5, t + h
            k0 = stack[7]
            fac = fi.SAFETY * err ** (-fi.PI_ALPHA) * err_prev**fi.PI_BETA if err > 0 else fi.FAC_MAX
            h *= min(fi.FAC_MAX, max(fi.FAC_MIN, fac))
            err_prev = max(err, 1e-10)
        rows += [y] * (len(times) - len(rows))
        assert rejected > 0
        assert np.array_equal(traj.data, np.array(rows))


def test_grid_of_another_span_is_refused():
    """A 3+2 cable model on a grid built for 2 pi instead of pi would end 0.13 (max entry)
    away from the right run after 1 s; integrate refuses the grid, naming both spans."""
    params, geo, basis, _ = cable_setup(S=1.0, delta=0.1)
    y0 = ModalState(**{k: np.array(v) for k, v in BENCH_STATE.items()})
    cfg = IntegratorConfig(dt=0.01, t_end=1.0)
    wrong = make_grid(Basis(L=2.0 * np.pi, n_w=3, n_t=2))
    with pytest.raises(ValueError, match=r"QuadratureGrid.L = 6.28\d*, Basis.L = 3.14"):
        integrate(y0, params, geo, basis, cfg, wrong)


def numpy_frames(run):
    """run()'s Python-level calls into the numpy package, counted under sys.setprofile, and
    its result.

    np.dot's __array_function__ dispatcher is one such call; ufuncs, ndarray methods and
    indexing run in C and make none.
    """
    package, count = os.path.dirname(np.__file__) + os.sep, 0

    def profile(frame, event, arg):
        nonlocal count
        if event == "call" and frame.f_code.co_filename.startswith(package):
            count += 1

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        result = run()
    finally:
        sys.setprofile(previous)
    return count, result


class TestNoNumpyCallsPerStep:
    """The hot loops make no Python-level numpy call per RHS call, RK4 step or DP45 trial:
    on the 4+3 model of TestRunLongBuffers, N and 2N of them make the same count."""

    setup_method = TestRunLongBuffers.setup_method

    def test_rhs_calls(self):
        f = make_packed_rhs(*self.model)
        y = self.y0.pack()

        def calls(n):
            return numpy_frames(lambda: [f(0.0, y) for _ in range(n)])[0]

        calls(1)  # first-use set-up
        assert calls(50) == calls(100)

    @pytest.mark.parametrize("method", ["rk4", "adaptive45"])
    def test_steps(self, method):
        params, geo, basis, grid = self.model

        def run(t_end):
            cfg = IntegratorConfig(method=method, dt=0.01, rtol=1e-8, t_end=t_end, sample_every=0.1)
            frames, traj = numpy_frames(lambda: integrate(self.y0, params, geo, basis, cfg, grid))
            return frames, traj.counters["rhs_calls"]

        run(0.5)  # first-use set-up
        (frames, calls), (frames_2, calls_2) = run(1.0), run(2.0)
        assert calls_2 > 1.8 * calls
        assert frames == frames_2


class TestOrderOfAccuracy:
    def test_rk4_self_convergence(self):
        """Halving dt shrinks the endpoint error about 16x on a damped run."""
        params, geo, basis, grid = cable_setup(
            delta=0.1, zeta=0.05, g=0.4, S=1.0, eps=0.5, kappa=0.3
        )
        y0 = ModalState(**{k: np.array(v) for k, v in BENCH_STATE.items()})

        def endpoint(dt):
            cfg = IntegratorConfig(method="rk4", dt=dt, t_end=2.0)
            return integrate(y0, params, geo, basis, cfg).data[-1]

        ref = endpoint(2e-2 / 16.0)
        err_coarse = np.abs(endpoint(2e-2) - ref).max()
        err_fine = np.abs(endpoint(1e-2) - ref).max()
        assert 12.0 <= err_coarse / err_fine <= 20.0


if __name__ == "__main__":
    pytest.main([__file__, "-v"])
