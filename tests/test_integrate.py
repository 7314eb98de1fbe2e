"""Tests for fixed-step RK4 and the adaptive embedded 5(4) integrator."""

import re

import numpy as np
import pytest

import fishbone.integrate
from fishbone.cable import make_geometry
from fishbone.diagnostics import energies
from fishbone.dynamics import ModalState, ModelParams
from fishbone.integrate import (
    IntegrationError,
    IntegratorConfig,
    NonFiniteState,
    StepUnderflow,
    Trajectory,
    integrate,
)
from fishbone.linear import undamped_torsional_frequency
from fishbone.spectral import Basis, make_grid


def flat_setup(n_w=3, n_t=2, L=np.pi, **params):
    basis = Basis(L=L, n_w=n_w, n_t=n_t)
    grid = make_grid(basis)
    geometry = make_geometry(0.0, 1.0, 0.0, 0.0, basis, grid, allow_flat=True)
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
        """dt, tolerances, and horizon must be positive."""
        for kwargs in (dict(dt=0.0), dict(rtol=0.0), dict(atol=-1.0), dict(t_end=0.0)):
            with pytest.raises(ValueError):
                IntegratorConfig(**kwargs)

    def test_cadence_not_finer_than_step(self):
        """sample_every below dt is rejected."""
        with pytest.raises(ValueError):
            IntegratorConfig(dt=1e-2, sample_every=1e-3)

    def test_unknown_method(self):
        """Only rk4 and adaptive45 exist."""
        with pytest.raises(ValueError):
            IntegratorConfig(method="euler")


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
        assert mid.t == traj.times[3]


class TestAgainstClosedForms:
    def test_undamped_torsional_mode(self):
        """A single undamped torsional mode follows its sine/cosine solution."""
        params, geo, basis, grid = flat_setup(
            n_w=2, n_t=3, eps=0.7, kappa=0.4, ell=1.2, M=1.5
        )
        gam = undamped_torsional_frequency(params, 3)
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
        gam = undamped_torsional_frequency(params, 2)
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
        drift = max(
            abs(energies(traj.state(i), params, geo, basis, grid).Efull - e0)
            for i in range(len(traj))
        )
        assert drift / max(abs(e0), 1.0) <= 1e-6


class TestAdaptive:
    def test_matches_rk4_on_smooth_problem(self):
        """Tight-tolerance adaptive45 agrees with fine RK4."""
        params, geo, basis, grid = cable_setup(delta=0.05, g=0.3, eps=0.5, kappa=0.3)
        y0 = ModalState(**{k: np.array(v) for k, v in BENCH_STATE.items()})
        fine = IntegratorConfig(method="rk4", dt=2e-4, t_end=2.0, sample_every=0.1)
        loose = IntegratorConfig(
            method="adaptive45", rtol=1e-10, atol=1e-12, t_end=2.0, sample_every=0.1
        )
        ref = integrate(y0, params, geo, basis, fine)
        adaptive = integrate(y0, params, geo, basis, loose)
        np.testing.assert_allclose(adaptive.times, ref.times, atol=1e-12)
        scale = np.abs(ref.data).max()
        np.testing.assert_allclose(adaptive.data, ref.data, rtol=0, atol=1e-7 * scale)

    def test_tolerance_controls_error(self):
        """Loosening rtol by 1e4 visibly degrades accuracy."""
        params, geo, basis, grid = cable_setup(g=0.3, eps=0.5, kappa=0.3)
        y0 = ModalState(**{k: np.array(v) for k, v in BENCH_STATE.items()})
        ref_cfg = IntegratorConfig(method="rk4", dt=1e-4, t_end=2.0)
        ref = integrate(y0, params, geo, basis, ref_cfg).data[-1]
        errs = []
        for rtol in (1e-4, 1e-8):
            cfg = IntegratorConfig(method="adaptive45", rtol=rtol, atol=1e-12, t_end=2.0)
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
