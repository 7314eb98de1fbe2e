"""Tests for the bridge preset, canonical scenarios, and the wind sweep."""

import concurrent.futures
import warnings

import numpy as np
import pytest

from fishbone import experiments
from fishbone.cli import (
    DAMPING_RATE,
    GRAVITY,
    PRESETS,
    TNB_TABLE,
    WIND_COUPLING_RATE,
    WIND_SPEED,
    default_timestep,
    load_preset,
    parse_config_text,
    preset_text,
    resolve_config,
)
from fishbone.dynamics import ModalState, ModelParams
from fishbone.experiments import Scenario, classify_ratio, envelope_ratio, wind_sweep
from fishbone.integrate import IntegratorConfig, Trajectory, integrate
from fishbone.linear import undamped_frequencies
from fishbone.spectral import Basis, displayed_to_modal, make_grid
from models import cable_setup, rebuilt, state_3_2


def toy_scenario(name="toy", t_end=6.0, **params_over):
    base = dict(delta=0.05, zeta=0.05, Upsilon=0.5, eps=0.5, kappa=0.3)
    params, geo, basis, _ = cable_setup(n_w=3, n_t=2, **(base | params_over))
    cfg = IntegratorConfig(method="rk4", dt=0.02, t_end=t_end, sample_every=0.1)
    return Scenario(
        name=name, params=params, geometry=geo, basis=basis, initial=state_3_2(), integrator=cfg
    )


class TestDerivations:
    def test_tension_parameter(self):
        """The preset's a = M g / (2H) lands on the published slope scale."""
        a = load_preset("tnb").scenario.geometry.a
        assert a == TNB_TABLE["M"] * GRAVITY / (2.0 * TNB_TABLE["H"])
        np.testing.assert_allclose(a, 7.7665e-4, rtol=1e-4)

    def test_sag_consistency(self):
        """The preset's parabolic sag a L^2 / 8 recovers the published 70.71 m."""
        sag = load_preset("tnb").scenario.geometry.a * TNB_TABLE["L"] ** 2 / 8.0
        np.testing.assert_allclose(sag, TNB_TABLE["f"], rtol=1e-3)

    def test_tension_consistency(self):
        """H = M g L^2 / (16 f) reproduces the published tension to 0.1%."""
        h = (
            TNB_TABLE["M"]
            * GRAVITY
            * TNB_TABLE["L"] ** 2
            / (16.0 * TNB_TABLE["f"])
        )
        np.testing.assert_allclose(h, TNB_TABLE["H"], rtol=1e-3)

    def test_cable_stiffness(self):
        """The preset's b = Ac Ec / L0 is about 2.6148e7 N/m."""
        b = load_preset("tnb").scenario.geometry.b
        assert b == TNB_TABLE["Ac"] * TNB_TABLE["Ec"] / TNB_TABLE["L0"]
        np.testing.assert_allclose(b, 2.6148e7, rtol=1e-4)

    def test_stretching(self):
        """The preset's S = A E / (2L) is about 2.2761e8 N."""
        s = load_preset("tnb").scenario.params.S
        assert s == TNB_TABLE["A"] * TNB_TABLE["E"] / (2.0 * TNB_TABLE["L"])
        np.testing.assert_allclose(s, 2.2761e8, rtol=1e-4)

    def test_rest_length_from_geometry(self):
        """The quadrature rest length matches the published L0 within 5 cm."""
        geometry = load_preset("tnb").scenario.geometry
        assert abs(geometry.L0 - TNB_TABLE["L0"]) <= 0.05


class TestPreset:
    def test_parameter_wiring(self):
        """Every preset derives its coefficients and cables from the feature table."""
        params = load_preset("tnb").scenario.params
        t = TNB_TABLE
        assert params.M == t["M"] and params.L == t["L"] and params.ell == t["ell"]
        assert params.D == t["E"] * t["I"]
        assert params.eps == t["E"] * t["J"]
        assert params.kappa == t["G"] * t["K"]
        assert params.S == t["A"] * t["E"] / (2.0 * t["L"])
        assert params.g == GRAVITY
        assert params.delta == 0.0 and params.zeta == 0.0 and params.beta == 0.0
        cables = (t["M"] * GRAVITY / (2.0 * t["H"]), t["Ac"] * t["Ec"] / t["L0"], t["H"])
        for name in PRESETS:
            sc = resolve_config(parse_config_text(preset_text(name))).scenario
            assert (sc.geometry.a, sc.geometry.b, sc.geometry.c) == cables, name
            assert (sc.basis.n_w, sc.basis.n_t) == (10, 4), name
            assert sc.integrator.dt == default_timestep(sc.params, sc.basis), name

    def test_default_timestep_rule(self):
        """dt is one two-hundredth of the stiffest retained period."""
        tnb = load_preset("tnb").scenario
        params, basis = tnb.params, tnb.basis
        omega_w = np.sqrt(params.D / params.M) * (basis.n_w * np.pi / params.L) ** 2
        omega_t = undamped_frequencies(params, basis.n_w, basis.n_t)[1][-1]
        expected = 2.0 * np.pi / max(omega_w, omega_t) / 200.0
        np.testing.assert_allclose(default_timestep(params, basis), expected, rtol=1e-12)
        np.testing.assert_allclose(default_timestep(params, basis), 0.010938, rtol=1e-3)

    def test_default_timestep_hand_case(self):
        """Unit coefficients at L = pi give dt = pi/400 from the 2nd vertical mode."""
        params = ModelParams(eps=1.0, kappa=0.0, ell=np.sqrt(3.0))
        basis = Basis(L=np.pi, n_w=2, n_t=1)
        np.testing.assert_allclose(default_timestep(params, basis), np.pi / 400.0, rtol=1e-12)


class TestScenarios:
    def test_catalog(self):
        """The four canonical variants differ only in the documented switches."""
        names = ("free", "wind", "wind_stretch", "damped")
        scenarios = {name: load_preset(name).scenario for name in names}
        assert set(scenarios) == {"free", "wind", "wind_stretch", "damped"}
        m = TNB_TABLE["M"]
        free, wind = scenarios["free"].params, scenarios["wind"].params
        stretch, damped = scenarios["wind_stretch"].params, scenarios["damped"].params
        assert free.S == 0.0 and free.beta == 0.0 and free.delta == 0.0
        assert free.Upsilon == free.ell
        assert wind.beta == WIND_COUPLING_RATE * m and wind.Ustream == WIND_SPEED
        assert wind.S == 0.0 and wind.delta == 0.0
        assert stretch.S == TNB_TABLE["A"] * TNB_TABLE["E"] / (2.0 * TNB_TABLE["L"])
        assert stretch.beta == wind.beta
        assert damped.delta == DAMPING_RATE * m and damped.zeta == DAMPING_RATE * m
        assert damped.S == stretch.S and damped.beta == wind.beta
        for sc in scenarios.values():
            assert sc.integrator.t_end == 120.0
            assert sc.integrator.method == "rk4"
            np.testing.assert_allclose(
                sc.integrator.sample_every, 10.0 * sc.integrator.dt, rtol=1e-15
            )

    def test_initial_excitation(self):
        """The 9th vertical mode is at 3 m displayed, all else at 3 mm."""
        sc = load_preset("free").scenario
        big = displayed_to_modal(3.0, sc.basis.L)
        small = displayed_to_modal(3e-3, sc.basis.L)
        np.testing.assert_allclose(sc.initial.w[8], big, rtol=1e-15)
        np.testing.assert_allclose(np.delete(sc.initial.w, 8), small, rtol=1e-15)
        np.testing.assert_allclose(sc.initial.wdot, small, rtol=1e-15)
        np.testing.assert_allclose(sc.initial.th, small, rtol=1e-15)
        np.testing.assert_allclose(sc.initial.thdot, small, rtol=1e-15)

    def test_run_matches_direct_integration(self):
        """Scenario.run is exactly the integrate call it packages."""
        sc = toy_scenario()
        direct = integrate(sc.initial, sc.params, sc.geometry, sc.basis, sc.integrator)
        run = sc.run()
        np.testing.assert_array_equal(run.data, direct.data)
        np.testing.assert_array_equal(run.times, direct.times)

    def test_rerun_is_deterministic(self):
        """Running one scenario twice yields bit-identical trajectories."""
        sc = load_preset("damped").scenario
        short = Scenario(
            name=sc.name,
            params=sc.params,
            geometry=sc.geometry,
            basis=sc.basis,
            initial=sc.initial,
            integrator=IntegratorConfig(
                method="rk4", dt=sc.integrator.dt, t_end=6.0, sample_every=0.2
            ),
        )
        np.testing.assert_array_equal(short.run().data, short.run().data)

    def test_validation(self):
        """Scenario construction rejects bad names and mode counts."""
        sc = toy_scenario()
        with pytest.raises(ValueError, match="nonempty"):
            Scenario("", sc.params, sc.geometry, sc.basis, sc.initial, sc.integrator)
        bad_state = ModalState(np.zeros(2), np.zeros(2), np.zeros(2), np.zeros(2))
        with pytest.raises(ValueError, match="modes"):
            Scenario("x", sc.params, sc.geometry, sc.basis, bad_state, sc.integrator)

    def test_free_torsion_matches_closed_form_without_cables(self):
        """With cables removed the free scenario's twist is the exact oscillator."""
        sc = load_preset("free").scenario
        bare = rebuilt(sc.geometry, sc.basis, make_grid(sc.basis), b=0.0, c=0.0)
        cfg = IntegratorConfig(
            method="rk4",
            dt=sc.integrator.dt,
            t_end=12.0,
            sample_every=sc.integrator.sample_every,
        )
        traj = integrate(sc.initial, sc.params, bare, sc.basis, cfg)
        gam = undamped_frequencies(sc.params, sc.basis.n_w, sc.basis.n_t)[1]
        for j in range(sc.basis.n_t):
            th0, th1 = sc.initial.th[j], sc.initial.thdot[j]
            exact = (th1 / gam[j]) * np.sin(gam[j] * traj.times) + th0 * np.cos(
                gam[j] * traj.times
            )
            amp = np.sqrt(th0**2 + (th1 / gam[j]) ** 2)
            np.testing.assert_allclose(traj.th[:, j], exact, rtol=0, atol=1e-5 * amp)


class TestEnvelopeRatio:
    def linear_ramp_traj(self, slope=1.0, t_end=120.0, n=241, n_t=2):
        times = np.linspace(0.0, t_end, n)
        th2 = 1.0 + slope * times / t_end
        data = np.zeros((n, 2 * 1 + 2 * n_t))
        data[:, 2 + (n_t - 1)] = th2  # second torsional column for n_w = 1
        return Trajectory(times=times, data=data, n_w=1, n_t=n_t)

    def test_window_ratio(self):
        """The ratio compares max|th_2| over the last and first sixths."""
        traj = self.linear_ramp_traj()
        np.testing.assert_allclose(envelope_ratio(traj), (12.0 / 7.0), rtol=1e-12)

    def test_mode_selection_and_bounds(self):
        """The probed mode is configurable and must be retained."""
        traj = self.linear_ramp_traj()
        assert envelope_ratio(traj, mode=1) == 1.0  # untouched channel stays zero
        with pytest.raises(ValueError, match="not retained"):
            envelope_ratio(traj, mode=3)

    def test_zero_head_conventions(self):
        """All-zero series gives 1.0; growth from exact zero gives inf."""
        times = np.linspace(0.0, 12.0, 25)
        data = np.zeros((25, 4))
        traj = Trajectory(times=times, data=data, n_w=1, n_t=1)
        assert envelope_ratio(traj, mode=1) == 1.0
        data2 = data.copy()
        data2[-1, 2] = 1.0
        traj2 = Trajectory(times=times, data=data2, n_w=1, n_t=1)
        assert envelope_ratio(traj2, mode=1) == np.inf

    def test_classify_thresholds(self):
        """Classification is strict at both thresholds."""
        assert classify_ratio(0.4) == "decay"
        assert classify_ratio(0.5) == "neutral"
        assert classify_ratio(2.0) == "neutral"
        assert classify_ratio(2.1) == "growth"


class TestWindSweep:
    def test_grid_major_rows(self):
        """Rows come back beta-outer, U-inner and report the grid values."""
        rows = wind_sweep([1e-3, 2e-3], [1.0, 2.0], toy_scenario(), workers=1)
        assert [(r.beta, r.U) for r in rows] == [
            (1e-3, 1.0),
            (1e-3, 2.0),
            (2e-3, 1.0),
            (2e-3, 2.0),
        ]
        assert all(np.isfinite(r.ratio) for r in rows)
        assert all(r.classification in {"decay", "neutral", "growth"} for r in rows)

    def test_flow_sign_symmetry(self):
        """Reversing the stream sign leaves every classification unchanged."""
        base = toy_scenario()
        plus = wind_sweep([1e-3, 5e-3], [2.0], base, workers=1)
        minus = wind_sweep([1e-3, 5e-3], [-2.0], base, workers=1)
        for p, m in zip(plus, minus):
            assert p.classification == m.classification

    def test_exact_mirror_cells(self):
        """Flipping U, Upsilon, and the twist data together mirrors the ratio exactly."""
        from dataclasses import replace

        base = toy_scenario()
        mirrored = replace(
            base,
            params=replace(base.params, Upsilon=-base.params.Upsilon),
            initial=ModalState(
                base.initial.w, base.initial.wdot, -base.initial.th, -base.initial.thdot
            ),
        )
        plus = wind_sweep([1e-3, 5e-3], [2.0], base, workers=1)
        minus = wind_sweep([1e-3, 5e-3], [-2.0], mirrored, workers=1)
        for p, m in zip(plus, minus):
            assert p.ratio == m.ratio
            assert p.classification == m.classification

    def test_duplicate_grid_values_warn_and_collapse(self):
        """Duplicated grid entries are dropped with a warning."""
        with pytest.warns(UserWarning, match="duplicate beta"):
            rows = wind_sweep([1e-3, 1e-3], [2.0], toy_scenario(), workers=1)
        assert len(rows) == 1

    def test_zero_beta_is_silent(self):
        """beta = 0 is the unforced baseline and raises no range warning."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rows = wind_sweep([0.0, 1e-3], [2.0], toy_scenario(), workers=1)
        assert len(rows) == 2

    def test_out_of_range_values_warn(self):
        """Values off the studied beta range or speed limit warn but still run."""
        with pytest.warns(UserWarning, match="outside the studied range"):
            wind_sweep([0.5], [2.0], toy_scenario(), workers=1)
        with pytest.warns(UserWarning, match="exceeds the studied limit"):
            wind_sweep([1e-3], [31.0], toy_scenario(), workers=1)

    def test_empty_grid_rejected(self):
        """Empty grids are an error, not an empty result."""
        with pytest.raises(ValueError, match="nonempty"):
            wind_sweep([], [2.0], toy_scenario(), workers=1)

    @pytest.mark.parametrize("mode", [0, 3])
    def test_unretained_mode_rejected_before_any_cell(self, monkeypatch, mode):
        """wind_sweep takes no mode: asking for one, even an unretained one, fails before any cell."""

        def integrate_nothing(*args, **kwargs):
            raise AssertionError("a cell was integrated")

        monkeypatch.setattr(experiments, "integrate", integrate_nothing)
        with pytest.raises(TypeError, match="'mode'"):
            wind_sweep([1e-3], [2.0], toy_scenario(), mode=mode, workers=1)

    def test_basis_without_swept_mode_rejected_before_any_cell(self, monkeypatch):
        """A basis without the classified torsional mode raises before any cell is integrated."""
        from dataclasses import replace

        def integrate_nothing(*args, **kwargs):
            raise AssertionError("a cell was integrated")

        base = toy_scenario()
        base = replace(
            base,
            basis=Basis(L=np.pi, n_w=3, n_t=1),
            initial=ModalState(
                base.initial.w, base.initial.wdot, base.initial.th[:1], base.initial.thdot[:1]
            ),
        )
        monkeypatch.setattr(experiments, "integrate", integrate_nothing)
        with pytest.raises(ValueError, match="torsional mode 2 not retained"):
            wind_sweep([1e-3], [2.0], base, workers=1)

    def test_failed_cell_is_marked_not_fatal(self):
        """A blowup cell is classified 'failed' and the sweep continues."""
        base = toy_scenario(t_end=4.0, P=1e4)
        rows = wind_sweep([0.0, 1e-3], [1.0], base, workers=1)
        assert [r.classification for r in rows] == ["failed", "failed"]
        assert all(np.isnan(r.ratio) for r in rows)
        assert all(r.note for r in rows)

    def test_parallel_matches_serial(self):
        """Worker processes return the same rows in the same order."""
        base = toy_scenario()
        serial = wind_sweep([1e-3, 2e-3], [1.0, 2.0], base, workers=1)
        parallel = wind_sweep([1e-3, 2e-3], [1.0, 2.0], base, workers=2)
        assert serial == parallel

    def test_pool_unavailable_runs_serially(self, monkeypatch):
        """A host that cannot start worker processes gets a warning and the serial rows."""
        base = toy_scenario()
        serial = wind_sweep([1e-3, 2e-3], [1.0], base, workers=1)

        def no_pool(*args, **kwargs):
            raise OSError("no subprocess support")

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
        with pytest.warns(UserWarning, match="parallel sweep unavailable"):
            fallback = wind_sweep([1e-3, 2e-3], [1.0], base, workers=2)
        assert fallback == serial

    def test_reference_cell_grows(self):
        """The reference cell (beta = 1e-2, U = 30) outgrows the unforced beta = 0 cell.

        Both cells start from the free scenario's datum and truncation, so the
        wind is the only difference. The reference ratio (1.732) is not held
        to the "growth" threshold 2: at the canonical 10+4 truncation it is
        set by which torsional modes are kept, not by the wind.
        """
        base = load_preset("free").scenario
        unforced, reference = wind_sweep([0.0, 1e-2], [30.0], base, workers=1)
        assert reference.ratio > 1.0
        assert reference.ratio > unforced.ratio


if __name__ == "__main__":
    pytest.main([__file__, "-v"])
