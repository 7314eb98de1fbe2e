"""End-to-end acceptance checks: oracle accuracy, invariants, and scenarios.

Each class exercises one contract-level guarantee of the package: closed-form
agreement, energy bookkeeping, the randomized inequality suite, bridge-table
consistency, the canonical 120 s scenarios, linear stability, absorbing-ball
evidence, and the integrator's order of accuracy.
"""

import math
import time
import warnings
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest

from fishbone.cable import make_geometry
from fishbone.diagnostics import (
    absorbing_params,
    attach_energies,
    energies,
    lemma_suite,
    random_states,
)
from fishbone import spectral
from fishbone.dynamics import CHANNELS, ModalState, ModelParams, channel_slices, make_packed_rhs
from fishbone.cli import GRAVITY, PRESETS, TNB_TABLE, load_preset
from fishbone.experiments import envelope_ratio
from fishbone.integrate import IntegratorConfig, integrate, sample_times
from fishbone.linear import (
    ConditioningWarning,
    OverdampedBranch,
    ResonantCase,
    characteristic_roots,
    closed_form,
    spectrum_report,
    undamped_frequencies,
)
from fishbone.spectral import Basis, make_grid

TNB_DECAY = 4.166666666666667e-4  # 3 zeta / (2 M ell^2) at the 0.01/s rate


def cable_setup(n_w=4, n_t=3, L=math.pi, a=0.2, b=1.0, c=1.0, **over):
    basis = Basis(L=L, n_w=n_w, n_t=n_t)
    grid = make_grid(basis)
    geometry = make_geometry(a, 1.0, b, c, basis, grid)
    params = ModelParams(L=L, **over)
    return params, geometry, basis, grid


# Damped nondimensional 4+3 model of the absorbing-ball test and the benchmark's analysis ensemble
ABSORBING_MODEL = dict(
    M=1.0, D=1.0, ell=1.0, eps=0.5, kappa=0.3,
    delta=0.2, zeta=0.1, beta=0.01, Upsilon=0.5, Ustream=2.0, g=0.3,
    S=1.0, P=0.5,
)


def state_in_shell(rng, basis, target, eplus):
    """A random smooth state scaled by bisection to eplus(state) = target."""
    w = random_states(rng, basis, 1.0, 1)[0][: basis.n_w]
    th = random_states(rng, basis, 1.0, 1)[0][: basis.n_t]
    wdot, thdot = rng.standard_normal(basis.n_w), rng.standard_normal(basis.n_t)

    def scaled(s):
        return ModalState(s * w, s * wdot, s * th, s * thdot)

    lo, hi = 0.0, 1.0
    while eplus(scaled(hi)) < target:
        hi *= 2.0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if eplus(scaled(mid)) < target else (lo, mid)
    return scaled(0.5 * (lo + hi))


def log_peak_growth_rate(traj, mode=2, window=10.0):
    """Least-squares slope (1/s) of log max|th_mode| per window, with its standard error.

    The run is cut into equal windows of about the given length; each window's
    peak is placed at the time it occurs. A window must span at least two
    periods of the mode (about 4.4 s for mode 2 of the bridge) so that every
    window holds a true envelope peak.
    """
    series = np.abs(traj.th[:, mode - 1])
    span = traj.times[-1] - traj.times[0]
    n_windows = round(span / window)
    index = np.minimum(((traj.times - traj.times[0]) / span * n_windows).astype(int), n_windows - 1)
    peaks_t, peaks_log = [], []
    for k in range(n_windows):
        members = np.flatnonzero(index == k)
        top = members[np.argmax(series[members])]
        peaks_t.append(traj.times[top])
        peaks_log.append(math.log(series[top]))
    coef, cov = np.polyfit(peaks_t, peaks_log, 1, cov=True)
    return float(coef[0]), math.sqrt(cov[0, 0])


@pytest.fixture(scope="module")
def scenario_runs():
    """All four canonical 120 s scenarios with their wall-clock times."""
    runs = {}
    for name in ("free", "wind", "wind_stretch", "damped"):
        scenario = load_preset(name).scenario
        start = time.perf_counter()
        runs[name] = (scenario.run(), time.perf_counter() - start)
    return runs


class TestClosedFormOracle:
    def test_twenty_random_linear_runs_match(self):
        """RK4 tracks the closed-form solution to 1e-5 on 20 random models."""
        rng = np.random.default_rng(42)
        start = time.perf_counter()
        accepted = 0
        worst = 0.0
        while accepted < 20:
            L = rng.uniform(2.5, 4.5)
            M = rng.uniform(0.5, 2.0)
            D = rng.uniform(0.5, 2.0)
            ell = rng.uniform(0.8, 2.0)
            params = ModelParams(
                M=M,
                D=D,
                L=L,
                ell=ell,
                eps=rng.uniform(0.05, 0.8),
                kappa=rng.uniform(0.0, 1.0),
                delta=rng.uniform(0.05, 0.25) * M,
                zeta=rng.uniform(0.02, 0.08) * M,
                beta=rng.uniform(0.0, 0.05) * M,
                Upsilon=rng.uniform(0.0, 0.8) * ell,
                Ustream=rng.uniform(0.0, 5.0),
                g=rng.uniform(0.0, 0.5),
            )
            n_w = int(rng.integers(1, 4))
            n_t = int(rng.integers(1, min(n_w, 2) + 1))
            basis = Basis(L=L, n_w=n_w, n_t=n_t)
            y0 = ModalState(
                rng.uniform(-0.5, 0.5, n_w),
                rng.uniform(-0.5, 0.5, n_w),
                rng.uniform(-0.5, 0.5, n_t),
                rng.uniform(-0.5, 0.5, n_t),
            )
            # Reject stiff draws (fixed dt = 1e-3 must stay well resolved)
            # and the representation's excluded cases.
            omega_max = max(
                (n_w * math.pi / L) ** 2 * math.sqrt(D / M),
                float(undamped_frequencies(params, n_w, n_t)[1].max()),
            )
            if omega_max > 25.0:
                continue
            try:
                with warnings.catch_warnings():
                    warnings.simplefilter("error", ConditioningWarning)
                    sol = closed_form(y0, params)
            except (OverdampedBranch, ResonantCase, ConditioningWarning):
                continue
            grid = make_grid(basis)
            flat = make_geometry(0.0, 1.0, 0.0, 0.0, basis, grid)
            cfg = IntegratorConfig(method="rk4", dt=1e-3, t_end=10.0, sample_every=0.05)
            traj = integrate(y0, params, flat, basis, cfg, grid)
            numeric = np.hstack([traj.w, traj.wdot, traj.th, traj.thdot])
            exact = sol.sample(traj.times)
            rel = np.abs(numeric - exact).max() / max(np.abs(exact).max(), 1e-30)
            worst = max(worst, rel)
            accepted += 1
        assert worst <= 1e-5
        assert time.perf_counter() - start < 30.0


class TestEnergyConservation:
    def test_conservative_run_holds_energy(self):
        """Undamped unforced dynamics keep the full energy to 1e-6 over [0, 10]."""
        params, geometry, basis, grid = cable_setup(
            M=1.0, D=1.0, ell=1.0, eps=0.5, kappa=0.3, S=1.0, P=0.5
        )
        y0 = ModalState(
            np.array([0.3, -0.1, 0.05, 0.02]),
            np.array([0.0, 0.1, -0.02, 0.0]),
            np.array([0.2, -0.05, 0.02]),
            np.array([0.05, 0.0, -0.01]),
        )
        cfg = IntegratorConfig(method="rk4", dt=1e-3, t_end=10.0, sample_every=0.1)
        traj = integrate(y0, params, geometry, basis, cfg, grid)
        efull = energies(traj.data, params, geometry, basis, grid).Efull
        drift = np.abs(efull - efull[0]).max() / max(abs(float(efull[0])), 1.0)
        assert drift <= 1e-6

    def test_damped_forced_identity_residual(self):
        """The energy identity balances to 1e-5 on a damped, wind-forced run."""
        params, geometry, basis, grid = cable_setup(
            M=1.0, D=1.0, ell=1.0, eps=0.5, kappa=0.3,
            delta=0.1, zeta=0.05, beta=0.02, Upsilon=0.5, Ustream=2.0, g=0.3,
            S=0.5, P=0.2,
        )
        y0 = ModalState(
            np.array([0.3, -0.1, 0.05, 0.02]),
            np.array([0.0, 0.1, -0.02, 0.0]),
            np.array([0.2, -0.05, 0.02]),
            np.array([0.05, 0.0, -0.01]),
        )
        cfg = IntegratorConfig(method="rk4", dt=1e-3, t_end=10.0, sample_every=1e-3)
        traj = integrate(y0, params, geometry, basis, cfg, grid)
        residual = attach_energies(traj, params, geometry, basis, grid).diagnostics["residual"]
        assert np.abs(residual).max() <= 1e-5


class TestInequalitySuite:
    def test_thousand_states_no_violations(self):
        """10^3 random states in the radius-5 ball violate no inequality."""
        basis = Basis(L=math.pi, n_w=10, n_t=4)
        grid = make_grid(basis)
        geometry = make_geometry(0.2, 1.0, 1.0, 1.0, basis, grid)
        start = time.perf_counter()
        report = lemma_suite(1000, 5.0, geometry, basis, grid, seed=0)
        assert report["violations"] == 0
        assert time.perf_counter() - start < 60.0


class TestBridgeTableConsistency:
    def test_tension_sag_and_rest_length(self):
        """The preset's derived tension, sag, and rest length reproduce the published table."""
        t = TNB_TABLE
        tension = t["M"] * GRAVITY * t["L"] ** 2 / (16.0 * t["f"])
        np.testing.assert_allclose(tension, t["H"], rtol=1e-3)
        geometry = load_preset("tnb").scenario.geometry
        assert geometry.a == t["M"] * GRAVITY / (2.0 * t["H"])
        np.testing.assert_allclose(geometry.a * t["L"] ** 2 / 8.0, t["f"], rtol=1e-3)
        assert abs(geometry.L0 - t["L0"]) <= 0.05


class TestScenarioReproduction:
    def test_each_run_under_two_minutes(self, scenario_runs):
        """Every canonical 120 s scenario integrates in under two minutes."""
        for name, (_, wall) in scenario_runs.items():
            assert wall < 120.0, f"{name} took {wall:.1f} s"

    def test_free_torsion_stays_bounded(self, scenario_runs):
        """Without wind the torsional modes stay within 3x their initial size.

        This holds at the canonical truncation n_t = 4, where no retained
        torsional mode is near 1:1 with the excited 9th vertical mode. Keeping
        torsional mode 6 (near-resonant with it) makes the free run's mode-2
        envelope grow about 34x on its own.
        """
        traj, _ = scenario_runs["free"]
        for j in range(traj.n_t):
            series = np.abs(traj.th[:, j])
            assert series.max() <= 3.0 * series[0]

    def test_wind_drives_torsional_growth(self, scenario_runs):
        """Wind makes mode-2 torsion grow where the unforced bridge does not.

        A controlled comparison against the free run from the same datum and
        truncation: the windy cell (beta = 1e-2/s, U = 30 m/s) has the larger
        mode-2 envelope ratio, and its log-peak growth rate exceeds the free
        run's by more than three combined standard errors. The absolute ratio
        (1.732 here) is not asserted against the growth threshold: it is set by
        the torsional truncation rather than by the wind, and does not converge
        in the number of modes.
        """
        free, _ = scenario_runs["free"]
        wind, _ = scenario_runs["wind"]
        free_ratio = envelope_ratio(free, mode=2)
        wind_ratio = envelope_ratio(wind, mode=2)
        assert wind_ratio > free_ratio, f"wind ratio {wind_ratio:.3f} <= free {free_ratio:.3f}"
        free_rate, free_se = log_peak_growth_rate(free, mode=2)
        wind_rate, wind_se = log_peak_growth_rate(wind, mode=2)
        margin = 3.0 * math.hypot(free_se, wind_se)
        assert wind_rate - free_rate > margin, (
            f"wind rate {wind_rate:.2e} vs free {free_rate:.2e} (3 SE = {margin:.2e})"
        )

    def test_stretching_lowers_final_torsion(self, scenario_runs):
        """Deck stretching strictly reduces the final mode-2 torsion envelope."""
        def tail(traj):
            t1 = traj.times[-1]
            window = traj.times >= t1 - (t1 - traj.times[0]) / 6.0
            return float(np.abs(traj.th[window, 1]).max())

        assert tail(scenario_runs["wind_stretch"][0]) < tail(scenario_runs["wind"][0])

    def test_damping_decays_all_torsional_modes(self, scenario_runs):
        """With structural damping every torsional envelope ratio drops below 1, and zeta
        is what lowers it: each is below 0.97 of the same run's at zeta = 0 (measured
        0.954-0.960, against e^(-4.17e-4/s * 100 s) = 0.959 between the windows)."""
        traj, _ = scenario_runs["damped"]
        scenario = load_preset("damped").scenario
        undamped = replace(scenario, params=replace(scenario.params, zeta=0.0)).run()
        for j in range(1, traj.n_t + 1):
            assert envelope_ratio(traj, mode=j) < 1.0
            assert envelope_ratio(traj, mode=j) < 0.97 * envelope_ratio(undamped, mode=j)


class TestWindyCellControl:
    """What the windy cell's mode-2 ratio measures: beta's vertical damping, not the flow.

    Two controls give the ``wind`` preset's 120 s ratio (1.732287) to 1e-3 relative,
    far from ``free``'s 0.9945: the preset's beta with U = 0 (measured 1.732265) and
    no wind at all with delta = beta (measured 1.732574), so mu = delta + beta is the
    same vertical damping. The flow moves the ratio by about 1e-4 for |U| <= 30.
    """

    @pytest.mark.parametrize("control", ["no_flow", "delta_for_beta"])
    def test_control_gives_the_windy_ratio(self, scenario_runs, control):
        scenario = load_preset("wind").scenario
        p = scenario.params
        params = {
            "no_flow": replace(p, Ustream=0.0),
            "delta_for_beta": replace(p, delta=p.beta, beta=0.0, Ustream=0.0, Upsilon=0.0),
        }[control]
        ratio = envelope_ratio(replace(scenario, params=params).run(), mode=2)
        assert ratio == pytest.approx(envelope_ratio(scenario_runs["wind"][0], mode=2), rel=1e-3)
        assert ratio - envelope_ratio(scenario_runs["free"][0], mode=2) > 0.5


def torsion_free(scenario, t_end=5.0):
    """The scenario from its datum with th = thdot = 0, cut to t_end seconds."""
    zero = np.zeros(scenario.basis.n_t)
    return replace(
        scenario,
        initial=replace(scenario.initial, th=zero, thdot=zero),
        integrator=replace(scenario.integrator, t_end=t_end),
    )


class TestTorsionFreeSubspace:
    """th = 0 is invariant to the bit: with th = 0 the two hanger lines are equal, so
    f-bar is exactly 0, and no torsion row of the linear part reads w or the flow."""

    @pytest.mark.parametrize("name", PRESETS)
    def test_torsion_stays_exactly_zero(self, name):
        """From the canonical datum with th = thdot = 0, th and thdot stay 0.0 over 5 s."""
        traj = torsion_free(load_preset(name).scenario).run()
        assert not traj.th.any() and not traj.thdot.any()

    def test_flow_speed_leaves_the_bits(self):
        """On ``wind`` from that datum, U = 0, 30, -30 and 300 give the same trajectory bit
        for bit: U enters only through beta U th, which is 0 on the subspace."""
        scenario = torsion_free(load_preset("wind").scenario)
        first, *others = (
            replace(scenario, params=replace(scenario.params, Ustream=U)).run().data
            for U in (0.0, 30.0, -30.0, 300.0)
        )
        assert all(np.array_equal(first, data) for data in others)


def mirror_class_leak(scenario, th_parity, t_end):
    """Largest |entry| off the span-mirror class {w odd, th_j with j % 2 == th_parity}, and
    on it, over a run from the canonical datum restricted to the class, velocities included."""
    y = scenario.initial
    keep_w = np.arange(1, y.n_w + 1) % 2 == 1
    keep_th = np.arange(1, y.n_t + 1) % 2 == th_parity
    traj = replace(
        scenario,
        initial=ModalState(y.w * keep_w, y.wdot * keep_w, y.th * keep_th, y.thdot * keep_th),
        integrator=replace(scenario.integrator, t_end=t_end),
    ).run()
    keep = np.concatenate((keep_w, keep_w, keep_th, keep_th))
    return np.abs(traj.data[:, ~keep]).max(), np.abs(traj.data[:, keep]).max()


class TestMirrorClasses:
    """The span mirror x -> L - x sends e_j to (-1)^(j+1) e_j. The cables are symmetric and
    the Gauss nodes mirror, so {w odd, th odd} is invariant to rounding on every preset;
    {w odd, th even} only without wind, since the piston terms couple th_j into w_j."""

    @pytest.mark.parametrize("name", PRESETS)
    def test_odd_class_holds(self, name):
        """From {w odd, th odd}, the off-class entries stay under 1e-9 over 2 s (4.8e-12
        measured), while the on-class ones are O(100)."""
        off, on = mirror_class_leak(load_preset(name).scenario, 1, 2.0)
        assert off <= 1e-9 and on > 1.0

    @pytest.mark.parametrize("name", ["tnb", "free"])
    def test_odd_even_class_holds_without_wind(self, name):
        """From {w odd, th even}, the windless presets stay under 1e-9 over 2 s (4.7e-12)."""
        off, on = mirror_class_leak(load_preset(name).scenario, 0, 2.0)
        assert off <= 1e-9 and on > 1.0

    def test_wind_leaks_out_of_the_odd_even_class(self):
        """On ``wind``, {w odd, th even} leaks to 0.050 within 10 s: the test tells the
        classes apart."""
        off, _ = mirror_class_leak(load_preset("wind").scenario, 0, 10.0)
        assert off > 1e-2


class TestLinearStability:
    def linear_bridge(self):
        scenario = load_preset("damped").scenario
        params = replace(scenario.params, S=0.0, beta=0.0, Upsilon=0.0, Ustream=0.0)
        return params, scenario

    def test_spectrum_strictly_stable(self):
        """All retained modes of the damped bridge have negative abscissa."""
        params, scenario = self.linear_bridge()
        report = spectrum_report(params, scenario.basis.n_w, scenario.basis.n_t)
        assert report.max_real_part < 0.0
        assert report.classification == "exponentially_stable"
        np.testing.assert_allclose(-report.max_real_part, TNB_DECAY, rtol=1e-12)

    def test_damped_preset_channel_rates(self):
        """``damped``'s amplitude decay rates: 1.0e-2/s vertical, 5e-3/s of it from delta
        and the rest from beta, and 4.17e-4/s torsional, an e-folding time of 2,400 s,
        20 times the 120 s horizon: zeta = 0.01 M is divided by the torsional inertia
        M l^2/3 where delta is divided by M."""
        scenario = load_preset("damped").scenario
        params, n_w, n_t = scenario.params, scenario.basis.n_w, scenario.basis.n_t
        vertical, torsional = characteristic_roots(params, n_w, n_t)
        np.testing.assert_allclose(-vertical.real, 1.0e-2, rtol=1e-12)
        np.testing.assert_allclose(-torsional.real, TNB_DECAY, rtol=1e-12)
        delta_alone = characteristic_roots(replace(params, beta=0.0), n_w, n_t)[0]
        np.testing.assert_allclose(-delta_alone.real, 5.0e-3, rtol=1e-12)
        assert round(1.0 / TNB_DECAY) == 2400

    def test_fitted_decay_matches_analytic_rate(self):
        """Log-slope fits of simulated torsional envelopes match to 10%."""
        params, scenario = self.linear_bridge()
        basis = scenario.basis
        grid = make_grid(basis)
        flat = make_geometry(0.0, 1.0, 0.0, 0.0, basis, grid)
        y0 = ModalState(
            np.zeros(basis.n_w),
            np.zeros(basis.n_w),
            np.full(basis.n_t, 1e-3),
            np.zeros(basis.n_t),
        )
        traj = integrate(y0, params, flat, basis, scenario.integrator, grid)
        sigma = 3.0 * (params.zeta / params.M) / (2.0 * params.ell**2)
        gamma = undamped_frequencies(params, basis.n_w, basis.n_t)[1]
        omega = np.sqrt(gamma**2 - sigma**2)
        for mode in (2, 4):
            th = traj.th[:, mode - 1]
            thdot = traj.thdot[:, mode - 1]
            amplitude = np.sqrt(th**2 + ((thdot + sigma * th) / omega[mode - 1]) ** 2)
            slope = np.polyfit(traj.times, np.log(amplitude), 1)[0]
            np.testing.assert_allclose(-slope, TNB_DECAY, rtol=0.1)


class TestAbsorbingEvidence:
    # Empirical tail bound: the measured sup over [50, 100] is about -7e-3
    # (the attractor hugs the sagged equilibrium, where the shortened-cable
    # channel is slightly negative), so 1.0 documents a contraction of three
    # orders of magnitude from the largest initial energy.
    TAIL_BOUND = 1.0

    def test_large_data_contract_into_one_ball(self):
        """Initial energies up to 1e3 end below one constant on [50, 100]."""
        params, geometry, basis, grid = cable_setup(**ABSORBING_MODEL)
        admissible = absorbing_params(params)
        assert admissible.admissible
        assert 0.0 < admissible.nu < admissible.nubar
        assert params.eps < admissible.epsbar

        def eplus(state):
            return energies(state, params, geometry, basis, grid).Eplus

        rng = np.random.default_rng(7)
        tails = []
        for target in np.logspace(0.0, 3.0, 10):
            y0 = state_in_shell(rng, basis, target, eplus)
            assert eplus(y0) <= 1.001e3
            cfg = IntegratorConfig(method="rk4", dt=5e-3, t_end=100.0, sample_every=0.5)
            traj = integrate(y0, params, geometry, basis, cfg, grid)
            tails.append(eplus(traj.data[traj.times >= 50.0]).max())
        assert max(tails) < self.TAIL_BOUND


class TestConvergenceOrder:
    def test_rk4_self_convergence_ratio(self):
        """Halving the step shrinks the final-state difference ~16-fold."""
        params, geometry, basis, grid = cable_setup(
            M=1.0, D=1.0, ell=1.2, eps=0.5, kappa=0.3,
            delta=0.1, zeta=0.05, beta=0.02, Upsilon=0.5, Ustream=2.0, g=0.3,
            S=1.0, P=0.5,
        )
        y0 = ModalState(
            np.array([0.3, -0.1, 0.05, 0.0]),
            np.array([0.0, 0.1, 0.0, -0.05]),
            np.array([0.2, -0.05, 0.02]),
            np.array([0.05, 0.0, 0.0]),
        )
        finals = []
        for dt in (0.02, 0.01, 0.005):
            cfg = IntegratorConfig(method="rk4", dt=dt, t_end=5.0, sample_every=5.0)
            traj = integrate(y0, params, geometry, basis, cfg, grid)
            finals.append(np.hstack([traj.w[-1], traj.wdot[-1], traj.th[-1], traj.thdot[-1]]))
        ratio = np.linalg.norm(finals[0] - finals[1]) / np.linalg.norm(finals[1] - finals[2])
        assert 12.0 <= ratio <= 20.0


class TestStepConvergence:
    """The canonical mode-2 ratios at dt/2 against the fixture's runs at dt.

    Both step sizes sample the same times, so a difference is step error alone.
    Measured: free 1.40e-3, wind 1.2e-5 and damped 1.95e-3; the bounds are 3e-3,
    1e-4 and 3e-3. wind_stretch is left out: its ratio reads about 1.414 at dt
    (the later digits depend on the host) and 1.286 at dt/2, so it is not
    resolved in dt (README).
    """

    BOUNDS = {"free": 3e-3, "wind": 1e-4, "damped": 3e-3}

    @pytest.mark.parametrize("name", list(BOUNDS))
    def test_half_step_moves_the_ratio_within_its_bound(self, scenario_runs, name):
        scenario = load_preset(name).scenario
        half = replace(scenario.integrator, dt=scenario.integrator.dt / 2.0)
        assert np.array_equal(sample_times(half), sample_times(scenario.integrator))
        ratio = envelope_ratio(scenario_runs[name][0], mode=2)
        fine = envelope_ratio(replace(scenario, integrator=half).run(), mode=2)
        assert abs(fine - ratio) <= self.BOUNDS[name], f"{name}: {ratio:.6f} at dt, {fine:.6f} at dt/2"

    def test_adaptive45_wind_ratio_matches_rk4(self, scenario_runs):
        """DP45 at rtol 1e-8 gives the wind ratio of RK4 at dt to 1e-4 (measured 1.2e-5)
        in at most 8,400 trial steps (measured 8,301; Dormand-Prince's pair took 9,135).

        Both sample the same times, so the gap is the integrators' alone.
        """
        scenario = load_preset("wind").scenario
        cfg = replace(scenario.integrator, method="adaptive45", rtol=1e-8)
        adaptive = replace(scenario, integrator=cfg).run()
        rk4 = scenario_runs["wind"][0]
        assert np.array_equal(adaptive.times, rk4.times)
        gap = abs(envelope_ratio(adaptive, mode=2) - envelope_ratio(rk4, mode=2))
        assert gap <= 1e-4
        assert adaptive.counters["accepted"] + adaptive.counters["rejected"] <= 8400


SHELLS = (1.0, 10.0, 100.0, 1e3, 1e4)  # initial energies Eplus of the quadrature study


def shell_errors(seed):
    """make_grid's rule against 16 times its panels on the damped 4+3 model.

    Six random states per shell of initial energy Eplus in SHELLS, drawn from one seed in
    that order. Returns each shell's worst error over the two acceleration blocks, each
    scaled by its largest reference entry, as the benchmark's RHS check does. This is the
    protocol ``tools/quadrature_study.py`` runs over many seeds.
    """
    params, geometry, basis, grid = cable_setup(**ABSORBING_MODEL)
    where = channel_slices(basis.n_w, basis.n_t)

    def eplus(state):
        return energies(state, params, geometry, basis, grid).Eplus

    rng = np.random.default_rng(seed)
    shells = {
        target: np.array([state_in_shell(rng, basis, target, eplus).pack() for _ in range(6)])
        for target in SHELLS
    }
    with mock.patch.multiple(
        spectral, MIN_PANELS=16 * spectral.MIN_PANELS, PANELS_PER_MODE=16 * spectral.PANELS_PER_MODE
    ):
        fine = make_grid(basis)
    assert fine.panels == 16 * grid.panels
    rhs = make_packed_rhs(params, geometry, basis, grid)
    fine_geometry = make_geometry(geometry.a, geometry.s0, geometry.b, geometry.c, basis, fine)
    fine_rhs = make_packed_rhs(params, fine_geometry, basis, fine)
    errors = {}
    for target, states in shells.items():
        got = np.array([rhs(0.0, y) for y in states])
        want = np.array([fine_rhs(0.0, y) for y in states])
        errors[target] = max(
            np.abs(got[:, block] - want[:, block]).max() / np.abs(want[:, block]).max()
            for block in (where.wdot, where.thdot)
        )
    return errors


class TestQuadratureConvergence:
    @pytest.mark.parametrize("n_w, n_t", [(10, 4), (14, 8), (16, 10), (20, 10), (24, 12)])
    def test_rule_matches_a_sixteen_times_finer_one(self, scenario_runs, monkeypatch, n_w, n_t):
        """make_grid's rule gives the RHS to 1e-10 per acceleration block.

        The states are eight samples along the canonical wind_stretch run
        (10+4 modes), zero-padded to the truncation; the reference rule has
        16 times the panels. Each block is scaled by its largest reference
        entry, as the benchmark's RHS check does. Up to 20 modes the grid is
        the 20-panel floor; at 24+12 it has one panel per mode. The worst error
        measured was 1.0e-11, in the torsion block, where the 5-point rule at
        320 to 480 nodes read 4.9e-12 to 1.6e-11: a rounding floor.
        """
        traj = scenario_runs["wind_stretch"][0]
        scenario = load_preset("wind_stretch").scenario
        basis = Basis(L=scenario.basis.L, n_w=n_w, n_t=n_t)
        where = channel_slices(n_w, n_t)
        samples = np.linspace(0, len(traj) - 1, 8).astype(int)
        states = np.zeros((len(samples), where.thdot.stop))
        for channel in CHANNELS:
            sampled = getattr(traj, channel)[samples]
            states[:, getattr(where, channel).start + np.arange(sampled.shape[1])] = sampled

        def rhs_rows(grid):
            geo = scenario.geometry
            geometry = make_geometry(geo.a, geo.s0, geo.b, geo.c, basis, grid)
            rhs = make_packed_rhs(scenario.params, geometry, basis, grid)
            return np.array([rhs(0.0, y) for y in states])

        grid = make_grid(basis)
        got = rhs_rows(grid)
        monkeypatch.setattr(spectral, "MIN_PANELS", 16 * spectral.MIN_PANELS)
        monkeypatch.setattr(spectral, "PANELS_PER_MODE", 16 * spectral.PANELS_PER_MODE)
        fine = make_grid(basis)
        assert fine.panels == 16 * grid.panels
        want = rhs_rows(fine)
        for block in (where.wdot, where.thdot):
            scale = np.abs(want[:, block]).max()
            assert np.abs(got[:, block] - want[:, block]).max() <= 1e-10 * scale

    def test_rule_error_grows_with_amplitude_on_the_analysis_shells(self):
        """make_grid's rule on the damped 4+3 model, at initial energies Eplus 1 to 1e4.

        Eplus 1 to 1000 are the shells of the benchmark's analysis ensemble (240
        nodes). Six random states per shell, each block scaled as above, against
        16 times the panels. Over 20 seeds of six states (tools/quadrature_study.py)
        the worst errors were 6.7e-16, 5.1e-16, 6.0e-16, 3.7e-9 and 2.3e-5 at
        Eplus 1, 10, 100, 1000 and 1e4. Each bound is that worst case rounded up
        to a power of ten, times ten; Eplus 1 to 100 keep the looser bounds of the
        earlier 5-point rule, whose worst errors were 7.5e-16, 8.2e-16, 2.6e-13,
        6.0e-9 and 3.1e-6. So at Eplus 1e4 this rule is seven times worse than
        that one. Other rules of at most 240 nodes read, at Eplus 1000: 10
        panels of 20 points 7.1e-7, over the bound; 18 of 12 points 4.1e-8 and
        24 of 10 points 9.9e-8, inside it with less margin.
        """
        bounds = {1.0: 1e-13, 10.0: 1e-13, 100.0: 1e-11, 1000.0: 1e-7, 1e4: 1e-3}
        assert cable_setup(**ABSORBING_MODEL)[3].n_nodes == 240
        errors = shell_errors(seed=0)
        for target, bound in bounds.items():
            assert errors[target] <= bound, target

    def test_rule_error_is_resolved_at_eplus_1e3(self):
        """A case the rule's own error dominates: seed 0's Eplus 1e3 shell reads 8.5e-10
        (``tools/quadrature_study.py --seeds 1``), about eighty times the 1e-11 rounding
        floor of the wind_stretch check above. The bound, twice that value, sees some
        changes of rule: 12-point panels on 18 panels (216 nodes) read 7.8e-9 here, but
        10 x 24 and 20 x 10 read 1.3e-9 and 6.5e-10 on this seed (their 20-seed worst is
        9.9e-8 and 7.1e-7). A rule at the rounding floor fails the lower bound, and then
        these figures are measured again."""
        error = shell_errors(seed=0)[1e3]
        assert 1e-10 < error <= 2.0 * 8.5e-10


if __name__ == "__main__":
    pytest.main([__file__, "-v"])
