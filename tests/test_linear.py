"""Tests for the closed-form linear analysis.

The particular-solution coefficients are checked against an independent
undetermined-coefficients derivation (a 2x2 solve per mode), and the full
representation is checked against the governing ODEs by finite differences,
so the transcribed formulas never grade their own homework.
"""

import numpy as np
import pytest

from fishbone.dynamics import ModalState, ModelParams, linear_operator
from fishbone.integrate import IntegratorConfig, integrate
from fishbone.linear import (
    ConditioningWarning,
    OverdampedBranch,
    ResonantCase,
    characteristic_roots,
    closed_form,
    spectrum_report,
    undamped_frequencies,
)
from fishbone.spectral import Basis
from fishbone.cable import make_geometry
from fishbone.spectral import make_grid

TNB_DAMPING = 0.01 * 7198.0  # per-unit-mass rate 0.01 1/s scaled by the deck mass


def make_params(**over):
    base = dict(
        M=1.0,
        D=1.0,
        eps=0.5,
        kappa=0.3,
        ell=1.2,
        L=np.pi,
        delta=0.12,
        zeta=0.08,
        beta=0.02,
        Upsilon=0.5,
        Ustream=2.0,
        g=0.3,
    )
    base.update(over)
    return ModelParams(**base)


def tnb_params():
    return ModelParams(
        M=7198.0,
        D=2.1e11 * 0.154,
        eps=2.1e11 * 5.44,
        kappa=8.1e10 * 6.07e-6,
        ell=6.0,
        L=853.44,
        delta=TNB_DAMPING,
        zeta=TNB_DAMPING,
        g=9.8,
    )


def normalized_coefficients(params: ModelParams, n: int):
    """Per-mass coefficient arrays recomputed directly from the fields."""
    k = np.arange(1, n + 1) * np.pi / params.L
    m = params.M
    return dict(
        mu=(params.delta + params.beta) / m,
        zeta=params.zeta / m,
        bu=params.beta * params.Upsilon / m,
        eta=params.beta * params.Ustream / m,
        k4v=(params.D / m) * k**4,
        k4t=(params.eps / m) * k**4 + (params.kappa / m) * k**2,
        load=params.g
        * np.sqrt(2.0 * params.L)
        * (1.0 - (-1.0) ** np.arange(1, n + 1))
        / (np.arange(1, n + 1) * np.pi),
    )


def random_state(rng, n_w, n_t, amp=0.5):
    return ModalState(
        amp * rng.standard_normal(n_w),
        amp * rng.standard_normal(n_w),
        amp * rng.standard_normal(n_t),
        amp * rng.standard_normal(n_t),
    )


def per_mode_pair(params: ModelParams, j: int, channel: int) -> np.ndarray:
    """Mode j's vertical (0) or torsional (1) root pair, + root first, solved one mode at a
    time from scalar coefficients; a real + root as -2 stiffness / (damping + root)."""
    inv_m, inv_it = 1.0 / params.M, 3.0 / (params.M * params.ell**2)
    k2 = (j * (np.pi / params.L)) ** 2
    damping, stiffness = (
        (params.mu * inv_m, params.D * k2**2 * inv_m),
        (params.zeta * inv_it, (params.eps * k2**2 + params.kappa * k2) * inv_it),
    )[channel]
    discriminant = damping**2 - 4.0 * stiffness
    root = np.sqrt(complex(discriminant))
    if discriminant >= 0.0:
        plus = -2.0 * stiffness / (damping + abs(root))
    else:
        plus = (-damping + root) / 2.0
    return np.array([plus, (-damping - root) / 2.0])


class TestCharacteristicRoots:
    def test_undamped_vertical_pair(self):
        """With no damping the vertical roots are +/- i j^2 at L = pi."""
        params = make_params(delta=0.0, zeta=0.0, beta=0.0)
        vertical, _ = characteristic_roots(params, 5, 1)
        for j in (1, 2, 5):
            np.testing.assert_allclose(
                sorted(vertical[j - 1], key=lambda z: z.imag),
                [-1j * j**2, 1j * j**2],
                atol=1e-12,
            )

    def test_undamped_torsional_pair(self):
        """l^2 = 3, eps = 1, kappa = 0, L = pi puts the j = 1 pair at +/- i."""
        params = make_params(
            delta=0.0, zeta=0.0, beta=0.0, ell=np.sqrt(3.0), eps=1.0, kappa=0.0
        )
        _, torsional = characteristic_roots(params, 1, 1)
        np.testing.assert_allclose(
            sorted(torsional[0], key=lambda z: z.imag), [-1j, 1j], atol=1e-12
        )

    def test_quartic_residual(self):
        """Every root annihilates the factored quartic to 1e-9 relative."""
        rng = np.random.default_rng(7)
        for _ in range(20):
            params = make_params(
                M=float(rng.uniform(0.5, 5.0)),
                D=float(rng.uniform(0.5, 3.0)),
                eps=float(rng.uniform(0.1, 2.0)),
                kappa=float(rng.uniform(0.0, 1.0)),
                ell=float(rng.uniform(0.8, 2.0)),
                delta=float(rng.uniform(0.0, 0.5)),
                zeta=float(rng.uniform(0.0, 0.5)),
                beta=float(rng.uniform(0.0, 0.1)),
                Upsilon=0.0,
            )
            n = int(rng.integers(1, 6))
            c = normalized_coefficients(params, n)
            about = params.ell**2 / 3.0
            vertical, torsional = characteristic_roots(params, n, n)
            for lam in np.hstack((vertical, torsional)).T:  # one of the four roots, every mode
                quartic = (about * lam**2 + c["zeta"] * lam + c["k4t"]) * (
                    lam**2 + c["mu"] * lam + c["k4v"]
                )
                scale = np.maximum(np.abs(lam) ** 4, 1.0)
                assert np.all(np.abs(quartic) <= 1e-9 * scale)

    @pytest.mark.parametrize("n_w, n_t", [(5, 2), (2, 5), (3, 3)])
    def test_table_equals_each_modes_quadratic(self, n_w, n_t):
        """Row j - 1 of each table is mode j's quadratic solved on its own, bit for bit."""
        rng = np.random.default_rng(3)
        for _ in range(10):
            params = make_params(
                M=float(rng.uniform(0.5, 5.0)),
                D=float(rng.uniform(0.5, 3.0)),
                eps=float(rng.uniform(0.1, 2.0)),
                kappa=float(rng.uniform(0.0, 1.0)),
                ell=float(rng.uniform(0.8, 2.0)),
                delta=float(rng.choice([0.0, 0.3, 40.0])),
                zeta=float(rng.choice([0.0, 0.2, 40.0])),
            )
            vertical, torsional = characteristic_roots(params, n_w, n_t)
            assert vertical.shape == (n_w, 2) and torsional.shape == (n_t, 2)
            for table, channel in ((vertical, 0), (torsional, 1)):
                rows = [per_mode_pair(params, j, channel) for j in range(1, len(table) + 1)]
                np.testing.assert_array_equal(table, rows)

    @pytest.mark.parametrize("n_w, n_t", [(6, 3), (3, 6)])
    def test_whole_matrix_eigenvalues(self, n_w, n_t):
        """With wind coupling, the eigenvalues of the linear operator A are the table's roots."""
        params = make_params(M=1.7, D=1.3, delta=0.3, zeta=0.25, beta=0.4, Upsilon=0.9, Ustream=3.0)
        A = linear_operator(params, Basis(L=np.pi, n_w=n_w, n_t=n_t))[0]
        assert A[n_w : 2 * n_w, 2 * n_w :].any()  # the wind couples w to th
        eigenvalues = np.linalg.eigvals(A)
        table = np.concatenate(characteristic_roots(params, n_w, n_t)).ravel()
        np.testing.assert_allclose(
            eigenvalues[np.argsort(eigenvalues.imag)], table[np.argsort(table.imag)], rtol=1e-9
        )


class TestSpectrumReport:
    def test_zero_damping_is_lyapunov_stable(self):
        """Pure imaginary roots classify as lyapunov_stable with zero abscissa."""
        report = spectrum_report(make_params(delta=0.0, zeta=0.0, beta=0.0), 4, 3)
        assert report.classification == "lyapunov_stable"
        assert report.max_real_part == 0.0
        assert report.vertical.shape == (4, 2) and report.torsional.shape == (3, 2)

    def test_underdamped_is_exponentially_stable(self):
        """Light damping yields a strictly negative abscissa."""
        report = spectrum_report(make_params(), 6, 6)
        assert report.classification == "exponentially_stable"
        assert report.max_real_part < 0.0

    def test_overdamped_branch_detected(self):
        """A heavily damped vertical branch is flagged as overdamped."""
        report = spectrum_report(make_params(delta=50.0), 2, 2)
        assert report.classification == "overdamped_branch"
        assert report.max_real_part < 0.0
        assert np.any(np.abs(report.vertical.imag) < 1e-12)

    @pytest.mark.parametrize(
        "delta, zeta, branch",
        [(1e3, 0.1, 0), (1e6, 0.1, 0), (1e7, 0.1, 0), (1e9, 0.1, 0), (0.1, 1e8, 1)],
    )
    def test_heavy_overdamping_keeps_the_slow_root(self, delta, zeta, branch):
        """With damping^2 >> 4 stiffness, mode 1's + root is stiffness / (- root) to 1e-12
        relative (Vieta; stiffness 1 vertical and 3 torsional at the defaults), not a
        cancelled -damping + sqrt(damping^2 - 4 stiffness) that reads 0 at delta = 1e9. It
        sets the abscissa (-1e-7 at delta = 1e7), so the class is overdamped_branch, not
        lyapunov_stable."""
        report = spectrum_report(ModelParams(delta=delta, zeta=zeta), 3, 2)
        slow, fast = (report.vertical, report.torsional)[branch][0]
        stiffness = (1.0, 3.0)[branch]
        assert report.classification == "overdamped_branch"
        assert slow == pytest.approx(stiffness / fast, rel=1e-12, abs=0.0)
        assert report.max_real_part == slow.real

    def test_tnb_spectrum_is_exponentially_stable(self):
        """The dimensional benchmark deck has all ten modes strictly decaying."""
        report = spectrum_report(tnb_params(), 10, 10)
        assert report.classification == "exponentially_stable"
        assert np.all(report.vertical.real < 0.0) and np.all(report.torsional.real < 0.0)


class TestDecayRate:
    """The decay rate is the spectral abscissa negated, read from ``spectrum_report``."""

    def test_matches_min_of_branch_rates(self):
        """Underdamped decay is min(mu/(2M), 3 zeta/(2 M l^2))."""
        params = make_params()
        expected = min(
            (params.delta + params.beta) / (2.0 * params.M),
            3.0 * params.zeta / (2.0 * params.M * params.ell**2),
        )
        abscissa = spectrum_report(params, 4, 3).max_real_part
        np.testing.assert_allclose(-abscissa, expected, rtol=1e-12)

    def test_zero_damping_rate_is_zero(self):
        """No damping means no decay."""
        report = spectrum_report(make_params(delta=0.0, zeta=0.0, beta=0.0), 4, 3)
        assert report.max_real_part == 0.0

    def test_tnb_rate_frozen_value(self):
        """The benchmark deck decays at 3 zeta/(2 M l^2) = 1/2400 1/s."""
        np.testing.assert_allclose(
            -spectrum_report(tnb_params(), 10, 10).max_real_part, 4.166666666666667e-4, rtol=1e-12
        )


class TestTorsionalFrequency:
    def test_formula(self):
        """gamma_j = (sqrt(3) j pi / (l L)) sqrt(eps (j pi/L)^2 + kappa) / sqrt(M)."""
        params = make_params(M=2.5, eps=0.7, kappa=0.4, ell=1.5, L=2.0)
        got = undamped_frequencies(params, 1, 3)[1]
        j = np.arange(1, 4)
        k = j * np.pi / params.L
        expected = (
            np.sqrt(3.0)
            * k
            / params.ell
            * np.sqrt(params.eps * k**2 + params.kappa)
            / np.sqrt(params.M)
        )
        np.testing.assert_allclose(got, expected, rtol=1e-12)


class TestClosedFormCoefficients:
    def test_particular_coefficients_match_2x2_solve(self):
        """A_j, B_j agree with an independent undetermined-coefficients solve."""
        rng = np.random.default_rng(11)
        for trial in range(10):
            params = make_params(
                M=float(rng.uniform(0.5, 3.0)),
                D=float(rng.uniform(0.5, 2.0)),
                eps=float(rng.uniform(0.2, 1.0)),
                kappa=float(rng.uniform(0.0, 0.8)),
                ell=float(rng.uniform(0.9, 1.8)),
                delta=float(rng.uniform(0.05, 0.3)),
                zeta=float(rng.uniform(0.03, 0.2)),
                beta=float(rng.uniform(0.005, 0.05)),
                Upsilon=float(rng.uniform(-0.8, 0.8)),
                Ustream=float(rng.uniform(-3.0, 3.0)),
            )
            y0 = random_state(rng, 3, 2)
            sol = closed_form(y0, params)
            c = normalized_coefficients(params, 3)
            ell2 = params.ell**2
            sigma = 3.0 * c["zeta"] / (2.0 * ell2)
            th0 = np.concatenate([y0.th, np.zeros(1)])
            th1 = np.concatenate([y0.thdot, np.zeros(1)])
            gamma = np.sqrt((4.0 * ell2 / 3.0) * c["k4t"] - c["zeta"] ** 2)
            omega_t = 3.0 * gamma / (2.0 * ell2)
            ts = ((2.0 * ell2 / 3.0) * th1 + c["zeta"] * th0) / gamma
            tc = th0
            for j in range(3):
                # w_p = e^{-sigma t}(A sin + B cos) driven by the torsional mode.
                d1 = c["k4v"][j] + sigma**2 - omega_t[j] ** 2 - c["mu"] * sigma
                d2 = omega_t[j] * (2.0 * sigma - c["mu"])
                rhs_sin = -c["bu"] * (-sigma * ts[j] - omega_t[j] * tc[j]) - c["eta"] * ts[j]
                rhs_cos = -c["bu"] * (omega_t[j] * ts[j] - sigma * tc[j]) - c["eta"] * tc[j]
                ab = np.linalg.solve([[d1, d2], [-d2, d1]], [rhs_sin, rhs_cos])
                np.testing.assert_allclose(
                    [sol.A_j[j], sol.B_j[j]], ab, rtol=1e-9, atol=1e-13
                )

    def test_untwisted_modes_have_zero_particular_part(self):
        """Vertical modes beyond the torsional truncation carry no forcing."""
        sol = closed_form(random_state(np.random.default_rng(3), 4, 2), make_params())
        np.testing.assert_array_equal(sol.A_j[2:], 0.0)
        np.testing.assert_array_equal(sol.B_j[2:], 0.0)

    def test_frequencies_match_glossary_formulas(self):
        """omega_j and gamma_j follow the underdamped frequency formulas."""
        params = make_params(M=1.0, D=1.0)
        sol = closed_form(random_state(np.random.default_rng(5), 3, 2), params)
        j = np.arange(1, 4)
        mu = params.delta + params.beta
        omega = np.sqrt(4.0 * j**4 * np.pi**4 / params.L**4 - mu**2)
        gamma = np.sqrt(
            (4.0 * j**2 * np.pi**2 * params.ell**2 / (3.0 * params.L**2))
            * (params.eps * j**2 * np.pi**2 / params.L**2 + params.kappa)
            - params.zeta**2
        )
        np.testing.assert_allclose(sol.omega_j, omega, rtol=1e-12)
        np.testing.assert_allclose(sol.gamma_j, gamma, rtol=1e-12)

    def test_static_deflection(self):
        """static_j = g M sqrt(2L) (1-(-1)^j) L^4 / (D j^5 pi^5), zero for even j."""
        params = make_params(M=2.0, D=1.5, g=0.7, L=2.5)
        sol = closed_form(random_state(np.random.default_rng(9), 4, 2), params)
        j = np.arange(1, 5)
        expected = (
            params.g
            * params.M
            * np.sqrt(2.0 * params.L)
            * (1.0 - (-1.0) ** j)
            * params.L**4
            / (params.D * j**5 * np.pi**5)
        )
        np.testing.assert_allclose(sol.static_j, expected, rtol=1e-12)
        np.testing.assert_array_equal(sol.static_j[1::2], 0.0)


class TestClosedFormODEResidual:
    def test_satisfies_governing_equations(self):
        """Centered differences of the representation satisfy both ODEs."""
        params = make_params(M=2.5, D=1.7)
        y0 = ModalState(
            np.array([0.4, -0.2, 0.1]),
            np.array([0.0, 0.3, -0.1]),
            np.array([0.25, -0.15]),
            np.array([0.05, 0.1]),
        )
        sol = closed_form(y0, params)
        c = normalized_coefficients(params, 3)
        tau = 1e-4
        times = np.linspace(0.3, 4.0, 7)
        val = sol.sample(times)
        plus = sol.sample(times + tau)
        minus = sol.sample(times - tau)
        d1 = (plus - minus) / (2.0 * tau)
        d2 = (plus - 2.0 * val + minus) / tau**2
        w, th = val[:, :3], val[:, 6:8]
        th_d1, th_d2 = d1[:, 6:8], d2[:, 6:8]
        th_pad = np.hstack([th, np.zeros((len(times), 1))])
        th1_pad = np.hstack([th_d1, np.zeros((len(times), 1))])
        res_w = (
            d2[:, :3]
            + c["mu"] * d1[:, :3]
            + c["k4v"] * w
            + c["bu"] * th1_pad
            + c["eta"] * th_pad
            - c["load"]
        )
        res_t = th_d2 + (3.0 * c["zeta"] / params.ell**2) * th_d1 + (
            3.0 / params.ell**2
        ) * c["k4t"][:2] * th
        np.testing.assert_allclose(res_w, 0.0, atol=1e-6)
        np.testing.assert_allclose(res_t, 0.0, atol=1e-6)

    @pytest.mark.parametrize("n_w, n_t", [(3, 2), (2, 3)])
    def test_matches_time_integration(self, n_w, n_t):
        """The representation tracks an RK4 run of the same linear system, whichever
        of the vertical and torsional truncations is the longer."""
        params = make_params(M=1.5, D=0.8)
        basis = Basis(L=params.L, n_w=n_w, n_t=n_t)
        grid = make_grid(basis)
        geo = make_geometry(0.0, 1.0, 0.0, 0.0, basis, grid)
        y0 = ModalState(
            np.array([0.3, -0.1, 0.05])[:n_w],
            np.array([0.0, 0.2, 0.0])[:n_w],
            np.array([0.2, -0.1, 0.05])[:n_t],
            np.array([0.1, 0.0, -0.03])[:n_t],
        )
        cfg = IntegratorConfig(method="rk4", dt=1e-3, t_end=5.0, sample_every=0.25)
        traj = integrate(y0, params, geo, basis, cfg)
        sol = closed_form(y0, params)
        scale = np.abs(traj.data).max()
        np.testing.assert_allclose(
            sol.sample(traj.times), traj.data, rtol=0, atol=1e-7 * scale
        )

    def test_restart_from_a_sample_matches_closed_form(self):
        """A run restarted from a sample starts at t = 0, the clock the closed form of that
        sample reads, so the two agree as on a fresh run (``fishbone verify``'s oracle model,
        restarted at its last sample, 5 s in)."""
        params = ModelParams(
            eps=0.3, kappa=0.2, ell=1.2, delta=0.1, zeta=0.05,
            beta=0.02, Upsilon=0.6, Ustream=5.0, g=0.3,
        )
        basis = Basis(L=np.pi, n_w=3, n_t=2)
        grid = make_grid(basis)
        geo = make_geometry(0.0, 1.0, 0.0, 0.0, basis, grid)
        y0 = ModalState([0.2, -0.1, 0.05], [0.0, 0.05, -0.02], [0.1, -0.04], [0.02, 0.01])
        cfg = IntegratorConfig(method="rk4", dt=1e-3, t_end=5.0, sample_every=0.05)
        restart = integrate(y0, params, geo, basis, cfg, grid).state(-1)
        restarted = integrate(restart, params, geo, basis, cfg, grid)
        exact = closed_form(restart, params).sample(restarted.times)
        assert np.abs(restarted.data - exact).max() <= 1e-5 * np.abs(exact).max()
        assert restarted.times[0] == 0.0

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("beta", [0.0, 0.02])
    def test_resonance_beyond_the_torsional_truncation_is_unforced(self, beta):
        """zeta = l^2 mu / 3 with omega_2 = 3 gamma_2 / l^2 at 2+1 modes: the second vertical
        mode has no torsional partner, so the wind does not force it, the case is not resonant
        and the representation tracks RK4 with no particular part beyond the first mode."""
        params = make_params(
            ell=np.sqrt(3.0), eps=0.75, kappa=1.0, delta=0.1 - beta, zeta=0.1, beta=beta
        )
        basis = Basis(L=params.L, n_w=2, n_t=1)
        geo = make_geometry(0.0, 1.0, 0.0, 0.0, basis, make_grid(basis))
        y0 = ModalState(np.array([0.3, -0.1]), np.array([0.0, 0.2]), np.array([0.2]), np.array([0.1]))
        cfg = IntegratorConfig(method="rk4", dt=1e-3, t_end=5.0, sample_every=0.25)
        traj = integrate(y0, params, geo, basis, cfg)
        sol = closed_form(y0, params)
        assert sol.A_j[1] == sol.B_j[1] == 0.0
        np.testing.assert_allclose(
            sol.sample(traj.times), traj.data, rtol=0, atol=1e-7 * np.abs(traj.data).max()
        )


class TestClosedFormEvaluation:
    def test_reproduces_initial_state(self):
        """Evaluation at t = 0 returns the initial data to 1e-10."""
        rng = np.random.default_rng(17)
        for _ in range(10):
            y0 = random_state(rng, 4, 3)
            sol = closed_form(y0, make_params())
            np.testing.assert_allclose(sol.sample(np.array([0.0]))[0], y0.pack(), rtol=0, atol=1e-10)

    def test_sample_pointwise_and_vectorized_agree(self):
        """Sampling one time at a time and all times at once coincide."""
        sol = closed_form(random_state(np.random.default_rng(23), 3, 2), make_params())
        times = np.array([0.0, 0.7, 2.3])
        rows = sol.sample(times)
        for k, t in enumerate(times):
            np.testing.assert_allclose(sol.sample(np.array([t]))[0], rows[k], rtol=1e-12)


class TestClosedFormHypotheses:
    def test_zero_damping_rejected(self):
        """The representation needs strictly positive damping on both branches."""
        with pytest.raises(OverdampedBranch, match="strictly positive"):
            closed_form(
                random_state(np.random.default_rng(1), 2, 1),
                make_params(delta=0.0, zeta=0.0, beta=0.0),
            )

    def test_overdamped_vertical_rejected(self):
        """mu at or above 2 sqrt(k4) trips the vertical hypothesis."""
        with pytest.raises(OverdampedBranch, match="vertical"):
            closed_form(random_state(np.random.default_rng(2), 2, 1), make_params(delta=5.0))

    def test_overdamped_torsional_rejected(self):
        """Excess torsional damping trips the torsional hypothesis."""
        with pytest.raises(OverdampedBranch, match="torsional"):
            closed_form(random_state(np.random.default_rng(4), 2, 1), make_params(zeta=10.0))

    def test_resonant_case_surfaced(self):
        """zeta = l^2 mu / 3 with omega_1 = 3 gamma_1 / l^2 raises ResonantCase."""
        params = make_params(
            ell=np.sqrt(3.0),
            eps=0.5,
            kappa=0.5,
            delta=0.1,
            zeta=0.1,
            beta=0.0,
            Upsilon=0.0,
            Ustream=0.0,
        )
        with pytest.raises(ResonantCase, match="secular"):
            closed_form(random_state(np.random.default_rng(6), 2, 1), params)

    def test_resonance_at_the_second_mode_only(self):
        """At l^2 = 3, eps = 1/2, kappa = 2 and mu = zeta the vertical and torsional roots of
        mode 2 coincide while mode 1's do not: a 3+2 model raises, and a 1+1 model, which has
        no second coupled mode, does not."""
        params = make_params(
            ell=np.sqrt(3.0), eps=0.5, kappa=2.0, delta=0.1, zeta=0.1, beta=0.0, Upsilon=0.0,
            Ustream=0.0,
        )
        vertical, torsional = characteristic_roots(params, 2, 2)
        assert abs(vertical[0, 0] - torsional[0, 0]) > 0.1
        with pytest.raises(ResonantCase, match="secular"):
            closed_form(random_state(np.random.default_rng(9), 3, 2), params)
        closed_form(random_state(np.random.default_rng(9), 1, 1), params)

    def test_exact_critical_damping_is_overdamped(self):
        """mu = 2 sqrt(k4) exactly (delta = 2 at M = D = 1, L = pi): mode 1's vertical roots
        are a real double root, so the vertical hypothesis fails."""
        params = make_params(delta=2.0, beta=0.0)
        assert characteristic_roots(params, 1, 1)[0][0, 0] == -1.0
        with pytest.raises(OverdampedBranch, match="vertical branch overdamped"):
            closed_form(random_state(np.random.default_rng(10), 2, 1), params)

    def test_torsional_damping_within_an_ulp_of_critical_is_overdamped(self):
        """At zeta = 2 l sqrt((eps + kappa)/3) the root table, per unit inertia, rounds to
        Im = 3e-8 while the per-mass gamma_sq the formulas divide by rounds to 0: the
        closed form refuses the model rather than return gamma_j = 0 and A_j = nan."""
        ell, eps, kappa = 0.7, 0.9, 0.1
        params = make_params(
            ell=ell, eps=eps, kappa=kappa, delta=0.1, zeta=2.0 * ell * np.sqrt((eps + kappa) / 3.0)
        )
        assert characteristic_roots(params, 1, 1)[1][0, 0].imag > 0.0
        with pytest.raises(OverdampedBranch, match="torsional branch overdamped"):
            closed_form(random_state(np.random.default_rng(12), 3, 2), params)

    def test_heavy_vertical_overdamping_is_not_read_as_zero_damping(self):
        """At mu = 1e9 mode 1's + vertical root is 1 / (- root), about -1e-9 and no longer
        rounded to 0; the damping is positive, so the refusal names the overdamped vertical
        branch."""
        params = make_params(delta=1e9)
        slow, fast = characteristic_roots(params, 1, 1)[0][0]
        assert slow == pytest.approx(1.0 / fast, rel=1e-12, abs=0.0) and slow.real < 0.0
        with pytest.raises(OverdampedBranch, match="vertical branch overdamped"):
            closed_form(random_state(np.random.default_rng(13), 3, 2), params)

    def test_hypotheses_agree_with_the_stability_class(self):
        """Across critical damping on both branches, kept 1e-6 relative away from it, the
        closed form refuses a model exactly when the root table does not class it
        exponentially stable."""
        base = make_params()
        mu_crit = 2.0  # 2 sqrt(D (pi/L)^4) at D = 1, L = pi
        zeta_crit = 2.0 * base.ell * np.sqrt((base.eps + base.kappa) / 3.0)
        factors = [0.3, 0.9, 1.0 - 1e-6, 1.0 + 1e-6, 1.1, 3.0]
        outcomes = set()
        for f_mu in factors:
            for f_zeta in factors:
                params = make_params(delta=f_mu * mu_crit - base.beta, zeta=f_zeta * zeta_crit)
                stable = spectrum_report(params, 3, 2).classification == "exponentially_stable"
                try:
                    closed_form(random_state(np.random.default_rng(11), 3, 2), params)
                    refused = False
                except OverdampedBranch:
                    refused = True
                assert refused == (not stable), (f_mu, f_zeta)
                outcomes.add(refused)
        assert outcomes == {True, False}

    def test_near_resonance_warns(self):
        """A nearly singular particular denominator emits ConditioningWarning."""
        params = make_params(
            ell=np.sqrt(3.0),
            eps=0.9,
            kappa=1.0 - 3e-5 - 0.9,
            delta=0.05,
            zeta=0.05,
            beta=0.0,
            Upsilon=0.0,
            Ustream=0.0,
        )
        with pytest.warns(ConditioningWarning, match="ill-conditioned"):
            sol = closed_form(random_state(np.random.default_rng(8), 1, 1), params)
        assert np.all(np.isfinite(sol.A_j)) and np.all(np.isfinite(sol.B_j))


if __name__ == "__main__":
    pytest.main([__file__, "-v"])
