"""Each benchmark check passes on the program's real output and fails on a wrong one.

Run with ``python3 -m pytest bench``. The wrong inputs are the ones a broken
program would produce: a perturbed stiffness in the RHS under test, the free
run standing in for the wind run, a mirrored sweep from an unflipped base, a
sweep without growth and an ensemble without damping, also when another
operation of the round failed.
"""

import math
from dataclasses import replace

import numpy as np
import pytest

from fbbench import checks
from fbbench.workloads import Analysis, Round, mirror, preset_config
from fishbone import cli, dynamics, experiments, spectral
from fishbone.cable import make_geometry
from fishbone.dynamics import ModalState, ModelParams
from fishbone.integrate import IntegratorConfig


def simulate(tmp_path, name, t_end=None):
    text = preset_config(name, tmp_path / name)
    if t_end is not None:
        text = text.replace("integrator.t_end = 120", f"integrator.t_end = {t_end}")
    path = tmp_path / f"{name}.cfg"
    path.write_text(text)
    cli.run_simulate(path)
    return tmp_path / name


@pytest.mark.parametrize("field", ["D", "eps"])
def test_rhs_check_catches_a_perturbed_stiffness(tmp_path, field):
    directory = simulate(tmp_path, "wind", t_end=2)
    scenario = cli.load_config(directory / "manifest.cfg").scenario
    grid = spectral.make_grid(scenario.basis)

    def program_rhs(params):
        return dynamics.make_packed_rhs(params, scenario.geometry, scenario.basis, grid)

    failures, err = checks.check_rhs(program_rhs(scenario.params), directory, np.random.default_rng(0))
    assert failures == [] and err < checks.RHS_RTOL
    wrong = replace(scenario.params, **{field: getattr(scenario.params, field) * (1 + 1e-3)})
    failures, err = checks.check_rhs(program_rhs(wrong), directory, np.random.default_rng(0))
    assert failures and err > 10 * checks.RHS_RTOL


def test_wind_checks_catch_free_standing_in_for_wind(tmp_path):
    free = checks.trajectory_ratio(simulate(tmp_path, "free"))
    wind = checks.trajectory_ratio(simulate(tmp_path, "wind"))
    assert checks.check_wind_ratios(free, wind, wind) == []
    assert checks.check_wind_ratios(free, free, free)  # free as the RK4 wind run
    assert checks.check_wind_ratios(free, free, wind)  # ... and against the adaptive45 run


def toy_base():
    basis = spectral.Basis(L=math.pi, n_w=3, n_t=2)
    grid = spectral.make_grid(basis)
    return experiments.Scenario(
        name="toy",
        params=ModelParams(eps=0.5, kappa=0.3, delta=0.05, zeta=0.05, Upsilon=0.5),
        geometry=make_geometry(0.2, 1.0, 1.0, 1.0, basis, grid),
        basis=basis,
        initial=ModalState([0.1, 0.0, 0.0], [0.0, 0.02, 0.0], [0.05, 0.02], [0.01, 0.0]),
        integrator=IntegratorConfig(method="rk4", dt=0.01, t_end=4.0, sample_every=0.05),
    )


def test_mirror_check_catches_an_unflipped_base():
    base, betas = toy_base(), (1e-3, 1e-2)
    plus = experiments.wind_sweep(betas, [2.0], base, workers=1)
    assert checks.check_mirror(plus, experiments.wind_sweep(betas, [-2.0], mirror(base), workers=1)) == []
    assert checks.check_mirror(plus, experiments.wind_sweep(betas, [-2.0], base, workers=1))


def test_sweep_check_catches_missing_growth_past_a_failed_cell():
    row = experiments.SweepRow
    good = [row(0.0, 30.0, 1.0, "neutral"), row(1e-3, 30.0, 1.2, "neutral"), row(1e-2, 30.0, 1.7, "neutral")]
    assert checks.check_sweep(good, good) == []
    flat = [row(0.0, 30.0, 1.0, "neutral"), row(1e-3, 30.0, 1.2, "neutral"), row(1e-2, 30.0, 0.9, "neutral")]
    assert checks.check_sweep(flat, flat)
    # A failed cell is counted by the round, not checked; the other cells still are.
    failed = row(1e-3, 30.0, math.nan, "failed", "blow-up")
    assert checks.check_sweep([good[0], failed, good[2]], good) == []
    assert checks.check_sweep([flat[0], failed, flat[2]], flat)
    assert checks.check_mirror([good[0], failed, good[2]], [good[0], good[1], flat[2]])


def test_ensemble_check_catches_missing_damping(tmp_path):
    damped = Analysis(seed=3, workdir=tmp_path)
    damped.setup()
    assert damped.check_ensemble(damped.run_ensemble()) == []
    undamped = Analysis(
        seed=3, workdir=tmp_path, params={**Analysis.PARAMS, "delta": 0.0, "zeta": 0.0, "beta": 0.0}
    )
    undamped.setup()
    out = undamped.run_ensemble()
    failures = undamped.check_ensemble(out)
    assert any("late Eplus" in f for f in failures)
    assert any("difference energy" in f for f in failures)
    # A failed verify run and a failed member do not hide the other members' checks.
    out["eplus"].pop(0)
    rnd = Round(wall_s=1.0, raw_wall_s=1.0, op_s=[], sim_rates=[], attempted=6, failed=2,
                outputs={"code": None, "verify_text": "", **out})
    assert any("late Eplus" in f for f in undamped.check(rnd))


def test_verify_check_reads_the_report():
    passing = "violations: 0\nconservation.drift: 2.8e-12\noracle.max_rel_err: 1.1e-09\nverdict: pass\n"
    assert checks.check_verify(0, passing) == []
    assert checks.check_verify(4, passing.replace("violations: 0", "violations: 3"))
    assert checks.check_verify(0, passing.replace("1.1e-09", "2e-05"))
