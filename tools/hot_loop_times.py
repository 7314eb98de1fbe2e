"""Best-of-N cost of the hot loops: µs per RHS call, per RK4 step and per DP45 trial step.

    PYTHONPATH=src python3 tools/hot_loop_times.py [--repeats 7] [--seconds 10]

For the canonical ``free`` and ``wind_stretch`` presets and the damped 4+3 model
of the benchmark's analysis workload (``ABSORBING_MODEL`` of
``tests/test_acceptance.py``, from a seed-0 state at Eplus 100, dt 0.02), it times
blocks of CALLS right-hand-side calls at the model's initial state, and
``integrate`` runs of --seconds model seconds under ``rk4`` and ``adaptive45``.
Each figure is the best of --repeats timed blocks or runs, divided by the
calls, the RK4 steps or the DP45 trial steps (accepted plus rejected) of the
run's ``Trajectory.counters``, which are printed beside it. One markdown row per
model. Compare figures only within one session: the machine's speed swings.
"""

from __future__ import annotations

import argparse
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tests"))

from fishbone.cli import load_preset  # noqa: E402
from fishbone.diagnostics import energies  # noqa: E402
from fishbone.dynamics import make_packed_rhs  # noqa: E402
from fishbone.experiments import Scenario  # noqa: E402
from fishbone.integrate import IntegratorConfig, integrate  # noqa: E402
from fishbone.spectral import make_grid  # noqa: E402
from test_acceptance import ABSORBING_MODEL, cable_setup, state_in_shell  # noqa: E402

CALLS = 1000  # RHS calls per timed block
PRESETS = ("free", "wind_stretch")
ANALYSIS_EPLUS, ANALYSIS_DT, ANALYSIS_CADENCE = 100.0, 0.02, 0.1


def analysis_scenario() -> Scenario:
    """The analysis workload's damped 4+3 model from one state in its Eplus 100 shell."""
    params, geometry, basis, grid = cable_setup(**ABSORBING_MODEL)
    initial = state_in_shell(
        np.random.default_rng(0), basis, ANALYSIS_EPLUS,
        lambda state: energies(state, params, geometry, basis, grid).Eplus,
    )
    cfg = IntegratorConfig(method="rk4", dt=ANALYSIS_DT, t_end=10.0, sample_every=ANALYSIS_CADENCE)
    return Scenario("analysis 4+3", params, geometry, basis, initial, cfg)


def best(repeats: int, run) -> tuple[float, object]:
    """The shortest wall time of repeats calls of run(), in seconds, and the last result."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        result = run()
        times.append(time.perf_counter() - start)
    return min(times), result


def row(scenario: Scenario, repeats: int, seconds: float) -> str:
    """One table row: the RHS, RK4 and DP45 figures of a scenario, next to their counters."""
    grid = make_grid(scenario.basis)
    f = make_packed_rhs(scenario.params, scenario.geometry, scenario.basis, grid)
    y0 = scenario.initial.pack()

    def rhs_block():
        for _ in range(CALLS):
            f(0.0, y0)

    rhs_s, _ = best(repeats, rhs_block)
    cells = [scenario.name, str(grid.n_nodes), f"{1e6 * rhs_s / CALLS:.2f}"]
    for method in ("rk4", "adaptive45"):
        cfg = replace(scenario.integrator, method=method, t_end=seconds)
        wall, traj = best(repeats, lambda: integrate(
            scenario.initial, scenario.params, scenario.geometry, scenario.basis, cfg, grid))
        counters = traj.counters
        if method == "rk4":
            per, shown = counters["steps"], ("steps", "rhs_calls")
        else:
            per, shown = counters["accepted"] + counters["rejected"], ("accepted", "rejected", "rhs_calls")
        cells += [f"{1e6 * wall / per:.1f}", " ".join(f"{key} {counters[key]}" for key in shown)]
    return f"| {' | '.join(cells)} |"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=7, help="timed blocks or runs per figure")
    parser.add_argument("--seconds", type=float, default=10.0, help="model seconds per run")
    args = parser.parse_args(argv)
    if args.repeats < 1 or not args.seconds > 0.0:
        parser.error("--repeats must be at least 1 and --seconds positive")
    scenarios = [load_preset(name).scenario for name in PRESETS] + [analysis_scenario()]
    print("| model | nodes | RHS µs/call | RK4 µs/step | RK4 counters | DP45 µs/trial | DP45 counters |")
    print(f"|---|{'---|' * 6}")
    for scenario in scenarios:
        print(row(scenario, args.repeats, args.seconds))
    return 0


if __name__ == "__main__":
    sys.exit(main())
