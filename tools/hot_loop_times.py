"""Cost of the hot loops: µs per RHS call, per RK4 step and per DP45 trial step.

    python3 tools/hot_loop_times.py [--repeats 7] [--seconds 10]
    python3 tools/hot_loop_times.py --against ../parent [--repeats 15] [--seconds 10]

For the canonical ``free`` and ``wind_stretch`` presets and the damped 4+3 model
of the benchmark's analysis workload (``ABSORBING_MODEL`` of
``tests/test_acceptance.py``, from a seed-0 state at Eplus 100, dt 0.02), it times
blocks of CALLS right-hand-side calls at the model's initial state, and
``integrate`` runs of --seconds model seconds under ``rk4`` and ``adaptive45``.
Each figure is a block's or a run's wall time divided by the calls, the RK4
steps or the DP45 trial steps (accepted plus rejected) of the run's
``Trajectory.counters``.

Alone, it prints the best of --repeats blocks or runs, one markdown row per
model, with the counters beside each figure. With --against DIR it also imports
the source tree DIR (its ``src`` and ``tests``) into the same process, after
purging ``fishbone`` from ``sys.modules``, and alternates the timed blocks between
the two trees, each tree going first in every other block. It prints, per model
and figure, the median of each tree, their ratio (this tree over DIR) and the
blocks this tree won, and whether the two trees' counters agree. The machine's
speed swings between minutes, so compare figures only within one session; the
interleaved ratio is the comparison that holds.
"""

from __future__ import annotations

import argparse
import statistics
import sys
import time
from dataclasses import replace
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CALLS = 1000  # RHS calls per timed block
PRESETS = ("free", "wind_stretch")
ANALYSIS_EPLUS, ANALYSIS_DT, ANALYSIS_CADENCE = 100.0, 0.02, 0.1
FIGURES = ("RHS µs/call", "RK4 µs/step", "DP45 µs/trial")
SHOWN = {"rk4": ("steps", "rhs_calls"), "adaptive45": ("accepted", "rejected", "rhs_calls")}


def load_tree(root: Path, seconds: float) -> dict:
    """Import the package and test helpers of the source tree at root; build its models.

    Any ``fishbone`` (and ``test_acceptance``) already imported is purged from
    ``sys.modules`` first, so a second tree loads its own modules beside the first.
    Returns {model name: [RHS block, RK4 run, DP45 run]}: each entry times itself and
    returns (seconds, per, counters), per being the calls, steps or trials it made.
    """
    for name in [name for name in sys.modules if name.split(".")[0] in ("fishbone", "test_acceptance")]:
        del sys.modules[name]
    paths = [str(root / "src"), str(root / "tests")]
    sys.path[:0] = paths
    try:
        import numpy as np
        from fishbone.cli import load_preset
        from fishbone.diagnostics import energies
        from fishbone.dynamics import make_packed_rhs
        from fishbone.experiments import Scenario
        from fishbone.integrate import IntegratorConfig, integrate
        from fishbone.spectral import make_grid
        from test_acceptance import ABSORBING_MODEL, cable_setup, state_in_shell
    finally:
        del sys.path[: len(paths)]

    def analysis_scenario():
        """The analysis workload's damped 4+3 model from one state in its Eplus 100 shell."""
        params, geometry, basis, grid = cable_setup(**ABSORBING_MODEL)
        initial = state_in_shell(
            np.random.default_rng(0), basis, ANALYSIS_EPLUS,
            lambda state: energies(state, params, geometry, basis, grid).Eplus,
        )
        cfg = IntegratorConfig(method="rk4", dt=ANALYSIS_DT, t_end=10.0, sample_every=ANALYSIS_CADENCE)
        return Scenario("analysis 4+3", params, geometry, basis, initial, cfg)

    def timers(scenario):
        grid = make_grid(scenario.basis)
        f = make_packed_rhs(scenario.params, scenario.geometry, scenario.basis, grid)
        y0 = scenario.initial.pack()

        def rhs_block():
            start = time.perf_counter()
            for _ in range(CALLS):
                f(0.0, y0)
            return time.perf_counter() - start, CALLS, {"nodes": grid.n_nodes}

        def run(method):
            cfg = replace(scenario.integrator, method=method, t_end=seconds)

            def timed():
                start = time.perf_counter()
                traj = integrate(
                    scenario.initial, scenario.params, scenario.geometry, scenario.basis, cfg, grid
                )
                wall, counters = time.perf_counter() - start, traj.counters
                if method == "rk4":
                    return wall, counters["steps"], counters
                return wall, counters["accepted"] + counters["rejected"], counters

            return timed

        return [rhs_block, run("rk4"), run("adaptive45")]

    scenarios = [load_preset(name).scenario for name in PRESETS] + [analysis_scenario()]
    return {scenario.name: timers(scenario) for scenario in scenarios}


def counters_text(method: str, counters: dict) -> str:
    return " ".join(f"{key} {counters[key]}" for key in SHOWN[method])


def best_table(models: dict, repeats: int) -> None:
    """One row per model: the best of repeats blocks or runs, next to their counters."""
    print("| model | nodes | RHS µs/call | RK4 µs/step | RK4 counters | DP45 µs/trial | DP45 counters |")
    print(f"|---|{'---|' * 6}")
    for name, (rhs, rk4, dp45) in models.items():
        rhs_s, calls, info = min((rhs() for _ in range(repeats)), key=lambda block: block[0])
        cells = [name, str(info["nodes"]), f"{1e6 * rhs_s / calls:.2f}"]
        for method, timed in (("rk4", rk4), ("adaptive45", dp45)):
            wall, per, counters = min((timed() for _ in range(repeats)), key=lambda run: run[0])
            cells += [f"{1e6 * wall / per:.1f}", counters_text(method, counters)]
        print(f"| {' | '.join(cells)} |")


def interleaved_table(this: dict, other: dict, repeats: int) -> None:
    """Per model and figure: each tree's median µs, their ratio and the blocks this tree won."""
    print("| model | figure | this µs | other µs | ratio | this won | counters |")
    print(f"|---|{'---|' * 6}")
    for name in this:
        for figure, mine, theirs in zip(FIGURES, this[name], other[name]):
            times, counters = {"this": [], "other": []}, {"this": None, "other": None}
            for block in range(repeats):
                for side in ("this", "other") if block % 2 == 0 else ("other", "this"):
                    wall, per, counters[side] = (mine if side == "this" else theirs)()
                    times[side].append(1e6 * wall / per)
            won = sum(a < b for a, b in zip(times["this"], times["other"]))
            a, b = statistics.median(times["this"]), statistics.median(times["other"])
            same = "same" if counters["this"] == counters["other"] else "differ"
            print(f"| {name} | {figure} | {a:.2f} | {b:.2f} | {a / b:.3f} | {won}/{repeats} | {same} |")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=7, help="timed blocks or runs per figure (and tree)")
    parser.add_argument("--seconds", type=float, default=10.0, help="model seconds per run")
    parser.add_argument("--against", type=Path, default=None, metavar="DIR",
                        help="a second source tree to time in alternation with this one")
    args = parser.parse_args(argv)
    if args.repeats < 1 or not args.seconds > 0.0:
        parser.error("--repeats must be at least 1 and --seconds positive")
    if args.against is not None and not (args.against / "src" / "fishbone").is_dir():
        parser.error(f"--against {args.against}: no src/fishbone there")
    this = load_tree(ROOT, args.seconds)
    if args.against is None:
        best_table(this, args.repeats)
    else:
        other = load_tree(args.against.resolve(), args.seconds)
        print(f"this: {ROOT}, other: {args.against.resolve()}")
        interleaved_table(this, other, args.repeats)
    return 0


if __name__ == "__main__":
    sys.exit(main())
