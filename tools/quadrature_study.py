"""Worst RHS error of ``spectral.make_grid``'s rule on the analysis shells, over many seeds.

    PYTHONPATH=src python3 tools/quadrature_study.py [--seeds 20] [--points P --panels N]

This is the protocol of ``tests/test_acceptance.py::TestQuadratureConvergence::
test_rule_error_grows_with_amplitude_on_the_analysis_shells`` run on seeds 0 to
N-1 (the test runs seed 0): on the damped 4+3 model, six random states per
shell scaled to each initial energy Eplus, the RHS on ``make_grid``'s rule
against the RHS on 16 times the panels, each acceleration block scaled by its
largest reference entry. It prints one markdown row, the worst error per shell
over all seeds, which is what the test's docstring and bounds quote.
``--points`` and ``--panels`` swap in another rule, P-point Gauss-Legendre
panels, N of them at 4+3 modes, to compare candidates.
"""

from __future__ import annotations

import argparse
import contextlib
import sys
from pathlib import Path
from unittest import mock

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tests"))

from fishbone import spectral  # noqa: E402
from fishbone.cable import make_geometry  # noqa: E402
from fishbone.diagnostics import energies  # noqa: E402
from fishbone.dynamics import channel_slices, make_packed_rhs  # noqa: E402
from test_acceptance import ABSORBING_MODEL, cable_setup, state_in_shell  # noqa: E402

SHELLS = (1.0, 10.0, 100.0, 1e3, 1e4)
STATES_PER_SHELL = 6
REFINEMENT = 16


def worst_errors(seeds: int) -> dict[float, float]:
    """Worst block-scaled error per shell over seeds 0..seeds-1, six states each."""
    params, geometry, basis, grid = cable_setup(**ABSORBING_MODEL)
    with mock.patch.multiple(
        spectral,
        MIN_PANELS=REFINEMENT * spectral.MIN_PANELS,
        PANELS_PER_MODE=REFINEMENT * spectral.PANELS_PER_MODE,
    ):
        fine = spectral.make_grid(basis)
    rhs = make_packed_rhs(params, geometry, basis, grid)
    fine_geometry = make_geometry(geometry.a, geometry.s0, geometry.b, geometry.c, basis, fine)
    fine_rhs = make_packed_rhs(params, fine_geometry, basis, fine)
    where = channel_slices(basis.n_w, basis.n_t)

    def eplus(state):
        return energies(state, params, geometry, basis, grid).Eplus

    worst = dict.fromkeys(SHELLS, 0.0)
    for seed in range(seeds):
        rng = np.random.default_rng(seed)
        for target in SHELLS:
            states = [state_in_shell(rng, basis, target, eplus).pack() for _ in range(STATES_PER_SHELL)]
            got = np.array([rhs(0.0, y) for y in states])
            want = np.array([fine_rhs(0.0, y) for y in states])
            for block in (where.wdot, where.thdot):
                err = np.abs(got[:, block] - want[:, block]).max() / np.abs(want[:, block]).max()
                worst[target] = max(worst[target], err)
    return worst


def rule(points: int, panels: int):
    """make_grid with points-point panels, panels of them at up to that many modes."""
    nodes, weights = np.polynomial.legendre.leggauss(points)
    return mock.patch.multiple(
        spectral, GAUSS_NODES=tuple(nodes), GAUSS_WEIGHTS=tuple(weights),
        POINTS_PER_PANEL=points, MIN_PANELS=panels,
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=20, help="seeds 0..N-1 (default 20)")
    parser.add_argument("--points", type=int, help="points per panel of a candidate rule")
    parser.add_argument("--panels", type=int, help="panels of a candidate rule")
    args = parser.parse_args(argv)
    if (args.points is None) != (args.panels is None):
        parser.error("--points and --panels go together")
    with rule(args.points, args.panels) if args.points else contextlib.nullcontext():
        grid = cable_setup(**ABSORBING_MODEL)[3]
        points, panels = spectral.POINTS_PER_PANEL, grid.panels
        worst = worst_errors(args.seeds)
    print(f"| Eplus | {' | '.join(f'{target:g}' for target in SHELLS)} |")
    print(f"|---|{'---|' * len(SHELLS)}")
    print(f"| {points} x {panels} ({grid.n_nodes} nodes) | {' | '.join(f'{worst[t]:.1e}' for t in SHELLS)} |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
