"""Worst RHS error of ``spectral.make_grid``'s rule on the analysis shells, over many seeds.

    PYTHONPATH=src python3 tools/quadrature_study.py [--seeds 20] [--points P --panels N]

This is ``tests/test_acceptance.py::shell_errors``, the protocol of
``TestQuadratureConvergence``'s analysis-shell tests, run on seeds 0 to N-1 (the
tests run seed 0): on the damped 4+3 model, six random states per shell scaled
to each initial energy Eplus, the RHS on ``make_grid``'s rule against the RHS on
16 times the panels, each acceleration block scaled by its largest reference
entry. It prints one markdown row, the worst error per shell over all seeds,
which is what the tests' docstrings and bounds quote.
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
from models import cable_setup  # noqa: E402
from test_acceptance import ABSORBING_MODEL, SHELLS, shell_errors  # noqa: E402


def worst_errors(seeds: int) -> dict[float, float]:
    """Worst block-scaled error per shell over seeds 0..seeds-1, six states each."""
    per_seed = [shell_errors(seed) for seed in range(seeds)]
    return {target: max(errors[target] for errors in per_seed) for target in SHELLS}


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
