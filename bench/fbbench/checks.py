"""Correctness checks on the workloads' outputs, with their tolerances.

Every check compares with a computation made apart from the program (the
reference RHS, a second integrator, the closed form inside ``run_verify``) or
with a property the method must have (the energy identity, conservation,
mirror symmetry, the absorbing ball, the decay of trajectory differences).
None compares with a stored copy of an earlier output. Each check returns a
list of failure messages; an empty list is a pass. The README gives the
reason for each tolerance.
"""

from __future__ import annotations

import csv
import math
from pathlib import Path

import numpy as np

from .reference import ReferenceRHS, coefficients_from_manifest, rhs_disagreement

RHS_RTOL = 1e-6  # program RHS against the 12,288-node reference
FREE_DRIFT = 1e-4  # |Efull - Efull(0)| / max(|Efull(0)|, 1) on the free run
RESIDUAL_BOUND = 5e-3  # max |energy-identity residual| read from energy.csv
RATIO_RTOL = 0.01  # RK4 against adaptive45, wind mode-2 envelope ratio
TAIL_BOUND = 1.0  # late-window Eplus of every damped ensemble member
SHELL_SPAN = 100.0  # initial energies must span at least this factor
DIFFERENCE_DECAY = 1e-2  # late / early difference energy of ensemble pairs
RHS_STATES = 4  # states drawn from each trajectory for the RHS check


# ---------------------------------------------------------------- readers


def read_table(path: Path) -> tuple[list[str], np.ndarray]:
    with open(path, newline="") as handle:
        rows = list(csv.reader(handle))
    return rows[0], np.array(rows[1:], dtype=float)


def envelope_ratio(times: np.ndarray, series: np.ndarray) -> float:
    """max|series| over the last sixth of the run over max|series| over the first sixth."""
    span = times[-1] - times[0]
    early = np.abs(series[times <= times[0] + span / 6.0]).max()
    late = np.abs(series[times >= times[-1] - span / 6.0]).max()
    return float(late / early)


def trajectory_ratio(directory: Path) -> float:
    """Mode-2 torsion envelope ratio of a run, read from its trajectory.csv."""
    header, data = read_table(directory / "trajectory.csv")
    return envelope_ratio(data[:, 0], data[:, header.index("th_2")])


# ---------------------------------------------------------------- tacoma


def check_rhs(program_rhs, directory: Path, rng: np.random.Generator) -> tuple[list[str], float]:
    """Program RHS against the reference at states drawn from a run's trajectory."""
    coeffs = coefficients_from_manifest((directory / "manifest.cfg").read_text())
    header, data = read_table(directory / "trajectory.csv")
    order = [f"{ch}_{j}" for ch, n in (("w", coeffs["n_w"]), ("wdot", coeffs["n_w"]),
                                       ("th", coeffs["n_t"]), ("thdot", coeffs["n_t"]))
             for j in range(1, n + 1)]
    columns = [header.index(name) for name in order]
    # trajectory.csv holds displayed amplitudes sqrt(2/L) c_j
    scale = math.sqrt(coeffs["L"] / 2.0)
    rows = rng.choice(len(data), size=RHS_STATES, replace=False)
    states = [scale * data[row, columns] for row in rows]
    err = rhs_disagreement(program_rhs, ReferenceRHS(coeffs), states)
    if not err <= RHS_RTOL:
        return [f"{directory.name}: RHS differs from the reference by {err:.3e} > {RHS_RTOL:g}"], err
    return [], err


def check_energy(directory: Path, conservative: bool) -> tuple[list[str], float]:
    """Identity residual under its bound; Efull drift under its bound if conservative."""
    header, data = read_table(directory / "energy.csv")
    residual = float(np.max(np.abs(data[:, header.index("residual")])))
    failures = []
    if not residual <= RESIDUAL_BOUND:
        failures.append(f"{directory.name}: energy-identity residual {residual:.3e} > {RESIDUAL_BOUND:g}")
    if conservative:
        efull = data[:, header.index("Efull")]
        drift = float(np.max(np.abs(efull - efull[0])) / max(abs(efull[0]), 1.0))
        if not drift <= FREE_DRIFT:
            failures.append(f"{directory.name}: Efull drift {drift:.3e} > {FREE_DRIFT:g}")
    return failures, residual


def check_wind_ratios(free: float, wind_rk4: float, wind_dp45: float) -> list[str]:
    failures = []
    gap = abs(wind_rk4 - wind_dp45) / wind_rk4
    if not gap <= RATIO_RTOL:
        failures.append(f"wind ratio RK4 {wind_rk4:.5f} vs adaptive45 {wind_dp45:.5f}: gap {gap:.2e} > {RATIO_RTOL:g}")
    if not wind_rk4 > free:
        failures.append(f"wind ratio {wind_rk4:.5f} does not exceed the free run's {free:.5f}")
    return failures


# ---------------------------------------------------------------- sweep


def check_mirror(plus, minus) -> list[str]:
    """Each cell's ratio equals its flow-mirrored cell's bit for bit.

    A pair with a failed cell is skipped; the failure is counted, not checked.
    """
    return [
        f"beta={p.beta:g}: ratio {p.ratio!r} at U={p.U:g} but {m.ratio!r} mirrored"
        for p, m in zip(plus, minus, strict=True)
        if "failed" not in (p.classification, m.classification)
        and not (p.ratio == m.ratio and p.classification == m.classification)
    ]


def check_sweep(plus, minus) -> list[str]:
    """Mirror cells equal bit for bit and forcing beats the unforced cell,
    on the cells that did not fail."""
    failures = check_mirror(plus, minus)
    for rows in (plus, minus):
        by_beta = {r.beta: r.ratio for r in rows if r.classification != "failed"}
        top = max(r.beta for r in rows)
        if 0.0 in by_beta and top in by_beta and not by_beta[top] > by_beta[0.0]:
            failures.append(
                f"U={rows[0].U:g}: beta={top:g} ratio {by_beta[top]:.5f} "
                f"does not exceed the beta=0 ratio {by_beta[0.0]:.5f}"
            )
    return failures


# ---------------------------------------------------------------- analysis


def parse_verify(text: str) -> dict[str, float]:
    out = {}
    for line in text.splitlines():
        key, sep, value = line.partition(": ")
        if sep and key in ("violations", "conservation.drift", "oracle.max_rel_err"):
            out[key] = float(value)
    return out


def check_verify(code: int, text: str) -> list[str]:
    report = parse_verify(text)
    failures = [] if code == 0 else [f"run_verify returned {code}"]
    if report.get("violations") != 0:
        failures.append(f"lemma violations: {report.get('violations')}")
    if not report.get("conservation.drift", math.inf) < 1e-6:
        failures.append(f"conservation drift {report.get('conservation.drift')}")
    if not report.get("oracle.max_rel_err", math.inf) < 1e-5:
        failures.append(f"closed-form oracle error {report.get('oracle.max_rel_err')}")
    return failures


def check_ensemble(times, initial_energy, eplus_series, difference_series, late_from, early_until) -> list[str]:
    """Absorbing ball and decay of pairwise difference energies.

    ``eplus_series`` maps the index of each member that ran to its Eplus
    series; ``difference_series`` holds one series per pair of neighbours
    among those members. A member that failed is left out of both.
    """
    failures = []
    energies0 = np.asarray(initial_energy)
    if not energies0.max() >= SHELL_SPAN * energies0.min():
        failures.append(f"initial energies span only {energies0.max() / energies0.min():.3g}x")
    if times is None:  # no member ran
        return failures
    late = times >= late_from
    early = times <= early_until
    for k, series in eplus_series.items():
        tail = float(np.max(series[late]))
        if not tail < TAIL_BOUND:
            failures.append(f"member {k} (E0={energies0[k]:.3g}): late Eplus {tail:.3g} >= {TAIL_BOUND:g}")
    for k, series in enumerate(difference_series):
        ratio = float(np.max(series[late]) / np.max(series[early]))
        if not ratio <= DIFFERENCE_DECAY:
            failures.append(f"pair {k}: difference energy fell only to {ratio:.3g} of its early value")
    return failures
