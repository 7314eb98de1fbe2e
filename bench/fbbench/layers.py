"""Per-layer metrics of the traced run, from its spans and its own outputs.

Every metric describes the traced round of the workload itself. A layer the
workload never calls (no sweep in ``tacoma``, no CSV writes in ``sweep`` or
``analysis``, ...) does no work there, so its counts, timings and accuracy
figures read 0 on that workload.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from fishbone import integrate

from .reference import ReferenceRHS, coefficients_from_objects, rhs_disagreement
from .workloads import Round

HALF_STEP_HORIZON = 10.0  # model seconds of the dt versus dt/2 comparison


def _per_call(summary: dict, names: tuple[str, ...], scale: float) -> tuple[int, float]:
    """Number of spans with these names and their mean duration times ``scale`` (0 if none)."""
    count = sum(summary.get(n, {}).get("count", 0) for n in names)
    total = sum(summary.get(n, {}).get("total_s", 0.0) for n in names)
    return count, (scale * total / count if count else 0.0)


def half_step_error(first: dict) -> float:
    """Final-state difference of the first RK4 integration at dt and dt/2."""
    horizon = min(HALF_STEP_HORIZON, first["cfg"].t_end)
    finals = []
    for dt in (first["cfg"].dt, 0.5 * first["cfg"].dt):
        cfg = replace(first["cfg"], dt=dt, t_end=horizon, sample_every=horizon)
        traj = integrate.integrate(first["y0"], first["params"], first["geometry"], first["basis"], cfg)
        finals.append(traj.data[-1])
    return float(np.max(np.abs(finals[0] - finals[1])) / np.max(np.abs(finals[1])))


def derive(tracer, rnd: Round, traced_wall: float, untraced_wall: float, workload) -> dict:
    """Every per-layer metric of the traced round ``rnd``."""
    s = tracer.summary()
    arr = tracer.arrays()
    names = np.array(tracer.names + ["<root>"])
    parent_name = names[np.where(arr["parent"] >= 0, arr["name"][arr["parent"]], -1)]
    span_name = names[arr["name"]]
    m: dict[str, float] = {}

    sites = tracer.rhs_sites
    grid = max(sites, key=lambda site: site["calls"])["grid"]
    m["spectral.quad_nodes"] = grid.n_nodes
    m["spectral.table_bytes"] = sum(a.nbytes for a in (grid.nodes, grid.weights, grid.modes, grid.dmodes, grid.d2modes))

    m["cable.calls"], m["cable.us_per_call"] = _per_call(
        s, ("cable.pi_energy", "cable.h_of", "cable.arc_length"), 1e6)

    m["dynamics.rhs_calls"], m["dynamics.rhs_us"] = _per_call(s, ("dynamics.rhs",), 1e6)
    m["dynamics.rhs_share"] = s["dynamics.rhs"]["total_s"] / traced_wall
    m["dynamics.rhs_rel_err"] = max(
        rhs_disagreement(site["rhs"], ReferenceRHS(coefficients_from_objects(
            site["params"], site["geometry"], site["basis"])), site["states"])
        for site in sites if site["states"]
    )

    is_rhs = span_name == "dynamics.rhs"
    steps = int(np.sum(is_rhs & (parent_name == "integrate.rk4"))) // 4
    m["integrate.rk4_steps"] = steps
    m["integrate.rk4_step_us"] = 1e6 * s["integrate.rk4"]["total_s"] / steps
    m["integrate.step_overhead_us"] = 1e6 * s["integrate.rk4"]["self_s"] / steps
    m["integrate.dp45_rhs_calls"] = int(np.sum(is_rhs & (parent_name == "integrate.dp45")))
    m["integrate.rk4_half_step_err"] = half_step_error(tracer.first_rk4)
    m["integrate.dp45_ratio_gap"] = rnd.outputs.get("dp45_ratio_gap", 0.0)

    m["diagnostics.energies_us"] = _per_call(s, ("diagnostics.energies",), 1e6)[1]
    attached = int(np.sum((span_name == "diagnostics.energies") & (parent_name == "diagnostics.attach_energies")))
    attach_s = s.get("diagnostics.attach_energies", {}).get("total_s", 0.0)
    m["diagnostics.attach_ms_per_1k"] = 1e6 * attach_s / attached if attached else 0.0
    lemma_s = s.get("diagnostics.lemma_suite", {}).get("total_s", 0.0)
    m["diagnostics.lemma_us_per_sample"] = 1e6 * lemma_s / workload.VERIFY_SAMPLES if lemma_s else 0.0
    m["diagnostics.residual_max"] = max(tracer.residuals, default=0.0)

    m["linear.closed_form_ms"] = _per_call(s, ("linear.closed_form",), 1e3)[1]
    m["linear.sample_us"] = _per_call(s, ("linear.sample",), 1e6)[1]
    m["linear.oracle_rel_err"] = rnd.outputs.get("oracle_rel_err") or 0.0

    sweep_s = s.get("experiments.wind_sweep", {}).get("total_s", 0.0)
    m["experiments.cell_s"] = sweep_s / rnd.attempted if sweep_s else 0.0
    m["experiments.parallel_efficiency"] = rnd.outputs.get("parallel_efficiency", 0.0)

    m["cli.load_config_ms"] = _per_call(s, ("cli.load_config",), 1e3)[1]
    m["cli.write_ms"] = _per_call(s, ("cli.write",), 1e3)[1]
    m["cli.bytes_written"] = rnd.outputs.get("bytes_written", 0)

    m["trace.overhead_s"] = traced_wall - untraced_wall
    m["trace.overhead_share"] = (traced_wall - untraced_wall) / untraced_wall
    return m
