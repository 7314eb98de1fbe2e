"""In-memory spans around the package's public callables, for the traced run.

A span records its name, start, end and parent. ``Tracer.install`` swaps
wrappers into the module attributes through which the package itself looks
the callables up (``fishbone.cli.integrate``, ``fishbone.cable.pi_energy``,
...), and ``Tracer.uninstall`` puts the originals back. Nothing in the
package's source is changed, and an untraced run never calls ``install``.

Besides spans the tracer keeps a few captures of the workload's own calls
that the per-layer metrics need: the first RK4 integration (its arguments and
result), the quadrature grid behind each RHS, a sparse sample of the states
each RHS was called at, and the largest energy-identity residual each
``attach_energies`` call left on its trajectory.
"""

from __future__ import annotations

import json
import time
from array import array
from pathlib import Path

import numpy as np

RHS_STATE_STRIDE = 4096  # keep one RHS input state in this many calls
RHS_STATES_PER_RHS = 8


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self._stack = [-1]
        self._patched: list[tuple[object, str, object]] = []
        self.rhs_sites: list[dict] = []  # one per make_packed_rhs call
        self.first_rk4: dict | None = None
        self.residuals: list[float] = []  # max |residual| per attach_energies call

    # ------------------------------------------------------------ spans
    def open(self, name: str) -> int:
        ident = self._ids.get(name)
        if ident is None:
            ident = self._ids[name] = len(self.names)
            self.names.append(name)
        index = len(self.start)
        self.name.append(ident)
        self.start.append(time.perf_counter_ns())
        self.end.append(0)
        self.parent.append(self._stack[-1])
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.end[index] = time.perf_counter_ns()
        self._stack.pop()

    def span(self, name: str, fn):
        tracer = self

        def traced(*args, **kwargs):
            index = tracer.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.close(index)

        return traced

    # ------------------------------------------------------------ patching
    def _patch(self, owner, attr: str, wrapper) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def install(self) -> None:
        from fishbone import cable, cli, diagnostics, experiments, integrate, linear

        simple = [
            (cli, "run_simulate", "cli.run_simulate"),
            (cli, "run_verify", "cli.run_verify"),
            (cli, "load_config", "cli.load_config"),
            (cli, "write_trajectory_csv", "cli.write"),
            (cli, "write_energy_csv", "cli.write"),
            (cli, "lemma_suite", "diagnostics.lemma_suite"),
            (cli, "closed_form", "linear.closed_form"),
            (cli, "make_grid", "spectral.make_grid"),
            (integrate, "make_grid", "spectral.make_grid"),
            (diagnostics, "energies", "diagnostics.energies"),
            (diagnostics, "difference_energy", "diagnostics.difference_energy"),
            (cable, "pi_energy", "cable.pi_energy"),
            (cable, "h_of", "cable.h_of"),
            (cable, "arc_length", "cable.arc_length"),
            (experiments, "wind_sweep", "experiments.wind_sweep"),
            (experiments, "envelope_ratio", "experiments.envelope_ratio"),
            (linear.LinearSolution, "sample", "linear.sample"),
        ]
        for owner, attr, name in simple:
            self._patch(owner, attr, self.span(name, getattr(owner, attr)))
        self._patch(cli, "attach_energies", self._traced_attach(cli.attach_energies))
        self._patch(integrate, "make_packed_rhs", self._traced_rhs_factory(integrate.make_packed_rhs))
        traced_integrate = self._traced_integrate(integrate.integrate)
        for owner in (integrate, experiments, cli):
            self._patch(owner, "integrate", traced_integrate)

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def _traced_rhs_factory(self, factory):
        tracer = self

        def make_packed_rhs(params, geometry, basis, grid):
            rhs = factory(params, geometry, basis, grid)
            site = {"params": params, "geometry": geometry, "basis": basis, "grid": grid,
                    "rhs": rhs, "calls": 0, "states": []}
            tracer.rhs_sites.append(site)

            def traced_rhs(t, y):
                calls = site["calls"]
                site["calls"] = calls + 1
                if calls % RHS_STATE_STRIDE == 0 and len(site["states"]) < RHS_STATES_PER_RHS:
                    site["states"].append(np.array(y, dtype=float))
                index = tracer.open("dynamics.rhs")
                try:
                    return rhs(t, y)
                finally:
                    tracer.close(index)

            return traced_rhs

        return make_packed_rhs

    def _traced_attach(self, fn):
        traced = self.span("diagnostics.attach_energies", fn)

        def attach_energies(traj, *args, **kwargs):
            out = traced(traj, *args, **kwargs)
            self.residuals.append(float(np.max(np.abs(traj.diagnostics["residual"]))))
            return out

        return attach_energies

    def _traced_integrate(self, fn):
        tracer = self

        def integrate(y0, params, geometry, basis, cfg, grid=None):
            method = "integrate.rk4" if cfg.method == "rk4" else "integrate.dp45"
            index = tracer.open(method)
            try:
                traj = fn(y0, params, geometry, basis, cfg, grid)
            finally:
                tracer.close(index)
            if cfg.method == "rk4" and tracer.first_rk4 is None:
                tracer.first_rk4 = {"y0": y0, "params": params, "geometry": geometry,
                                    "basis": basis, "cfg": cfg, "traj": traj}
            return traj

        return integrate

    # ------------------------------------------------------------ analysis
    def arrays(self) -> dict[str, np.ndarray]:
        name = np.frombuffer(self.name, dtype=np.int32).copy()
        start = np.frombuffer(self.start, dtype=np.int64).copy()
        end = np.frombuffer(self.end, dtype=np.int64).copy()
        parent = np.frombuffer(self.parent, dtype=np.int32).copy()
        duration = (end - start).astype(float) * 1e-9
        has_parent = parent >= 0
        covered = np.bincount(parent[has_parent], weights=duration[has_parent], minlength=len(duration))
        return {"name": name, "start": start, "end": end, "parent": parent,
                "duration": duration, "self": duration - covered}

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: count, total seconds and self seconds."""
        arr = self.arrays()
        out = {}
        for ident, label in enumerate(self.names):
            mask = arr["name"] == ident
            out[label] = {
                "count": int(mask.sum()),
                "total_s": float(arr["duration"][mask].sum()),
                "self_s": float(arr["self"][mask].sum()),
            }
        return out

    def write(self, path: Path) -> None:
        """Write every span (compressed npz) and the per-name summary (JSON)."""
        arr = self.arrays()
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(
            path.with_suffix(".npz"),
            names=np.array(self.names),
            name=arr["name"], start_ns=arr["start"], end_ns=arr["end"], parent=arr["parent"],
        )
        path.with_suffix(".json").write_text(json.dumps(self.summary(), indent=1, sort_keys=True))
