"""The three workloads: their inputs from a seed, one round of work, its checks.

A round is the unit a run repeats; every round of a workload attempts the same
operations, so the share of failed operations is the same in every run.

    tacoma    the four canonical 120 s presets through ``cli.run_simulate``,
              then ``wind`` again under adaptive45 at rtol 1e-8 (5 simulations)
    sweep     ``experiments.wind_sweep`` over beta in {0, 1e-3, 1e-2}/s at
              U = 30 m/s from the ``free`` base, and again from the
              flow-mirrored base at U = -30 m/s, cells in process (6 cells)
    analysis  ``cli.run_verify`` with 20,000 lemma samples, then an ensemble of
              five damped 4+3 trajectories started in growing energy shells
              (1 verify run + 5 members)

Every workload times each operation with ``pace.Pace``, which scales it to
the reference machine speed; ``raw_wall_s`` keeps every round's time as
measured. The sweep's pooled round (``pooled=True``) is run only by the
traced run, with pacing off (the ``pace`` module says why).

The seed draws the states the RHS check reads (tacoma), the lemma samples
(analysis, through ``run_verify``'s own seed) and the ensemble's initial data
(analysis). The tacoma presets and the sweep grid and base are the canonical
ones, so on those two workloads the package's inputs do not depend on the seed
(the README says why the datum is not redrawn). The package sees only the
generated configs, scenarios and states.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
import traceback
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from fishbone import cli, diagnostics, dynamics, experiments, integrate, spectral
from fishbone.cable import make_geometry
from fishbone.dynamics import ModalState, ModelParams

from . import checks
from .pace import Pace


@dataclass
class Round:
    """What one round did and how long it took."""

    wall_s: float
    raw_wall_s: float
    op_s: list[float]  # the workload's own operation: dp45 run, sweep cell, verify run
    sim_rates: list[float]  # model seconds per wall second, one per timed integration call
    attempted: int
    failed: int = 0
    errors: list[str] = field(default_factory=list)
    outputs: dict = field(default_factory=dict)


def preset_config(name: str, output: Path) -> str:
    """The preset's config text with its output directory moved under ``output``."""
    lines = [
        f"output.directory = {output}" if line.startswith("output.directory") else line
        for line in cli.preset_text(name).splitlines()
    ]
    return "\n".join(lines) + "\n"


def _failure(label: str, exc: BaseException) -> str:
    last = traceback.format_exception_only(type(exc), exc)[-1].strip()
    return f"{label}: {last}"


class Tacoma:
    name = "tacoma"
    PRESETS = ("free", "wind", "wind_stretch", "damped")
    DP45 = "wind_dp45"

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        self.configs: dict[str, Path] = {}
        self.t_end: dict[str, float] = {}  # model seconds each config integrates

    def setup(self) -> None:
        self.workdir.mkdir(parents=True, exist_ok=True)
        texts = {name: preset_config(name, self.workdir / name) for name in self.PRESETS}
        texts[self.DP45] = preset_config("wind", self.workdir / self.DP45).replace(
            "integrator.method = rk4", "integrator.method = adaptive45\nintegrator.rtol = 1e-8"
        )
        for label, text in texts.items():
            path = self.workdir / f"{label}.cfg"
            path.write_text(text)
            # resolution errors surface in set-up
            self.t_end[label] = cli.load_config(path).scenario.integrator.t_end
            self.configs[label] = path

    def run_round(self, pace: Pace, pooled: bool = False) -> Round:
        times, errors, failed = {}, [], []
        for label, path in self.configs.items():
            with pace.timed() as times[label]:
                try:
                    with contextlib.redirect_stdout(io.StringIO()):
                        cli.run_simulate(path)
                except Exception as exc:  # a failed simulation is counted, the round goes on
                    errors.append(_failure(label, exc))
                    failed.append(label)
        wall = sum(t.seconds for t in times.values())
        return Round(
            wall_s=wall,
            raw_wall_s=sum(t.raw for t in times.values()),
            op_s=[times[self.DP45].seconds],
            # whole run_simulate calls: config loading, energies and writes included
            sim_rates=[sum(self.t_end.values()) / wall],
            attempted=len(self.configs),
            failed=len(errors),
            errors=errors,
            outputs={"failed_labels": failed},
        )

    def check(self, rnd: Round) -> list[str]:
        """Check every run that succeeded in this round; a failed run's
        directory may still hold an earlier round's output, so it is skipped."""
        succeeded = [label for label in self.configs if label not in rnd.outputs["failed_labels"]]
        rng = np.random.default_rng(self.seed)
        failures, written = [], 0
        for label in succeeded:
            directory = self.workdir / label
            written += sum(p.stat().st_size for p in directory.iterdir())
            scenario = cli.load_config(directory / "manifest.cfg").scenario
            program_rhs = dynamics.make_packed_rhs(
                scenario.params, scenario.geometry, scenario.basis, spectral.make_grid(scenario.basis)
            )
            failures += checks.check_rhs(program_rhs, directory, rng)[0]
            failures += checks.check_energy(directory, conservative=(label == "free"))[0]
        rnd.outputs["bytes_written"] = written
        compared = ("free", "wind", self.DP45)
        if all(label in succeeded for label in compared):
            free, wind, dp45 = (checks.trajectory_ratio(self.workdir / label) for label in compared)
            failures += checks.check_wind_ratios(free, wind, dp45)
            rnd.outputs["dp45_ratio_gap"] = abs(wind - dp45) / wind
        return failures


class Sweep:
    name = "sweep"
    BETAS = (0.0, 1e-3, 1e-2)
    SPEED = 30.0

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        self.workers = min(len(self.BETAS), len(os.sched_getaffinity(0)))

    def setup(self) -> None:
        self.workdir.mkdir(parents=True, exist_ok=True)
        path = self.workdir / "free.cfg"
        path.write_text(preset_config("free", self.workdir / "free"))
        self.base = cli.load_config(path).scenario
        self.mirrored = mirror(self.base)

    def run_round(self, pace: Pace, pooled: bool = False) -> Round:
        """Both sweeps, cells in process; ``pooled`` runs them on ``self.workers``
        workers, which ``pace`` cannot scale, so pass a disabled one then."""
        workers = self.workers if pooled else 1
        with pace.timed() as first:
            plus = experiments.wind_sweep(self.BETAS, [self.SPEED], self.base, workers=workers)
        with pace.timed() as second:
            minus = experiments.wind_sweep(self.BETAS, [-self.SPEED], self.mirrored, workers=workers)
        sweeps = [first.seconds, second.seconds]
        cells = len(self.BETAS)
        rows = plus + minus
        failed = [r for r in rows if r.classification == "failed"]
        return Round(
            wall_s=sum(sweeps),
            raw_wall_s=first.raw + second.raw,
            op_s=[t / cells for t in sweeps],
            sim_rates=[cells * self.base.integrator.t_end / t for t in sweeps],
            attempted=len(rows),
            failed=len(failed),
            errors=[f"beta={r.beta:g} U={r.U:g}: {r.note}" for r in failed],
            outputs={"plus": plus, "minus": minus, "workers": workers},
        )

    def check(self, rnd: Round) -> list[str]:
        return checks.check_sweep(rnd.outputs["plus"], rnd.outputs["minus"])


def mirror(scenario):
    """Flow-mirrored scenario: Upsilon and the twist data negated."""
    init = scenario.initial
    return replace(
        scenario,
        name=f"{scenario.name}-mirrored",
        params=replace(scenario.params, Upsilon=-scenario.params.Upsilon),
        initial=ModalState(init.w, init.wdot, -init.th, -init.thdot),
    )


class Analysis:
    name = "analysis"
    VERIFY_SAMPLES = 20_000
    SHELLS = tuple(np.logspace(0.0, 3.0, 5))  # target initial Eplus of the members
    T_END, DT, CADENCE = 60.0, 0.02, 0.1
    EARLY_UNTIL, LATE_FROM = 10.0, 40.0
    # Damped nondimensional 4+3 model of the absorbing-ball acceptance test
    PARAMS = dict(M=1.0, D=1.0, ell=1.0, eps=0.5, kappa=0.3, delta=0.2, zeta=0.1,
                  beta=0.01, Upsilon=0.5, Ustream=2.0, g=0.3, S=1.0, P=0.5)

    def __init__(self, seed: int, workdir: Path, params: dict | None = None):
        self.seed = seed
        self.workdir = workdir
        self.param_values = dict(self.PARAMS if params is None else params)

    def setup(self) -> None:
        self.basis = spectral.Basis(L=math.pi, n_w=4, n_t=3)
        self.grid = spectral.make_grid(self.basis)
        self.geometry = make_geometry(0.2, 1.0, 1.0, 1.0, self.basis, self.grid)
        self.params = ModelParams(L=math.pi, **self.param_values)
        self.cfg = integrate.IntegratorConfig(
            method="rk4", dt=self.DT, t_end=self.T_END, sample_every=self.CADENCE
        )
        rng = np.random.default_rng(self.seed)
        self.initial = [self._in_shell(rng, target) for target in self.SHELLS]
        self.initial_energy = [self._eplus(y0) for y0 in self.initial]

    def _eplus(self, state: ModalState) -> float:
        return diagnostics.energies(state, self.params, self.geometry, self.basis, self.grid).Eplus

    def _in_shell(self, rng: np.random.Generator, target: float) -> ModalState:
        """A random smooth state scaled by bisection to Eplus = target."""
        b = self.basis
        w = diagnostics.random_states(rng, b, 1.0, 1)[0][: b.n_w]
        th = diagnostics.random_states(rng, b, 1.0, 1)[0][: b.n_t]
        wdot, thdot = rng.standard_normal(b.n_w), rng.standard_normal(b.n_t)

        def scaled(s: float) -> ModalState:
            return ModalState(s * w, s * wdot, s * th, s * thdot)

        lo, hi = 0.0, 1.0
        while self._eplus(scaled(hi)) < target:
            hi *= 2.0
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            lo, hi = (mid, hi) if self._eplus(scaled(mid)) < target else (lo, mid)
        return scaled(0.5 * (lo + hi))

    def run_round(self, pace: Pace, pooled: bool = False) -> Round:
        errors = []
        text = io.StringIO()
        with pace.timed() as verify:
            try:
                with contextlib.redirect_stdout(text):
                    code = cli.run_verify(self.seed, self.VERIFY_SAMPLES)
            except Exception as exc:  # a failed verify run is counted, the round goes on
                errors.append(_failure("run_verify", exc))
                code = None
        ensemble = self.run_ensemble(pace)
        members = ensemble.pop("members")
        return Round(
            wall_s=verify.seconds + sum(m.seconds for m in members),
            raw_wall_s=verify.raw + sum(m.raw for m in members),
            op_s=[verify.seconds],
            # the members' integrations together, so one short call's pace weighs little
            sim_rates=[
                len(ensemble["eplus"]) * self.T_END
                / sum(t.seconds for t in ensemble.pop("integrations"))
            ],
            attempted=1 + len(self.initial),
            failed=len(errors) + len(ensemble["errors"]),
            errors=errors + ensemble["errors"],
            outputs={"code": code, "verify_text": text.getvalue(), **ensemble},
        )

    def run_ensemble(self, pace: Pace | None = None) -> dict:
        """Integrate every member, sample its Eplus, compare neighbouring members.

        Each member (its integration and its Eplus samples) is one timed
        operation in ``members``; ``integrations`` times the integration alone.
        """
        pace = pace or Pace(enabled=False)
        trajectories, eplus, errors, members, integrations = [], {}, [], [], []
        for k, y0 in enumerate(self.initial):
            with pace.timed() as member:
                with pace.timed() as integration:
                    try:
                        traj = integrate.integrate(y0, self.params, self.geometry, self.basis, self.cfg, self.grid)
                    except Exception as exc:  # a failed member is counted, the round goes on
                        errors.append(_failure(f"member {k}", exc))
                        traj = None
                if traj is not None:
                    trajectories.append(traj)
                    eplus[k] = np.array([
                        diagnostics.energies(traj.state(i), self.params, self.geometry, self.basis, self.grid).Eplus
                        for i in range(len(traj))
                    ])
            members.append(member)
            integrations.append(integration)
        differences = [
            diagnostics.difference_energy(a, b, self.params)
            for a, b in zip(trajectories[:-1], trajectories[1:])
        ]
        return {"eplus": eplus, "differences": differences, "errors": errors,
                "times": trajectories[0].times if trajectories else None,
                "members": members, "integrations": integrations}

    def check_ensemble(self, out: dict) -> list[str]:
        return checks.check_ensemble(
            out["times"], self.initial_energy, out["eplus"], out["differences"],
            late_from=self.LATE_FROM, early_until=self.EARLY_UNTIL,
        )

    def check(self, rnd: Round) -> list[str]:
        """Check the verify run if it returned and every member that ran."""
        out = rnd.outputs
        failures = self.check_ensemble(out)
        if out["code"] is not None:
            out["oracle_rel_err"] = checks.parse_verify(out["verify_text"]).get("oracle.max_rel_err")
            failures = checks.check_verify(out["code"], out["verify_text"]) + failures
        return failures


WORKLOADS = {cls.name: cls for cls in (Tacoma, Sweep, Analysis)}
