"""Benchmark the fishbone simulator end to end (--trace 0) or layer by layer (--trace 1).

    python3 bench/run.py --workload tacoma --seed 1 --seconds 10 --trace 0

Run from the root of a checkout: the package is imported from ``src/`` next
to this directory, and every file the run writes goes under ``.bench_out/``.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. See bench/README.md.
"""

import time

T0 = time.perf_counter()  # set-up time counts from here, before numpy is imported

import argparse  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPEATS = 3  # set-ups before the rounds, and as many again after them
SETUP_TIMEOUT_S = 60

OP_NAMES = {"tacoma": "dp45_s", "sweep": "s_per_cell", "analysis": "verify_s"}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("tacoma", "sweep", "analysis"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--setup-child", type=int, default=None, help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def setup_seconds(args, first: int) -> list[float]:
    """Set the workload up in fresh interpreters; each reports its own time."""
    samples = []
    for k in range(first, first + SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0",
             "--setup-child", str(k)],
            cwd=ROOT, capture_output=True, text=True, timeout=SETUP_TIMEOUT_S, check=True,
        )
        samples.append(float(proc.stdout.split()[-1]))
    return samples


def units(kind: str) -> dict[str, str]:
    """Metric name to unit, for ``end_to_end`` or ``per_layer``, from BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def emit(correct: bool, rounds, metrics: dict, units: dict, notes: list[str]) -> None:
    if set(metrics) != set(units):
        raise RuntimeError(f"metrics {sorted(set(metrics) ^ set(units))} do not match BENCHMARK.json")
    for line in notes:
        print(line)
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {units[name]}")
    result = {
        "correct": correct,
        "attempted": sum(r.attempted for r in rounds),
        "failed": sum(r.failed for r in rounds),
        "metrics": {
            name: {"value": int(v) if isinstance(v, int) else float(v), "unit": units[name]}
            for name, v in metrics.items()
        },
    }
    print(f"attempted = {result['attempted']}, failed = {result['failed']}, correct = {correct}")
    print(json.dumps(result))


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "fishbone" / "__init__.py").is_file():
        print(f"no package source at {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(Path(__file__).resolve().parent)]
    from fbbench.workloads import WORKLOADS  # imports numpy and fishbone

    out = ROOT / ".bench_out" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.setup_child is not None:
        WORKLOADS[args.workload](args.seed, out / f"setup-{args.setup_child}").setup()
        # As measured: set-up is mostly imports, which the reference kernel
        # does not track (bench/README.md).
        print(time.perf_counter() - T0)
        return 0

    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    if args.trace:
        return traced(args, out)

    from fbbench.pace import REFERENCE_S, Pace
    from fbbench.rss import PeakRSS

    setup = setup_seconds(args, 0)
    workload = WORKLOADS[args.workload](args.seed, out / "work")
    workload.setup()
    with Pace() as pace:
        rss = PeakRSS().start()
        rounds, failures = [], []
        start = time.perf_counter()
        while True:
            rnd = workload.run_round(pace)
            failures += workload.check(rnd)
            rounds.append(rnd)
            if time.perf_counter() - start >= args.seconds:
                break
        peak_mb = rss.stop()
    # Sampling set-up on both sides of the rounds spreads it over the run.
    setup += setup_seconds(args, SETUP_REPEATS)

    metrics = {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.median(r.wall_s for r in rounds),
        "sim_rate": statistics.median(rate for r in rounds for rate in r.sim_rates),
        "op_s": statistics.median(op for r in rounds for op in r.op_s),
        "peak_rss_mb": peak_mb,
    }
    notes = [f"workload {args.workload}, seed {args.seed}, {len(rounds)} round(s) of "
             f"{', '.join(f'{r.wall_s:.3f}' for r in rounds)} s "
             f"({', '.join(f'{r.raw_wall_s:.3f}' for r in rounds)} s as measured), "
             f"set-up samples {', '.join(f'{s:.4f}' for s in setup)} s"]
    notes.append(f"reference kernel: {len(pace.samples)} samples, mean {1e6 * statistics.fmean(pace.samples):.1f} us "
                 f"against {1e6 * REFERENCE_S:.1f} us")
    notes.append(f"op_s is {OP_NAMES[args.workload]} on this workload")
    if args.workload == "sweep":
        notes.append(f"cells_per_s = {1.0 / metrics['op_s']:.6g} 1/s")
    notes += [f"FAIL: {f}" for f in failures]
    notes += [f"FAILED OP: {e}" for r in rounds for e in r.errors]
    emit(not failures, rounds, metrics, units("end_to_end"), notes)
    return 0


def traced(args, out: Path) -> int:
    """One untraced round, then the same round traced; per-layer metrics."""
    from fbbench import layers
    from fbbench.pace import Pace
    from fbbench.spans import Tracer
    from fbbench.workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.seed, out / "work")
    workload.setup()
    rounds, failures = [], []

    def run(pooled: bool = False):
        rnd = workload.run_round(Pace(enabled=False), pooled=pooled)
        failures.extend(workload.check(rnd))
        rounds.append(rnd)
        return rnd

    baseline = run().wall_s
    tracer = Tracer()
    tracer.install()
    try:
        rnd = workload.run_round(Pace(enabled=False))
    finally:
        tracer.uninstall()
    failures.extend(workload.check(rnd))
    rounds.append(rnd)
    if args.workload == "sweep":
        # The untraced in-process round against the same cells on the pool.
        rnd.outputs["parallel_efficiency"] = baseline / (workload.workers * run(pooled=True).wall_s)
    metrics = layers.derive(tracer, rnd, rnd.wall_s, baseline, workload)
    tracer.write(out / "spans")
    notes = [f"workload {args.workload}, seed {args.seed}, traced round {rnd.wall_s:.3f} s, "
             f"untraced {baseline:.3f} s; spans in {out / 'spans.npz'}"]
    notes += [f"FAIL: {f}" for f in failures]
    notes += [f"FAILED OP: {e}" for r in rounds for e in r.errors]
    emit(not failures, rounds, metrics, units("per_layer"), notes)
    return 0


if __name__ == "__main__":
    sys.exit(main())
