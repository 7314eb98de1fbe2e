"""Paired benchmark runs of two checkouts, summarised into ``BENCH_<label>.json``.

    python3 tools/bench_pairs.py run --parent ../parent --change . --workload tacoma \
        --seeds 501-510 --raw .bench_pairs/pr14.jsonl
    python3 tools/bench_pairs.py summarise --raw .bench_pairs/pr14.jsonl --label pr14 \
        --parent-commit 30e0157 --claim tacoma:sim_rate --out BENCH_pr14.json

``run`` runs ``bench/run.py --workload W --seed N --seconds S --trace 0`` once in each
checkout per seed, the parent first on odd seeds and the change first on even
seeds, and appends one JSON line per run (its side, seed and the run's last
output line) to the raw file, so a cut session keeps the pairs it finished.
``summarise`` reads every line of the raw file and writes, per workload and per
end-to-end metric of ``BENCHMARK.json``, the quartiles of each side, the median
ratio change / parent, the pairs the change wins and the no-regression verdict
(``regression_verdict``); for a claimed metric also whether it is met: the change
wins at least nine pairs in ten, and its median gain exceeds the spread between
the parent's quartiles.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")
RUN_TIMEOUT_S = 900


def parse_seeds(text: str) -> list[int]:
    """'501-510' or '1,3,5' to a list of seeds."""
    if "-" in text:
        first, last = (int(part) for part in text.split("-"))
        return list(range(first, last + 1))
    return [int(part) for part in text.split(",")]


def run_once(checkout: Path, workload: str, seed: int, seconds: int) -> dict:
    """One untraced benchmark run in a checkout; its last output line, parsed."""
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True, timeout=RUN_TIMEOUT_S,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"correct": False, "attempted": 0, "failed": 0, "metrics": {},
                "exit": proc.returncode, "stderr": proc.stderr[-2000:]}
    return json.loads(lines[-1])


def run_pairs(checkouts: dict, workload: str, seeds: list[int], seconds: int, raw: Path) -> None:
    raw.parent.mkdir(parents=True, exist_ok=True)
    for seed in seeds:
        order = SIDES if seed % 2 else SIDES[::-1]
        for position, side in enumerate(order):
            result = run_once(checkouts[side], workload, seed, seconds)
            record = {"workload": workload, "seed": seed, "side": side, "first": position == 0,
                      "seconds": seconds, "result": result}
            with raw.open("a") as out:
                out.write(json.dumps(record) + "\n")
            sim_rate = result["metrics"].get("sim_rate", {}).get("value")
            print(f"{workload} seed {seed} {side}: sim_rate {sim_rate}", flush=True)


def quartiles(values: list[float]) -> list[float]:
    """Q1, median and Q3, linearly interpolated between order statistics."""
    if len(values) == 1:
        return values * 3
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return [q1, median, q3]


def regression_verdict(parent: list[float], change: list[float], lower: bool, bound: float) -> str:
    """'none', 'worse' or 'unresolved': whether the change median is worse than the parent
    median by more than the metric's relative bound. 'unresolved' when the parent's quartile
    spread exceeds the bound relative to its median, unless every change run beats every
    parent run."""
    parent_q1, parent_median, parent_q3 = quartiles(parent)
    beats_all = max(change) < min(parent) if lower else min(change) > max(parent)
    if parent_q3 - parent_q1 > bound * abs(parent_median) and not beats_all:
        return "unresolved"
    change_median = statistics.median(change)
    worsening = change_median - parent_median if lower else parent_median - change_median
    return "worse" if worsening > bound * abs(parent_median) else "none"


def summarise_workload(records: list[dict], metrics: list[dict]) -> dict:
    """Paired summary of one workload's records: pairs are seeds both sides ran."""
    by_seed = {}
    for record in records:
        by_seed.setdefault(record["seed"], {})[record["side"]] = record["result"]
    seeds = sorted(seed for seed, sides in by_seed.items() if set(sides) == set(SIDES))
    pairs = [by_seed[seed] for seed in seeds]
    summary = {
        "pairs": len(pairs),
        "seeds": seeds,
        "all_correct": all(pair[side]["correct"] for pair in pairs for side in SIDES),
        "failed_operations": {side: sum(pair[side]["failed"] for pair in pairs) for side in SIDES},
        "attempted_operations": {side: sum(pair[side]["attempted"] for pair in pairs) for side in SIDES},
    }
    for metric in metrics:
        name, lower = metric["name"], metric["better"] == "lower"
        if not pairs or not all(name in pair[side]["metrics"] for pair in pairs for side in SIDES):
            continue
        values = {side: [pair[side]["metrics"][name]["value"] for pair in pairs] for side in SIDES}
        parent_q, change_q = quartiles(values["parent"]), quartiles(values["change"])
        summary[name] = {
            "unit": metric["unit"],
            "better": metric["better"],
            "parent_q1_median_q3": [round(v, 6) for v in parent_q],
            "change_q1_median_q3": [round(v, 6) for v in change_q],
            "change_over_parent_median": round(change_q[1] / parent_q[1], 4),
            "change_wins": sum((c < p) if lower else (c > p)
                               for p, c in zip(values["parent"], values["change"])),
            "regression": regression_verdict(values["parent"], values["change"], lower,
                                             metric["bound"]),
        }
    return summary


def claim_verdict(workload_summary: dict, metric: str) -> dict:
    """The gain rule: at least nine wins in ten pairs, and a median gain beyond the parent's IQR."""
    if metric not in workload_summary:  # no complete pair carries the metric
        return {"change_wins": f"0/{workload_summary['pairs']}", "met": False}
    entry = workload_summary[metric]
    parent_q1, parent_median, parent_q3 = entry["parent_q1_median_q3"]
    change_median = entry["change_q1_median_q3"][1]
    gain = change_median - parent_median if entry["better"] == "higher" else parent_median - change_median
    pairs, wins = workload_summary["pairs"], entry["change_wins"]
    return {
        "change_over_parent_median": entry["change_over_parent_median"],
        "change_wins": f"{wins}/{pairs}",
        "median_gain": round(gain, 3),
        "parent_quartile_spread": round(parent_q3 - parent_q1, 3),
        "met": pairs > 0 and 10 * wins >= 9 * pairs and gain > parent_q3 - parent_q1,
    }


def summarise(records: list[dict], metrics: list[dict], claims: list[tuple[str, str]]) -> dict:
    workloads = sorted({record["workload"] for record in records})
    end_to_end = {
        workload: summarise_workload([r for r in records if r["workload"] == workload], metrics)
        for workload in workloads
    }
    out = {"end_to_end": end_to_end}
    if claims:
        out["claims"] = [{"workload": workload, "metric": metric,
                          **claim_verdict(end_to_end[workload], metric)}
                         for workload, metric in claims]
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run", help="run paired benchmark runs and append them to the raw file")
    run.add_argument("--parent", type=Path, required=True)
    run.add_argument("--change", type=Path, default=ROOT)
    run.add_argument("--workload", required=True, choices=("tacoma", "sweep", "analysis"))
    run.add_argument("--seeds", type=parse_seeds, required=True)
    run.add_argument("--seconds", type=int, default=10)
    run.add_argument("--raw", type=Path, required=True)
    summ = sub.add_parser("summarise", help="summarise a raw file into BENCH_<label>.json")
    summ.add_argument("--raw", type=Path, required=True)
    summ.add_argument("--label", required=True)
    summ.add_argument("--parent-commit", default="")
    summ.add_argument("--machine", default="")
    summ.add_argument("--claim", action="append", default=[], help="workload:metric")
    summ.add_argument("--out", type=Path)
    args = parser.parse_args(argv)

    if args.command == "run":
        run_pairs({"parent": args.parent.resolve(), "change": args.change.resolve()},
                  args.workload, args.seeds, args.seconds, args.raw)
        return 0
    records = [json.loads(line) for line in args.raw.read_text().splitlines() if line.strip()]
    metrics = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    claims = [tuple(claim.split(":")) for claim in args.claim]
    seconds = sorted({record["seconds"] for record in records})
    result = {
        "label": args.label,
        "parent": args.parent_commit,
        "machine": args.machine,
        "untraced": {
            "command": "python3 bench/run.py --workload W --seed N --seconds "
                       f"{','.join(map(str, seconds))} --trace 0",
            "design": "one run per side and seed, parent and change each from its own checkout, "
                      "the parent first on odd seeds and the change first on even seeds; median "
                      "and quartiles over each side's runs; wins = pairs in which the change is better",
        },
        **summarise(records, metrics, claims),
    }
    text = json.dumps(result, indent=1)
    if args.out:
        args.out.write_text(text + "\n")
    print(text)
    return 0 if all(claim["met"] for claim in result.get("claims", [])) else 1


if __name__ == "__main__":
    sys.exit(main())
