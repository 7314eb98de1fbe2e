"""The paired-run summariser in tools/bench_pairs.py, fed synthetic result lines."""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SPEC = importlib.util.spec_from_file_location("bench_pairs", ROOT / "tools" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(bench_pairs)

METRICS = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]


def result(sim_rate, wall_s, correct=True, attempted=15, failed=0):
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": {"sim_rate": {"value": sim_rate, "unit": "model-s/s"},
                        "wall_s": {"value": wall_s, "unit": "s"}}}


def records(parent_rates, change_rates, workload="tacoma", first_seed=1):
    out = []
    for i, (p, c) in enumerate(zip(parent_rates, change_rates)):
        seed = first_seed + i
        out.append({"workload": workload, "seed": seed, "side": "parent", "seconds": 10,
                    "result": result(p, 600.0 / p)})
        out.append({"workload": workload, "seed": seed, "side": "change", "seconds": 10,
                    "result": result(c, 600.0 / c)})
    return out


PARENT = [100.0, 101.0, 102.0, 103.0, 104.0, 105.0, 106.0, 107.0, 108.0, 109.0]


def test_medians_quartiles_and_wins():
    """Median, linear quartiles and wins per metric; lower-is-better counts the other way."""
    change = [r + 10.0 for r in PARENT]
    change[3] = 90.0  # one loss
    summary = bench_pairs.summarise(records(PARENT, change), METRICS, [("tacoma", "sim_rate")])
    tacoma = summary["end_to_end"]["tacoma"]
    assert tacoma["pairs"] == 10 and tacoma["seeds"] == list(range(1, 11))
    assert tacoma["all_correct"] and tacoma["attempted_operations"] == {"parent": 150, "change": 150}
    assert tacoma["sim_rate"]["parent_q1_median_q3"] == [102.25, 104.5, 106.75]
    assert tacoma["sim_rate"]["change_q1_median_q3"][1] == 114.5
    assert tacoma["sim_rate"]["change_over_parent_median"] == round(114.5 / 104.5, 4)
    assert tacoma["sim_rate"]["change_wins"] == 9
    assert tacoma["wall_s"]["change_wins"] == 9  # lower wall time wins on the same pairs
    assert "op_s" not in tacoma  # metrics the result lines lack are left out
    (claim,) = summary["claims"]
    assert claim["change_wins"] == "9/10" and claim["median_gain"] == 10.0
    assert claim["parent_quartile_spread"] == 4.5 and claim["met"]


@pytest.mark.parametrize(
    "change, met",
    [
        ([r + 10.0 for r in PARENT[:8]] + [90.0, 90.0], False),  # 8 of 10 wins
        ([r + 1.0 for r in PARENT], False),  # 10 wins, gain 1 inside the parent's IQR of 4.5
        ([r + 5.0 for r in PARENT], True),  # 10 wins, gain 5 beyond it
    ],
)
def test_nine_of_ten_rule(change, met):
    summary = bench_pairs.summarise(records(PARENT, change), METRICS, [("tacoma", "sim_rate")])
    assert summary["claims"][0]["met"] is met


WIDE = [60.0, 70.0, 80.0, 90.0, 100.0, 110.0, 120.0, 130.0, 140.0, 150.0]  # IQR 45 on 105


@pytest.mark.parametrize(
    "parent, change, verdict",
    [
        (PARENT, PARENT, "none"),
        (PARENT, [r * 0.85 for r in PARENT], "none"),  # 15% slower: inside the 0.25 bound
        (PARENT, [r * 0.7 for r in PARENT], "worse"),  # 30% slower: beyond it
        (WIDE, WIDE, "unresolved"),  # the parent's spread alone exceeds the bound
        (WIDE, [r * 0.5 for r in WIDE], "unresolved"),
        (WIDE, [r + 100.0 for r in WIDE], "none"),  # every change run beats every parent run
    ],
    ids=["equal", "inside_bound", "beyond_bound", "wide_parent", "wide_parent_slower",
         "wide_parent_beaten"],
)
def test_regression_verdict(parent, change, verdict):
    """Each end-to-end metric carries its no-regression verdict, read against its bound."""
    tacoma = bench_pairs.summarise(records(parent, change), METRICS, [])["end_to_end"]["tacoma"]
    assert tacoma["sim_rate"]["regression"] == verdict
    assert tacoma["wall_s"]["regression"] == verdict  # 600 / rate: lower is better, same verdict


def test_unpaired_and_failed_runs():
    """A seed only one side ran is no pair; a failed run clears all_correct and counts its failures."""
    recs = records(PARENT[:3], PARENT[:3])
    recs.append({"workload": "tacoma", "seed": 99, "side": "parent", "seconds": 10,
                 "result": result(50.0, 12.0)})
    recs[1]["result"] = result(101.0, 6.0, correct=False, failed=2)
    tacoma = bench_pairs.summarise(recs, METRICS, [])["end_to_end"]["tacoma"]
    assert tacoma["pairs"] == 3 and 99 not in tacoma["seeds"]
    assert not tacoma["all_correct"]
    assert tacoma["failed_operations"] == {"parent": 0, "change": 2}


def test_workload_with_no_complete_pair():
    """Runs of one side only make no pair: no metric entries, and a claim on it is not met."""
    recs = [r for r in records(PARENT[:3], PARENT[:3], workload="sweep") if r["side"] == "parent"]
    recs += records(PARENT, PARENT)
    summary = bench_pairs.summarise(recs, METRICS, [("sweep", "sim_rate"), ("tacoma", "sim_rate")])
    sweep = summary["end_to_end"]["sweep"]
    assert sweep["pairs"] == 0 and sweep["seeds"] == []
    assert not any(metric["name"] in sweep for metric in METRICS)
    assert [claim["met"] for claim in summary["claims"]] == [False, False]
    assert summary["claims"][0]["change_wins"] == "0/0"


def test_run_order_alternates(tmp_path, monkeypatch):
    """The parent runs first on odd seeds and the change on even ones; every run is appended."""
    calls = []

    def fake_run(checkout, workload, seed, seconds):
        calls.append((checkout.name, seed))
        return result(100.0, 6.0)

    monkeypatch.setattr(bench_pairs, "run_once", fake_run)
    raw = tmp_path / "raw.jsonl"
    checkouts = {"parent": tmp_path / "parent", "change": tmp_path / "change"}
    bench_pairs.run_pairs(checkouts, "sweep", [1, 2], 10, raw)
    assert calls == [("parent", 1), ("change", 1), ("change", 2), ("parent", 2)]
    lines = [json.loads(line) for line in raw.read_text().splitlines()]
    assert [(r["side"], r["first"]) for r in lines] == [
        ("parent", True), ("change", False), ("change", True), ("parent", False)
    ]
    assert bench_pairs.parse_seeds("501-503") == [501, 502, 503]
    assert bench_pairs.parse_seeds("7,9") == [7, 9]
