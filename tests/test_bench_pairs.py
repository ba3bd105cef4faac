"""The pure parts of tools/bench_pairs.py: the plan syntax and the summaries."""

import argparse
import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)


def run(workload, attempted=10, failed=0, **values):
    metrics = {k: {"value": v, "unit": "s"} for k, v in values.items()}
    result = {"attempted": attempted, "failed": failed, "metrics": metrics}
    return {"workload": workload, "seed": 1, "trace": 0, "result": result}


def test_parse_set():
    assert bench_pairs.parse_set("corrugate:10:1,2,57") == ("corrugate", 10, [1, 2, 57], 0)
    assert bench_pairs.parse_set("surround:1:3:1") == ("surround", 1, [3], 1)
    for bad in ("corrugate:10", "corrugate:1:1:2", "corrugate:0:1", "corrugate:-1:1"):
        with pytest.raises(argparse.ArgumentTypeError):
            bench_pairs.parse_set(bad)


def test_stats_are_median_and_inclusive_quartiles():
    runs = [run("w", wall_s=v) for v in (4.0, 1.0, 3.0, 2.0, 5.0)]
    runs.append({"workload": "w", "seed": 1, "trace": 0, "result": None})
    got = bench_pairs.side_stats(runs)["w"]["wall_s"]
    assert got == {"n": 5, "median": 3.0, "q1": 2.0, "q3": 4.0, "unit": "s"}
    one = bench_pairs.side_stats([run("w", wall_s=7.0)])["w"]["wall_s"]
    assert (one["q1"], one["median"], one["q3"]) == (7.0, 7.0, 7.0)


def test_stats_total_the_operations_per_workload():
    runs = [run("w", 10, 0, wall_s=1.0), run("w", 12, 3, wall_s=2.0), run("v", 5, 5, wall_s=1.0)]
    runs.append({"workload": "w", "seed": 1, "trace": 0, "result": None})
    got = bench_pairs.side_stats(runs)
    assert got["w"]["operations"] == {"attempted": 22, "failed": 3}
    assert got["v"]["operations"] == {"attempted": 5, "failed": 5}


def test_wins_follow_the_declared_direction():
    parent = [run("w", wall_s=2.0, hit=0.5, other=1.0), run("w", wall_s=1.0, hit=0.5, other=1.0)]
    change = [run("w", wall_s=1.5, hit=0.6, other=0.0), run("w", wall_s=1.0, hit=0.4, other=0.0)]
    got = bench_pairs.wins(parent, change, {"wall_s": "lower", "hit": "higher"})
    assert got == {"w": {"wall_s": "1 of 2", "hit": "1 of 2"}}


def test_run_length_is_the_benchmarks_and_what_is_given():
    plan = ["--parent", "a", "--change", "b", "--set", "corrugate:1:1", "--out", "o.json"]
    assert bench_pairs.parse_args(plan + ["--what", "w"]).what == "w"
    for bad in (plan, plan + ["--what", "w", "--seconds", "10"]):
        with pytest.raises(SystemExit):
            bench_pairs.parse_args(bad)
