#!/usr/bin/env python3
"""Run the benchmark in alternating pairs on two commits and write BENCH_<n>.json.

    python3 tools/bench_pairs.py --parent HEAD~1 --change HEAD \\
        --set corrugate:10:1,2,57 --set surround:3:1,2,3 --set corrugate:1:1:1 \\
        --what "what the runs are and what the change claims" --out BENCH_30.json

Each --set is WORKLOAD:PAIRS:SEEDS[:TRACE]; its pairs cycle through the
comma-separated seeds, and TRACE (0 or 1, default 0) is passed to the
benchmark's --trace.  Sets run in the order given.  Within a pair the two
commits run one after the other, and the side that runs first alternates
from pair to pair over the whole plan.  Every run extracts a fresh
`git archive` of its commit into a temporary directory and runs the command
that the commit's BENCHMARK.json declares there, with --workload, --seed,
--seconds and --trace appended, so no build output or cache carries over
between runs.  The run length is the `run_seconds` that the changed commit's
BENCHMARK.json declares.

The output keeps the layout of the committed BENCH files: `what` (the --what
text), `machine`, `seconds`, then `parent` and `change`, each with its
`commit` and `runs` in run order (the last JSON line the benchmark printed,
as `result`).  Each side
also gets `stats`: per workload and metric, the median and the quartiles of
its runs (statistics.quantiles, inclusive method), and per workload the
`operations` its runs attempted and failed, summed.  `wins` counts, per
workload and metric, the pairs in which the change's value is better in the
direction that BENCHMARK.json gives.  The file is rewritten after every run,
so an interrupted plan keeps the runs it made.

Standard library only.
"""

import argparse
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

REPO = str(Path(__file__).resolve().parents[1])


def parse_set(text):
    """WORKLOAD:PAIRS:SEEDS[:TRACE] -> (workload, pairs, [seeds], trace)."""
    parts = text.split(":")
    if len(parts) not in (3, 4):
        raise argparse.ArgumentTypeError(f"expected WORKLOAD:PAIRS:SEEDS[:TRACE], got {text!r}")
    trace = int(parts[3]) if len(parts) == 4 else 0
    if trace not in (0, 1):
        raise argparse.ArgumentTypeError(f"TRACE must be 0 or 1, got {trace}")
    pairs = int(parts[1])
    if pairs < 1:
        raise argparse.ArgumentTypeError(f"PAIRS must be at least 1, got {pairs}")
    seeds = [int(s) for s in parts[2].split(",")]
    return parts[0], pairs, seeds, trace


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--parent", required=True, help="git revision of the baseline side")
    p.add_argument("--change", required=True, help="git revision of the changed side")
    p.add_argument("--set", dest="sets", action="append", type=parse_set, required=True, metavar="W:PAIRS:SEEDS[:TRACE]")
    p.add_argument("--out", required=True, help="the BENCH_<n>.json file to write")
    p.add_argument("--what", required=True, help="the `what` text: the runs made and the change's claim")
    return p.parse_args(argv)


def git(*args, binary=False):
    out = subprocess.run(["git", "-C", REPO, *args], check=True, capture_output=True).stdout
    return out if binary else out.decode().strip()


def extract(commit, dest):
    """Write the tree of `commit` into `dest` from `git archive`."""
    with tarfile.open(fileobj=io.BytesIO(git("archive", "--format=tar", commit, binary=True))) as tar:
        if hasattr(tarfile, "data_filter"):  # Python versions with extraction filters
            tar.extractall(dest, filter="data")
        else:
            tar.extractall(dest)


def run_once(commit, workload, seed, seconds, trace):
    """One benchmark run from a fresh archive of `commit`; the run record."""
    tmp = tempfile.mkdtemp(prefix="bench_pairs_")
    try:
        extract(commit, tmp)
        with open(os.path.join(tmp, "BENCHMARK.json")) as f:
            command = json.load(f)["command"]
        args = ["--workload", workload, "--seed", str(seed), "--seconds", f"{seconds:g}", "--trace", str(trace)]
        proc = subprocess.run(command + args, cwd=tmp, capture_output=True, text=True)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = None
    record = {"workload": workload, "seed": seed, "trace": trace, "result": result}
    if proc.returncode or result is None:
        record["returncode"] = proc.returncode
        record["stderr_tail"] = proc.stderr.strip().splitlines()[-5:]
    return record


def quartiles(values):
    """(q1, median, q3); a single value is all three."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, med, q3


def side_stats(runs):
    """{workload: {metric: {n, median, q1, q3, unit}, "operations": {attempted,
    failed}}} over the runs with a result; the operations are the totals of
    the runs' counts."""
    values, operations = {}, {}
    for run in runs:
        if run["result"] is None:
            continue
        for name, m in run["result"]["metrics"].items():
            values.setdefault(run["workload"], {}).setdefault(name, ([], m["unit"]))[0].append(m["value"])
        totals = operations.setdefault(run["workload"], {"attempted": 0, "failed": 0})
        for key in totals:
            totals[key] += run["result"][key]
    stats = {}
    for workload, metrics in values.items():
        for name, (vals, unit) in metrics.items():
            q1, med, q3 = quartiles(vals)
            stats.setdefault(workload, {})[name] = {"n": len(vals), "median": med, "q1": q1, "q3": q3, "unit": unit}
        stats[workload]["operations"] = operations[workload]
    return stats


def wins(parent_runs, change_runs, better):
    """{workload: {metric: "k of n"}}: pairs whose change value is better.

    Run i of one side pairs with run i of the other; metrics without a
    direction in `better` are left out."""
    counts = {}
    for a, b in zip(parent_runs, change_runs):
        if a["result"] is None or b["result"] is None:
            continue
        for name, m in b["result"]["metrics"].items():
            if name not in better or name not in a["result"]["metrics"]:
                continue
            old, new = a["result"]["metrics"][name]["value"], m["value"]
            won = new < old if better[name] == "lower" else new > old
            c = counts.setdefault(a["workload"], {}).setdefault(name, [0, 0])
            c[0] += won
            c[1] += 1
    return {w: {k: f"{won} of {n}" for k, (won, n) in ms.items()} for w, ms in counts.items()}


def main(argv=None):
    args = parse_args(argv)
    commits = {side: git("rev-parse", "--verify", getattr(args, side) + "^{commit}") for side in ("parent", "change")}
    declared = json.loads(git("show", commits["change"] + ":BENCHMARK.json"))
    seconds = float(declared["run_seconds"])
    better = {m["name"]: m["better"] for m in declared.get("end_to_end", []) + declared.get("per_layer", [])}
    out = {
        "what": args.what,
        "machine": f"{os.cpu_count()}-core {platform.machine()} {platform.system()}, one single-threaded run at a time; "
        "times in reference seconds (perfbench/speed.py)",
        "seconds": seconds,
        "parent": {"commit": commits["parent"], "runs": []},
        "change": {"commit": commits["change"], "runs": []},
    }

    def write():
        for side in ("parent", "change"):
            out[side]["stats"] = side_stats(out[side]["runs"])
        out["wins"] = wins(out["parent"]["runs"], out["change"]["runs"], better)
        tmp = args.out + ".tmp"
        with open(tmp, "w") as f:
            json.dump(out, f, indent=1)
            f.write("\n")
        os.replace(tmp, args.out)

    k = 0
    for workload, pairs, seeds, trace in args.sets:
        for i in range(pairs):
            seed = seeds[i % len(seeds)]
            order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
            for side in order:
                record = run_once(commits[side], workload, seed, seconds, trace)
                out[side]["runs"].append(record)
                wall = (record["result"] or {}).get("metrics", {}).get("wall_s", {}).get("value")
                shown = f"wall_s {wall:.4f}" if wall is not None else ("traced" if record["result"] else "FAILED")
                print(f"pair {k + 1} {workload} seed {seed} trace {trace} {side}: {shown}", file=sys.stderr, flush=True)
                write()
            k += 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
