"""Benchmark of the ``ample`` engine: one workload per run, single process,
single thread.

    python3 perfbench/run.py --workload surround --seed 1 --seconds 30 --trace 0

Runs batches of the workload until the next one would end after --seconds,
checks every output, and prints a report ending in one JSON line.  With
--trace 0 the JSON holds the end-to-end metrics: the median batch time
``wall_s``, the median of several fresh-process set-ups ``setup_s`` and the
peak resident memory ``peak_rss_mb``.  Both times are in reference seconds:
elapsed wall time scaled by the machine's measured speed (see speed.py); the
report also prints the raw wall times.  With --trace 1 batches alternate
between untraced and traced, and the JSON holds the per-layer metrics of the
traced batches (medians) and the tracing overhead.  See perfbench/README.md.
"""

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 5
SETUP_TIMEOUT_S = 60


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def measure_setup(workload, seed):
    """(raw, reference) seconds to import ample and generate the inputs, each
    time in a fresh interpreter."""
    probe = str(ROOT / "perfbench" / "setup_probe.py")
    times = []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run(
            [sys.executable, probe, workload, str(seed)],
            capture_output=True,
            text=True,
            timeout=SETUP_TIMEOUT_S,
            check=True,
        )
        elapsed, reference = map(float, done.stdout.split()[-2:])
        times.append((elapsed, reference))
    return times


def run_batches(name, inputs, seconds, trace):
    """Batches until the next would end after `seconds`; with trace, batches
    alternate untraced, traced, ... and at least one of each runs.  Returns
    the batch results, (raw, reference) seconds of the untraced and of the
    traced batches, and the per-layer values of each traced batch."""
    from perfbench import speed, tracing, workloads

    tracer = tracing.Tracer() if trace else None
    results, untraced, traced, layers = [], [], [], []
    start = time.perf_counter()
    while True:
        use_trace = trace and len(untraced) > len(traced)
        with speed.SpeedSampler() as sampler:
            if use_trace:
                tracer.reset()
                replaced = tracing.install(tracer)
                try:
                    res = workloads.run_batch(name, inputs)
                finally:
                    tracing.uninstall(replaced)
            else:
                res = workloads.run_batch(name, inputs)
        times = (res.wall_s, sampler.reference_seconds(res.wall_s))
        if use_trace:
            tracing.check_coverage(name, tracer)
            layers.append(tracing.layer_values(tracer, res.diagnostics))
            traced.append(times)
        else:
            untraced.append(times)
        results.append(res)
        elapsed = time.perf_counter() - start
        typical = statistics.median(r.wall_s for r in results)
        if (traced or not trace) and elapsed + typical > seconds:
            return results, untraced, traced, layers


def _fmt(times):
    return " ".join(f"{raw:.4f}/{ref:.4f}" for raw, ref in times)


def _median_ref(times):
    return statistics.median(ref for _, ref in times)


def environment():
    import numpy
    import scipy

    threads = " ".join(f"{v}={os.environ.get(v)}" for v in THREAD_VARS)
    return (
        f"nproc={os.cpu_count()} python={platform.python_version()} "
        f"numpy={numpy.__version__} scipy={scipy.__version__} {threads}"
    )


def main(argv=None):
    args = parse_args(argv)
    for var in THREAD_VARS:
        os.environ[var] = "1"
    if not (SRC / "ample" / "__init__.py").is_file():
        print(f"perfbench: no ample package under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(ROOT)]
    from perfbench import tracing, workloads

    if args.workload not in workloads.NAMES:
        print(f"perfbench: unknown workload {args.workload!r}; one of {workloads.NAMES}", file=sys.stderr)
        return 2

    setup = measure_setup(args.workload, args.seed) if not args.trace else None
    inputs = workloads.make_inputs(args.workload, args.seed)
    results, untraced, traced, layers = run_batches(args.workload, inputs, args.seconds, args.trace)
    attempted = sum(r.attempted for r in results)
    failed = sum(r.failed for r in results)

    print(f"perfbench workload={args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print(f"env {environment()}")
    print("batch seconds raw/reference, untraced: " + _fmt(untraced))
    if args.trace:
        print("batch seconds raw/reference, traced:   " + _fmt(traced))
        values = tracing.median_values(layers)
        values["trace_overhead_frac"] = _median_ref(traced) / _median_ref(untraced) - 1.0
        units = {m.name: m.unit for m in tracing.LAYER_METRICS}
        metrics = {k: {"value": values[k], "unit": units[k]} for k in units}
    else:
        print("setup seconds raw/reference: " + _fmt(setup))
        metrics = {
            "wall_s": {"value": _median_ref(untraced), "unit": "s"},
            "setup_s": {"value": _median_ref(setup), "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "unit": "MB"},
        }
        print(f"{'wall_s raw (not speed-normalised)':48s} {statistics.median(raw for raw, _ in untraced):.6g} s")
    for k, m in metrics.items():
        print(f"{k:48s} {m['value']:.6g} {m['unit']}")
    print(f"{'ops_failed_frac':48s} {failed / attempted:.6g} 1 ({failed} of {attempted} attempted)")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
