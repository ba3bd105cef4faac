"""Tests of the benchmark itself: exact counters, layer coverage, and output
checks that catch wrong answers.

    python3 -m pytest -q perfbench
"""

import itertools
import json
import math
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from ample import convexity, hprinciple, loops, reparam
from ample.errors import NotSurrounded
from perfbench import speed, tracing, workloads

ROOT = Path(__file__).resolve().parent.parent

REPEATABLE = (
    "convexity.surrounds.subsets",
    "convexity.flood_fill_component.member_calls",
    "reparam.DeltaMollifier.points",
    "loops.family_samples",
    "corrugation.choose_N.N",
    "corrugation.choose_N.trials",
)


def traced_batch(name, inputs):
    tracer = tracing.Tracer()
    replaced = tracing.install(tracer)
    try:
        result = workloads.run_batch(name, inputs)
    finally:
        tracing.uninstall(replaced)
    return tracer, result


# --- counters ----------------------------------------------------------------


@pytest.mark.parametrize("n, k", [(n, k) for n in range(1, 9) for k in range(1, 5) if k <= n])
def test_subset_rank_matches_enumeration(n, k):
    for position, idx in enumerate(itertools.combinations(range(n), k)):
        assert tracing.subset_rank(idx, n) == position


def brute_force_scan(points, v, mu):
    """Subsets visited by a lexicographic scan until the first qualifying one."""
    pts = np.asarray(points, dtype=float)
    n, d = pts.shape
    target = np.append(v, 1.0)
    for visited, idx in enumerate(itertools.combinations(range(n), d + 1), start=1):
        M = np.vstack([pts[list(idx)].T, np.ones(d + 1)])
        if abs(np.linalg.det(M)) > convexity.DET_FLOOR and np.all(np.linalg.solve(M, target) >= mu):
            return visited
    return math.comb(n, d + 1)


@pytest.mark.parametrize("seed", range(6))
def test_subset_counter_matches_brute_force(seed):
    rng = np.random.default_rng(seed)
    pts = rng.normal(size=(9, 2))
    v = rng.normal(size=2) * (0.2 if seed % 2 else 3.0)  # hits and misses
    tracer = tracing.Tracer()
    replaced = tracing.install(tracer)
    try:
        convexity.surrounds(pts, v, 1e-2)
    finally:
        tracing.uninstall(replaced)
    assert tracer.counters["convexity.surrounds.subsets"] == brute_force_scan(pts, v, 1e-2)


@pytest.mark.parametrize("name", workloads.NAMES)
def test_counters_repeat_and_coverage_holds(name):
    inputs = workloads.make_inputs(name, 5)
    runs = []
    for _ in range(2):
        tracer, result = traced_batch(name, inputs)
        assert result.failed == 0
        tracing.check_coverage(name, tracer)
        runs.append(tracing.layer_values(tracer, result.diagnostics))
    for key in REPEATABLE:
        assert runs[0][key] == runs[1][key], key


# --- wrapping and coverage ---------------------------------------------------------


def test_every_alias_is_wrapped():
    tracer = tracing.Tracer()
    replaced = tracing.install(tracer)
    try:
        wrapped = tracing.aliases(replaced)
        originals = {id(fn) for _, _, fn in replaced}
        leftovers = [
            f"{mod.__name__}.{attr}"
            for mod in tracing._ample_modules()
            for attr, value in vars(mod).items()
            if id(value) in originals
        ]
    finally:
        tracing.uninstall(replaced)
    for alias in (
        "reparam.surround_certificate",
        "hprinciple.corrugation",
        "hprinciple.remainder",
        "hprinciple.holonomy_residual",
        "corrugation.remainder",
    ):
        assert alias in wrapped
    assert leftovers == []
    assert loops.surround_certificate is reparam.surround_certificate  # restored


def test_coverage_fails_loudly():
    with pytest.raises(tracing.CoverageError, match="convexity.surrounds records no call on surround"):
        tracing.check_coverage("surround", tracing.Tracer())
    tracer = tracing.Tracer()
    tracer.counters["reparam.DeltaMollifier.calls"] = 1
    with pytest.raises(tracing.CoverageError, match="reparam.DeltaMollifier records 1 calls on corrugate"):
        tracing.check_coverage("corrugate", tracer)


def test_benchmark_json_matches_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert tuple(w["name"] for w in spec["workloads"]) == workloads.NAMES
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        (m.name, m.unit, m.better) for m in tracing.LAYER_METRICS
    ]


# --- the checks catch wrong answers -----------------------------------------------


def test_refusal_targets_lie_outside_the_slice_hull():
    # a half-plane is convex, so it is its own hull
    for seed in range(20):
        (case,) = [c for c in workloads.make_inputs("surround", seed) if c.refuse]
        assert case.shape.side(case.g)[0] < 0.0 < case.shape.side(case.beta)[0]
        assert not case.omega(case.g) and case.omega(case.beta)


def test_ample_cases_succeed():
    for seed in range(8):
        cases = [c for c in workloads.make_inputs("surround", seed) if not c.refuse]
        assert workloads.run_surround(cases).failed == 0


def test_refusal_where_a_loop_exists_fails(monkeypatch):
    def refuse(*args, **kwargs):
        raise NotSurrounded("refused")

    cases = [c for c in workloads.make_inputs("surround", 0) if not c.refuse][:3]
    monkeypatch.setattr(loops, "surrounding_loop_at", refuse)
    assert workloads.run_surround(cases).failed == 3


def test_shifted_average_fails(monkeypatch):
    original = reparam.ReparametrizedFamily.average_at

    def shifted(self, x, t, M=4096):
        return original(self, x, t, M=M) + 0.05

    monkeypatch.setattr(reparam.ReparametrizedFamily, "average_at", shifted)
    result = workloads.run_reparam(workloads.make_inputs("reparam", 0))
    assert result.failed == result.attempted


def test_homotopy_failing_verification_fails(monkeypatch):
    original = hprinciple.Homotopy.eval

    def moved(self, t, x):
        y, phi = original(self, t, x)
        return y + 1e-3, phi

    monkeypatch.setattr(hprinciple.Homotopy, "eval", moved)
    inputs = workloads.make_inputs("corrugate", 0)
    inputs.read_x = inputs.read_x[:1]
    result = workloads.run_corrugate(inputs)
    assert result.attempted == 2 and result.failed >= 1


# --- speed normalisation --------------------------------------------------------------


def test_speed_sampler_samples_and_restores_the_handler():
    before = signal.getsignal(signal.SIGALRM)
    with speed.SpeedSampler() as sampler:
        time.sleep(4 * speed.PERIOD_S)
    assert len(sampler.samples) >= 2
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert sampler.reference_seconds(2.0) == pytest.approx(2.0 * speed.speed_factor(sampler.samples))


def test_speed_factor_scales_with_probe_time():
    assert speed.speed_factor([speed.REF_PROBE_S] * 3) == pytest.approx(1.0)
    assert speed.speed_factor([2 * speed.REF_PROBE_S, 2 * speed.REF_PROBE_S]) == pytest.approx(0.5)


# --- the command ----------------------------------------------------------------------


def test_run_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "surround", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode != 0
    assert "{" not in done.stdout
