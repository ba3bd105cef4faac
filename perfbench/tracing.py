"""Outside-in tracing of the ``ample`` layers for the benchmark.

``install`` wraps public functions and methods of ``convexity``, ``loops``,
``reparam``, ``corrugation``, ``hprinciple`` and ``jets`` from here, without
editing the program.  A function is wrapped at every module attribute that
holds it, because several modules import functions by name.  Each wrapped
call records a span (name, start, end, parent) and counters; a layer's self
time is its span time minus the time of its child spans.

``LAYER_METRICS`` lists every per-layer metric, what it should move, and on
which workloads its layer must do work.  ``check_coverage`` fails loudly when
a layer mapped to a workload does no work there, or a bypassed layer does any.
"""

import functools
import importlib
import math
import statistics
import time
from collections import Counter, defaultdict
from dataclasses import dataclass

import numpy as np

MODULES = ("convexity", "loops", "reparam", "corrugation", "hprinciple", "jets")

SURROUND, REPARAM, CORRUGATE = "surround", "reparam", "corrugate"


class CoverageError(RuntimeError):
    """A traced batch contradicts the layer-to-workload map."""


class Tracer:
    """Spans and counters of one traced batch, kept in memory."""

    def __init__(self):
        self.reset()

    def reset(self):
        self.names = []
        self.starts = []
        self.ends = []
        self.parents = []
        self.counters = Counter()
        self._stack = []

    def open(self, name):
        i = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(math.nan)
        self._stack.append(i)
        self.starts.append(time.perf_counter())
        return i

    def close(self, i):
        self.ends[i] = time.perf_counter()
        self._stack.pop()

    def self_times(self):
        """Total self time per span name."""
        dur = np.asarray(self.ends) - np.asarray(self.starts)
        own = dur.copy()
        for i, parent in enumerate(self.parents):
            if parent >= 0:
                own[parent] -= dur[i]
        out = defaultdict(float)
        for name, t in zip(self.names, own):
            out[name] += float(t)
        return out

    def child_counts(self, parent_name, child_name):
        """Number of direct child spans named child_name under each span
        named parent_name."""
        counts = {i: 0 for i, n in enumerate(self.names) if n == parent_name}
        for i, parent in enumerate(self.parents):
            if parent in counts and self.names[i] == child_name:
                counts[parent] += 1
        return list(counts.values())


def subset_rank(idx, n):
    """Lexicographic rank of the sorted index tuple idx among
    itertools.combinations(range(n), len(idx))."""
    k = len(idx)
    rank = 0
    prev = -1
    for i, cur in enumerate(idx):
        for j in range(prev + 1, cur):
            rank += math.comb(n - 1 - j, k - 1 - i)
        prev = cur
    return rank


# --- counters taken at the call boundary -----------------------------------


def _surrounds_post(tracer, args, kwargs, result):
    pts = np.asarray(args[0] if args else kwargs["points"], dtype=float)
    n, d = pts.shape
    if result is None:
        tracer.counters["convexity.surrounds.subsets"] += math.comb(n, d + 1)
    else:
        tracer.counters["convexity.surrounds.subsets"] += subset_rank(result[0], n) + 1
        tracer.counters["convexity.surrounds.hits"] += 1


def _flood_fill_pre(tracer, args, kwargs):
    member = args[0] if args else kwargs.pop("member")

    def counted(x):
        tracer.counters["convexity.flood_fill_component.member_calls"] += 1
        return member(x)

    return (counted,) + tuple(args[1:]), kwargs


def _mollifier_pre(tracer, args, kwargs):
    s = args[1] if len(args) > 1 else kwargs["s"]
    tracer.counters["reparam.DeltaMollifier.points"] += int(np.size(s))
    return args, kwargs


def _choose_n_post(tracer, args, kwargs, result):
    tracer.counters["corrugation.choose_N.N"] += float(result)


def _family_samples_pre(tracer, args, kwargs):
    s = args[3] if len(args) > 3 else kwargs["s"]
    tracer.counters["loops.family_samples"] += int(np.size(s))
    return args, kwargs


_S, _R, _C = (SURROUND,), (REPARAM,), (CORRUGATE,)
_SR, _SC, _RC = (SURROUND, REPARAM), (SURROUND, CORRUGATE), (REPARAM, CORRUGATE)


@dataclass(frozen=True)
class Target:
    """A wrapped callable: its module, its attribute or Class.method, the span
    name, the workloads whose batches must call it (all others must not),
    whether it opens a span or only counts calls, and hooks."""

    module: str
    attr: str
    name: str
    used_on: tuple
    span: bool = True
    pre: object = None
    post: object = None


TARGETS = (
    Target("ample.convexity", "surrounds", "convexity.surrounds", _SR, post=_surrounds_post),
    Target("ample.convexity", "flood_fill_component", "convexity.flood_fill_component", _S, pre=_flood_fill_pre),
    Target("ample.loops", "surrounding_loop_at", "loops.surrounding_loop_at", _S),
    Target("ample.loops", "surround_certificate", "loops.surround_certificate", _SR),
    Target("ample.reparam", "reparametrize_family", "reparam.reparametrize_family", _R),
    Target("ample.reparam", "adjust_weights", "reparam.adjust_weights", _R),
    Target("ample.reparam", "CircleReparam.__init__", "reparam.CircleReparam", _R),
    Target("ample.reparam", "DeltaMollifier.__call__", "reparam.DeltaMollifier", _R, pre=_mollifier_pre),
    Target("ample.reparam", "ReparametrizedFamily.average_at", "reparam.ReparametrizedFamily.average_at", _R),
    Target("ample.reparam", "ReparametrizedFamily.eval", "reparam.ReparametrizedFamily.eval", _R),
    Target("ample.corrugation", "choose_N", "corrugation.choose_N", _C, post=_choose_n_post),
    # one sup_norms call per trial N; counted, no span, so choose_N keeps its loop
    Target("ample.corrugation", "sup_norms", "corrugation.sup_norms", _C, span=False),
    Target("ample.corrugation", "corrugation", "corrugation.corrugation", _C),
    Target("ample.corrugation", "remainder", "corrugation.remainder", _C),
    Target("ample.hprinciple", "Homotopy.eval", "hprinciple.Homotopy.eval", _C),
    Target("ample.hprinciple", "Homotopy.d_f_at", "hprinciple.Homotopy.d_f_at", _C),
    Target("ample.hprinciple", "verify_conclusions", "hprinciple.verify_conclusions", _C),
    Target("ample.jets", "holonomy_residual", "jets.holonomy_residual", _C),
    # benchmark-owned relations and families, counted where the program calls them
    Target("perfbench.workloads", "DiskComplement.__call__", "jets.relation.member", _SC, span=False),
    Target("perfbench.workloads", "HalfPlane.__call__", "jets.relation.member", _SC, span=False),
    Target("perfbench.workloads", "RankTwo.__call__", "jets.relation.member", _SC, span=False),
    Target("perfbench.workloads", "CircleFamily.eval", "loops.family", _RC, span=False, pre=_family_samples_pre),
    Target("perfbench.workloads", "EllipseFamily.eval", "loops.family", _RC, span=False, pre=_family_samples_pre),
)


def _wrap(tracer, target, fn):
    calls = target.name + ".calls"

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if target.pre is not None:
            args, kwargs = target.pre(tracer, args, kwargs)
        tracer.counters[calls] += 1
        if target.span:
            i = tracer.open(target.name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(i)
        else:
            result = fn(*args, **kwargs)
        if target.post is not None:
            target.post(tracer, args, kwargs, result)
        return result

    return wrapper


def _ample_modules():
    return [importlib.import_module("ample." + m) for m in MODULES]


def install(tracer):
    """Wrap every target at every alias; returns the list of replaced
    (owner, attribute, original) triples for ``uninstall``."""
    replaced = []
    ample_mods = _ample_modules()
    for target in TARGETS:
        owner = importlib.import_module(target.module)
        cls_name, _, meth = target.attr.rpartition(".")
        if cls_name:
            cls = getattr(owner, cls_name)
            fn = cls.__dict__[meth]
            setattr(cls, meth, _wrap(tracer, target, fn))
            replaced.append((cls, meth, fn))
            continue
        fn = getattr(owner, target.attr)
        wrapper = _wrap(tracer, target, fn)
        for mod in ample_mods:
            for alias, value in list(vars(mod).items()):
                if value is fn:
                    setattr(mod, alias, wrapper)
                    replaced.append((mod, alias, fn))
    return replaced


def uninstall(replaced):
    for owner, attr, fn in reversed(replaced):
        setattr(owner, attr, fn)


def aliases(replaced):
    """Dotted names of every module attribute that was wrapped."""
    return sorted(
        f"{owner.__name__.removeprefix('ample.')}.{attr}"
        for owner, attr, _ in replaced
        if owner.__name__.startswith("ample.")
    )


# --- per-layer metrics -------------------------------------------------------


@dataclass(frozen=True)
class LayerMetric:
    """A per-layer metric, the end-to-end metric and workloads it should
    move, and the workloads on which its layer must record work (all others
    must record none).  Diagnostics carry the ROADMAP defect they track."""

    name: str
    unit: str
    better: str
    moves: str
    used_on: tuple = ()
    tracks: str = ""


LAYER_METRICS = (
    LayerMetric("convexity.surrounds.calls", "count", "lower", "wall_s on surround and reparam", _SR),
    LayerMetric("convexity.surrounds.self_s", "s", "lower", "wall_s on surround (most of it) and reparam", _SR),
    LayerMetric("convexity.surrounds.subsets", "count", "lower", "wall_s on surround and reparam", _SR),
    LayerMetric("convexity.surrounds.hit_ratio", "1", "higher", "wall_s on surround and reparam", _SR),
    LayerMetric("convexity.flood_fill_component.self_s", "s", "lower", "wall_s on surround", _S),
    LayerMetric("convexity.flood_fill_component.member_calls", "count", "lower", "wall_s on surround", _S),
    LayerMetric("loops.surrounding_loop_at.self_s", "s", "lower", "wall_s on surround", _S),
    LayerMetric("loops.surrounding_loop_at.h_halvings", "count", "lower", "wall_s on surround", _S),
    LayerMetric("loops.surround_certificate.calls", "count", "lower", "wall_s on reparam", _SR),
    LayerMetric("loops.surround_certificate.self_s", "s", "lower", "wall_s on reparam", _SR),
    LayerMetric("reparam.reparametrize_family.self_s", "s", "lower", "wall_s and peak_rss_mb on reparam", _R),
    LayerMetric("reparam.adjust_weights.calls", "count", "lower", "wall_s and peak_rss_mb on reparam", _R),
    LayerMetric("reparam.adjust_weights.self_s", "s", "lower", "wall_s and peak_rss_mb on reparam", _R),
    LayerMetric("reparam.CircleReparam.builds", "count", "lower", "wall_s and peak_rss_mb on reparam", _R),
    LayerMetric("reparam.CircleReparam.self_s", "s", "lower", "wall_s and peak_rss_mb on reparam", _R),
    LayerMetric("reparam.DeltaMollifier.calls", "count", "lower", "wall_s and peak_rss_mb on reparam", _R),
    LayerMetric("reparam.DeltaMollifier.points", "count", "lower", "wall_s and peak_rss_mb on reparam", _R),
    LayerMetric(
        "reparam.ReparametrizedFamily.average_at.self_s", "s", "lower", "wall_s and peak_rss_mb on reparam", _R
    ),
    LayerMetric("reparam.ReparametrizedFamily.eval.self_s", "s", "lower", "wall_s and peak_rss_mb on reparam", _R),
    LayerMetric("corrugation.choose_N.self_s", "s", "lower", "wall_s on corrugate", _C),
    LayerMetric("corrugation.choose_N.N", "1", "lower", "wall_s on corrugate", _C),
    LayerMetric("corrugation.choose_N.trials", "count", "lower", "wall_s on corrugate", _C),
    LayerMetric("corrugation.corrugation.calls", "count", "lower", "wall_s on corrugate", _C),
    LayerMetric("corrugation.corrugation.self_s", "s", "lower", "wall_s on corrugate", _C),
    LayerMetric("corrugation.remainder.calls", "count", "lower", "wall_s on corrugate", _C),
    LayerMetric("corrugation.remainder.self_s", "s", "lower", "wall_s on corrugate", _C),
    LayerMetric("loops.family_samples", "count", "lower", "wall_s on corrugate (and reparam)", _RC),
    LayerMetric("hprinciple.Homotopy.eval.calls", "count", "lower", "wall_s on corrugate", _C),
    LayerMetric("hprinciple.Homotopy.eval.self_s", "s", "lower", "wall_s on corrugate", _C),
    LayerMetric("hprinciple.Homotopy.d_f_at.self_s", "s", "lower", "wall_s on corrugate", _C),
    LayerMetric("hprinciple.verify_conclusions.self_s", "s", "lower", "wall_s on corrugate", _C),
    LayerMetric("jets.holonomy_residual.calls", "count", "lower", "wall_s on corrugate", _C),
    LayerMetric("jets.holonomy_residual.self_s", "s", "lower", "wall_s on corrugate", _C),
    LayerMetric("jets.relation.member_calls", "count", "lower", "wall_s on corrugate (and surround)", _SC),
    LayerMetric(
        "reparam.offgrid_residual_max", "1", "lower", "diagnostic, not gated", _R,
        tracks="ROADMAP item 2: reparametrised averages drift off the checked midpoints",
    ),
    LayerMetric(
        "hprinciple.offgrid_drift_over_eps", "1", "lower", "diagnostic, not gated", _C,
        tracks="ROADMAP item 1: N aliases with the dyadic grid, so node samples of the drift vanish",
    ),
    LayerMetric(
        "trace_overhead_frac", "1", "lower", "diagnostic, not gated", (SURROUND, REPARAM, CORRUGATE),
        tracks="cost of this tracing itself: traced wall_s over untraced wall_s, minus 1",
    ),
)

def layer_values(tracer, diagnostics=None):
    """Per-layer metric values of one traced batch.  Diagnostics come from
    the batch's checks and are 0 on workloads that do not produce them;
    trace_overhead_frac needs untraced batches and is left out."""
    c = tracer.counters
    self_s = tracer.self_times()
    calls = lambda name: float(c[name + ".calls"])
    surround_calls = calls("convexity.surrounds")
    out = {
        "convexity.surrounds.hit_ratio": c["convexity.surrounds.hits"] / surround_calls if surround_calls else 0.0,
        "convexity.flood_fill_component.member_calls": float(c["convexity.flood_fill_component.member_calls"]),
        "convexity.surrounds.subsets": float(c["convexity.surrounds.subsets"]),
        "loops.surrounding_loop_at.h_halvings": float(
            sum(n - 1 for n in tracer.child_counts("loops.surrounding_loop_at", "convexity.flood_fill_component"))
        ),
        "reparam.CircleReparam.builds": calls("reparam.CircleReparam"),
        "reparam.DeltaMollifier.points": float(c["reparam.DeltaMollifier.points"]),
        "corrugation.choose_N.N": float(c["corrugation.choose_N.N"]),
        "corrugation.choose_N.trials": calls("corrugation.sup_norms"),
        "loops.family_samples": float(c["loops.family_samples"]),
        "jets.relation.member_calls": calls("jets.relation.member"),
    }
    for m in LAYER_METRICS:
        if m.name in out or m.tracks:
            continue
        span, _, kind = m.name.rpartition(".")
        out[m.name] = self_s.get(span, 0.0) if kind == "self_s" else calls(span)
    for m in LAYER_METRICS:
        if m.tracks and m.name != "trace_overhead_frac":
            out[m.name] = float((diagnostics or {}).get(m.name, 0.0))
    return out


def check_coverage(workload, tracer):
    """Raise CoverageError unless each layer mapped to the workload records
    calls there and every other layer records none."""
    c = tracer.counters
    problems = []
    for name, used_on in {t.name: t.used_on for t in TARGETS}.items():
        n = c[name + ".calls"]
        if workload in used_on and n == 0:
            problems.append(f"{name} records no call on {workload}")
        elif workload not in used_on and n:
            problems.append(f"{name} records {n} calls on {workload}, which bypasses it")
    values = layer_values(tracer)
    for m in LAYER_METRICS:
        if m.tracks or workload not in m.used_on:
            continue
        if not values[m.name] > 0.0:
            problems.append(f"{m.name} is {values[m.name]} on {workload}")
    if problems:
        raise CoverageError("layer coverage broken:\n  " + "\n  ".join(problems))


def median_values(per_batch):
    """Per-metric median over traced batches."""
    return {k: statistics.median(b[k] for b in per_batch) for k in per_batch[0]}
