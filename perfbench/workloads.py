"""Seeded inputs, batches and output checks for the three benchmark workloads.

Every relation and loop family here is owned by the benchmark and given in
closed form, so each check compares the program's output with a value the
benchmark can compute on its own.  The program only receives the generated
inputs through its public functions.

* ``surround``: ``loops.surrounding_loop_at`` on relation slices, then
  ``loops.surround_certificate`` on each t=1 loop.  Most slices are the plane
  minus a disk (ample); one per batch is a half-plane whose target lies
  outside it, where the correct answer is ``NotSurrounded`` after a full scan.
* ``reparam``: ``reparam.reparametrize_family`` on a circle family over a
  periodic 1-D grid with targets that rotate from node to node, then reads
  (``average_at``, ``eval``) at points off the nodes.
* ``corrugate``: one corrugation step from public parts: ``choose_N`` over the
  landscape nodes, ``hprinciple.Homotopy``, ``verify_conclusions``, then reads
  (``eval``, ``d_f_at``) at points off the grid.
"""

import sys
import time
import traceback
from dataclasses import dataclass, field

import numpy as np

from ample import corrugation, grids, hprinciple, jets, loops, reparam
from ample.errors import NotSurrounded

NAMES = ("surround", "reparam", "corrugate")

TWO_PI = 2.0 * np.pi


@dataclass
class BatchResult:
    """One batch: ops attempted and failed, its wall time and diagnostics."""

    attempted: int = 0
    failed: int = 0
    wall_s: float = 0.0
    diagnostics: dict = field(default_factory=dict)


class _Batch:
    """Runs operations, counting an unexpected exception or a failed check as
    a failure.  A correct refusal is an operation that returns True."""

    def __init__(self):
        self.result = BatchResult()

    def attempt(self, op, *args):
        self.result.attempted += 1
        try:
            ok = bool(op(*args))
        except Exception:  # any raise is a failed operation, not a crash
            traceback.print_exc(file=sys.stderr)
            ok = False
        if not ok:
            self.result.failed += 1
        return ok

    def skip(self):
        """An operation that could not run because an earlier one failed."""
        self.result.attempted += 1
        self.result.failed += 1


# ---------------------------------------------------------------------------
# surround


SURROUND_AMPLE = 16  # ample slices per batch; one refusal rides along
SURROUND_H = 0.25
SURROUND_BOX = 2.0  # half-width of the value box around each slice
# The default M=64 samples cut the corners of some round-trip loops, so the
# target falls outside the sampled hull (6 of 120 instances); 128 certifies all.
CERTIFICATE_M = 128
LOOP_CHECK_SAMPLES = 512


class DiskComplement:
    """Relation on 1-jets R -> R^2: the derivative column avoids a closed disk."""

    def __init__(self, center, radius):
        self.center = np.asarray(center, dtype=float)
        self.radius = float(radius)

    def contains(self, w):
        return np.linalg.norm(np.atleast_2d(w) - self.center, axis=1) > self.radius

    def __call__(self, jet):
        return bool(self.contains(jet.phi[:, 0])[0])


class HalfPlane:
    """Relation on 1-jets R -> R^2: the derivative column lies in an open
    half-plane.  Its slice is convex, so it is its own hull."""

    def __init__(self, normal, origin):
        self.normal = np.asarray(normal, dtype=float)
        self.origin = np.asarray(origin, dtype=float)

    def side(self, w):
        return (np.atleast_2d(w) - self.origin) @ self.normal

    def contains(self, w):
        return self.side(w) > 0.0

    def __call__(self, jet):
        return bool(self.contains(jet.phi[:, 0])[0])


@dataclass
class SurroundCase:
    shape: object  # DiskComplement or HalfPlane
    omega: object  # jets.relation_slice of the shape's relation
    beta: np.ndarray
    g: np.ndarray
    box: tuple
    refuse: bool


_SLICE_PAIR = jets.DualPair([1.0], [1.0])


def _slice_case(rng, shape, beta, g, center, refuse):
    sigma = jets.OneJet(rng.uniform(0.0, 1.0, 1), rng.normal(size=2), np.zeros((2, 1)))
    omega = jets.relation_slice(jets.Relation(member=shape), sigma, _SLICE_PAIR)
    box = (center - SURROUND_BOX, center + SURROUND_BOX)
    return SurroundCase(shape, omega, beta, g, box, refuse)


def _unit(angle):
    return np.array([np.cos(angle), np.sin(angle)])


def make_surround(rng):
    cases = []
    for _ in range(SURROUND_AMPLE):
        center = rng.uniform(-0.5, 0.5, 2)
        radius = rng.uniform(0.4, 0.7)
        beta = center + (radius + 0.5) * _unit(rng.uniform(0.0, TWO_PI))
        g = center + rng.uniform(0.0, 0.5) * radius * _unit(rng.uniform(0.0, TWO_PI))
        cases.append(_slice_case(rng, DiskComplement(center, radius), beta, g, center, False))
    normal = _unit(rng.uniform(0.0, TWO_PI))
    tangent = np.array([-normal[1], normal[0]])
    origin = rng.uniform(-1.0, 1.0, 2)
    beta = origin + normal
    g = origin - rng.uniform(0.5, 1.0) * normal + rng.uniform(-0.5, 0.5) * tangent
    refusal = _slice_case(rng, HalfPlane(normal, origin), beta, g, beta, True)
    cases.insert(int(rng.integers(0, len(cases) + 1)), refusal)
    return cases


def surround_op(case):
    if case.refuse:
        try:
            loops.surrounding_loop_at(case.omega, case.beta, case.g, case.box, SURROUND_H)
        except NotSurrounded:
            return True
        return False
    res = loops.surrounding_loop_at(case.omega, case.beta, case.g, case.box, SURROUND_H)
    loop = res.family.loop_at(None, 1.0)
    s_centers, coords, basis = loops.surround_certificate(loop, case.g, M=CERTIFICATE_M)
    return check_surround(case, res.family, s_centers, coords, basis)


def check_surround(case, family, s_centers, coords, basis):
    """The loop is based at beta, stays in the slice, and the certificate is
    a positive affine combination of loop values hitting the target."""
    s = np.arange(LOOP_CHECK_SAMPLES) / LOOP_CHECK_SAMPLES
    if np.max(np.linalg.norm(family.eval(None, 0.0, s) - case.beta, axis=1)) > 1e-9:
        return False
    for t in (0.5, 1.0):
        vals = family.eval(None, t, s)
        if np.linalg.norm(vals[0] - case.beta) > 1e-9 or not case.shape.contains(vals).all():
            return False
    return bool(
        np.all(coords > 0.0)
        and abs(coords.sum() - 1.0) <= 1e-9
        and np.linalg.norm(coords @ basis - case.g) <= 1e-9
        and np.max(np.abs(family.eval(None, 1.0, s_centers) - basis)) <= 1e-12
    )


def run_surround(cases):
    batch = _Batch()
    for case in cases:
        batch.attempt(surround_op, case)
    return batch.result


# ---------------------------------------------------------------------------
# reparam


REPARAM_NODES = 32
REPARAM_READS = 24
REPARAM_READ_S = 33
# The family promises node averages to reparametrize_family's tol_grid (1e-6)
# and checks only cell midpoints against tol_mid (1e-4).  Between them the
# blend drifts by about 2e-3 (ROADMAP item 2), so reads get a bound that
# catches a wrong average (5 % of the target's 0.2 swing) and the measured
# drift is reported as a diagnostic.
NODE_TOL = 1e-6
OFFGRID_TOL = 1e-2


class CircleFamily(loops.LoopFamily):
    """gamma_x^t(s) = beta(x) + t r ((cos 2 pi s, sin 2 pi s) - (1, 0)).

    Based at beta(x) for every t; the t=1 loop is the circle of radius r
    about c(x) = beta(x) - (r, 0), which moves on an ellipse as x goes round.
    """

    dim_f = 2

    def __init__(self, ax, ay, radius):
        self.ax, self.ay, self.radius = float(ax), float(ay), float(radius)

    def center(self, x):
        u = TWO_PI * float(np.atleast_1d(x)[0])
        return np.array([self.ax * np.cos(u), self.ay * np.sin(u)])

    def eval(self, x, t, s):
        s = np.atleast_1d(np.asarray(s, dtype=float))
        ring = np.stack([np.cos(TWO_PI * s) - 1.0, np.sin(TWO_PI * s)], axis=1)
        base = self.center(x) + np.array([self.radius, 0.0])
        return base + t * self.radius * ring


class RotatingTarget:
    """g(x) = c(x) + a (cos(2 pi x + phase), sin(2 pi x + phase)): the target
    turns once around the circle's centre as x goes once round the grid."""

    def __init__(self, family, amplitude, phase):
        self.family = family
        self.amplitude = float(amplitude)
        self.phase = float(phase)

    def __call__(self, x):
        u = TWO_PI * float(np.atleast_1d(x)[0]) + self.phase
        return self.family.center(x) + self.amplitude * np.array([np.cos(u), np.sin(u)])


@dataclass
class ReparamInputs:
    family: CircleFamily
    target: RotatingTarget
    grid: grids.Grid
    read_x: np.ndarray
    read_s: np.ndarray


def make_reparam(rng):
    family = CircleFamily(rng.uniform(0.2, 0.4), rng.uniform(0.1, 0.3), 1.0)
    # amplitude sets the midpoint drift: 32 and 64 nodes fail tol_mid and
    # 128 pass, so every seed refines the grid exactly twice
    target = RotatingTarget(family, rng.uniform(0.18, 0.22), rng.uniform(0.0, TWO_PI))
    grid = grids.box_grid([0.0], [1.0], [REPARAM_NODES], periodic=[True])
    # off the nodes of the finest grid as well: cell k of the finest grid is
    # [k/128, (k+1)/128], and reads sit strictly inside a cell
    cells = rng.integers(0, 4 * REPARAM_NODES, REPARAM_READS)
    read_x = (cells + rng.uniform(0.05, 0.95, REPARAM_READS)) / (4 * REPARAM_NODES)
    read_s = np.concatenate([[0.0], np.sort(rng.uniform(0.0, 1.0, REPARAM_READ_S - 1))])
    return ReparamInputs(family, target, grid, read_x, read_s)


def reparam_build_op(inp, out):
    fam = reparam.reparametrize_family(inp.family, inp.target, inp.grid)
    out["family"] = fam
    worst = max(
        float(np.linalg.norm(fam.average_at(x, 1.0) - inp.target(x))) for x in inp.grid.nodes()
    )
    return worst <= NODE_TOL


def reparam_read_op(inp, fam, x, out):
    x = np.array([x])
    residual = float(np.linalg.norm(fam.average_at(x, 1.0) - inp.target(x)))
    out["offgrid"] = max(out["offgrid"], residual)
    vals = fam.eval(x, 1.0, inp.read_s)
    return residual <= OFFGRID_TOL and check_reparam_values(inp.family, x, vals)


def check_reparam_values(family, x, vals):
    """Values at sorted s in [0, 1) starting from 0 lie on the t=1 circle,
    start at the base point, and their angles phi(s) in [0, 1) increase
    (phi is a monotone degree-1 map with phi(0) = 0)."""
    rel = vals - family.center(x)
    if np.max(np.abs(np.linalg.norm(rel, axis=1) - family.radius)) > 1e-9:
        return False
    if np.linalg.norm(vals[0] - family.eval(x, 1.0, [0.0])[0]) > 1e-9:
        return False
    phi = np.mod(np.arctan2(rel[:, 1], rel[:, 0]), TWO_PI) / TWO_PI
    return bool(np.all(np.diff(phi) >= -1e-9))


def run_reparam(inp):
    batch = _Batch()
    out = {"family": None, "offgrid": 0.0}
    batch.attempt(reparam_build_op, inp, out)
    for x in inp.read_x:
        if out["family"] is None:
            batch.skip()
        else:
            batch.attempt(reparam_read_op, inp, out["family"], x, out)
    batch.result.diagnostics["reparam.offgrid_residual_max"] = out["offgrid"]
    return batch.result


# ---------------------------------------------------------------------------
# corrugate


CORRUGATE_CELLS = 16  # dyadic grid on [0, 1]^2
CORRUGATE_EPS = 0.005
CORRUGATE_T = (0.5, 1.0)
CORRUGATE_READS = 16
DF_TOL = 1e-5


class RankTwo:
    """Immersion relation for maps R^2 -> R^3: the derivative has rank 2.
    The smallest singular value is both the test and the openness margin."""

    @staticmethod
    def margin(jet):
        return float(np.linalg.svd(jet.phi, compute_uv=False)[-1])

    def __call__(self, jet):
        return self.margin(jet) > 0.0


class TiltedGraph:
    """Formal solution f(x) = (x1, x2, A sin(2 pi (x1 + x2) + p)) whose
    phi e1 is Df e1 plus a tilt of length B in the x-z plane; phi e2 = Df e2.
    Every phi e1 and Df e1 has y = 0 and x > 0, so phi has rank 2."""

    def __init__(self, amp, tilt, phase):
        self.amp, self.tilt, self.phase = float(amp), float(tilt), float(phase)

    def f(self, x):
        x = np.asarray(x, dtype=float)
        return np.array([x[0], x[1], self.amp * np.sin(TWO_PI * (x[0] + x[1]) + self.phase)])

    def df(self, x):
        x = np.asarray(x, dtype=float)
        d = self.amp * TWO_PI * np.cos(TWO_PI * (x[0] + x[1]) + self.phase)
        return np.array([[1.0, 0.0], [0.0, 1.0], [d, d]])

    def phi(self, x):
        x = np.asarray(x, dtype=float)
        D = self.df(x)
        u = np.pi * x[0] + self.phase
        beta = D[:, 0] + self.tilt * np.array([np.cos(u), 0.0, np.sin(u)])
        return np.stack([beta, D[:, 1]], axis=1)


class EllipseFamily(loops.LoopFamily):
    """gamma_x^t(s) = beta + t ((g - beta)(1 - cos 2 pi s) + q e3 sin 2 pi s)
    with beta = phi(x) e1 and g = Df(x) e1: based at beta, averaging g at
    t=1, and inside the x-z plane away from the origin, so inside the slice
    (R^3 minus the line through phi(x) e2)."""

    dim_f = 3

    def __init__(self, section, q):
        self.section = section
        self.q = float(q)

    def eval(self, x, t, s):
        s = np.atleast_1d(np.asarray(s, dtype=float))
        beta = self.section.phi(x)[:, 0]
        g = self.section.df(x)[:, 0]
        c = np.cos(TWO_PI * s)[:, None]
        sn = np.sin(TWO_PI * s)[:, None]
        return beta + t * ((g - beta) * (1.0 - c) + self.q * np.array([0.0, 0.0, 1.0]) * sn)


@dataclass
class CorrugateInputs:
    relation: jets.Relation
    graph: TiltedGraph
    section: jets.JetSection
    family: EllipseFamily
    step: hprinciple.StepLandscape
    read_x: np.ndarray


def make_corrugate(rng):
    graph = TiltedGraph(rng.uniform(0.05, 0.1), rng.uniform(0.2, 0.3), rng.uniform(0.0, TWO_PI))
    section = jets.JetSection(f=graph.f, phi=graph.phi, df=graph.df)
    rank_two = RankTwo()
    relation = jets.Relation(member=rank_two, margin=rank_two.margin)
    # q / (8 pi) > eps, so every N below 16 fails on the nodes
    family = EllipseFamily(graph, rng.uniform(0.2, 0.3))
    grid = grids.box_grid([0.0, 0.0], [1.0, 1.0], [CORRUGATE_CELLS, CORRUGATE_CELLS])
    k0 = grids.GridRegion.from_box(grid, [0.25, 0.25], [0.75, 0.75])
    land = hprinciple.Landscape(grid=grid, k0=k0, k1=k0.dilate(3))
    step = hprinciple.StepLandscape(landscape=land, e_sub=[], p=jets.DualPair([1.0, 0.0], [1.0, 0.0]))
    read_x = rng.uniform(0.0, 1.0, (CORRUGATE_READS, 2))
    return CorrugateInputs(relation, graph, section, family, step, read_x)


def corrugate_step_op(inp, out):
    land = inp.step.landscape
    job = corrugation.CorrugationJob(inp.step.p, 1.0, inp.family)
    N = corrugation.choose_N(job, land.grid.nodes(), CORRUGATE_T, CORRUGATE_EPS)
    hom = hprinciple.Homotopy(inp.section, inp.step, inp.family, N, hprinciple.Cutoff(land))
    report = hprinciple.verify_conclusions(hom, inp.section, inp.relation, land, CORRUGATE_EPS)
    out["homotopy"] = hom
    return report["all_passed"] is True


def corrugate_read_op(inp, hom, x, out):
    """phi_1 keeps rank 2 and the analytic d_f_at matches finite differences
    of the corrugated map; the value drift is recorded, not checked."""
    y, phi = hom.eval(1.0, x)
    out["drift"] = max(out["drift"], float(np.linalg.norm(y - inp.graph.f(x))) / CORRUGATE_EPS)
    D = hom.d_f_at(1.0, x)
    fd = jets.fd_jacobian(lambda z: hom.eval(1.0, z)[0], x)
    sigma_min = np.linalg.svd(phi, compute_uv=False)[-1]
    return bool(sigma_min > 0.0 and np.max(np.abs(D - fd)) <= DF_TOL * (1.0 + np.max(np.abs(D))))


def run_corrugate(inp):
    batch = _Batch()
    out = {"homotopy": None, "drift": 0.0}
    batch.attempt(corrugate_step_op, inp, out)
    for x in inp.read_x:
        if out["homotopy"] is None:
            batch.skip()
        else:
            batch.attempt(corrugate_read_op, inp, out["homotopy"], x, out)
    batch.result.diagnostics["hprinciple.offgrid_drift_over_eps"] = out["drift"]
    return batch.result


# ---------------------------------------------------------------------------


_MAKE = {"surround": make_surround, "reparam": make_reparam, "corrugate": make_corrugate}
_RUN = {"surround": run_surround, "reparam": run_reparam, "corrugate": run_corrugate}


def make_inputs(name, seed):
    """The workload's inputs; the same seed gives the same inputs."""
    return _MAKE[name](np.random.default_rng(seed))


def run_batch(name, inputs):
    """Run one batch and time it from the first public call to the last
    checked result."""
    start = time.perf_counter()
    result = _RUN[name](inputs)
    result.wall_s = time.perf_counter() - start
    return result
