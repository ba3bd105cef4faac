import functools

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ample import hprinciple, loops
from ample.corrugation import CorrugationJob, choose_N, corrugation, remainder
from ample.grids import GridRegion, box_grid
from ample.hprinciple import (
    ConcatenatedHomotopy,
    Cutoff,
    Homotopy,
    Landscape,
    StepLandscape,
    _choose_step_n,
    improve,
    verify_conclusions,
)
from ample.jets import DualPair, JetSection, Relation, fd_jacobian, update
from ample.smooth import plateau


class GradedCircleFamily(loops.LoopFamily):
    """gamma_x^t(s) = t (1 + x_2) (cos 2 pi s, sin 2 pi s)."""

    dim_f = 2

    def eval(self, x, t, s):
        s = np.atleast_1d(np.asarray(s, dtype=float))
        ring = np.stack([np.cos(2 * np.pi * s), np.sin(2 * np.pi * s)], axis=-1)
        return t * (1.0 + float(np.atleast_1d(x)[1])) * ring


class TestChooseStepN:
    def test_meets_eps_off_integer_phase_nodes(self):
        # x_1 in Z/4 at every node, so N pi(x) is an integer there for N >= 4
        grid = box_grid([0.0, 0.0], [1.0, 1.0], [4, 4])
        k0 = GridRegion.from_box(grid, [0.25, 0.25], [0.75, 0.75])
        cutoff = Cutoff(Landscape(grid=grid, k0=k0, k1=GridRegion.full(grid)))
        p = DualPair(pi=[1.0, 0.0], v=[1.0, 0.0])
        gamma = GradedCircleFamily()
        eps = 0.01
        N = _choose_step_n(p, gamma, cutoff, grid.nodes(), eps)

        # |Corr| = t (1 + x_2) |sin(pi N x_1)| / (pi N): largest at x_1 = 1/(2N)
        rng = np.random.default_rng(0)
        peaks = [[1.0 / (2.0 * N), 1.0], [0.125, 0.6]]
        off_node = np.concatenate([peaks, rng.uniform(0.0, 1.0, size=(20, 2))])
        job = CorrugationJob(p, N, gamma)
        for t in (0.5, 1.0):
            warped = CorrugationJob(p, N, loops.WarpedFamily(gamma, lambda z, _t=t: _t * cutoff.rho(z)))
            for x in off_node:
                assert np.linalg.norm(corrugation(job, x, t)) <= eps
                assert np.linalg.norm(remainder(warped, x, 0.0)) <= eps
        # minimal: at half the frequency the peak exceeds eps
        half = CorrugationJob(p, N / 2.0, gamma)
        assert np.linalg.norm(corrugation(half, [1.0 / N, 1.0], 1.0)) > eps

    @pytest.mark.parametrize("rho", [1.0, 0.0])
    def test_trivial_cutoff_bound_is_the_slice_bound(self, rho):
        # rho = 1 (K1 everything) or rho = 0 (K0 empty): the cutoff-absorbed
        # families, which a trivial cutoff skips, would not raise N
        grid = box_grid([0.0, 0.0], [1.0, 1.0], [4, 4])
        box = GridRegion.from_box(grid, [0.25, 0.25], [0.75, 0.75])
        if rho:
            L = Landscape(grid=grid, k0=box, k1=GridRegion.full(grid))
        else:
            L = Landscape(grid=grid, k0=GridRegion.empty(grid), k1=box)
        cutoff = Cutoff(L)
        assert cutoff.trivial and cutoff.rho(np.array([0.5, 0.5])) == rho
        p = DualPair(pi=[1.0, 0.0], v=[1.0, 0.0])
        gamma = GradedCircleFamily()
        eps = 0.01
        N = _choose_step_n(p, gamma, cutoff, grid.nodes(), eps)
        for t in hprinciple._STEP_T:
            warped = CorrugationJob(p, 1.0, loops.WarpedFamily(gamma, lambda z, _t=t: _t * cutoff.rho(z)))
            assert choose_N(warped, grid.nodes(), [0.0], eps) <= N


@st.composite
def cutoffs(draw):
    """A cutoff that is not trivial, and the nodes outside its K1, on an
    anisotropic 2-D grid from the origin whose spacings are 5 and m (> 5)
    times 2^-k, so that d0 = 0.2 h = 2^-k and each node plus d0 along an
    axis is exact; K0 is a block of nodes and K1 its dilation by 1 to 3
    cells."""
    k = draw(st.integers(3, 6))
    units = [5, draw(st.integers(6, 12))]
    if draw(st.booleans()):
        units.reverse()
    cells = [draw(st.integers(6, 10)) for _ in units]
    grid = box_grid([0.0, 0.0], [u * 2.0**-k * c for u, c in zip(units, cells)], cells)
    mask = np.zeros(grid.shape, dtype=bool)
    lo = [draw(st.integers(1, c - 3)) for c in cells]
    mask[tuple(slice(a, a + draw(st.integers(1, 3))) for a in lo)] = True
    k0 = GridRegion(grid, mask)
    k1 = k0.dilate(draw(st.integers(1, 3)))
    cutoff = Cutoff(Landscape(grid=grid, k0=k0, k1=k1))
    assume(not cutoff.trivial)
    assert cutoff.d0 == 2.0**-k
    return cutoff, k1.complement().nodes()


class TestCutoff:
    @given(cutoffs(), st.data())
    @settings(max_examples=60, deadline=None)
    def test_rho_is_the_plateau_of_the_distance(self, case, data):
        # rho and drho are plateau(inner.distance, d0, d1) and its finite
        # difference byte for byte: at nodes, at u = 0 exactly, in the band
        # and beyond K1, with u checked so that every branch is met
        c, outside = case
        grid = c.inner.grid
        h = min(grid.spacing)
        inner = c.inner.nodes()

        def draw_node(nodes):
            return nodes[data.draw(st.integers(0, len(nodes) - 1))]

        def u_of(x):
            return (c.inner.distance(x) - c.d0) / (c.d1 - c.d0)

        axis = data.draw(st.integers(0, 1))
        sign = data.draw(st.sampled_from([-1.0, 1.0]))
        step = sign * np.eye(2)[axis]
        edge = inner[np.argmax(sign * inner[:, axis])]  # no inner node lies beyond it along step
        frac = data.draw(st.floats(0.01, 0.99))
        jitter = np.array(data.draw(st.lists(st.floats(-0.25 * h, 0.25 * h), min_size=2, max_size=2)))
        points = {
            "node": draw_node(grid.nodes()),
            "inner node": draw_node(inner),
            "u = 0": draw_node(inner) + c.d0 * step,
            "beyond K1": draw_node(outside) + jitter,
            "anywhere": np.array(data.draw(st.lists(st.floats(-0.2, 1.5), min_size=2, max_size=2))),
        }
        # the band from its inner edge outwards, near both ends and inside
        for f in (frac, 0.05, 0.5, 0.95):
            points[f"band {f}"] = edge + (c.d0 + f * (c.d1 - c.d0)) * step
            assert 0.0 < u_of(points[f"band {f}"]) < 1.0
        assert u_of(points["inner node"]) < 0.0 and u_of(points["u = 0"]) == 0.0
        assert u_of(points["beyond K1"]) > 1.0

        def reference(z):
            return float(plateau(c.inner.distance(z), c.d0, c.d1))

        for x in points.values():
            rho = c.rho(x)
            assert type(rho) is float and np.float64(rho).tobytes() == np.float64(reference(x)).tobytes()
            assert_bit_equal(c.drho(x), fd_jacobian(reference, x, h=1e-6))


def graded_homotopy(N):
    """A step over the unit square: K0 a 3x3 block of an 8x8-cell grid, K1
    its two-cell dilation, so the cutoff is not trivial."""
    grid = box_grid([0.0, 0.0], [1.0, 1.0], [8, 8])
    k0 = GridRegion.from_box(grid, [0.375, 0.375], [0.625, 0.625])
    L = Landscape(grid=grid, k0=k0, k1=k0.dilate(2))
    p = DualPair(pi=[1.0, 0.0], v=[1.0, 0.0])
    section = JetSection(
        f=lambda x: np.array([np.sin(x[0]) + x[1], x[0] * x[1]]),
        phi=lambda x: np.array([[np.cos(x[0]), 1.0], [x[1], x[0]]]),
    )
    S = StepLandscape(landscape=L, e_sub=[], p=p)
    return Homotopy(section, S, GradedCircleFamily(), N, Cutoff(L))


class TestSectionF:
    def test_f_is_eval_f_without_remainder(self, monkeypatch):
        hom = graded_homotopy(8.0)
        two = ConcatenatedHomotopy([hom, graded_homotopy(16.0)])
        rng = np.random.default_rng(0)
        cases = [(float(t), x) for t, x in zip(rng.uniform(0.0, 1.0, 24), rng.uniform(0.0, 1.0, (24, 2)))]
        cases += [(1.0, x) for x in rng.uniform(0.0, 1.0, (8, 2))]
        want = [(hom.eval(t, x)[0], two.eval(t, x)[0]) for t, x in cases]

        def refuse(*args, **kwargs):
            raise AssertionError("f of a section computed a remainder")

        monkeypatch.setattr(hprinciple, "remainder", refuse)
        for (t, x), (y, y2) in zip(cases, want):
            assert np.array_equal(hom.section_at(t).f(x), y)
            assert np.array_equal(two.section_at(t).f(x), y2)
        with pytest.raises(AssertionError):
            hom.section_at(0.5).phi(cases[0][1])


def assert_bit_equal(got, want):
    """Nested dicts, lists and tuples whose leaves have the same dtype, shape
    and bytes, so that a flip between -0.0 and +0.0 shows."""
    if isinstance(want, dict):
        assert got.keys() == want.keys()
        for k in want:
            assert_bit_equal(got[k], want[k])
    elif isinstance(want, (list, tuple)):
        assert type(got) is type(want) and len(got) == len(want)
        for a, b in zip(got, want):
            assert_bit_equal(a, b)
    elif want is None:
        assert got is None
    else:
        got, want = np.asarray(got), np.asarray(want)
        assert (got.dtype, got.shape, got.tobytes()) == (want.dtype, want.shape, want.tobytes())


class PerTimeOracle:
    """A homotopy read through eval once per (node, t)."""

    def __init__(self, hom):
        self.hom = hom

    def eval(self, t, x):
        return self.hom.eval(t, x)

    def eval_times(self, ts, x):
        return [self.hom.eval(t, x) for t in ts]

    def section_at(self, t):
        return self.hom.section_at(t)


def eval_reference(hom, t, x):
    """Homotopy.eval from its definition, one time at a time."""
    t = float(np.clip(t, 0.0, 1.0))
    x = np.atleast_1d(np.asarray(x, dtype=float))
    rho = hom.cutoff.rho(x)
    y = hom.section.f(x) + t * rho * corrugation(CorrugationJob(hom.p, hom.N, hom.gamma), x, t)
    w = hom.gamma.eval(x, t * rho, np.array([hom.N * hom.p.pairing(x)]))[0]
    warped = CorrugationJob(hom.p, hom.N, loops.WarpedFamily(hom.gamma, lambda z: t * hom.cutoff.rho(z)))
    return y, update(hom.p, hom.section.phi(x), w) + remainder(warped, x, 0.0)


def two_stage():
    return ConcatenatedHomotopy([graded_homotopy(8.0), graded_homotopy(16.0)])


class TestEvalTimes:
    def test_column_is_eval_per_time(self):
        rng = np.random.default_rng(3)
        ts = list(rng.uniform(0.0, 1.0, 7)) + [0.0, 1.0, 0.5, -0.2, 1.3]
        hom = graded_homotopy(8.0)
        two = two_stage()
        for x in rng.uniform(0.0, 1.0, (6, 2)):
            column = hom.eval_times(ts, x)
            assert_bit_equal(column, [hom.eval(t, x) for t in ts])
            assert_bit_equal(column, [eval_reference(hom, t, x) for t in ts])
            assert_bit_equal(two.eval_times(ts, x), [two.eval(t, x) for t in ts])

    def test_whole_phase_column_adds_zeros(self, monkeypatch):
        # pi = e1 and N = 8 (16 in the second stage), so x1 in Z/8 is a whole
        # phase; at (0, -0.0) f is (0.0, -0.0) and rho is 0, so y keeps or
        # flips the sign of that zero by the time's sign, as eval does
        rng = np.random.default_rng(4)
        ts = [-0.2, -0.0, 0.0, 1.0, 1.3] + list(rng.uniform(0.0, 1.0, 4))
        hom = graded_homotopy(8.0)
        two = two_stage()
        whole = [np.array([0.0, -0.0]), np.array([0.5, 0.5])]
        whole += [np.array([k / 8.0, y]) for k, y in zip(rng.integers(0, 9, 4), rng.uniform(0.0, 1.0, 4))]
        off = [np.array([0.3, 0.5]), np.array([0.5 + 1e-9, 0.4])]
        want = {id(x): [eval_reference(hom, t, x) for t in ts] for x in whole + off}
        calls = {"corrugation": 0, "remainder": 0}

        def counted(name, fn):
            def wrapper(*args):
                calls[name] += 1
                return fn(*args)

            return wrapper

        monkeypatch.setattr(hprinciple, "corrugation", counted("corrugation", corrugation))
        monkeypatch.setattr(hprinciple, "remainder", counted("remainder", remainder))
        for x in whole:
            assert_bit_equal(hom.eval_times(ts, x), want[id(x)])
            assert_bit_equal(two.eval_times(ts, x), [two.eval(t, x) for t in ts])
        assert calls == {"corrugation": 0, "remainder": 0}
        for x in off:
            assert_bit_equal(hom.eval_times(ts, x), want[id(x)])
        assert calls == {"corrugation": len(ts) * len(off), "remainder": len(ts) * len(off)}


class BasedCircleFamily(GradedCircleFamily):
    """GradedCircleFamily moved to the base point phi(x) v of graded_homotopy's
    section, so the homotopy starts exactly at the section."""

    def eval(self, x, t, s):
        x = np.atleast_1d(x)
        return np.array([np.cos(x[0]), x[1]]) + super().eval(x, t, s)


class ShiftedEval(Homotopy):
    """A Homotopy whose eval alone is moved by 1e-3; eval_times is intact."""

    def eval(self, t, x):
        y, phi = super().eval(t, x)
        return y + 1e-3, phi


class TestVerifyConclusions:
    @pytest.mark.parametrize("t_values", [None, [0.25, 0.5, 1.0]])
    @pytest.mark.parametrize("floor", [None, 0.5])
    def test_report_is_per_time_report(self, t_values, floor):
        # verified on a grid off the 1/16 lattice, where N pi(x) is never an
        # integer, so every node reads a corrugation and a remainder; without
        # a floor every jet is a member and margin_min is the minimum over
        # every (node, t), with one the report carries a witness
        grid = box_grid([0.03, 0.03], [0.93, 0.93], [4, 4])
        k0 = GridRegion.from_box(grid, [0.4, 0.4], [0.6, 0.6])
        L = Landscape(grid=grid, k0=k0, k1=k0.dilate(2))
        R = Relation(
            member=lambda jet: floor is None or np.linalg.svd(jet.phi, compute_uv=False)[-1] > floor,
            margin=lambda jet: float(np.linalg.norm(jet.phi)),
        )
        for hom in (graded_homotopy(8.0), two_stage()):
            F0 = (hom if isinstance(hom, Homotopy) else hom.stages[0]).section
            got = verify_conclusions(hom, F0, R, L, 0.05, t_values=t_values)
            assert_bit_equal(got, verify_conclusions(PerTimeOracle(hom), F0, R, L, 0.05, t_values=t_values))

    def test_start_check_reads_eval(self):
        hom = graded_homotopy(8.0)
        args = (hom.section, hom.S, BasedCircleFamily(), hom.N, hom.cutoff)
        R = Relation(member=lambda jet: True, margin=lambda jet: 1.0)
        L = hom.S.landscape
        good = verify_conclusions(Homotopy(*args), hom.section, R, L, 0.05)
        bad = verify_conclusions(ShiftedEval(*args), hom.section, R, L, 0.05)
        assert good["starts_at_input"]["passed"]
        assert not bad["starts_at_input"]["passed"] and not bad["all_passed"]
        assert bad["starts_at_input"]["residual"] >= 1e-3
        # y at t = 0 is read through eval alone: every other conclusion reads
        # y from the columns and from section_at(1).f
        for key in ("stays_in_relation", "frozen_outside", "value_drift", "holonomic_near_k0"):
            assert_bit_equal(bad[key], good[key])


def interval_problem(f):
    """improve on immersions of [0, 1] into the plane (|phi| > 1e-3) from
    F0 = (f, (1, 0)) with eps 0.1, K0 = [1/4, 3/4] and K1 everything, on 8
    cells."""
    grid = box_grid([0.0], [1.0], [8])
    L = Landscape(grid=grid, k0=GridRegion.from_box(grid, [0.25], [0.75]), k1=GridRegion.full(grid))
    R = Relation(
        member=lambda jet: np.linalg.norm(jet.phi) > 1e-3,
        margin=lambda jet: max(0.0, float(np.linalg.norm(jet.phi)) - 1e-3),
    )
    F0 = JetSection(f=f, phi=lambda x: np.array([[1.0], [0.0]]))
    return R, F0, L, improve(R, F0, L, 0.1)


@functools.cache
def immersed_interval():
    """The interval problem from the holonomic F0 = ((x, 0), (1, 0))."""
    return interval_problem(lambda x: np.array([x[0], 0.0]))


@functools.cache
def flat_interval():
    """The interval problem from the flat F0 = (0, (1, 0))."""
    return interval_problem(lambda x: np.zeros(2))


def off_node_holonomy(hom, n):
    """The analytic holonomy defect |(Df_1 - phi_1) v| of the final section,
    largest over n random points of K0 (N pi(x) is an integer at every node)."""
    sec = hom.section_at(1.0)
    xs = np.random.default_rng(0).uniform(0.25, 0.75, (n, 1))
    return max(float(np.linalg.norm(sec.d_f(x)[:, 0] - sec.phi(x)[:, 0])) for x in xs)


class TestImprove:
    def test_holonomic_interval_verifies(self):
        R, F0, L, hom = immersed_interval()
        assert verify_conclusions(hom, F0, R, L, 0.1)["all_passed"]

    def test_holonomic_off_the_nodes(self):
        assert off_node_holonomy(immersed_interval()[3], 200) <= 1e-6

    def test_reparametrised_loop_keeps_the_loop_speed(self):
        # gamma . phi at t = 1 runs at most 10 times faster than gamma: the
        # circle map's density is bounded below by its weights
        gamma = immersed_interval()[3].stages[0].gamma
        s = np.linspace(0.0, 1.0, 20001)

        def top_step(vals):
            return np.max(np.linalg.norm(np.diff(vals, axis=0), axis=1))

        for x in ([0.1], [0.5], [0.9]):
            x = np.array(x)
            assert top_step(gamma.eval(x, 1.0, s)) <= 10.0 * top_step(gamma.inner.eval(x, 1.0, s))

    def test_flat_interval_builds(self):
        # the finite-difference holonomy check does not yet resolve the
        # corrugation here, so every other conclusion is checked, and the
        # holonomy analytically off the nodes
        R, F0, L, hom = flat_interval()
        assert hom.stages[0].N <= 128
        report = verify_conclusions(hom, F0, R, L, 0.1)
        for key in ("starts_at_input", "stays_in_relation", "frozen_outside", "value_drift"):
            assert report[key]["passed"], key
        assert off_node_holonomy(hom, 50) <= 1e-6
