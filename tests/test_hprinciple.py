import functools

import numpy as np
import pytest

from ample import hprinciple, loops
from ample.corrugation import CorrugationJob, corrugation, remainder
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
from ample.jets import DualPair, JetSection, Relation, update


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
    """Nested dicts, lists and tuples with np.array_equal leaves."""
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
        assert np.array_equal(got, want)


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
