import numpy as np
import pytest

from ample import hprinciple, loops
from ample.corrugation import CorrugationJob, corrugation, remainder
from ample.grids import GridRegion, box_grid
from ample.hprinciple import ConcatenatedHomotopy, Cutoff, Homotopy, Landscape, StepLandscape, _choose_step_n
from ample.jets import DualPair, JetSection


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
