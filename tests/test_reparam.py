import numpy as np
import pytest

from ample import loops, reparam
from ample.errors import DegenerateWeights, NoConvergence
from ample.loops import Loop, average
from ample.reparam import (
    CircleReparam,
    DeltaMollifier,
    adjust_weights,
    reparam_from_weights,
    reparametrize_family,
)
from ample.smooth import quad_integral


def circle_loop(center=(0.0, 0.0), radius=1.0):
    c = np.asarray(center, dtype=float)

    def fn(s):
        s = np.atleast_1d(s)
        return c + radius * np.stack([np.cos(2 * np.pi * s), np.sin(2 * np.pi * s)], axis=-1)

    return Loop(fn, 2)


def subst_average(loop, rp, M=32768):
    """average(gamma . phi) through the exact change of variables."""
    u = np.linspace(0.0, 1.0, M + 1)
    w = np.ones(M + 1)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    vals = loop(u) * rp.density_normalized(u)[:, None]
    return (w @ vals) / (3.0 * M)


class TestMollifier:
    def test_unit_mass(self):
        m = DeltaMollifier(0.3, 0.15)
        mass = quad_integral(lambda s: m(s), 0.0, 1.0, 1024)
        assert abs(float(mass) - 1.0) <= 1e-8

    def test_compact_support(self):
        m = DeltaMollifier(0.5, 0.05)
        s = np.array([0.0, 0.2, 0.44, 0.56, 0.8, 0.99])
        assert np.all(m(s) == 0.0)
        assert m(np.array([0.5]))[0] > 0

    def test_wraps_around(self):
        m = DeltaMollifier(0.01, 0.05)
        assert m(np.array([0.99]))[0] > 0

    def test_dirac_rate(self):
        # oracle: int m f -> f(center) at second order in the width
        f = lambda s: np.sin(2 * np.pi * s)
        center = 0.37
        errs = []
        for eta in (0.1, 0.05):
            m = DeltaMollifier(center, eta)
            val = quad_integral(lambda s: (m(s) * f(s))[:, None], center - eta, center + eta, 2048)
            errs.append(abs(float(val[0]) - f(center)))
        ratio = errs[0] / errs[1]
        assert 3.0 <= ratio <= 5.0


class TestReparamFromWeights:
    def test_single_center_concentrates(self):
        lp = circle_loop()
        eta = 0.05
        rp = reparam_from_weights([1.0], [0.0], eta=eta)
        avg = subst_average(lp, rp)
        # everything but the leak mass sits within eta of s = 0
        assert np.linalg.norm(avg - lp(np.array([0.0]))[0]) <= 4.0 * (eta**2 + reparam.LEAK)

    def test_uniform_quarters_average_zero(self):
        lp = circle_loop()
        rp = reparam_from_weights(np.full(4, 0.25), [0.0, 0.25, 0.5, 0.75])
        assert np.linalg.norm(subst_average(lp, rp)) <= 1e-12  # symmetry

    def test_phi_fixes_origin_and_degree(self):
        rp = reparam_from_weights([0.5, 0.3, 0.2], [0.1, 0.45, 0.8])
        assert abs(float(rp.phi(0.0))) <= 1e-12
        t = np.linspace(-1.0, 2.0, 301)
        assert abs(float(rp.phi(1.25) - rp.phi(0.25)) - 1.0) <= 1e-9
        ph = rp.phi(np.linspace(0, 1, 4001))
        assert np.all(np.diff(ph) > 0)

    def test_degenerate_weights(self):
        with pytest.raises(DegenerateWeights):
            reparam_from_weights([1e-6, 1.0 - 1e-6], [0.1, 0.6])
        with pytest.raises(DegenerateWeights):
            reparam_from_weights([0.5, 0.5], [0.3, 0.3])


class TestAdjustWeights:
    def test_constant_loop_returns_w0(self):
        g = np.array([1.5, -0.5])
        lp = Loop(lambda s: np.tile(g, (len(np.atleast_1d(s)), 1)))
        w0 = np.array([0.4, 0.3, 0.3])
        w = adjust_weights(lp, g, [0.0, 0.33, 0.71], w0)
        assert np.allclose(w, w0, atol=1e-9)

    def test_circle_quarters(self):
        lp = circle_loop()
        w = adjust_weights(lp, [0.0, 0.0], [0.0, 0.25, 0.5, 0.75], np.full(4, 0.25))
        rp = reparam_from_weights(w, [0.0, 0.25, 0.5, 0.75])
        assert np.linalg.norm(subst_average(lp, rp)) <= 1e-8

    def test_offcenter_target(self):
        lp = circle_loop()
        g = np.array([0.2, -0.1])
        centers, coords, _ = loops.surround_certificate(lp, g, M=64)
        w0 = np.maximum(coords, 1e-4)
        w0 /= w0.sum()
        w = adjust_weights(lp, g, centers, w0)
        rp = reparam_from_weights(w, centers)
        assert np.linalg.norm(subst_average(lp, rp) - g) <= 1e-8
        assert abs(float(rp.phi(0.0))) <= 1e-9

    def test_infeasible_target(self):
        lp = circle_loop()
        with pytest.raises(NoConvergence):
            adjust_weights(lp, [5.0, 0.0], [0.0, 0.25, 0.5, 0.75], np.full(4, 0.25))

    def test_jacobian_matches_finite_differences(self):
        # the average is affine in the weights; compare the solver's linear
        # model against finite differences along simplex directions
        lp = circle_loop(center=(0.3, 0.1))
        centers = np.array([0.05, 0.3, 0.62])
        eta = reparam._min_circular_gap(centers) / 4.0
        a = reparam._mollifier_dots(lp, centers, eta)
        abar = average(lp, 2048)

        def avg_of(w):
            rp = CircleReparam(reparam._mix_density(w, centers, eta), feature=eta)
            return subst_average(lp, rp)

        h = 1e-4
        w0 = np.array([0.5, 0.25, 0.25])
        for i, j in [(0, 1), (1, 2)]:
            d = np.zeros(3)
            d[i], d[j] = 1.0, -1.0
            fd = (avg_of(w0 + h * d) - avg_of(w0 - h * d)) / (2 * h)
            model = (a[i] - a[j]) / (1.0 + reparam.LEAK)
            assert np.linalg.norm(fd - model) <= 0.05 * (1.0 + np.linalg.norm(model))

    def test_average_stays_in_hull(self):
        from scipy.optimize import nnls

        lp = circle_loop()
        g = np.array([0.1, 0.25])
        centers, coords, _ = loops.surround_certificate(lp, g, M=64)
        w = adjust_weights(lp, g, centers, np.maximum(coords, 1e-4) / np.maximum(coords, 1e-4).sum())
        rp = reparam_from_weights(w, centers)
        avg = subst_average(lp, rp)
        samples = lp(np.arange(64) / 64)
        # oracle: nonnegative weights on the samples summing to 1 that hit avg
        # (the affine row is scaled like the coordinate rows)
        scale = 1.0 + np.linalg.norm(avg)
        A = np.vstack([samples.T, np.full(len(samples), scale)])
        _, rnorm = nnls(A, np.append(avg, scale))
        assert rnorm <= 1e-9 * scale


class TranslatedCircleFamily(loops.LoopFamily):
    """gamma_x = circle centered at c(x): average is c(x), surrounds c(x)."""

    def __init__(self):
        self.dim_f = 2

    def center(self, x):
        x = np.atleast_1d(x)
        return np.array([0.5 * np.sin(2 * np.pi * x[0]), 0.25 * np.cos(2 * np.pi * x[0])])

    def eval(self, x, t, s):
        s = np.atleast_1d(np.asarray(s, dtype=float))
        ring = np.stack([np.cos(2 * np.pi * s), np.sin(2 * np.pi * s)], axis=-1)
        return self.center(x) + float(np.clip(t, 0, 1)) * ring


class TestReparametrizeFamily:
    def grid(self):
        from ample.grids import box_grid

        return box_grid([0.0], [1.0], [8], periodic=(True,))

    def test_translated_circle_grid_residuals(self):
        fam = TranslatedCircleFamily()
        g = lambda x: fam.center(x) + np.array([0.15, -0.1])
        out = reparametrize_family(fam, g, self.grid())
        for x in self.grid().nodes():
            assert np.linalg.norm(out.average_at(x, 1.0) - g(x)) <= 1e-6

    def test_identity_target_near_noop(self):
        fam = TranslatedCircleFamily()
        g = lambda x: fam.center(x)  # already the average
        out = reparametrize_family(fam, g, self.grid())
        for x in self.grid().nodes():
            assert np.linalg.norm(out.average_at(x, 1.0) - g(x)) <= 1e-8

    def test_base_point_preserved(self):
        fam = TranslatedCircleFamily()
        g = lambda x: fam.center(x) + np.array([0.1, 0.05])
        out = reparametrize_family(fam, g, self.grid())
        rng = np.random.default_rng(0)
        for _ in range(100):
            x = rng.uniform(0, 1, size=1)
            t = rng.uniform(0, 1)
            v = out.eval(x, t, np.array([0.0]))[0]
            assert np.linalg.norm(v - fam.eval(x, t, np.array([0.0]))[0]) <= 1e-9

    def test_midpoint_drift_bounded(self):
        fam = TranslatedCircleFamily()
        g = lambda x: fam.center(x) + np.array([0.1, 0.0])
        out = reparametrize_family(fam, g, self.grid())
        for xm in reparam._cell_midpoints(self.grid()):
            assert np.linalg.norm(out.average_at(xm, 1.0) - g(xm)) <= 1e-4

    def test_direct_and_substitution_agree(self):
        fam = TranslatedCircleFamily()
        g = lambda x: fam.center(x) + np.array([0.12, -0.08])
        out = reparametrize_family(fam, g, self.grid())
        x = np.array([0.375])
        direct = average(out.loop_at(x, 1.0), 262144)
        fast = out.average_at(x, 1.0)
        assert np.linalg.norm(direct - fast) <= 1e-6
