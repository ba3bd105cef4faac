import functools

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ample import corrugation, loops, reparam
from ample.corrugation import CorrugationJob, sup_norms
from ample.errors import DegenerateWeights, NoConvergence
from ample.grids import box_grid
from ample.jets import DualPair, fd_jacobian
from ample.loops import Loop, average
from ample.reparam import (
    CircleReparam,
    DeltaMollifier,
    DensityField,
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

    return Loop(fn)


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

    @settings(max_examples=40, deadline=None)
    @given(
        centers=st.lists(st.floats(-2.0, 2.0), min_size=1, max_size=6),
        etas=st.lists(st.floats(1e-3, 0.5), min_size=6, max_size=6),
        s=st.lists(st.floats(-1.0, 2.0), min_size=1, max_size=40),
    )
    def test_array_centres_stack_scalar_calls(self, centers, etas, s):
        s = np.array(s)
        etas = etas[: len(centers)]
        rows = DeltaMollifier(np.array(centers), np.array(etas))(s)
        want = np.stack([DeltaMollifier(c, e)(s) for c, e in zip(centers, etas)])
        assert rows.shape == want.shape and np.array_equal(rows, want)
        # one width broadcast over every centre
        rows = DeltaMollifier(np.array(centers), etas[0])(s)
        assert np.array_equal(rows, np.stack([DeltaMollifier(c, etas[0])(s) for c in centers]))

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


def assert_feasible(lp, g, centers, w):
    """w lies on the floored simplex and reparametrises lp to average g."""
    assert w.min() >= reparam.WEIGHT_FLOOR
    assert abs(float(w.sum()) - 1.0) <= 1e-12
    rp = reparam_from_weights(w, centers)
    assert np.linalg.norm(subst_average(lp, rp) - g) <= 1e-8
    assert abs(float(rp.phi(0.0))) <= 1e-9


class TestAdjustWeights:
    def test_constant_loop_feasible(self):
        g = np.array([1.5, -0.5])
        lp = Loop(lambda s: np.tile(g, (len(np.atleast_1d(s)), 1)))
        centers = [0.0, 0.33, 0.71]
        assert_feasible(lp, g, centers, adjust_weights(lp, g, centers))

    def test_circle_quarters(self):
        lp = circle_loop()
        w = adjust_weights(lp, [0.0, 0.0], [0.0, 0.25, 0.5, 0.75])
        rp = reparam_from_weights(w, [0.0, 0.25, 0.5, 0.75])
        assert np.linalg.norm(subst_average(lp, rp)) <= 1e-8

    @settings(max_examples=25, deadline=None)
    @given(radius=st.floats(0.0, 0.998), angle=st.floats(0.0, 1.0))
    @example(radius=np.hypot(0.2, -0.1), angle=np.arctan2(-0.1, 0.2) / (2 * np.pi) + 1.0)
    # just inside the chord of the 64 samples at angle 0 and 1/64: the
    # mollified basis no longer surrounds g, so a weight must drop below 0
    @example(radius=np.cos(np.pi / 64) - 1e-6, angle=1.0 / 128)
    def test_offcenter_target(self, radius, angle):
        lp = circle_loop()
        g = radius * np.array([np.cos(2 * np.pi * angle), np.sin(2 * np.pi * angle)])
        centers, _coords, _ = loops.surround_certificate(lp, g, M=64)
        try:
            w = adjust_weights(lp, g, centers)
        except NoConvergence as err:
            # the exact solution of the affine system, carried with its residual
            w = err.best_value
            assert w.min() < reparam.WEIGHT_FLOOR
            assert abs(float(w.sum()) - 1.0) <= 1e-12 and err.best_residual <= 1e-8
            return
        assert_feasible(lp, g, centers, w)

    def test_infeasible_target(self):
        lp = circle_loop()
        with pytest.raises(NoConvergence):
            adjust_weights(lp, [5.0, 0.0], [0.0, 0.25, 0.5, 0.75])

    def test_jacobian_matches_finite_differences(self):
        # the average is affine in the weights; compare the solver's linear
        # model against finite differences along simplex directions
        lp = circle_loop(center=(0.3, 0.1))
        centers = np.array([0.05, 0.3, 0.62])
        eta = reparam._mollifier_width(centers)
        a = reparam._mollifier_dots(lp, centers, eta)
        abar = average(lp, 2048)

        def avg_of(w):
            rp = CircleReparam(reparam._mix_density(w, centers, eta), eta)
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
        centers, _coords, _ = loops.surround_certificate(lp, g, M=64)
        w = adjust_weights(lp, g, centers)
        rp = reparam_from_weights(w, centers)
        avg = subst_average(lp, rp)
        samples = lp(np.arange(64) / 64)
        # oracle: nonnegative weights on the samples summing to 1 that hit avg
        # (the affine row is scaled like the coordinate rows)
        scale = 1.0 + np.linalg.norm(avg)
        A = np.vstack([samples.T, np.full(len(samples), scale)])
        _, rnorm = nnls(A, np.append(avg, scale))
        assert rnorm <= 1e-9 * scale


class TestDensityField:
    @settings(max_examples=40, deadline=None)
    @given(dim=st.sampled_from([1, 2]), data=st.data())
    def test_matches_blend_of_node_densities(self, dim, data):
        cells = data.draw(st.lists(st.integers(1, 5), min_size=dim, max_size=dim))
        grid = box_grid([0.0] * dim, [1.0] * dim, cells, periodic=(True,) * dim)
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        # jittered thirds of the circle: every node's centres surround the
        # target, which stays within 0.1 of the loop's centre
        centers = [rng.uniform() + np.arange(3) / 3 + rng.uniform(-0.05, 0.05, 3) for _ in grid.nodes()]
        fam = TranslatedCircleFamily()
        g = lambda x: fam.center(x) + 0.1 * np.array([np.cos(2 * np.pi * x.sum()), np.sin(2 * np.pi * x.sum())])
        field = DensityField(grid, fam, g, centers)
        x = np.array(data.draw(st.lists(st.floats(-1.0, 2.0), min_size=dim, max_size=dim)))
        s = np.linspace(-0.5, 1.5, 801)
        # oracle: each corner node's own density with weights solved at x,
        # blended by the corner weights
        want = 0.0
        for flat, wt in field._corners(x):
            c = centers[flat]
            w = adjust_weights(fam.loop_at(x, 1.0), g(x), c)
            want = want + wt * reparam._mix_density(w, c, reparam._mollifier_width(c))(s)
        got = field.density_at(x)(s)
        assert np.all(np.abs(got - want) <= 1e-13 * want)


class TranslatedCircleFamily(loops.LoopFamily):
    """gamma_x = unit circle centered at c(x): average is c(x), surrounds c(x).
    Axes after the first move the centre along the second coordinate."""

    def __init__(self):
        self.dim_f = 2

    def center(self, x):
        x = np.atleast_1d(x)
        u = 2 * np.pi * x[0]
        return np.array([0.5 * np.sin(u), 0.25 * np.cos(u) + 0.2 * np.sin(2 * np.pi * x[1:]).sum()])

    def eval(self, x, t, s):
        s = np.atleast_1d(np.asarray(s, dtype=float))
        ring = np.stack([np.cos(2 * np.pi * s), np.sin(2 * np.pi * s)], axis=-1)
        return self.center(x) + float(np.clip(t, 0, 1)) * ring


@functools.cache
def exact_family(dim):
    """(g, reparametrised TranslatedCircleFamily) on a periodic grid of 16
    cells along x0 (and 4 along x1); g turns once about the loop's centre
    along x0 and its distance from it follows x1."""
    fam = TranslatedCircleFamily()

    def g(x):
        u = 2 * np.pi * x[0]
        r = 0.08 + 0.03 * np.sin(2 * np.pi * x[1:]).sum()
        return fam.center(x) + r * np.array([np.cos(u), np.sin(u)])

    grid = box_grid([0.0] * dim, [1.0] * dim, [16, 4][:dim], periodic=(True,) * dim)
    return g, reparametrize_family(fam, g, grid)


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

    @settings(max_examples=25, deadline=None)
    @given(x=st.lists(st.floats(0.0, 1.0), min_size=2, max_size=2))
    def test_average_exact_off_grid(self, x):
        # on a 1-D and a 2-D periodic grid; the weights move with x as the
        # target turns about the loop's centre and changes its distance
        for dim in (1, 2):
            g, fam = exact_family(dim)
            xd = np.array(x[:dim])
            assert np.linalg.norm(fam.average_at(xd, 1.0) - g(xd)) <= 1e-8

    def test_coarse_grid_raises_at_build(self):
        # the target turns half a revolution per cell, so a node's
        # certificate no longer surrounds the target at the neighbouring nodes
        fam = TranslatedCircleFamily()
        g = lambda x: fam.center(x) + 0.8 * np.array([np.cos(4 * np.pi * x[0]), np.sin(4 * np.pi * x[0])])
        grid = box_grid([0.0], [1.0], [4], periodic=(True,))
        with pytest.raises(NoConvergence) as info:
            reparametrize_family(fam, g, grid)
        w = info.value.best_value
        assert w.min() < reparam.WEIGHT_FLOOR and abs(float(w.sum()) - 1.0) <= 1e-12
        assert any(f"centres of node {x} at neighbour" in str(info.value) for x in grid.nodes())

    def test_direct_and_substitution_agree(self):
        fam = TranslatedCircleFamily()
        g = lambda x: fam.center(x) + np.array([0.12, -0.08])
        out = reparametrize_family(fam, g, self.grid())
        x = np.array([0.375])
        direct = average(out.loop_at(x, 1.0), 262144)
        fast = out.average_at(x, 1.0)
        assert np.linalg.norm(direct - fast) <= 1e-6


def sup_norms_oracle(job, points, t_values):
    """corrugation.sup_norms with the family sampled at the phase nodes and
    asked for its own mean, at x and at every shifted point."""
    s = np.linspace(0.0, 1.0, corrugation._FRAC_M + 1)
    fam = job.family
    c_corr = c_rem = 0.0
    for x in points:
        x = np.atleast_1d(np.asarray(x, dtype=float))
        for t in t_values:

            def stacked(z, t=t):
                return np.vstack([fam.eval(z, t, s), fam.average_at(z, t, M=corrugation._AVG_M)])

            here = stacked(x)
            d = fd_jacobian(stacked, x)
            c_corr = max(c_corr, corrugation._phase_max(here[:-1], here[-1], s))
            c_rem = max(c_rem, corrugation._phase_max(d[:-1], d[-1], s))
    return c_corr / job.N, c_rem / job.N


class TestSupNormsMean:
    """The 1/N bound takes each family's mean as the family defines it: a
    reparametrised or blended mean is not the Simpson mean of its samples."""

    def family(self, kind):
        if kind == "inherited":
            return TranslatedCircleFamily()
        if kind == "reparametrised":
            return exact_family(1)[1]
        return loops.BlendedFamily(
            beta=lambda x: np.array([0.3, -0.1]) + 0.2 * np.atleast_1d(x)[0],
            family=TranslatedCircleFamily(),
            chi=lambda x: 0.5 + 0.3 * np.sin(2 * np.pi * np.atleast_1d(x)[0]),
        )

    @pytest.mark.parametrize("kind", ["inherited", "reparametrised", "blended"])
    def test_matches_sample_and_mean_oracle(self, kind):
        job = CorrugationJob(DualPair([1.0], [1.0]), 1.0, self.family(kind))
        pts = [np.array([a]) for a in (0.1, 0.37, 0.8)]
        got = sup_norms(job, pts, [0.5, 1.0])
        assert np.array_equal(got, sup_norms_oracle(job, pts, [0.5, 1.0]))
