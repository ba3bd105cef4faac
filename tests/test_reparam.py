import functools

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from ample import corrugation, loops, reparam
from ample.corrugation import CorrugationJob, sup_norms
from ample.errors import NoConvergence, NotSurrounded
from ample.grids import box_grid
from ample.jets import DualPair, fd_jacobian
from ample.loops import Loop, average
from ample.reparam import CircleReparam, DeltaMollifier, adjust_weights, reparametrize_family
from ample.smooth import quad_integral


def circle_loop(center=(0.0, 0.0), radius=1.0):
    c = np.asarray(center, dtype=float)

    def fn(s):
        s = np.atleast_1d(s)
        return c + radius * np.stack([np.cos(2 * np.pi * s), np.sin(2 * np.pi * s)], axis=-1)

    return Loop(fn)


def subst_average(loop, density, M=32768):
    """average(gamma . phi) through the exact change of variables, with
    density the unit-mass density of phi^-1."""
    u = np.linspace(0.0, 1.0, M + 1)
    w = np.ones(M + 1)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    vals = loop(u) * density(u)[:, None]
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


def mixed_density(weights, centers, eta=reparam._ETA):
    """The density sum_i w_i m_i, the m_i unit-mass mollifiers of half-width
    eta at any centres."""
    w = np.asarray(weights, dtype=float)
    ms = [DeltaMollifier(c, eta) for c in centers]
    return lambda s: np.tensordot(w, np.stack([m(s) for m in ms]), axes=1)


FLOOR = 1e-3  # uniform mass that keeps a few sparse supports' density positive


def mixed_reparam(weights, centers, eta=reparam._ETA):
    """CircleReparam of the density (FLOOR + sum_i w_i m_i) / (1 + FLOOR):
    the floor makes phi^-1 invertible between sparse supports."""
    density = mixed_density(weights, centers, eta)
    return CircleReparam(lambda s: (FLOOR + density(s)) / (1.0 + FLOOR), eta)


class StoredGridReparam(CircleReparam):
    """CircleReparam with its table nodes t_i = i / n stored beside psi and
    read from there: the reference that the map computing t_i when read must
    match bit for bit."""

    def __init__(self, density, feature):
        super().__init__(density, feature)
        self._t = np.arange(self._n + 1) / self._n

    def psi(self, t):
        t = np.asarray(t, dtype=float)
        k = np.floor(t)
        r = t - k
        idx = np.minimum((r * self._n).astype(int), self._n - 1)
        t0 = self._t[idx]
        dt = r - t0
        m1 = t0 + dt * (0.5 - 0.5 / np.sqrt(3.0))
        m2 = t0 + dt * (0.5 + 0.5 / np.sqrt(3.0))
        loc = 0.5 * dt * (np.asarray(self.density(m1), dtype=float) + np.asarray(self.density(m2), dtype=float)) / self.total
        return k + self._psi[idx] + loc

    def phi(self, s):
        s = np.asarray(s, dtype=float)
        k = np.floor(s)
        r = s - k
        t = np.interp(r, self._psi, self._t)
        for _ in range(3):
            res = self.psi(t) - r
            t = np.clip(t - res / self.density_normalized(t), 0.0, 1.0)
        return k + t


class TestReparamFromWeights:
    def test_single_center_concentrates(self):
        lp = circle_loop()
        eta = 0.05
        avg = subst_average(lp, mixed_density([1.0], [0.0], eta=eta))
        # all the mass sits within eta of s = 0
        assert np.linalg.norm(avg - lp(np.array([0.0]))[0]) <= 4.0 * eta**2

    def test_uniform_quarters_average_zero(self):
        lp = circle_loop()
        density = mixed_density(np.full(4, 0.25), [0.0, 0.25, 0.5, 0.75])
        assert np.linalg.norm(subst_average(lp, density)) <= 1e-12  # symmetry

    def test_phi_fixes_origin_and_degree(self):
        rp = mixed_reparam([0.5, 0.3, 0.2], [0.1, 0.45, 0.8])
        assert abs(float(rp.phi(0.0))) <= 1e-12
        assert abs(float(rp.phi(1.25) - rp.phi(0.25)) - 1.0) <= 1e-9
        ph = rp.phi(np.linspace(0, 1, 4001))
        assert np.all(np.diff(ph) > 0)

    def test_degenerate_weights(self):
        # a weight of 1e-6 still gives a strictly increasing phi that spends
        # almost no time near its centre
        rp = mixed_reparam([1e-6, 1.0 - 1e-6], [0.1, 0.6], eta=1.0 / 256)
        ph = rp.phi(np.linspace(0, 1, 4001))
        assert np.all(np.diff(ph) > 0)
        assert np.linalg.norm(subst_average(circle_loop(), rp.density_normalized) - circle_loop()(0.6)[0]) <= 2e-3
        # coincident centres span no hull: a target off their common dot is
        # refused, with the weights reached summing to 1
        with pytest.raises(NoConvergence) as info:
            adjust_weights(circle_loop(), [0.0, 0.0], [0.3, 0.3])
        w = info.value.best_value
        assert w.min() >= 0 and abs(float(w.sum()) - 1.0) <= 1e-12 and info.value.best_residual > 0.5

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), alpha=st.floats(0.05, 20.0))
    def test_mix_density_is_the_overlapping_sum(self, seed, alpha):
        # the two bracketing centres' density against the sum over every
        # mollifier; it is a unit-mass density bounded below by its weights
        w = np.random.default_rng(seed).dirichlet(np.full(64, alpha))
        s = np.concatenate([np.linspace(-1.0, 2.0, 30001), (np.arange(64) + 0.5) / 64, np.arange(64) / 64])
        rows = np.stack([DeltaMollifier(c, reparam._ETA)(s) for c in reparam._CENTERS])
        want = w @ rows
        density = reparam._mix_density(w)
        got = density(s)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(want)
        # the panels of each mollifier's unit-mass normalisation (4096 over its support)
        assert abs(float(quad_integral(density, 0.0, 1.0, 2048 * 64)) - 1.0) <= 1e-12
        peak = float(DeltaMollifier(0.0, reparam._ETA)(0.0))
        assert np.all(got >= 0.5 * w.min() * peak)


class TestTableNodes:
    @settings(max_examples=20, deadline=None)
    @given(
        fixed=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
        k=st.integers(1, 6),
        eta=st.floats(1e-3, 0.2),
        s=st.lists(st.floats(-2.0, 3.0), min_size=1, max_size=50),
    )
    @example(fixed=True, seed=0, k=1, eta=0.1, s=[-2.0, -1.0, 0.0, 0.5, 1.0, 1.0 - 1e-16, 3.0])
    def test_match_stored_grid(self, fixed, seed, k, eta, s):
        # the fixed centres' density, or k random centres of half-width eta
        rng = np.random.default_rng(seed)
        if fixed:
            got = CircleReparam(reparam._mix_density(rng.dirichlet(np.ones(64))), reparam._ETA)
        else:
            got = mixed_reparam(rng.dirichlet(np.ones(k)), rng.uniform(0.0, 1.0, k), eta)
        want = StoredGridReparam(got.density, reparam._ETA if fixed else eta)
        s = np.array(s)
        assert np.array_equal(got.phi(s), want.phi(s))
        assert np.array_equal(got.psi(s), want.psi(s))


def assert_feasible(lp, g, centers, w):
    """w is positive, sums to 1 and reparametrises lp to average g."""
    assert w.min() > 0
    assert abs(float(w.sum()) - 1.0) <= 1e-12
    assert np.linalg.norm(subst_average(lp, mixed_density(w, centers)) - g) <= 1e-8


def affine_weights(lp, g, centers):
    """The weights of d + 1 centres from the affine system of the average:
    w @ a = g and sum(w) = 1."""
    a = reparam._mollifier_dots(lp, centers)
    J = np.vstack([a.T, np.ones(len(centers))])
    return np.linalg.solve(J, np.append(np.asarray(g), 1.0))


class TestAdjustWeights:
    def test_constant_loop_feasible(self):
        g = np.array([1.5, -0.5])
        lp = Loop(lambda s: np.tile(g, (len(np.atleast_1d(s)), 1)))
        centers = [0.0, 0.33, 0.71]
        assert_feasible(lp, g, centers, adjust_weights(lp, g, centers)[0])

    def test_circle_quarters(self):
        lp = circle_loop()
        w, avg = adjust_weights(lp, [0.0, 0.0], [0.0, 0.25, 0.5, 0.75])
        got = subst_average(lp, mixed_density(w, [0.0, 0.25, 0.5, 0.75]))
        assert np.linalg.norm(got) <= 1e-8
        # the average returned with the weights is the one they give
        assert np.linalg.norm(avg - got) <= 1e-8

    @settings(max_examples=25, deadline=None)
    @given(radius=st.floats(0.0, 0.998), angle=st.floats(0.0, 1.0))
    @example(radius=np.hypot(0.2, -0.1), angle=np.arctan2(-0.1, 0.2) / (2 * np.pi) + 1.0)
    # just inside the chord of the 64 samples at angle 0 and 1/64: the
    # mollified dots no longer surround g, so no positive weights exist
    @example(radius=np.cos(np.pi / 64) - 1e-6, angle=1.0 / 128)
    def test_offcenter_target(self, radius, angle):
        lp = circle_loop()
        g = radius * np.array([np.cos(2 * np.pi * angle), np.sin(2 * np.pi * angle)])
        centers, _coords, _ = loops.surround_certificate(lp, g, M=64)
        try:
            w, _ = adjust_weights(lp, g, centers)
        except NoConvergence as err:
            # the weights reached lie on the simplex, and no positive ones
            # exist: the affine solve of the d + 1 centres has a negative weight
            w = err.best_value
            assert w.min() >= 0 and abs(float(w.sum()) - 1.0) <= 1e-12
            assert err.best_residual > reparam._SOLVE_TOL
            assert affine_weights(lp, g, centers).min() < 0
            return
        assert_feasible(lp, g, centers, w)

    def test_infeasible_target(self):
        lp = circle_loop()
        with pytest.raises(NoConvergence) as info:
            adjust_weights(lp, [5.0, 0.0], [0.0, 0.25, 0.5, 0.75])
        w = info.value.best_value
        assert w.min() >= 0 and abs(float(w.sum()) - 1.0) <= 1e-12 and info.value.best_residual > 3.0

    def test_jacobian_matches_finite_differences(self):
        # the average is affine in the weights; compare the solver's linear
        # model against finite differences along simplex directions
        lp = circle_loop(center=(0.3, 0.1))
        centers = np.array([0.05, 0.3, 0.62])
        a = reparam._mollifier_dots(lp, centers)

        def avg_of(w):
            return subst_average(lp, mixed_density(w, centers))

        h = 1e-4
        w0 = np.array([0.5, 0.25, 0.25])
        for i, j in [(0, 1), (1, 2)]:
            d = np.zeros(3)
            d[i], d[j] = 1.0, -1.0
            fd = (avg_of(w0 + h * d) - avg_of(w0 - h * d)) / (2 * h)
            model = a[i] - a[j]
            assert np.linalg.norm(fd - model) <= 0.05 * (1.0 + np.linalg.norm(model))

    def test_average_stays_in_hull(self):
        from scipy.optimize import nnls

        lp = circle_loop()
        g = np.array([0.1, 0.25])
        centers, _coords, _ = loops.surround_certificate(lp, g, M=64)
        w, _ = adjust_weights(lp, g, centers)
        avg = subst_average(lp, mixed_density(w, centers))
        samples = lp(np.arange(64) / 64)
        # oracle: nonnegative weights on the samples summing to 1 that hit avg
        # (the affine row is scaled like the coordinate rows)
        scale = 1.0 + np.linalg.norm(avg)
        A = np.vstack([samples.T, np.full(len(samples), scale)])
        _, rnorm = nnls(A, np.append(avg, scale))
        assert rnorm <= 1e-9 * scale

    @settings(max_examples=40, deadline=None)
    @given(dim=st.sampled_from([1, 2, 3]), data=st.data())
    def test_simplex_weights_match_affine_solve(self, dim, data):
        # with d + 1 centres the affine system has one solution, and the
        # max-entropy weights must be it
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        shift = rng.normal(size=dim)
        waves = lambda s: np.stack([np.cos(2 * np.pi * s), np.sin(2 * np.pi * s), np.sin(4 * np.pi * s)], axis=1)
        lp = Loop(lambda s: shift + waves(s)[:, :dim])
        centers = np.sort(rng.uniform(0.0, 1.0, dim + 1))
        a = reparam._mollifier_dots(lp, centers)
        # an average residual of at most 1e-8 bounds the weight error by
        # 1e-8 over the smallest singular value of the affine system
        sigma = np.linalg.svd(np.vstack([a.T, np.ones(dim + 1)]), compute_uv=False)[-1]
        assume(sigma > 1e-2)
        want = rng.dirichlet(np.ones(dim + 1))
        g = want @ a
        w, _ = adjust_weights(lp, g, centers)
        assert np.max(np.abs(w - affine_weights(lp, g, centers))) <= 2e-8 / sigma
        assert np.max(np.abs(w - want)) <= 2e-8 / sigma


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
        # the target runs outside the loop (radius 1.2 about its centre), so
        # the first node's certificate refuses it and the error names the node
        fam = TranslatedCircleFamily()
        g = lambda x: fam.center(x) + 1.2 * np.array([np.cos(4 * np.pi * x[0]), np.sin(4 * np.pi * x[0])])
        grid = box_grid([0.0], [1.0], [4], periodic=(True,))
        with pytest.raises(NotSurrounded, match=r"^node \[0\.\]: "):
            reparametrize_family(fam, g, grid)

    def test_weight_solve_checked_at_build(self):
        # inside the chord of the 64 samples at angle 0 and 1/64 from the
        # fourth node on: the samples surround g, the mollified dots do not
        fam = TranslatedCircleFamily()
        r = np.cos(np.pi / 64) - 1e-6
        grid = box_grid([0.0], [1.0], [8], periodic=(True,))
        chord = r * np.array([np.cos(np.pi / 64), np.sin(np.pi / 64)])
        g = lambda x: fam.center(x) + (0.0 if x[0] < 0.375 else 1.0) * chord
        with pytest.raises(NoConvergence, match=r"^node \[0\.375\]: ") as info:
            reparametrize_family(fam, g, grid)
        w = info.value.best_value
        assert w.min() >= 0 and abs(float(w.sum()) - 1.0) <= 1e-12
        assert info.value.best_residual > reparam._SOLVE_TOL

    def test_build_solves_each_node_once(self, monkeypatch):
        # every weight solve goes through adjust_weights, and the build's
        # solve at a node is the entry its reads use; the reads equal those
        # of a family that solves each point when first read
        fam = TranslatedCircleFamily()
        g = lambda x: fam.center(x) + 0.1 * np.array([np.cos(2 * np.pi * x[0]), np.sin(2 * np.pi * x[0])])
        counts = {"adjust_weights": 0, "_max_entropy_weights": 0}
        for name in counts:

            def counted(*args, _fn=getattr(reparam, name), _name=name):
                counts[_name] += 1
                return _fn(*args)

            monkeypatch.setattr(reparam, name, counted)
        grid = self.grid()
        nodes = list(grid.nodes())
        built = reparametrize_family(fam, g, grid)
        node_avgs = [built.average_at(x, 1.0) for x in nodes]
        assert counts == {"adjust_weights": len(nodes), "_max_entropy_weights": len(nodes)}
        lazy = reparam.ReparametrizedFamily(fam, g)
        for x, avg in zip(nodes, node_avgs):
            assert np.array_equal(avg, lazy.average_at(x, 1.0))
        x, s = np.array([0.3]), np.linspace(0.0, 1.0, 17)
        assert np.array_equal(built.eval(x, 0.7, s), lazy.eval(x, 0.7, s))
        assert np.array_equal(built.integral_over(x, 0.7, 0.1, 0.63), lazy.integral_over(x, 0.7, 0.1, 0.63))

    def test_direct_and_substitution_agree(self):
        fam = TranslatedCircleFamily()
        g = lambda x: fam.center(x) + np.array([0.12, -0.08])
        out = reparametrize_family(fam, g, self.grid())
        x = np.array([0.375])
        direct = average(out.loop_at(x, 1.0), 262144)
        fast = out.average_at(x, 1.0)
        assert np.linalg.norm(direct - fast) <= 1e-6


class EllipseCircleFamily(loops.LoopFamily):
    """gamma_x^t(s) = c(x) + (1, 0) + t ((cos 2 pi s, sin 2 pi s) - (1, 0)):
    the t=1 loop is the unit circle about c(x) = (ax cos 2 pi x, ay sin 2 pi x)."""

    dim_f = 2

    def __init__(self, ax, ay):
        self.ax, self.ay = ax, ay

    def center(self, x):
        u = 2 * np.pi * float(np.atleast_1d(x)[0])
        return np.array([self.ax * np.cos(u), self.ay * np.sin(u)])

    def eval(self, x, t, s):
        s = np.atleast_1d(np.asarray(s, dtype=float))
        ring = np.stack([np.cos(2 * np.pi * s) - 1.0, np.sin(2 * np.pi * s)], axis=-1)
        return self.center(x) + np.array([1.0, 0.0]) + t * ring


class TestTurningTargets:
    """Circles whose centre moves on an ellipse, with targets turning once
    about the centre, on periodic grids (the benchmark's reparam inputs)."""

    @settings(max_examples=10, deadline=None)
    @given(
        ax=st.floats(0.2, 0.4),
        ay=st.floats(0.1, 0.3),
        amplitude=st.floats(0.18, 0.22),
        phase=st.floats(0.0, 2 * np.pi),
        turns=st.sampled_from([1, -1]),
        cells=st.just(32),
        cell=st.integers(0, 7),
        offset=st.floats(0.05, 0.95),
    )
    # the drawn inputs of benchmark seed 12
    @example(
        ax=0.25016489162168926, ay=0.2893505885718849, amplitude=0.18757281538159046,
        phase=1.1265211556425585, turns=1, cells=32, cell=3, offset=0.5,
    )
    # TranslatedCircleFamily with a target of radius r turning once about the
    # centre, read at x' = 1/4 - x: r = 0.1 on 8 cells and r = 0.2 on 16 cells
    @example(ax=0.5, ay=0.25, amplitude=0.1, phase=np.pi / 2, turns=-1, cells=8, cell=2, offset=0.3)
    @example(ax=0.5, ay=0.25, amplitude=0.2, phase=np.pi / 2, turns=-1, cells=16, cell=5, offset=0.7)
    def test_build_and_average_off_nodes(self, ax, ay, amplitude, phase, turns, cells, cell, offset):
        fam = EllipseCircleFamily(ax, ay)

        def g(x):
            u = turns * 2 * np.pi * float(np.atleast_1d(x)[0]) + phase
            return fam.center(x) + amplitude * np.array([np.cos(u), np.sin(u)])

        out = reparametrize_family(fam, g, box_grid([0.0], [1.0], [cells], periodic=(True,)))
        x = np.array([(cell * (cells // 8) + offset) / cells])
        assert np.linalg.norm(out.average_at(x, 1.0) - g(x)) <= 1e-8
        assert np.linalg.norm(average(out.loop_at(x, 1.0), 262144) - g(x)) <= 1e-6


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
