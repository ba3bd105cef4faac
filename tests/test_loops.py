from collections import Counter

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from ample import convexity, loops
from ample.errors import NotSurrounded
from ample.grids import GridRegion
from ample.loops import (
    Loop,
    PatchFamily,
    RoundTripFamily,
    average,
    surround_certificate,
    surrounding_loop_at,
)


def circle_loop(center=(0.0, 0.0), radius=1.0):
    c = np.asarray(center, dtype=float)

    def fn(s):
        s = np.atleast_1d(s)
        return c + radius * np.stack([np.cos(2 * np.pi * s), np.sin(2 * np.pi * s)], axis=-1)

    return Loop(fn)


class TestAverage:
    def test_constant(self):
        c = np.array([2.0, -1.0])
        assert np.allclose(average(Loop(lambda s: np.tile(c, (len(np.atleast_1d(s)), 1))), 16), c)

    def test_circle_closed_form(self):
        # oracle: the exact integral of (cos, sin) over a period vanishes
        assert np.linalg.norm(average(circle_loop(), 64)) <= 1e-12

    def test_shifted_circle(self):
        c = np.array([0.7, -0.3])
        assert np.linalg.norm(average(circle_loop(center=c), 64) - c) <= 1e-12

    def test_linearity(self):
        g1 = circle_loop()
        g2 = circle_loop(center=(1.0, 2.0), radius=0.5)
        a, b = 2.5, -1.25
        mix = Loop(lambda s: a * g1(s) + b * g2(s))
        lhs = average(mix, 128)
        rhs = a * average(g1, 128) + b * average(g2, 128)
        assert np.linalg.norm(lhs - rhs) <= 1e-12

    def test_rejects_odd_panels(self):
        with pytest.raises(ValueError):
            average(circle_loop(), 7)


class TestRoundTrip:
    def test_t_zero_constant(self):
        fam = RoundTripFamily([1.0, 2.0], [[3.0, 4.0]])
        vals = fam.eval(None, 0.0, np.linspace(0, 1, 33))
        assert np.allclose(vals, [1.0, 2.0], atol=1e-12)

    def test_base_point_all_t(self):
        fam = RoundTripFamily([0.5, 0.5], [[1.0, 0.0], [0.0, 1.0]])
        for t in (0.0, 0.3, 1.0):
            assert np.allclose(fam.eval(None, t, np.array([0.0]))[0], [0.5, 0.5], atol=1e-12)

    def test_waypoints_visited(self):
        # oracle: membership of each waypoint among dense samples
        wps = [np.array([1.0, 0.0]), np.array([1.0, 1.0]), np.array([-0.5, 0.5])]
        fam = RoundTripFamily([0.0, 0.0], wps)
        vals = fam.eval(None, 1.0, np.arange(512) / 512)
        for w in wps:
            assert np.min(np.linalg.norm(vals - w, axis=1)) <= 1e-6

    def test_periodicity(self):
        fam = RoundTripFamily([0.0, 0.0], [[1.0, 0.0], [0.0, 1.0]])
        rng = np.random.default_rng(0)
        s = rng.uniform(-2, 2, size=64)
        a = fam.eval(None, 0.8, s)
        b = fam.eval(None, 0.8, s + 1.0)
        assert np.max(np.linalg.norm(a - b, axis=1)) <= 1e-10


def count_calls(monkeypatch):
    """Record the arguments of every subset scan and every flood fill."""
    scans, fills = [], []
    scan, fill = convexity.surrounds, convexity.flood_fill_component
    monkeypatch.setattr(convexity, "surrounds", lambda *args: scans.append(args) or scan(*args))
    monkeypatch.setattr(
        convexity, "flood_fill_component", lambda *args, **kwargs: fills.append(args) or fill(*args, **kwargs)
    )
    return scans, fills


class TestSurroundingLoopAt:
    def test_full_plane(self):
        res = surrounding_loop_at(
            lambda w: True, [0.0, 0.0], [0.0, 0.0], ([-2.0, -2.0], [2.0, 2.0]), 0.5
        )
        idx, coords = convexity.surrounds(res.basis_points, [0.0, 0.0], 1e-6)
        assert coords.min() > 0

    def test_ball_avoiding_origin(self):
        omega = lambda w: np.linalg.norm(w) < 2.0
        res = surrounding_loop_at(omega, [1.0, 0.0], [0.0, 0.0], ([-2.0, -2.0], [2.0, 2.0]), 0.25)
        vals = res.family.eval(None, 1.0, np.arange(256) / 256)
        assert all(omega(v) for v in vals)
        # oracle: barycentric coordinates of the returned basis, by one solve
        pts = res.basis_points
        assert np.linalg.solve(np.vstack([pts.T, np.ones(len(pts))]), [0.0, 0.0, 1.0]).min() >= 1e-6

    def test_target_outside_hull(self, monkeypatch):
        scans, fills = count_calls(monkeypatch)
        asked = Counter()

        def omega(w):
            asked[w.tobytes()] += 1
            return w[1] > 0

        with pytest.raises(NotSurrounded, match=r"h=0\.03125: target outside the hull of the component's \d+ nodes"):
            surrounding_loop_at(omega, [0.0, 1.0], [0.0, -1.0], ([-2.0, -2.0], [2.0, 2.0]), 0.25)
        # the hull refuses at every h level without a subset scan
        assert len(scans) == 0
        assert len(fills) == loops._MAX_H_HALVINGS + 1
        # each finer fill reads the coarser fill's answers: the seed [0, 1]
        # and every other grid point are asked once across the four fills,
        # and together they ask the 129 x 65 nodes with y >= 0 at h = 1/32
        assert max(asked.values()) == 1
        assert len(asked) == 129 * 65

    def test_target_on_the_hull_is_scanned(self, monkeypatch):
        scans, fills = count_calls(monkeypatch)
        # the component's nodes have y >= 0, and g sits on its bottom edge
        omega = lambda w: w[1] > -1e-12
        with pytest.raises(NotSurrounded, match=r"h=0\.03125: no certified affine basis$"):
            surrounding_loop_at(omega, [0.0, 1.0], [0.3, 0.0], ([-2.0, -2.0], [2.0, 2.0]), 0.25)
        assert len(scans) == len(fills) == loops._MAX_H_HALVINGS + 1

    def test_loop_leaving_omega_is_named(self):
        # only the lattice of the finest grid is in omega: every node is, the
        # round trip between nodes is not
        omega = lambda w: bool(np.all(np.abs(32.0 * w - np.round(32.0 * w)) < 1e-9))
        with pytest.raises(NotSurrounded, match=r"h=0\.03125: loop samples left omega$"):
            surrounding_loop_at(omega, [1.0, 0.0], [0.0, 0.0], ([-2.0, -2.0], [2.0, 2.0]), 0.25)


def no_weights(x):
    return np.empty(0)


def translated(model, beta, x0):
    """One model loop carried over a neighbourhood by translating its base
    point: a one-slot PatchFamily with offset beta(x0)."""
    return PatchFamily([model], [beta(x0)], beta, no_weights)


class TestTranslate:
    def make_result(self):
        return surrounding_loop_at(
            lambda w: True, [1.0, 0.0], [0.0, 0.0], ([-3.0, -3.0], [3.0, 3.0]), 0.5
        )

    def test_zero_translation_identity(self):
        res = self.make_result()
        fam = translated(res.family, lambda x: np.array([1.0, 0.0]), np.array([0.0]))
        s = np.linspace(0, 1, 17)
        assert np.allclose(fam.eval(np.array([0.7]), 1.0, s), res.family.eval(None, 1.0, s))

    def test_base_point_follows_beta(self):
        res = self.make_result()
        beta = lambda x: np.array([1.0 + 0.2 * x[0], 0.1 * x[0]])
        fam = translated(res.family, beta, np.array([0.0]))
        x = np.array([0.5])
        assert np.allclose(fam.eval(x, 0.6, np.array([0.0]))[0], beta(x), atol=1e-12)

    def test_surround_persists_nearby(self):
        res = self.make_result()
        beta = lambda x: np.array([1.0 + 0.05 * x[0], 0.05 * x[0]])
        fam = translated(res.family, beta, np.array([0.0]))
        for xv in (-0.5, 0.25, 0.9):
            loop = fam.loop_at(np.array([xv]), 1.0)
            s, coords, pts = surround_certificate(loop, [0.0, 0.0], M=64)
            assert coords.min() > 0


BASE = np.array([1.0, 0.0])


def make_pair_of_families():
    g0 = surrounding_loop_at(
        lambda w: True, BASE, [0.0, 0.0], ([-3.0, -3.0], [3.0, 3.0]), 0.5
    ).family
    wps = [np.array([2.0, 1.0]), np.array([-1.5, 1.5]), np.array([-1.0, -2.0])]
    g1 = RoundTripFamily(BASE, wps)
    return g0, g1


def glued(families, weights):
    """Families based at BASE glued by satisfied-or-refund with the given
    weights: zero offsets from a constant base, so no translation."""
    return PatchFamily(families, [BASE] * len(families), lambda x: BASE, weights)


def refund(g0, g1, tau):
    """delta(tau) of two families based at BASE."""
    return glued([g0, g1], lambda x: np.array([tau]))


def rho_refund(u):
    return min(max(2.0 * (1.0 - u), 0.0), 1.0)


class NestedRefund(loops.LoopFamily):
    """The paper's nested construction, kept as the oracle: delta(tau) runs
    gamma0 on [0, 1 - tau] and gamma1 on [1 - tau, 1], each time-rescaled,
    with the homotopy grade damped so the vanishing slot degenerates to the
    constant base loop."""

    def __init__(self, gamma0, gamma1, tau):
        self.gamma0 = gamma0
        self.gamma1 = gamma1
        self.tau = tau
        self.dim_f = gamma0.dim_f

    def eval(self, x, t, s):
        tau = self.tau
        s = np.mod(np.atleast_1d(np.asarray(s, dtype=float)), 1.0)
        if tau <= 0.0:
            return self.gamma0.eval(x, t, s)
        if tau >= 1.0:
            return self.gamma1.eval(x, t, s)
        cut = 1.0 - tau
        left = s <= cut
        out = np.empty((len(s), self.dim_f))
        if left.any():
            out[left] = self.gamma0.eval(x, rho_refund(tau) * t, s[left] / cut)
        if (~left).any():
            out[~left] = self.gamma1.eval(x, rho_refund(1.0 - tau) * t, (s[~left] - cut) / tau)
        return out


class TestSatisfiedOrRefund:
    def test_endpoints(self):
        g0, g1 = make_pair_of_families()
        s = np.linspace(0, 1, 33)
        for t in (0.0, 0.5, 1.0):
            assert np.max(np.abs(refund(g0, g1, 0.0).eval(None, t, s) - g0.eval(None, t, s))) <= 1e-9
            assert np.max(np.abs(refund(g0, g1, 1.0).eval(None, t, s) - g1.eval(None, t, s))) <= 1e-9

    def test_half_time_contains_both_images(self):
        # oracle: at tau = 1/2 the t=1 loop runs both inputs, rescaled by 2
        g0, g1 = make_pair_of_families()
        fine = refund(g0, g1, 0.5).eval(None, 1.0, np.arange(1024) / 1024)
        for g in (g0, g1):
            targets = g.eval(None, 1.0, np.arange(64) / 64)
            for v in targets:
                assert np.min(np.linalg.norm(fine - v, axis=1)) <= 1e-6

    def test_surrounds_at_every_tau(self):
        g0, g1 = make_pair_of_families()
        for tau in np.linspace(0, 1, 9):
            loop = refund(g0, g1, tau).loop_at(None, 1.0)
            _, coords, _ = surround_certificate(loop, [0.0, 0.0], M=128)
            assert coords.min() > 0

    def test_base_point_preserved(self):
        g0, g1 = make_pair_of_families()
        for tau in (0.2, 0.5, 0.9):
            delta = refund(g0, g1, tau)
            for t in (0.0, 0.4, 1.0):
                v = delta.eval(None, t, np.array([0.0]))[0]
                assert np.allclose(v, BASE, atol=1e-9)
            v0 = delta.eval(None, 0.0, np.linspace(0, 1, 17))
            assert np.allclose(v0, BASE, atol=1e-9)


class TestGlue:
    def test_cutoff_steering(self):
        g0, g1 = make_pair_of_families()
        fam = glued([g0, g1], lambda x: np.clip(x[:1], 0.0, 1.0))
        s = np.linspace(0, 1, 33)
        assert np.allclose(fam.eval(np.array([0.0]), 1.0, s), g0.eval(None, 1.0, s), atol=1e-12)
        assert np.allclose(fam.eval(np.array([1.0]), 1.0, s), g1.eval(None, 1.0, s), atol=1e-12)

    def test_overlap_still_surrounds(self):
        g0, g1 = make_pair_of_families()
        fam = glued([g0, g1], lambda x: np.clip(x[:1], 0.0, 1.0))
        for xv in (0.25, 0.5, 0.75):
            loop = fam.loop_at(np.array([xv]), 1.0)
            _, coords, _ = surround_certificate(loop, [0.0, 0.0], M=128)
            assert coords.min() > 0

    def test_chain_matches_nested(self):
        g0, g1 = make_pair_of_families()
        wps = [np.array([0.0, 2.5]), np.array([-2.0, -0.5]), np.array([2.0, -1.0])]
        g2 = RoundTripFamily(BASE, wps)
        chained = glued([g0, g1, g2], lambda x: np.array([0.4, 0.3]))
        nested = NestedRefund(NestedRefund(g0, g1, 0.4), g2, 0.3)
        s = np.linspace(0, 1, 257)
        for t in (0.3, 1.0):
            a = chained.eval(np.zeros(1), t, s)
            b = nested.eval(np.zeros(1), t, s)
            assert np.max(np.linalg.norm(a - b, axis=1)) <= 1e-12


class TranslatedOracle(loops.LoopFamily):
    """A model loop translated by beta(x) - beta(x0), one beta call per eval."""

    def __init__(self, model, beta, x0):
        self.model = model
        self.beta = beta
        self.beta0 = np.asarray(beta(x0), dtype=float).ravel()
        self.dim_f = model.dim_f

    def eval(self, x, t, s):
        return self.model.eval(None, t, s) + (np.asarray(self.beta(x), dtype=float).ravel() - self.beta0)


class StarOracle(loops.LoopFamily):
    """A star loop riding on beta(x) itself."""

    def __init__(self, star, beta):
        self.star = star
        self.beta = beta
        self.dim_f = star.dim_f

    def eval(self, x, t, s):
        return self.star.eval(None, t, s) + np.asarray(self.beta(x), dtype=float).ravel()


def chain_layout(taus):
    """Widths and refund grades of the glue chain's slots, as the chain
    computed them: slot j has width tau_j prod_{m>j}(1 - tau_m)."""
    k = len(taus)
    widths, grades = np.empty(k + 1), np.empty(k + 1)
    suffix_w = suffix_g = 1.0
    for j in range(k - 1, -1, -1):
        widths[j + 1] = taus[j] * suffix_w
        grades[j + 1] = rho_refund(1.0 - taus[j]) * suffix_g
        suffix_w *= 1.0 - taus[j]
        suffix_g *= rho_refund(taus[j])
    widths[0], grades[0] = suffix_w, suffix_g
    return widths, grades


class ChainOracle(loops.LoopFamily):
    """Families glued one level at a time, each level with its own weight
    closure, flattened into slots."""

    def __init__(self, base, levels):
        self.fams = [base] + [fam for _, fam in levels]
        self.cutoffs = [fn for fn, _ in levels]
        self.dim_f = base.dim_f

    def eval(self, x, t, s):
        s = np.mod(np.atleast_1d(np.asarray(s, dtype=float)), 1.0)
        widths, grades = chain_layout([float(np.clip(fn(x), 0.0, 1.0)) for fn in self.cutoffs])
        bounds = np.cumsum(widths)
        k = len(self.cutoffs)
        idx = np.clip(np.searchsorted(bounds, s, side="right"), 0, k)
        out = np.empty((len(s), self.dim_f))
        for j in range(k + 1):
            sel = idx == j
            if not sel.any():
                continue
            if widths[j] <= 0.0:
                out[sel] = self.fams[j].eval(x, grades[j] * t, np.zeros(int(sel.sum())))
                continue
            a = bounds[j] - widths[j]
            out[sel] = self.fams[j].eval(x, grades[j] * t, (s[sel] - a) / widths[j])
        return out


COORD = st.floats(-2.0, 2.0, allow_nan=False)


@st.composite
def patch_cases(draw):
    n = draw(st.integers(1, 4))
    star = draw(st.booleans())
    models, anchors = [], []
    for _ in range(n):
        base = np.array([draw(COORD), draw(COORD)])
        wps = [np.array([draw(COORD), draw(COORD)]) for _ in range(draw(st.integers(1, 3)))]
        models.append(RoundTripFamily(base, wps))
        anchors.append(np.array([draw(COORD)]))
    taus = np.array(
        [draw(st.one_of(st.sampled_from([0.0, 1.0]), st.floats(-0.5, 1.5, allow_nan=False))) for _ in range(n - 1)]
    )
    widths, _ = chain_layout(list(np.clip(taus, 0.0, 1.0)))
    bounds = np.cumsum(widths)
    free = [draw(st.floats(-1.5, 2.5, allow_nan=False)) for _ in range(draw(st.integers(0, 6)))]
    s = np.concatenate([bounds, np.nextafter(bounds, -np.inf), np.nextafter(bounds, np.inf), [0.0, 1.0], free])
    t = draw(st.sampled_from([0.0, 0.3, 1.0]))
    x = np.array([draw(COORD)])
    return models, anchors, star, taus, s, t, x


class TestPatchFamily:
    @settings(max_examples=120, deadline=None)
    @given(case=patch_cases())
    def test_matches_translated_glue_chain(self, case):
        models, anchors, star, taus, s, t, x = case

        def beta(z):
            return np.array([0.5 + 0.7 * z[0], -0.2 + 1.3 * z[0] * z[0]])

        # the chain: slot 0 is the star or the first translated patch, and
        # every later slot is glued by its own closure
        pieces = [StarOracle(models[0], beta) if star else TranslatedOracle(models[0], beta, anchors[0])]
        pieces += [TranslatedOracle(m, beta, a) for m, a in zip(models[1:], anchors[1:])]
        levels = [(lambda z, _j=j: taus[_j], fam) for j, fam in enumerate(pieces[1:])]
        chain = ChainOracle(pieces[0], levels) if levels else pieces[0]

        calls = {"beta": 0, "weights": 0}

        def counted_beta(z):
            calls["beta"] += 1
            return beta(z)

        def counted_weights(z):
            calls["weights"] += 1
            return taus

        offsets = [beta(a) for a in anchors]
        if star:
            offsets[0] = np.zeros(2)
        fam = PatchFamily(models, offsets, counted_beta, counted_weights)
        for reps, chunk in enumerate((s, s[:1]), start=1):
            assert np.array_equal(fam.eval(x, t, chunk), chain.eval(x, t, chunk))
            assert calls == {"beta": reps, "weights": reps}


class TestRobustSurround:
    def test_perturbed_loop_still_surrounds(self):
        rng = np.random.default_rng(7)
        loop = circle_loop(radius=1.0)
        s_c, coords, pts = surround_certificate(loop, [0.1, -0.05], M=64)
        mu = float(coords.min())
        M = np.vstack([pts.T, np.ones(len(pts))])
        sigma_min = np.linalg.svd(M, compute_uv=False)[-1]
        r = mu * sigma_min / 4.0
        for _ in range(20):
            k = rng.integers(1, 4)
            phase = rng.uniform(0, 2 * np.pi)
            amp = rng.uniform(0, r)
            direction = rng.normal(size=2)
            direction /= np.linalg.norm(direction)

            def pert(s, k=k, phase=phase, amp=amp, d=direction):
                s = np.atleast_1d(s)
                return loop(s) + amp * np.cos(2 * np.pi * k * s + phase)[:, None] * d

            vals = Loop(pert)(s_c)
            w = np.linalg.solve(np.vstack([vals.T, np.ones(len(vals))]), [0.1, -0.05, 1.0])
            assert w.min() > 0


class TestSurroundCertificate:
    def test_square_vertices_one_scan_for_every_floor(self, monkeypatch):
        # the loop sits on the four vertices of a square: its centre is inside
        # their hull, yet every vertex triangle puts it on an edge
        square = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
        loop = Loop(lambda s: square[np.floor(4.0 * np.mod(s, 1.0)).astype(int)])
        scans, _ = count_calls(monkeypatch)
        with pytest.raises(NotSurrounded, match="does not surround"):
            surround_certificate(loop, [0.5, 0.5], M=64)
        assert len(scans) == 1
        assert scans[0][2] == loops._SURROUND_FLOORS

    def test_outside_the_hull_no_scan(self, monkeypatch):
        scans, _ = count_calls(monkeypatch)
        with pytest.raises(NotSurrounded, match="outside the hull"):
            surround_certificate(circle_loop(), [1.5, 0.0], M=64)
        assert len(scans) == 0


def candidate_order_without_refusal(points, target):
    """The candidate order before the hull refusal: hull vertices plus the
    nearest points, sorted by distance to the target."""
    from scipy.spatial import ConvexHull, QhullError

    pts = np.asarray(points, dtype=float)
    n, d = pts.shape
    idx = set()
    if n > d + 1 and d >= 2:
        try:
            idx.update(int(i) for i in ConvexHull(pts).vertices)
        except QhullError:
            pass
    dists = np.linalg.norm(pts - np.asarray(target, dtype=float), axis=1)
    idx.update(int(i) for i in np.argsort(dists, kind="stable")[: max(loops._CANDIDATE_CAP - len(idx), d + 8)])
    return sorted(idx, key=lambda i: (dists[i], i))[: loops._CANDIDATE_CAP]


@st.composite
def hull_cases(draw):
    d = draw(st.sampled_from([2, 3]))
    n = draw(st.integers(d + 1, {2: 16, 3: 12}[d]))
    pts = draw(arrays(float, (n, d), elements=st.floats(-2.0, 2.0)))
    g = draw(arrays(float, d, elements=st.floats(-3.0, 3.0)))
    return pts, g


UNIT_SQUARE = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0], [0.3, 0.6]])
UNIT_CUBE = np.array([[i, j, k] for i in (0.0, 1.0) for j in (0.0, 1.0) for k in (0.0, 1.0)])


class TestCandidateOrder:
    @settings(max_examples=150, deadline=None)
    @given(case=hull_cases())
    @example(case=(UNIT_SQUARE, np.array([0.5, -1e-8])))  # 1e-8 outside the bottom facet
    @example(case=(UNIT_SQUARE, np.array([0.5, 0.0])))  # on the bottom facet
    @example(case=(UNIT_CUBE, np.array([0.5, 0.5, 1.0 + 1e-8])))
    @example(case=(UNIT_CUBE, np.array([0.25, 0.5, 1.0])))
    def test_refusal_only_where_no_subset_surrounds(self, case):
        pts, g = case
        order = loops._candidate_order(pts, g)
        if not order:
            assert convexity.surrounds(pts, g, loops._SURROUND_FLOORS) is None
        else:
            assert order == candidate_order_without_refusal(pts, g)

    def test_examples_on_both_sides(self):
        # 1e-8 beyond a facet is refused, on the facet is not
        assert loops._candidate_order(UNIT_SQUARE, [0.5, -1e-8]) == []
        assert loops._candidate_order(UNIT_SQUARE, [0.5, 0.0]) != []
        assert loops._candidate_order(UNIT_CUBE, [0.5, 0.5, 1.0 + 1e-8]) == []
        assert loops._candidate_order(UNIT_CUBE, [0.25, 0.5, 1.0]) != []

    def test_collinear_candidates(self):
        # Qhull rejects a flat point set; the nearest points still come back
        pts = np.stack([np.linspace(-1.0, 1.0, 9), 0.5 * np.linspace(-1.0, 1.0, 9)], axis=1)
        target = np.array([0.3, 0.0])
        d = np.linalg.norm(pts - target, axis=1)
        assert loops._candidate_order(pts, target) == sorted(range(9), key=lambda i: (d[i], i))


class TestGridPath:
    @settings(max_examples=80, deadline=None)
    @given(mask=arrays(bool, array_shapes(min_dims=1, max_dims=3, min_side=2, max_side=6)), data=st.data())
    def test_shortest_chain_inside_the_mask(self, mask, data):
        members = np.argwhere(mask)
        assume(len(members) > 0)
        start = tuple(members[data.draw(st.integers(0, len(members) - 1))])
        comp = convexity.flood_fill_component(
            lambda y: bool(mask[tuple(np.round(y).astype(int))]),
            np.array(start, dtype=float),
            (np.zeros(mask.ndim), np.array(mask.shape, dtype=float) - 1.0),
            1.0,
        )
        reachable = np.argwhere(comp.region.mask)
        goal = tuple(reachable[data.draw(st.integers(0, len(reachable) - 1))])

        path = loops._grid_path(comp, np.array(start, dtype=float), np.array(goal, dtype=float))

        idx = [tuple(int(v) for v in np.round(p)) for p in path]
        assert idx[0] == start and idx[-1] == goal
        assert all(mask[i] for i in idx)
        assert all(np.sum(np.abs(np.subtract(a, b))) == 1 for a, b in zip(idx, idx[1:]))
        # oracle: grow the start by one cell at a time inside the mask
        seen = np.zeros(mask.shape, dtype=bool)
        seen[start] = True
        steps = 0
        while not seen[goal]:
            seen = GridRegion(comp.grid, seen).dilate(1).mask & mask
            steps += 1
        assert len(path) - 1 == steps
