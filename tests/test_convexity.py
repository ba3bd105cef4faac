import itertools
import zlib
from collections import Counter

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from ample import convexity
from ample.convexity import flood_fill_component, surrounds
from ample.errors import SeedOutside
from ample.grids import bfs

TRIANGLE = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
SQUARE = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])


def affine_coords(points, q):
    """Barycentric coordinates of q in the affine basis `points` (d + 1 rows)."""
    pts = np.asarray(points, dtype=float)
    return np.linalg.solve(np.vstack([pts.T, np.ones(len(pts))]), np.append(q, 1.0))


class TestBarycentric:
    """`surrounds` returns the barycentric coordinates of the target in the
    basis it certifies."""

    def test_triangle_by_hand(self):
        idx, w = surrounds(TRIANGLE, [0.25, 0.25], 1e-6)
        assert idx == (0, 1, 2)
        assert np.allclose(w, [0.5, 0.25, 0.25], atol=1e-12)

    def test_vertices_are_indicators(self):
        # a vertex has one coordinate 1 and the others 0, so no floor holds;
        # just inside it, its coordinate tends to 1
        for i in range(3):
            assert surrounds(TRIANGLE, TRIANGLE[i], 1e-9) is None
            q = 0.998 * TRIANGLE[i] + 0.001 * (TRIANGLE.sum(axis=0) - TRIANGLE[i])
            _, w = surrounds(TRIANGLE, q, 1e-6)
            e = np.zeros(3)
            e[i] = 1.0
            assert np.allclose(w, 0.998 * e + 0.001 * (1.0 - e), atol=1e-12)

    def test_centroid(self):
        _, w = surrounds(TRIANGLE, TRIANGLE.mean(axis=0), 1e-6)
        assert np.allclose(w, np.full(3, 1.0 / 3.0), atol=1e-12)

    def test_round_trip_random(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            d = int(rng.integers(1, 5))
            pts = rng.normal(size=(d + 1, d))
            if abs(np.linalg.det(np.vstack([pts.T, np.ones(d + 1)]))) <= 1e-3:
                continue
            w = rng.dirichlet(np.ones(d + 1))
            if w.min() < 1e-3:
                continue
            res = surrounds(pts, w @ pts, 1e-6)
            assert res is not None and res[0] == tuple(range(d + 1))
            assert np.linalg.norm(res[1] - w) <= 1e-8

    def test_singular(self):
        # affinely dependent points certify nothing, even on their segment
        pts = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]])
        assert surrounds(pts, [1.0, 1.0], 1e-6) is None


class TestInterior:
    def test_centroid_true(self):
        assert surrounds(TRIANGLE, TRIANGLE.mean(axis=0), 1e-3) is not None

    def test_vertex_false(self):
        assert surrounds(TRIANGLE, TRIANGLE[0], 1e-3) is None

    def test_mu_threshold(self):
        assert surrounds(TRIANGLE, [0.25, 0.25], 0.2) is not None
        assert surrounds(TRIANGLE, [0.25, 0.25], 0.3) is None


FLOORS = (5e-2, 1e-2, 1e-3, 1e-6)


def per_subset_scan(points, v, mu):
    """Reference for `surrounds`: one det and one solve per subset, one pass per
    floor.  Returns (indices, coords, rank of the indices in lexicographic order)."""
    pts = np.asarray(points, dtype=float)
    n, d = pts.shape
    target = np.append(v, 1.0)
    for floor in np.atleast_1d(mu):
        for rank, idx in enumerate(itertools.combinations(range(n), d + 1)):
            M = np.vstack([pts[list(idx)].T, np.ones(d + 1)])
            if abs(np.linalg.det(M)) <= convexity.DET_FLOOR:
                continue
            w = np.linalg.solve(M, target)
            if np.all(w >= floor):
                return idx, w, rank
    return None


def assert_same_answer(got, want):
    assert (got is None) == (want is None)
    if want is not None:
        assert got[0] == want[0]
        assert np.array_equal(got[1], want[1])


@st.composite
def scan_cases(draw):
    """Points and target whose subsets run past one chunk at the largest n."""
    d = draw(st.integers(1, 3))
    n = draw(st.integers(1, {1: 40, 2: 20, 3: 14}[d]))
    pts = draw(arrays(float, (n, d), elements=st.floats(-2.0, 2.0)))
    v = draw(arrays(float, d, elements=st.floats(-1.0, 1.0)))
    if draw(st.booleans()):  # lattice points: repeated, collinear, v on edges
        pts, v = np.round(pts), np.round(v)
    pts[: draw(st.integers(0, n // 2))] = v  # bases with a vertex at v push the first hit later
    return pts, v


# p0 with p1 meets only the 1e-3 floor, p0 with 1000 only 1e-6, both in the first chunk;
# the copies of v meet no floor, and the last pair meets 5e-2
LOWER_FLOOR_FIRST = (np.array([-1.0, 0.005] + [0.0] * 36 + [1000.0, -1000.0])[:, None], np.zeros(1))
# C(20, 3) = 1140 subsets; none of the 776 with a vertex at v (the first six points) hits
PLANE_LATE_HIT = (
    np.vstack([np.zeros((6, 2)), np.random.default_rng(3).normal(size=(14, 2))]),
    np.zeros(2),
)
# both examples first hit past the first chunk, so they exercise the chunk walk
assert all(
    per_subset_scan(*case, mu)[2] >= convexity._SCAN_CHUNK
    for case in (LOWER_FLOOR_FIRST, PLANE_LATE_HIT)
    for mu in (1e-2, FLOORS)
)


class TestSurrounds:
    def test_square_center_not_surrounded(self):
        # the center sits on an edge of every vertex triangle
        assert surrounds(SQUARE, [0.5, 0.5], 1e-6) is None

    def test_triangle_surrounds(self):
        res = surrounds(TRIANGLE, [0.25, 0.25], 0.2)
        assert res is not None
        idx, w = res
        assert idx == (0, 1, 2)
        assert np.allclose(w, [0.5, 0.25, 0.25], atol=1e-12)

    def test_collinear_none(self):
        pts = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0], [3.0, 3.0]])
        assert surrounds(pts, [1.0, 1.0], 1e-6) is None

    def test_certificate_consistency(self):
        rng = np.random.default_rng(1)
        for _ in range(25):
            pts = rng.normal(size=(7, 2))
            v = pts.mean(axis=0)
            res = surrounds(pts, v, 1e-6)
            if res is None:
                continue
            idx, w = res
            assert affine_coords(pts[list(idx)], v).min() >= 1e-6
            assert np.linalg.norm(w @ pts[list(idx)] - v) <= 1e-8

    @settings(max_examples=60, deadline=None)
    @given(case=scan_cases())
    @example(case=LOWER_FLOOR_FIRST)
    @example(case=PLANE_LATE_HIT)
    def test_matches_per_subset_scan(self, case):
        pts, v = case
        for mu in (1e-2, FLOORS):
            assert_same_answer(surrounds(pts, v, mu), per_subset_scan(pts, v, mu))


def brute_force_components(grid_points, member, h):
    """Independent union-find over the grid graph of spacing h."""
    pts = [tuple(np.round(p, 12)) for p in grid_points if member(np.asarray(p))]
    index = {p: i for i, p in enumerate(pts)}
    parent = list(range(len(pts)))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    def union(i, j):
        parent[find(i)] = find(j)

    for i, p in enumerate(pts):
        for dim in range(len(p)):
            q = list(p)
            q[dim] = round(q[dim] + h, 12)
            j = index.get(tuple(q))
            if j is not None:
                union(i, j)
    comps = {}
    for i, p in enumerate(pts):
        comps.setdefault(find(i), set()).add(p)
    return {min(v): v for v in comps.values()}


class TestFloodFill:
    def test_sign_barrier(self):
        comp = flood_fill_component(
            lambda y: abs(y[1]) > 1e-9, seed=[0.0, 1.0], box=([-1.0, -1.0], [1.0, 1.0]), h=0.25
        )
        pts = comp.points()
        assert np.all(pts[:, 1] > 0)
        assert comp.count() == 9 * 4  # 9 x-columns, y in {0.25,...,1.0}

    def test_everything(self):
        comp = flood_fill_component(lambda y: True, seed=[0.0], box=([-1.0], [1.0]), h=0.5)
        assert comp.count() == 5

    def test_line_complement_vs_union_find(self):
        def member(y):
            return abs(y[1] - (0.5 * y[0] + 0.13)) > 1e-9

        comp = flood_fill_component(member, seed=[0.0, 1.0], box=([-1.0, -1.0], [1.0, 1.0]), h=0.2)
        all_nodes = comp.grid.nodes()
        comps = brute_force_components(all_nodes, member, comp.h)
        seed_node = min(
            (tuple(np.round(p, 12)) for p in all_nodes if member(p)),
            key=lambda q: np.linalg.norm(np.array(q) - np.array([0.0, 1.0])),
        )
        oracle = next(v for v in comps.values() if seed_node in v)
        got = {tuple(np.round(p, 12)) for p in comp.points()}
        assert got == oracle

    def test_seed_relocation_invariance(self):
        def member(y):
            return y[0] ** 2 + y[1] ** 2 < 0.9

        a = flood_fill_component(member, [0.0, 0.0], ([-1.0, -1.0], [1.0, 1.0]), 0.25)
        b = flood_fill_component(member, [0.3, -0.2], ([-1.0, -1.0], [1.0, 1.0]), 0.25)
        assert {tuple(p) for p in a.points()} == {tuple(p) for p in b.points()}

    def test_seed_outside(self):
        with pytest.raises(SeedOutside):
            flood_fill_component(lambda y: y[0] > 0, [-0.5], ([-1.0], [1.0]), 0.25)

    def test_seed_outside_the_box_asks_nothing(self):
        asked = []

        def member(y):
            asked.append(y)
            return True

        with pytest.raises(SeedOutside, match="outside the box"):
            flood_fill_component(member, [0.5, 1.5], ([-1.0, -1.0], [1.0, 1.0]), 0.25)
        assert asked == []

    def test_seed_on_a_node_is_asked_once(self):
        asked = []

        def member(y):
            asked.append(float(y[0]))
            return True

        comp = flood_fill_component(member, [0.25], ([-1.0], [1.0]), 0.25)
        assert sorted(asked) == list(np.arange(-1.0, 1.01, 0.25))
        assert comp.count() == 9

    def test_predicate_cannot_write_the_nodes(self):
        def member(y):
            y[0] = 0.0
            return True

        with pytest.raises(ValueError):
            flood_fill_component(member, [0.1, 0.1], ([-1.0, -1.0], [1.0, 1.0]), 0.5)

    @settings(max_examples=60, deadline=None)
    @given(mask=arrays(bool, array_shapes(min_dims=1, max_dims=3, min_side=2, max_side=6)), pick=st.integers(0, 215))
    def test_each_node_asked_at_most_once(self, mask, pick):
        members = np.argwhere(mask)
        assume(len(members) > 0)
        start = members[pick % len(members)]
        # off the node, toward the inside of the box, with the start node nearest
        seed = start + np.where(start < np.array(mask.shape) - 1, 0.2, -0.2)
        asked = []

        def member(y):
            asked.append(y)
            return bool(mask[tuple(np.round(y).astype(int))])

        box = (np.zeros(mask.ndim), np.array(mask.shape, dtype=float) - 1.0)
        comp = flood_fill_component(member, seed, box, 1.0)
        assert asked[0] is seed or np.array_equal(asked[0], seed)
        idx = [comp.grid.nearest_index(y) for y in asked[1:]]
        assert all(np.array_equal(y, comp.grid.node(i)) for y, i in zip(asked[1:], idx))
        assert max(Counter(idx).values()) == 1

    def test_refused_start_candidate_asked_once(self):
        # node 0.0 is nearest the seed and fails; the search starts at 0.25
        # and must not ask 0.0 again
        asked = []

        def member(y):
            asked.append(float(y[0]))
            return y[0] > 0.1

        comp = flood_fill_component(member, [0.12], ([-1.0], [1.0]), 0.25)
        assert asked == [0.12, 0.0, -0.25, 0.25, 0.5, 0.75, 1.0]
        assert comp.count() == 4


def hashed_set(salt, density):
    """A fixed scattered subset of R^d: whether y belongs depends on the bytes
    of y only, so bitwise-equal points get the same answer."""
    return lambda y: zlib.crc32(np.asarray(y, dtype=float).tobytes(), salt) % 1024 < density * 1024


@st.composite
def coarse_cases(draw):
    """A box of 1-3 axes whose widths are whole or fractional multiples of h,
    or below one h (where the node count is clamped to two), a seed in the
    box (sometimes bitwise a node of the grid at h) and a scattered set."""
    dim = draw(st.integers(1, 3))
    h = draw(st.sampled_from([0.2, 0.25, 0.3, 0.5, 1.0]))
    lo = np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=dim, max_size=dim)))
    cells = draw(st.lists(st.one_of(st.floats(0.01, 6.0), st.integers(1, 6).map(float)), min_size=dim, max_size=dim))
    hi = lo + h * np.array(cells)
    seed = lo + np.array(draw(st.lists(st.floats(0.0, 1.0), min_size=dim, max_size=dim))) * (hi - lo)
    seed = np.minimum(seed, hi)
    if draw(st.booleans()):
        seed = lo + h * np.floor((seed - lo) / h)
    return dict(member=hashed_set(draw(st.integers(0, 2**32 - 1)), draw(st.floats(0.4, 1.0))), seed=seed, box=(lo, hi), h=h)


def fill_outcome(*args, **kwargs):
    try:
        return flood_fill_component(*args, **kwargs)
    except SeedOutside as err:
        return str(err)


class TestCoarserFill:
    @settings(max_examples=80, deadline=None)
    @given(case=coarse_cases())
    @example(case=dict(member=hashed_set(7, 0.6), seed=np.array([0.1]), box=(np.array([0.0]), np.array([0.15])), h=0.5))
    @example(case=dict(member=hashed_set(3, 0.7), seed=np.array([0.6, 0.0]), box=(np.zeros(2), np.array([1.25, 0.6])), h=0.5))
    def test_seeded_fill_matches_plain_fill(self, case):
        member, seed, box, h = case["member"], case["seed"], case["box"], case["h"]
        coarse = fill_outcome(member, seed, box, h)
        assume(not isinstance(coarse, str))
        asked = []

        def counted(y):
            asked.append(y.tobytes())
            return member(y)

        plain = fill_outcome(member, seed, box, 0.5 * h)
        fine = fill_outcome(counted, seed, box, 0.5 * h, coarser=coarse)
        if isinstance(plain, str):
            assert fine == plain
        else:
            assert np.array_equal(fine.region.mask, plain.region.mask)
        nodes = coarse.grid.nodes()
        answered = {nodes[i].tobytes() for i in np.flatnonzero(coarse.answers)}
        assert answered.isdisjoint(asked)
        # fine node 2i is coarse node i, bit for bit, wherever both exist
        grid = flood_fill_component(lambda y: True, box[0], box, 0.5 * h).grid
        for idx in np.ndindex(coarse.grid.shape):
            twice = tuple(2 * i for i in idx)
            if all(k < n for k, n in zip(twice, grid.shape)):
                assert grid.node(twice).tobytes() == coarse.grid.node(idx).tobytes()

    def test_coarser_on_another_grid_is_refused(self):
        coarse = flood_fill_component(lambda y: True, [0.0], ([0.0], [1.0]), 0.5)
        with pytest.raises(ValueError):
            flood_fill_component(lambda y: True, [0.0], ([0.0], [1.0]), 0.2, coarser=coarse)


# boolean masks over an integer grid with at least two nodes per axis
MASKS = arrays(bool, array_shapes(min_dims=1, max_dims=3, min_side=2, max_side=6))


class TestGridBFS:
    @settings(max_examples=80, deadline=None)
    @given(mask=MASKS, pick=st.integers(0, 215))
    @example(mask=np.array([True, False, True]), pick=0)  # a gap splits {0} from {2}
    def test_random_masks_match_union_find(self, mask, pick):
        members = np.argwhere(mask)
        assume(len(members) > 0)
        start = tuple(int(i) for i in members[pick % len(members)])

        def member(y):
            return bool(mask[tuple(np.round(y).astype(int))])

        box = (np.zeros(mask.ndim), np.array(mask.shape, dtype=float) - 1.0)
        comp = flood_fill_component(member, np.array(start, dtype=float), box, 1.0)
        comps = brute_force_components(comp.grid.nodes(), member, 1.0)
        oracle = next(v for v in comps.values() if tuple(map(float, start)) in v)
        assert {tuple(np.round(p, 12)) for p in comp.points()} == oracle

        asked = Counter()
        flat_mask = mask.ravel().tolist()

        def admit(i):
            asked[i] += 1
            return flat_mask[i]

        first = int(np.ravel_multi_index(start, mask.shape))
        parent = bfs(mask.shape, first, admit)
        assert first not in asked and max(asked.values(), default=0) <= 1
        assert len(parent) == mask.size and parent[first] == first
        reached = [i for i, p in enumerate(parent) if p >= 0]
        node = lambda i: np.array(np.unravel_index(i, mask.shape))
        assert {tuple(map(float, node(i))) for i in reached} == oracle
        for i in reached:
            assert i == first or np.abs(node(i) - node(parent[i])).sum() == 1
