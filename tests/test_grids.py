"""Properties of node regions: distances and the stored active nodes."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ample.grids import GridRegion, box_grid

COORD = st.floats(-1.5, 2.5, allow_nan=False, allow_infinity=False)


@st.composite
def regions(draw):
    """A random mask on a 1-D or 2-D box grid over [0, 1]^d, some axes periodic."""
    dim = draw(st.integers(1, 2))
    cells = draw(st.lists(st.integers(1, 7), min_size=dim, max_size=dim))
    periodic = draw(st.lists(st.booleans(), min_size=dim, max_size=dim))
    grid = box_grid([0.0] * dim, [1.0] * dim, cells, periodic=periodic)
    n = int(np.prod(grid.shape))
    mask = np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)))
    x = np.array(draw(st.lists(COORD, min_size=dim, max_size=dim)))
    return GridRegion(grid, mask), x


def brute_distance(region, x):
    """min over the active nodes of the Euclidean distance, each periodic
    axis difference taken as the shorter way round."""
    grid = region.grid
    best = np.inf
    for node in grid.nodes()[region.mask.ravel()]:
        d2 = 0.0
        for i in range(grid.dim):
            d = abs(node[i] - x[i])
            if grid.periodic[i]:
                d %= grid.periods[i]
                d = min(d, grid.periods[i] - d)
            d2 += d * d
        best = min(best, np.sqrt(d2))
    return best


class TestGridRegion:
    @settings(max_examples=150, deadline=None)
    @given(case=regions())
    def test_distance_is_brute_force_minimum(self, case):
        region, x = case
        got = region.distance(x)
        want = brute_distance(region, x)
        if region.is_empty:
            assert got == np.inf
        else:
            assert got == pytest.approx(want, rel=1e-12, abs=1e-12)

    @settings(max_examples=50, deadline=None)
    @given(case=regions())
    def test_nodes_are_the_active_nodes_read_only(self, case):
        region, _ = case
        nodes = region.nodes()
        assert np.array_equal(nodes, region.grid.nodes()[region.mask.ravel()])
        assert nodes.shape == (region.count(), region.grid.dim)
        assert not nodes.flags.writeable
        with pytest.raises(ValueError):
            nodes[...] = 0.0

    def test_empty_region_is_infinitely_far(self):
        grid = box_grid([0.0, 0.0], [1.0, 1.0], [3, 4], periodic=(True, False))
        assert GridRegion.empty(grid).distance([0.5, 0.5]) == np.inf
