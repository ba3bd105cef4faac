"""Hull certificates (affine bases of given points with the barycentric
coordinates of a target) and grid flood fill for connected components of
open sets.

The "surrounds" predicate is deliberately stricter than hull-interior
membership: it demands an affine basis drawn from the given points giving
the target strictly positive coordinates, and the vertices of a square
around its center show the two notions genuinely differ.  `surrounds`
takes one floor on the coordinates or a tuple of floors, and
answers every floor of a tuple from one scan of the subsets, made in
chunks of stacked determinants and solves.  A target outside the hull of
the points has no basis at any floor; `loops._candidate_order` refuses it
from the hull's facet equations, so the scan runs only for targets inside
the hull or within roundoff of it.

`flood_fill_component` builds one read-only table of node coordinates per
fill and hands the predicate its rows, and keeps the predicate's answers in
a uint8 table over the flat node indices that the start scan and the BFS
read first, so no node is asked twice.  A fill at h/2 starts from the
answers of the fill at h, whose nodes are its even nodes bit for bit, so
halving h asks the predicate only at the new nodes.
"""

import itertools
from dataclasses import dataclass
from math import comb

import numpy as np

from .errors import SeedOutside
from .grids import Grid, GridRegion, bfs

__all__ = [
    "GridComponent",
    "surrounds",
    "flood_fill_component",
]

DET_FLOOR = 1e-10
_COMBO_BUDGET = 2_000_000
_SCAN_CHUNK = 512  # subsets per stacked solve; early hits stop after one chunk


def _affine_matrix(points):
    """Columns (p_i, 1), for one set of points or a stack of sets; the basis
    test is |det| of this square matrix."""
    pts = np.asarray(points, dtype=float)
    return np.swapaxes(np.concatenate([pts, np.ones(pts.shape[:-1] + (1,))], axis=-1), -1, -2)


def surrounds(points, v, mu=1e-6):
    """First affine basis among `points` giving v coordinates >= mu.

    mu is one floor or a tuple of floors.  The answer is the first basis in
    lexicographic index order for the highest floor that any basis meets, so
    a tuple answers like trying each floor in turn from the highest, from
    one scan.  Returns (indices, coords), or None when no subset qualifies.
    Absence is a value, not an error: a loop through the vertices of a
    square never surrounds the center even though the center is in the hull.

    The (d+1)-subsets are walked _SCAN_CHUNK at a time with one stacked
    det and one stacked solve per chunk; the walk stops at the first hit of
    the highest floor, and a lower floor's first hit is kept until then.
    """
    pts = np.asarray(points, dtype=float)
    v = np.asarray(v, dtype=float).ravel()
    n, d = pts.shape
    if n < d + 1:
        return None
    if comb(n, d + 1) > _COMBO_BUDGET:
        raise ValueError("too many candidate subsets; reduce the point set first")
    floors = np.sort(np.atleast_1d(np.asarray(mu, dtype=float)))[::-1]
    target = np.append(v, 1.0)
    subsets = itertools.combinations(range(n), d + 1)
    found, level = None, len(floors)  # best hit so far and its floor's rank
    while True:
        flat = itertools.chain.from_iterable(itertools.islice(subsets, _SCAN_CHUNK))
        idx = np.fromiter(flat, dtype=np.intp).reshape(-1, d + 1)
        if len(idx) == 0:
            return found
        mats = _affine_matrix(pts[idx])
        ok = np.flatnonzero(np.abs(np.linalg.det(mats)) > DET_FLOOR)
        # a (k, m, 1) right-hand side reads as a stack of columns on numpy 1.x and 2.x
        rhs = np.broadcast_to(target[:, None], (len(ok), d + 1, 1))
        coords = np.linalg.solve(mats[ok], rhs)[..., 0]
        low = coords.min(axis=1)
        for k in range(level):  # only floors above the best hit so far
            hits = np.flatnonzero(low >= floors[k])
            if hits.size:
                j = hits[0]
                found, level = (tuple(int(i) for i in idx[ok[j]]), coords[j].copy()), k
                break
        if level == 0:
            return found


@dataclass
class GridComponent:
    """Axis-connected set of grid nodes satisfying a membership predicate.

    answers holds what the fill learnt of the predicate, one uint8 per node in
    flat C order: 0 not asked, 1 member, 2 refused."""

    grid: Grid
    h: float
    box: tuple
    region: GridRegion
    answers: np.ndarray

    def points(self):
        return self.region.nodes()

    def count(self):
        return self.region.count()


def flood_fill_component(member, seed, box, h, coarser=None):
    """Maximal axis-connected grid component containing (the node nearest) seed.

    box is a pair (lo, hi); nodes are lo + k*h per axis.  member sees the seed
    and read-only rows equal to grid.node(idx), and each point is asked at
    most once: a seed that is bitwise a node is asked as that node.  coarser,
    a fill of the same box at spacing 2h, lends its answers: its node i is
    node 2i here, bit for bit, so the predicate is not asked there again.
    Raises SeedOutside when the seed lies outside the box (before any
    predicate call), when member(seed) fails, or when no node within one cell
    of the seed satisfies the predicate.
    """
    lo, hi = (np.atleast_1d(np.asarray(b, dtype=float)) for b in box)
    if h <= 0:
        raise ValueError("h must be positive")
    seed = np.atleast_1d(np.asarray(seed, dtype=float))
    if np.any(seed < lo - 1e-12) or np.any(seed > hi + 1e-12):
        raise SeedOutside("seed lies outside the box")

    counts = np.maximum(1, np.floor((hi - lo) / h + 1e-9).astype(int)) + 1
    grid = Grid([lo[i] + h * np.arange(counts[i]) for i in range(len(lo))])
    shape = grid.shape
    dim = grid.dim
    # rows[i] is the node of flat index i; read-only, so a predicate cannot corrupt it
    rows = grid.nodes()
    rows.flags.writeable = False
    answers = bytearray(len(rows))
    if coarser is not None:
        if coarser.h != 2 * h or not np.array_equal(coarser.box[0], lo):
            raise ValueError("coarser must fill the same box at spacing 2h")
        # the clamped node count can leave a last coarse node outside this grid
        keep = tuple(slice(0, min(c, (f + 1) // 2)) for c, f in zip(coarser.grid.shape, shape))
        even = tuple(slice(0, 2 * k.stop, 2) for k in keep)
        np.frombuffer(answers, dtype=np.uint8).reshape(shape)[even] = coarser.answers.reshape(coarser.grid.shape)[keep]

    def ask(i):
        a = answers[i]
        if not a:
            a = answers[i] = 1 if member(rows[i]) else 2
        return a == 1

    start = tuple(
        int(min(max(round((seed[i] - lo[i]) / h), 0), shape[i] - 1)) for i in range(dim)
    )
    flat = int(np.ravel_multi_index(start, shape))
    if not (ask(flat) if rows[flat].tobytes() == seed.tobytes() else member(seed)):
        raise SeedOutside("seed does not satisfy the membership predicate")

    candidates = [start]
    # the nearest node can just miss an open set; look one cell around
    for off in itertools.product((-1, 0, 1), repeat=dim):
        nb = tuple(start[i] + off[i] for i in range(dim))
        if nb != start and all(0 <= nb[i] < shape[i] for i in range(dim)):
            candidates.append(nb)
    # a candidate refused here is never asked again: ask records it
    candidates = np.ravel_multi_index(tuple(zip(*candidates)), shape).tolist()
    start_node = next((i for i in candidates if ask(i)), None)
    if start_node is None:
        raise SeedOutside("no grid node near the seed satisfies the predicate")

    mask = np.array(bfs(shape, start_node, ask)).reshape(shape) >= 0
    table = np.frombuffer(answers, dtype=np.uint8)
    table.flags.writeable = False
    return GridComponent(grid=grid, h=float(h), box=(lo, hi), region=GridRegion(grid, mask), answers=table)
