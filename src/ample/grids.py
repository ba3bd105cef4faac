"""Uniform tensor grids and boolean node regions.

Regions stand in for the compact sets of the deformation machinery: "near"
a region always means a fixed dilation by whole cells, and distances are
node distances (periodic axes wrap).
"""

import numpy as np

__all__ = ["Grid", "GridRegion", "box_grid", "bfs"]


class Grid:
    """Uniform rectilinear grid; periodic axes omit the duplicate endpoint."""

    def __init__(self, axes, periodic=None):
        self.axes = tuple(np.asarray(a, dtype=float) for a in axes)
        self.dim = len(self.axes)
        self.periodic = tuple(bool(b) for b in (periodic or (False,) * self.dim))
        self.shape = tuple(len(a) for a in self.axes)
        self.spacing = tuple(
            float(a[1] - a[0]) if len(a) > 1 else 1.0 for a in self.axes
        )
        # axis period = full span including the implicit wrap cell
        self.periods = tuple(
            self.spacing[i] * self.shape[i] if self.periodic[i] else None
            for i in range(self.dim)
        )

    def nodes(self):
        """All node coordinates, shape (n_nodes, dim), C-order."""
        mesh = np.meshgrid(*self.axes, indexing="ij")
        return np.stack([m.ravel() for m in mesh], axis=-1)

    def node(self, idx):
        return np.array([self.axes[i][idx[i]] for i in range(self.dim)])

    def nearest_index(self, x):
        x = np.atleast_1d(np.asarray(x, dtype=float))
        idx = []
        for i in range(self.dim):
            a = self.axes[i]
            k = int(round((x[i] - a[0]) / self.spacing[i]))
            if self.periodic[i]:
                k %= self.shape[i]
            else:
                k = min(max(k, 0), self.shape[i] - 1)
            idx.append(k)
        return tuple(idx)

    def axis_delta(self, i, da):
        """Coordinate differences along axis i reduced mod the period."""
        if self.periodic[i]:
            p = self.periods[i]
            return (da + 0.5 * p) % p - 0.5 * p
        return da


def bfs(shape, start, admit):
    """Breadth-first search over the axis neighbours of the index grid `shape`,
    on flat C-order node indices.

    Returns the parent list over the flat indices: -1 for a node not reached,
    `start` for `start`, and for every other reached node the neighbour it was
    entered from, so following parents gives a shortest chain back to `start`.
    Neighbours are tried axis by axis, -1 before +1, from a FIFO queue.
    admit(i) decides whether the node with flat index i may be entered; it is
    asked at most once per node and never for `start`.
    """
    n = 1
    strides = []
    for size in reversed(shape):
        strides.append(n)
        n *= size
    axes = list(zip(reversed(strides), shape))
    parent = [-1] * n
    parent[start] = start
    asked = bytearray(n)
    asked[start] = 1
    queue = [start]  # FIFO: the loop reaches every node appended behind it
    for cur in queue:
        for stride, size in axes:
            k = cur // stride % size
            if k > 0 and not asked[cur - stride]:
                nb = cur - stride
                asked[nb] = 1
                if admit(nb):
                    parent[nb] = cur
                    queue.append(nb)
            if k + 1 < size and not asked[cur + stride]:
                nb = cur + stride
                asked[nb] = 1
                if admit(nb):
                    parent[nb] = cur
                    queue.append(nb)
    return parent


def box_grid(lo, hi, cells, periodic=None):
    """Grid over the box [lo, hi] with the given cell counts per axis."""
    lo = np.atleast_1d(np.asarray(lo, dtype=float))
    hi = np.atleast_1d(np.asarray(hi, dtype=float))
    cells = np.atleast_1d(np.asarray(cells, dtype=int))
    periodic = tuple(periodic or (False,) * len(lo))
    axes = []
    for i in range(len(lo)):
        n = int(cells[i])
        if periodic[i]:
            axes.append(lo[i] + (hi[i] - lo[i]) * np.arange(n) / n)
        else:
            axes.append(np.linspace(lo[i], hi[i], n + 1))
    return Grid(axes, periodic)


class GridRegion:
    """Boolean mask over a grid's nodes; the active node coordinates are
    computed once, when the region is built."""

    def __init__(self, grid, mask):
        self.grid = grid
        self.mask = np.asarray(mask, dtype=bool).reshape(grid.shape)
        self._nodes = grid.nodes()[self.mask.ravel()]
        self._nodes.flags.writeable = False

    @classmethod
    def empty(cls, grid):
        return cls(grid, np.zeros(grid.shape, dtype=bool))

    @classmethod
    def full(cls, grid):
        return cls(grid, np.ones(grid.shape, dtype=bool))

    @classmethod
    def from_box(cls, grid, lo, hi):
        lo = np.atleast_1d(np.asarray(lo, dtype=float))
        hi = np.atleast_1d(np.asarray(hi, dtype=float))
        mesh = np.meshgrid(*grid.axes, indexing="ij")
        mask = np.ones(grid.shape, dtype=bool)
        for i in range(grid.dim):
            mask &= (mesh[i] >= lo[i] - 1e-12) & (mesh[i] <= hi[i] + 1e-12)
        return cls(grid, mask)

    @property
    def is_empty(self):
        return not self.mask.any()

    def count(self):
        return int(self.mask.sum())

    def nodes(self):
        """Coordinates of the active nodes, shape (count, dim), C-order: the
        read-only array stored when the region was built."""
        return self._nodes

    def dilate(self, cells=1):
        """Axis-connected dilation by whole cells; periodic axes wrap."""
        mask = self.mask.copy()
        for _ in range(cells):
            grown = mask.copy()
            for ax in range(self.grid.dim):
                for shift in (-1, 1):
                    rolled = np.roll(mask, shift, axis=ax)
                    if not self.grid.periodic[ax]:
                        sl = [slice(None)] * self.grid.dim
                        sl[ax] = 0 if shift == 1 else -1
                        rolled[tuple(sl)] = False
                    grown |= rolled
            mask = grown
        return GridRegion(self.grid, mask)

    def union(self, other):
        return GridRegion(self.grid, self.mask | other.mask)

    def complement(self):
        return GridRegion(self.grid, ~self.mask)

    def issubset(self, other):
        return bool(np.all(~self.mask | other.mask))

    def contains(self, x):
        """Membership of the node nearest to x."""
        return bool(self.mask[self.grid.nearest_index(x)])

    def distance(self, x):
        """Euclidean distance from x to the nearest active node (periodic-aware)."""
        if self.is_empty:
            return np.inf
        pts = self._nodes
        x = np.atleast_1d(np.asarray(x, dtype=float))
        d2 = np.zeros(len(pts))
        for i in range(self.grid.dim):
            di = self.grid.axis_delta(i, pts[:, i] - x[i])
            d2 += di * di
        return float(np.sqrt(d2.min()))
