"""Delta mollifiers and circle reparametrisations: monotone degree-1 maps
phi with phi(0) = 0 making a loop's average hit a prescribed target.

phi is recovered from its inverse, the cumulative integral of a positive
density (a weighted mollifier sum plus a small uniform leak).  Composed
loops are integrated by the exact substitution
int gamma(phi(s)) ds = int gamma(u) rho(u) du / total,
which keeps every downstream quadrature on the well-resolved u-side.
"""

import itertools
from collections import OrderedDict

import numpy as np

from .errors import DegenerateWeights, NoConvergence
from .loops import LoopFamily, average, surround_certificate
from .smooth import bump, cumulative_simpson, quad_integral, smoothstep

__all__ = [
    "DeltaMollifier",
    "CircleReparam",
    "reparam_from_weights",
    "adjust_weights",
    "DensityField",
    "ReparametrizedFamily",
    "reparametrize_family",
]

WEIGHT_FLOOR = 1e-4
LEAK = 1e-3
_SOLVE_TOL = 1e-8  # residual of average(gamma . phi_w) - g accepted by adjust_weights
_CERTIFICATE_M = 64  # loop samples per surround certificate
_MAX_REFINE = 2  # node-grid refinements in reparametrize_family
_TOL_GRID = 1e-6  # node residual accepted by reparametrize_family
_TOL_MID = 1e-4  # cell-midpoint residual accepted by reparametrize_family
_REPARAM_CACHE = 8192  # circle maps kept per ReparametrizedFamily
_DOT_PANELS = 512  # Simpson panels over each mollifier's support in _mollifier_dots

_BUMP_MASS = float(quad_integral(bump, -1.0, 1.0, 4096))


class DeltaMollifier:
    """Smooth periodic unit-mass bumps of half-width eta at circle points.

    center and eta broadcast against each other: arrays of k centres (and
    widths) give one row of values per centre, a scalar pair gives values of
    the shape of s.
    """

    def __init__(self, center, eta):
        center, eta = np.broadcast_arrays(np.asarray(center, dtype=float) % 1.0, np.asarray(eta, dtype=float))
        if np.any(eta <= 0):
            raise ValueError("eta must be positive")
        self.center = center
        self.eta = eta

    def __call__(self, s):
        s = np.asarray(s, dtype=float)
        tail = (1,) * s.ndim
        c = self.center.reshape(self.center.shape + tail)
        eta = self.eta.reshape(self.eta.shape + tail)
        d = np.abs((s - c + 0.5) % 1.0 - 0.5)
        return bump(d / eta) / (eta * _BUMP_MASS)


def _mollifier_width(centers):
    """Half-width eta of the mollifiers at the centres: a quarter of the
    smallest circular gap between them."""
    c = np.sort(np.mod(np.asarray(centers, dtype=float), 1.0))
    gaps = np.diff(np.concatenate([c, [c[0] + 1.0]]))
    return float(gaps.min()) / 4.0


class CircleReparam:
    """Monotone circle map phi with phi(t+1) = phi(t) + 1 and phi(0) = 0.

    Built as the inverse of psi(t) = int_0^t rho, where rho is a positive
    unit-mass density.  psi is tabulated by cumulative Simpson at a
    resolution set by the sharpest density feature and inverted by a
    monotone-interpolation start plus Newton polish.
    """

    def __init__(self, density, feature):
        self.density = density
        n = max(8192, int(np.ceil(120.0 / max(feature, 1e-4) / 2.0)) * 2)
        t = np.arange(n + 1) / n
        rho = np.asarray(density(t), dtype=float)
        if np.any(rho <= 0):
            raise DegenerateWeights("density must be strictly positive")
        cum = cumulative_simpson(rho, 1.0 / n)
        self.total = float(cum[-1])
        self._t = t
        self._rho = rho
        self._psi = cum / self.total
        self._n = n

    def density_normalized(self, s):
        return np.asarray(self.density(np.mod(s, 1.0)), dtype=float) / self.total

    def psi(self, t):
        """The inverse map phi^-1 (degree-1 periodic)."""
        t = np.asarray(t, dtype=float)
        k = np.floor(t)
        r = t - k
        idx = np.minimum((r * self._n).astype(int), self._n - 1)
        t0 = self._t[idx]
        dt = r - t0
        # Gauss-2 correction from the nearest table node
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

    def __call__(self, s):
        return self.phi(s)


def _mix_density(weights, centers, eta):
    """The density (LEAK + sum_i w_i m_i) / (1 + LEAK) of mollifiers m_i of
    half-width eta_i (scalar or per centre) at the centres."""
    w = np.asarray(weights, dtype=float)
    m = DeltaMollifier(centers, eta)
    return lambda s: (LEAK + np.tensordot(w, m(s), axes=1)) / (1.0 + LEAK)


def reparam_from_weights(weights, centers, eta=None):
    """Circle reparametrisation spending roughly time w_i at each center s_i.

    The inverse map integrates the weighted mollifier sum plus a uniform leak
    LEAK keeping it strictly increasing.
    """
    w = np.asarray(weights, dtype=float)
    centers = np.asarray(centers, dtype=float)
    if np.any(w < WEIGHT_FLOOR):
        raise DegenerateWeights(f"weights below floor {WEIGHT_FLOOR}")
    if abs(w.sum() - 1.0) > 1e-9:
        raise DegenerateWeights("weights must sum to 1")
    width = _mollifier_width(centers)
    if width < 1e-9 / 4.0:
        raise DegenerateWeights("centers must be distinct mod 1")
    if eta is None:
        eta = width
    return CircleReparam(_mix_density(w, centers, eta), eta)


def _mollifier_dots(loop, centers, eta):
    """a_i = int gamma(s) m_i(s) ds over each mollifier's support."""
    out = []
    for c in centers:
        m = DeltaMollifier(c, eta)
        out.append(quad_integral(lambda s: loop(s) * m(s)[:, None], c - eta, c + eta, _DOT_PANELS))
    return np.stack(out)


def adjust_weights(gamma, g, centers):
    """Weights w >= WEIGHT_FLOOR summing to 1 with average(gamma . phi_w) = g.

    Under the substitution identity the average (w @ a + LEAK abar) / (1 + LEAK)
    is affine in w (a_i the mollifier dots), so w solves one linear system,
    together with sum(w) = 1; lstsq covers k = d + 1 centres and more.  A
    weight below the floor or a residual above _SOLVE_TOL (a target outside
    the hull of the a_i) raises NoConvergence carrying w.
    """
    g = np.asarray(g, dtype=float).ravel()
    centers = np.asarray(centers, dtype=float)
    a = _mollifier_dots(gamma, centers, _mollifier_width(centers))  # (k, d)
    abar = average(gamma, 2048)
    J = np.vstack([a.T / (1.0 + LEAK), np.ones(len(centers))])
    w = np.linalg.lstsq(J, np.append(g - LEAK * abar / (1.0 + LEAK), 1.0), rcond=None)[0]
    res = float(np.linalg.norm((w @ a + LEAK * abar) / (1.0 + LEAK) - g))
    if w.min() >= WEIGHT_FLOOR and res <= _SOLVE_TOL:
        return w
    raise NoConvergence(
        f"weights {w} (floor {WEIGHT_FLOOR}), average residual {res:.3e}", best_residual=res, best_value=w
    )


# ---------------------------------------------------------------------------
# families of reparametrisations over a grid


class DensityField:
    """Smoothly blended field of node densities over a tensor grid.

    nodes holds one (weights, centers, eta) per grid node in flat order.
    Between nodes the densities themselves are mixed with smoothstep weights
    per axis, so the resulting family of circle maps is smooth in x and exact
    at the nodes.
    """

    def __init__(self, grid, nodes):
        self.grid = grid
        self.nodes = list(nodes)
        self.eta_min = min(eta for _, _, eta in self.nodes)

    def _corners(self, x):
        x = np.atleast_1d(np.asarray(x, dtype=float))
        per_axis = []
        for i in range(self.grid.dim):
            a = self.grid.axes[i]
            n = len(a)
            h = self.grid.spacing[i]
            if self.grid.periodic[i]:
                z = ((x[i] - a[0]) / h) % n
                i0 = int(np.floor(z)) % n
                u = z - np.floor(z)
                i1 = (i0 + 1) % n
            else:
                z = np.clip((x[i] - a[0]) / h, 0.0, n - 1.0)
                i0 = min(int(np.floor(z)), n - 2) if n > 1 else 0
                u = z - i0
                i1 = min(i0 + 1, n - 1)
            wu = float(smoothstep(u))
            per_axis.append(((i0, 1.0 - wu), (i1, wu)))
        out = []
        for combo in itertools.product(*per_axis):
            wt = 1.0
            idx = []
            for i, (ij, wij) in enumerate(combo):
                wt *= wij
                idx.append(ij)
            if wt > 0.0:
                flat = int(np.ravel_multi_index(idx, self.grid.shape))
                out.append((flat, wt))
        return out

    def density_at(self, x):
        """One mollifier sum over the corner nodes' centres, each node's
        weights scaled by its corner weight; the corner weights sum to 1, so
        the leak is that of a single node."""
        w, centers, eta = [], [], []
        for flat, wt in self._corners(x):
            wn, cn, en = self.nodes[flat]
            w.append(wt * wn)
            centers.append(cn)
            eta.append(np.full(len(cn), en))
        return _mix_density(np.concatenate(w), np.concatenate(centers), np.concatenate(eta))


class ReparametrizedFamily(LoopFamily):
    """Loop family composed with a field of circle reparametrisations.

    Integrals over the loop parameter are computed by exact substitution on
    the underlying family, which keeps quadrature well-conditioned even for
    strongly concentrated densities.
    """

    def __init__(self, inner, field: DensityField):
        self.inner = inner
        self.field = field
        self.dim_f = inner.dim_f
        self._cache = OrderedDict()
        # quadrature in u must resolve the sharpest mollifier
        self._m_unit = min(int(np.ceil(96.0 / self.field.eta_min / 1024.0)) * 1024, 65536)

    def reparam_at(self, x):
        key = np.atleast_1d(np.asarray(x, dtype=float)).tobytes()
        hit = self._cache.get(key)
        if hit is not None:
            self._cache.move_to_end(key)
            return hit
        rp = CircleReparam(self.field.density_at(x), self.field.eta_min)
        self._cache[key] = rp
        if len(self._cache) > _REPARAM_CACHE:
            self._cache.popitem(last=False)
        return rp

    def eval(self, x, t, s):
        rp = self.reparam_at(x)
        return self.inner.eval(x, t, rp.phi(np.atleast_1d(np.asarray(s, dtype=float))))

    def integral_over(self, x, t, a, b, M=4096):
        """int_a^b gamma(x, t, phi_x(s)) ds by substitution."""
        if b < a:
            return -self.integral_over(x, t, b, a, M=M)
        rp = self.reparam_at(x)
        ua, ub = float(rp.phi(a)), float(rp.phi(b))
        if ub <= ua:
            return np.zeros(self.dim_f)
        need = int(np.ceil((ub - ua) * self._m_unit / 1024.0)) * 1024
        M = max(M, need, 1024)
        return quad_integral(lambda u: self.inner.eval(x, t, u) * rp.density_normalized(u)[:, None], ua, ub, M)

    def average_at(self, x, t, M=4096):
        return self.integral_over(x, t, 0.0, 1.0, M=M)


def reparametrize_family(family, g, grid):
    """Reparametrise a surrounding family so t=1 averages equal g at the nodes.

    Per node: sample a surround certificate, solve for weights, build a
    mollifier density.  Between nodes densities are blended smoothly; nodes
    are checked against _TOL_GRID, cell midpoints against _TOL_MID, and the
    node grid is refined when the blend drifts too far.
    """
    work = grid
    for attempt in range(_MAX_REFINE + 1):
        nodes = []
        for x in work.nodes():
            gx = np.asarray(g(x), dtype=float).ravel()
            loop = family.loop_at(x, 1.0)
            centers, _coords, _pts = surround_certificate(loop, gx, M=_CERTIFICATE_M)
            nodes.append((adjust_weights(loop, gx, centers), centers, _mollifier_width(centers)))
        field = DensityField(work, nodes)
        fam = ReparametrizedFamily(family, field)

        worst_node = 0.0
        for x in work.nodes():
            r = np.linalg.norm(fam.average_at(x, 1.0) - np.asarray(g(x), dtype=float).ravel())
            worst_node = max(worst_node, float(r))
        mids = _cell_midpoints(work)
        worst_mid = 0.0
        for x in mids:
            r = np.linalg.norm(fam.average_at(x, 1.0) - np.asarray(g(x), dtype=float).ravel())
            worst_mid = max(worst_mid, float(r))
        if worst_node <= _TOL_GRID and worst_mid <= _TOL_MID:
            return fam
        if attempt == _MAX_REFINE:
            raise NoConvergence(
                f"reparametrised averages off grid: node {worst_node:.2e}, mid {worst_mid:.2e}",
                best_residual=max(worst_node, worst_mid),
            )
        work = _refine_grid(work)
    raise AssertionError("unreachable")


def _cell_midpoints(grid):
    axes = []
    for i in range(grid.dim):
        a = grid.axes[i]
        if grid.periodic[i]:
            axes.append(a + grid.spacing[i] / 2.0)
        else:
            axes.append((a[:-1] + a[1:]) / 2.0 if len(a) > 1 else a)
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=-1)


def _refine_grid(grid):
    from .grids import Grid

    axes = []
    for i in range(grid.dim):
        a = grid.axes[i]
        h = grid.spacing[i]
        if grid.periodic[i]:
            axes.append(np.sort(np.concatenate([a, a + h / 2.0])))
        else:
            axes.append(np.sort(np.concatenate([a, (a[:-1] + a[1:]) / 2.0])) if len(a) > 1 else a)
    return Grid(axes, grid.periodic)
