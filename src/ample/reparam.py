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
    """Smoothly blended field of centring densities over a tensor grid.

    centers holds one array of loop parameters per grid node in flat order
    (the node's surround certificate), each mollified at its own width.  At
    any x every corner node's weights are solved for the loop at x and the
    target g(x), so each corner density averages that loop to g(x) exactly;
    the smoothstep corner weights are a partition of unity, and the average
    is affine in the density, so their blend does too.
    """

    def __init__(self, grid, family, g, centers):
        self.grid = grid
        self.family = family
        self.g = g
        self.centers = list(centers)
        self.etas = [_mollifier_width(c) for c in self.centers]
        self.eta_min = min(self.etas)

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
        weights solved at x and scaled by its corner weight; the corner
        weights sum to 1, so the leak is that of a single node."""
        loop = self.family.loop_at(x, 1.0)
        gx = np.asarray(self.g(x), dtype=float).ravel()
        w, centers, eta = [], [], []
        for flat, wt in self._corners(x):
            cn = self.centers[flat]
            w.append(wt * adjust_weights(loop, gx, cn))
            centers.append(cn)
            eta.append(np.full(len(cn), self.etas[flat]))
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
    """Reparametrise a surrounding family so its t=1 averages equal g at every x.

    Each node keeps the centres of a surround certificate of its t=1 loop.
    Those centres serve every cell the node is a corner of, so they are
    checked by a weight solve at every node of the node's 3^d neighbourhood;
    a failed solve raises NoConvergence naming both nodes and carrying the
    weights and residual.
    """
    nodes = grid.nodes()
    loops = [family.loop_at(x, 1.0) for x in nodes]
    targets = [np.asarray(g(x), dtype=float).ravel() for x in nodes]
    centers = [surround_certificate(lp, gx, M=_CERTIFICATE_M)[0] for lp, gx in zip(loops, targets)]
    # flat node indices padded by one node per axis: wrapped on periodic
    # axes, repeated at the ends of the others
    flat = np.arange(len(nodes)).reshape(grid.shape)
    for ax in range(grid.dim):
        pad = [(1, 1) if i == ax else (0, 0) for i in range(grid.dim)]
        flat = np.pad(flat, pad, mode="wrap" if grid.periodic[ax] else "edge")
    for j, idx in enumerate(itertools.product(*map(range, grid.shape))):
        for i in np.unique(flat[tuple(slice(k, k + 3) for k in idx)]):
            try:
                adjust_weights(loops[j], targets[j], centers[i])
            except NoConvergence as err:
                raise NoConvergence(
                    f"centres of node {nodes[i]} at neighbour {nodes[j]}: {err}",
                    best_residual=err.best_residual,
                    best_value=err.best_value,
                ) from err
    return ReparametrizedFamily(family, DensityField(grid, family, g, centers))
