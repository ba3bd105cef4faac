"""Delta mollifiers and circle reparametrisations: monotone degree-1 maps
phi with phi(0) = 0 making a loop's average hit a prescribed target.

phi is the inverse of psi(t) = int_0^t rho, where the density
rho = sum_k w_k m_k mixes unit-mass mollifiers m_k of one half-width _ETA at
the fixed centres c_k = k / _CERTIFICATE_M.  Each support reaches the two
neighbouring centres, so the supports overlap and cover the circle, and rho
is positive wherever every weight is.  By the substitution
int gamma(phi(s)) ds = int gamma(u) rho(u) du the average of gamma . phi is
w @ a, linear in w (a_k the mollifier dots), so the weights come from a solve
in the target's d dimensions: the max-entropy weights of Sukumar (IJNME 61,
2004), positive exactly when the target lies in the open hull of the a_k.
Every m_k has the bump's profile, so psi is closed form in the bump's CDF;
partial integrals run on the dots' own nodes, so a whole period gives w @ a.
"""

from collections import OrderedDict

import numpy as np

from .errors import NoConvergence, NotSurrounded
from .loops import LoopFamily, surround_certificate
from .smooth import bump, cumulative_simpson, quad_integral, simpson_pairs

__all__ = [
    "DeltaMollifier",
    "CircleReparam",
    "adjust_weights",
    "ReparametrizedFamily",
    "reparametrize_family",
]

_SOLVE_TOL = 1e-8  # residual of average(gamma . phi_w) - g accepted by adjust_weights
_NEWTON_MAX = 100  # damped Newton steps of adjust_weights before it gives up
_CERTIFICATE_M = 64  # loop samples per surround certificate, and mollifier centres
_CENTERS = np.arange(_CERTIFICATE_M) / _CERTIFICATE_M
_ETA = 1.0 / _CERTIFICATE_M  # mollifier half-width: each support reaches the two neighbouring centres
_REPARAM_CACHE = 8192  # weights kept per ReparametrizedFamily
_DOT_PANELS = 256  # Simpson panels over each mollifier's support in _mollifier_dots
_DOT_PAIR = 4.0 * _ETA / _DOT_PANELS  # one Simpson panel pair of the dot nodes, 1/4096
_CDF_PANELS = 4096  # Simpson panels of the bump's mass and CDF table on [-1, 1]
_PHI_TOL = 1e-15  # |psi(phi(s)) - s| at which CircleReparam.phi stops
_PHI_STEPS = 64  # safeguarded Newton steps of CircleReparam.phi at most (bisection alone needs 53)

_BUMP_MASS = float(quad_integral(bump, -1.0, 1.0, _CDF_PANELS))
_CDF_NODES = np.linspace(-1.0, 1.0, _CDF_PANELS + 1)
_CDF = cumulative_simpson(bump(_CDF_NODES) / _BUMP_MASS, 2.0 / _CDF_PANELS)


def _bump_cdf(v):
    """B(v) = int_-1^v bump / _BUMP_MASS, a mollifier's CDF in units of its
    half-width, and its density at v: the table at the node below v plus one
    Simpson panel pair from that node."""
    v = np.clip(v, -1.0, 1.0)
    i = np.minimum(((v + 1.0) * (_CDF_PANELS // 2)).astype(int), _CDF_PANELS - 1)
    nodes, weights = simpson_pairs(np.stack([_CDF_NODES[i], v]))
    density = bump(nodes) / _BUMP_MASS
    return _CDF[i] + np.sum(weights * density, axis=0), density[1]


class DeltaMollifier:
    """Smooth periodic unit-mass bump of half-width eta at one circle point."""

    def __init__(self, center, eta):
        if eta <= 0:
            raise ValueError("eta must be positive")
        self.center = float(center) % 1.0
        self.eta = float(eta)

    def __call__(self, s):
        d = np.abs((np.asarray(s, dtype=float) - self.center + 0.5) % 1.0 - 0.5)
        return bump(d / self.eta) / (self.eta * _BUMP_MASS)


_MOLLIFIER = DeltaMollifier(0.0, _ETA)  # every centre's mollifier, shifted to 0


class CircleReparam:
    """The monotone circle map phi of weights w over the fixed centres:
    phi(t + 1) = phi(t) + 1, phi(0) = 0, phi the inverse of psi = int_0^t rho.

    On the cell c_j <= t < c_{j+1}, with u = (t - c_j) / _ETA, only the
    supports of c_j and c_{j+1} end inside, so with the bump's CDF B
    psi = sum_{k<j} w_k + w_j B(u) + w_{j+1} B(u - 1) - w_0 B(0), w_64 = w_0.
    phi finds the cell from psi at the centres and solves for u by Newton,
    kept inside the cell's bracket by bisection.
    """

    def __init__(self, weights):
        w = np.asarray(weights, dtype=float)
        self._w = np.append(w, w[0])
        self._below = np.concatenate([[0.0], np.cumsum(w)])
        self._origin = w[0] * _bump_cdf(0.0)[0]
        self._knots = self.psi(np.arange(_CERTIFICATE_M + 1) / _CERTIFICATE_M)  # psi at the centres and 1

    def _cell(self, j, u):
        """psi at u = (t - c_j) / _ETA in [0, 1] of cell j, and its u-derivative."""
        cdf, density = _bump_cdf(np.stack([u, u - 1.0]))
        w, w_next = self._w[j], self._w[j + 1]
        return self._below[j] + w * cdf[0] + w_next * cdf[1] - self._origin, w * density[0] + w_next * density[1]

    def psi(self, t):
        """The inverse map phi^-1 (degree-1 periodic)."""
        t = np.asarray(t, dtype=float)
        k = np.floor(t)
        v = (t - k) * _CERTIFICATE_M
        j = np.minimum(v.astype(int), _CERTIFICATE_M - 1)
        return k + self._cell(j, v - j)[0]

    def phi(self, s):
        s = np.asarray(s, dtype=float)
        k = np.floor(s)
        r = s - k
        # the cell with psi(c_j) < r <= psi(c_{j+1}); r = 0 reads cell 0
        j = np.clip(np.searchsorted(self._knots, r) - 1, 0, _CERTIFICATE_M - 1)
        left, gap = self._knots[j], self._knots[j + 1] - self._knots[j]
        u = np.clip((r - left) / np.where(gap > 0, gap, 1.0), 0.0, 1.0)
        lo, hi = np.zeros_like(u), np.ones_like(u)
        for _ in range(_PHI_STEPS):
            value, slope = self._cell(j, u)
            res = value - r
            todo = np.abs(res) > _PHI_TOL
            if not todo.any():
                break
            lo, hi = np.where(res < 0, u, lo), np.where(res > 0, u, hi)
            with np.errstate(divide="ignore", invalid="ignore"):
                step = u - res / slope
            u = np.where(todo, np.where((lo < step) & (step < hi), step, 0.5 * (lo + hi)), u)
        return k + (j + u) / _CERTIFICATE_M


def _mix_density(weights):
    """The density sum_k w_k m_k of the mollifiers at the fixed centres.  Each
    support ends at the neighbouring centres, so s reads only the two centres
    that bracket it, c_k <= s < c_{k+1}."""
    w = np.asarray(weights, dtype=float)

    def density(s):
        s = np.asarray(s, dtype=float)
        k = np.floor(s * _CERTIFICATE_M)
        i = k.astype(int) % _CERTIFICATE_M
        u = s - k / _CERTIFICATE_M
        return w[i] * _MOLLIFIER(u) + w[(i + 1) % _CERTIFICATE_M] * _MOLLIFIER(u - _ETA)

    return density


def _mollifier_dots(loop, centers):
    """a_k = int gamma(s) m_k(s) ds over each mollifier's support, from one
    loop evaluation on the (len(centers), _DOT_PANELS + 1) Simpson nodes."""
    c = np.asarray(centers, dtype=float)

    def integrand(u):
        vals = loop((u[:, None] + c).ravel()).reshape(len(u), len(c), -1)
        return vals * _MOLLIFIER(u)[:, None, None]

    return quad_integral(integrand, -_ETA, _ETA, _DOT_PANELS)


def _max_entropy_weights(a, g):
    """Positive weights w summing to 1 with w @ a = g.

    That holds exactly when w @ z = 0 for z_k = a_k - g.  The max-entropy
    weights w_k ∝ exp(lam . z_k) do this at the minimiser lam of the convex
    dual log sum_k exp(lam . z_k), found by damped Newton in d unknowns.  The
    minimiser exists exactly when g lies in the open hull of the a_k;
    otherwise lam runs off and NoConvergence carries the last w (on the
    simplex, some entries possibly underflowed to 0) and its residual.
    """
    z = a - g

    def dual(lam):
        e = z @ lam
        top = e.max()
        p = np.exp(e - top)
        return top + np.log(p.sum()), p / p.sum()

    lam = np.zeros(g.size)
    f, w = dual(lam)
    for _ in range(_NEWTON_MAX):
        grad = w @ z
        if np.linalg.norm(grad) <= _SOLVE_TOL:
            return w
        zc = z - grad
        step = np.linalg.lstsq((w[:, None] * zc).T @ zc, -grad, rcond=None)[0]
        tau = 1.0
        f_new, w_new = dual(lam + step)
        while f_new > f + 1e-4 * tau * (grad @ step) and tau > 1e-12:
            tau *= 0.5
            f_new, w_new = dual(lam + tau * step)
        lam, f, w = lam + tau * step, f_new, w_new
    res = float(np.linalg.norm(w @ z))
    raise NoConvergence(
        f"max-entropy weights {w}: average residual {res:.3e} after {_NEWTON_MAX} Newton steps, "
        f"|lambda| = {np.linalg.norm(lam):.3e}",
        best_residual=res,
        best_value=w,
    )


def adjust_weights(gamma, g, centers):
    """Positive weights w summing to 1 with average(gamma . phi_w) = g, phi_w
    the reparametrisation of the mollifiers at the centres: the max-entropy
    weights of the mollifier dots (see _max_entropy_weights).

    Returns w and the average w @ a that it gives.
    """
    a = _mollifier_dots(gamma, centers)
    w = _max_entropy_weights(a, np.asarray(g, dtype=float).ravel())
    return w, w @ a


# ---------------------------------------------------------------------------
# families of reparametrisations


class ReparametrizedFamily(LoopFamily):
    """The family composed at each x with the circle map whose max-entropy
    weights over the fixed centres make the t=1 average g(x).

    Each x's weights are solved once and kept in an LRU cache with the t=1
    average they give; their CircleReparam is closed form, so a value or a
    partial integral builds it when it reads x.  reparametrize_family solves
    the nodes' weights at the build and keeps them as the family's entries;
    other points are solved when first read.  Averages need no phi; they
    are w @ a(x, t) by substitution, which is also a partial integral over a
    whole period.
    """

    def __init__(self, inner, g):
        self.inner = inner
        self.g = g
        self.dim_f = inner.dim_f
        self._cache = OrderedDict()

    def _entry(self, x):
        """(weights, t=1 average) at x."""
        key = np.atleast_1d(np.asarray(x, dtype=float)).tobytes()
        entry = self._cache.get(key)
        if entry is not None:
            self._cache.move_to_end(key)
            return entry
        entry = self._cache[key] = adjust_weights(self.inner.loop_at(x, 1.0), self.g(x), _CENTERS)
        if len(self._cache) > _REPARAM_CACHE:
            self._cache.popitem(last=False)
        return entry

    def reparam_at(self, x):
        return CircleReparam(self._entry(x)[0])

    def eval(self, x, t, s):
        return self.inner.eval(x, t, self.reparam_at(x).phi(np.atleast_1d(np.asarray(s, dtype=float))))

    def integral_over(self, x, t, a, b, M=4096):
        """int_a^b gamma(x, t, phi_x(s)) ds = int gamma(x, t, u) rho_x(u) du
        over [phi_x(a), phi_x(b)] by Simpson on the dot nodes: one panel pair
        between each two even nodes inside, and one from each end to the
        nearest of them.  Over a whole period these are the dots' own nodes
        and weights, so the integral is the average.  M is not used."""
        if b < a:
            return -self.integral_over(x, t, b, a)
        w = self._entry(x)[0]
        ua, ub = CircleReparam(w).phi(np.array([a, b], dtype=float))
        inside = np.arange(np.floor(ua / _DOT_PAIR) + 1.0, np.ceil(ub / _DOT_PAIR)) * _DOT_PAIR
        u, weights = simpson_pairs(np.concatenate([[ua], inside, [ub]]))
        return (weights * _mix_density(w)(u)) @ self.inner.eval(x, t, u)

    def average_at(self, x, t, M=4096):
        """The substitution identity in closed form (M is not used); the t=1
        average is the one the weights were solved for."""
        w, avg1 = self._entry(x)
        if t == 1.0:
            return avg1
        return w @ _mollifier_dots(self.inner.loop_at(x, t), _CENTERS)


def reparametrize_family(family, g, grid):
    """Reparametrise a surrounding family so its t=1 averages equal g at every x.

    Every node's t=1 loop must surround g(x) on samples (NotSurrounded
    otherwise) and pass one weight solve (NoConvergence otherwise, carrying
    the weights and residual); either error names the node.  The nodes'
    weights are solved here and kept as the returned family's entries; off
    the nodes the weights are solved when x is first read.
    """
    reparametrized = ReparametrizedFamily(family, g)
    for x in grid.nodes():
        try:
            surround_certificate(family.loop_at(x, 1.0), g(x), M=_CERTIFICATE_M)
            reparametrized._entry(x)
        except (NotSurrounded, NoConvergence) as err:
            err.args = (f"node {x}: {err}",)
            raise
    return reparametrized
