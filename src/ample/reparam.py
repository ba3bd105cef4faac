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
Partial integrals of composed loops keep to the u-side, where the quadrature
is well resolved.
"""

from collections import OrderedDict

import numpy as np

from .errors import NoConvergence, NotSurrounded
from .loops import LoopFamily, surround_certificate
from .smooth import bump, cumulative_simpson, quad_integral

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
_REPARAM_CACHE = 8192  # weights (and circle maps) kept per ReparametrizedFamily
_DOT_PANELS = 256  # Simpson panels over each mollifier's support in _mollifier_dots
_U_PANELS = 96 * _CERTIFICATE_M  # panels per unit of u in integral_over: 96 per _ETA

_BUMP_MASS = float(quad_integral(bump, -1.0, 1.0, 4096))


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
        cum = cumulative_simpson(np.asarray(density(t), dtype=float), 1.0 / n)
        self.total = float(cum[-1])
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
        t0 = idx / self._n
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
        t = np.interp(r, self._psi, np.arange(self._n + 1) / self._n)
        for _ in range(3):
            res = self.psi(t) - r
            t = np.clip(t - res / self.density_normalized(t), 0.0, 1.0)
        return k + t

    def __call__(self, s):
        return self.phi(s)


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
    average they give and the CircleReparam, which is built only when a
    value or a partial integral needs phi.  reparametrize_family solves the
    nodes' weights at the build and keeps them as the family's entries;
    other points are solved when first read.  Averages need no phi; they
    are w @ a(x, t) by substitution.
    """

    def __init__(self, inner, g):
        self.inner = inner
        self.g = g
        self.dim_f = inner.dim_f
        self._cache = OrderedDict()

    def _entry(self, x):
        """[weights, t=1 average, CircleReparam or None] at x."""
        key = np.atleast_1d(np.asarray(x, dtype=float)).tobytes()
        entry = self._cache.get(key)
        if entry is not None:
            self._cache.move_to_end(key)
            return entry
        entry = self._cache[key] = [*adjust_weights(self.inner.loop_at(x, 1.0), self.g(x), _CENTERS), None]
        if len(self._cache) > _REPARAM_CACHE:
            self._cache.popitem(last=False)
        return entry

    def reparam_at(self, x):
        entry = self._entry(x)
        if entry[2] is None:
            entry[2] = CircleReparam(_mix_density(entry[0]), _ETA)
        return entry[2]

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
        M = max(M, int(np.ceil((ub - ua) * _U_PANELS / 1024.0)) * 1024, 1024)
        return quad_integral(lambda u: self.inner.eval(x, t, u) * rp.density_normalized(u)[:, None], ua, ub, M)

    def average_at(self, x, t, M=4096):
        """The substitution identity in closed form (M is not used); the t=1
        average is the one the weights were solved for."""
        w, avg1, _ = self._entry(x)
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
