"""The corrugation operator, its remainder, the exact derivative formula,
and the oscillation frequency N computed from their 1/N bound.

For a dual pair p = (pi, v) and a loop family gamma, the corrugation is

    (1/N) int_0^{N pi(x)} (gamma_{t,x}(s) - avg gamma_{t,x}) ds.

Full periods of the integrand cancel, so only the fractional part of
N pi(x) is ever integrated; its x-derivative is the rank-one term
pi (x) (gamma_{t,x}(N pi(x)) - avg) plus the corrugation of the family's
x-derivative.

The same reduction gives the bound: Corr = A(x, t, frac(N pi(x))) / N with
A(r) = int_0^r (gamma - avg), so sup |Corr| = max_r |A| / N, and the
remainder is bounded by max_r |B|_F / N with B built from central differences
of gamma in x.  The maxima run over every phase r in [0, 1] at each sampled
(x, t); the sample points only see the slow x-dependence of gamma and cannot
alias with N.
"""

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import BudgetExceeded
from .jets import DualPair, fd_jacobian
from .loops import LoopFamily
from .smooth import cumulative_simpson, quad_integral

__all__ = [
    "CorrugationJob",
    "corrugation",
    "remainder",
    "corrugated_derivative",
    "choose_N",
    "sup_norms",
]


_AVG_M = 512  # Simpson panels of a loop average
_FRAC_M = 512  # Simpson panels over a fractional period, and phase nodes of the bound
_K_MAX = 30  # choose_N gives up past N = 2^_K_MAX


@dataclass
class CorrugationJob:
    """Corrugation data: dual pair, frequency, loop family."""

    p: DualPair
    N: float
    family: object

    def __post_init__(self):
        if self.N <= 0:
            raise ValueError("N must be positive")


def _frac_split(job, x):
    z = job.N * job.p.pairing(x)
    k = math.floor(z)
    return z, k, z - k


def corrugation(job: CorrugationJob, x, t):
    """Value of the corrugation map at (x, t).

    Whole periods of gamma - avg integrate to zero, so only the fractional
    part r of N pi(x) contributes; at a whole phase (r = 0) the value is zero
    and neither the loop average nor any integral is computed.
    """
    _, _, r = _frac_split(job, x)
    if r == 0.0:
        return np.zeros(job.family.dim_f)
    I = job.family.integral_over(x, t, 0.0, r, M=_FRAC_M)
    return (I - r * job.family.average_at(x, t, M=_AVG_M)) / job.N


def remainder(job: CorrugationJob, x, t):
    """Corrugation of the family's x-derivative: the error term of the
    derivative formula, by central differences with the integral limits
    frozen at x."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    _, _, r = _frac_split(job, x)
    if r == 0.0:
        e_dim = x.size
        return np.zeros((job.family.dim_f, e_dim))

    def frozen(z):
        return job.family.integral_over(z, t, 0.0, r, M=_FRAC_M) - r * job.family.average_at(z, t, M=_AVG_M)

    return fd_jacobian(frozen, x) / job.N


def corrugated_derivative(job: CorrugationJob, x, t):
    """Exact x-derivative of the corrugation map:
    pi (x) (gamma_{t,x}(N pi(x)) - avg) + remainder."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    z, _, _ = _frac_split(job, x)
    val = job.family.eval(x, t, np.array([z]))[0] - job.family.average_at(x, t, M=_AVG_M)
    return np.outer(val, job.p.pi) + remainder(job, x, t)


def _phase_max(vals, avg, s):
    """max over the phase nodes s of |int_0^r vals - r avg| (Frobenius)."""
    A = cumulative_simpson(vals, s[1] - s[0]) - s.reshape((-1,) + (1,) * avg.ndim) * avg
    return float(np.sqrt(np.max(np.sum(A.reshape(len(s), -1) ** 2, axis=1))))


def _phase_constants(job: CorrugationJob, x, t):
    """(max_r |A|, max_r |B|_F) at one (x, t), from one cumulative quadrature
    over the _FRAC_M phase nodes; B uses the central differences of
    `remainder`.

    The family is sampled once at x and once at each of the 2d shifted points.
    A family that keeps the inherited `LoopFamily.average_at` averages those
    same samples: its mean is Simpson over linspace(0, 1, _AVG_M + 1), which
    are the phase nodes, so the shared mean is that average bit for bit.  A
    family with its own mean (warped, blended, reparametrised) is asked for it.
    """
    s = np.linspace(0.0, 1.0, _FRAC_M + 1)
    fam = job.family
    shared = _AVG_M == _FRAC_M and type(fam).average_at is LoopFamily.average_at

    def samples(z):
        vals = np.asarray(fam.eval(z, t, s), dtype=float)
        avg = quad_integral(lambda _: vals, 0.0, 1.0, _AVG_M) if shared else fam.average_at(z, t, M=_AVG_M)
        return vals, avg

    vals, avg = samples(x)
    # differentiate the phase samples and the average together: the first
    # _FRAC_M + 1 rows are gamma(x, t, s), the last row is its average
    d = fd_jacobian(lambda z: np.vstack(samples(z)), x)
    return _phase_max(vals, avg, s), _phase_max(d[:-1], d[-1], s)


def sup_norms(job: CorrugationJob, points, t_values):
    """Bounds (sup |corrugation|, sup |remainder|_F) at frequency job.N.

    Each is the maximum over the sampled (x, t) of a constant C(x, t) taken
    over every phase r in [0, 1], divided by N: the corrugation equals
    A(x, t, frac(N pi(x))) / N whatever N is, so the bound holds at every x
    whose phase the grid misses, including grids where N pi(x) is an integer
    at every node.  Each (x, t) evaluates the family over the phase nodes at
    x and at the 2d points of one central difference; a family with its own
    mean is also asked for it at those points (see `_phase_constants`).
    """
    c_corr = 0.0
    c_rem = 0.0
    for xx in points:
        x = np.atleast_1d(np.asarray(xx, dtype=float))
        for t in t_values:
            a, b = _phase_constants(job, x, float(t))
            c_corr = max(c_corr, a)
            c_rem = max(c_rem, b)
    return c_corr / job.N, c_rem / job.N


def choose_N(job: CorrugationJob, points, t_values, eps):
    """Smallest N in the sequence 2^k (k >= 0) with both sup norms at most eps.

    Both norms are C / N exactly (see `sup_norms`), so C is computed once, at
    N = 1, and k is read off in closed form; no trial N is evaluated.  N = 1
    when C <= eps (in particular when C = 0); BudgetExceeded when k would
    pass _K_MAX.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    C = max(sup_norms(replace(job, N=1.0), points, t_values))
    if not math.isfinite(C):
        raise BudgetExceeded(f"corrugation bound is not finite: C={C}")
    if C <= eps:
        return 1.0
    # smallest k with C / eps <= 2^k, exactly: frexp gives m 2^e, m in [0.5, 1)
    m, k = math.frexp(C / eps)
    if m == 0.5:
        k -= 1
    if k > _K_MAX:
        raise BudgetExceeded(f"no N up to 2^{_K_MAX} met eps={eps}: C={C:.3e} needs N=2^{k}")
    return 2.0**k
