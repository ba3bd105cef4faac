"""Closed-form C-infinity primitives (exp(-1/x) ramps, bumps, tents) and the
engine's one quadrature rule (composite Simpson, plain and cumulative).

Every construction in the engine that needs a cutoff, a ramp or a bump is
assembled from these, so smoothness holds by construction and no separate
mollification pass is ever required.  Every integral over a loop parameter,
a mollifier support or a phase goes through `quad_integral` or
`cumulative_simpson`.
"""

import numpy as np

__all__ = [
    "expm_ramp",
    "smoothstep",
    "transition",
    "bump",
    "tent",
    "plateau",
    "quad_integral",
    "cumulative_simpson",
]


def expm_ramp(u):
    """exp(-1/u) for u > 0, identically 0 for u <= 0. Vectorized."""
    u = np.asarray(u, dtype=float)
    out = np.zeros_like(u)
    pos = u > 0
    with np.errstate(divide="ignore", over="ignore", under="ignore"):
        out[pos] = np.exp(-1.0 / u[pos])
    return out


def smoothstep(u):
    """Monotone C-infinity step: 0 for u <= 0, 1 for u >= 1, flat at both ends."""
    a = expm_ramp(u)
    b = expm_ramp(1.0 - np.asarray(u, dtype=float))
    with np.errstate(invalid="ignore"):
        s = np.where(a + b > 0, a / np.where(a + b > 0, a + b, 1.0), 0.0)
    return s


def transition(t, t0, t1):
    """Smooth 0 -> 1 transition supported on [t0, t1] (t1 > t0)."""
    return smoothstep((np.asarray(t, dtype=float) - t0) / (t1 - t0))


def bump(u):
    """C-infinity bump exp(-1/(1-u^2)) on (-1, 1), 0 outside. Peak value exp(-1)."""
    u = np.asarray(u, dtype=float)
    out = np.zeros_like(u)
    inside = np.abs(u) < 1.0
    with np.errstate(divide="ignore", over="ignore", under="ignore"):
        ui = u[inside]
        out[inside] = np.exp(-1.0 / (1.0 - ui * ui))
    return out


def tent(s):
    """Period-1 tent: 0 at s=0, 1 at s=1/2, back to 0 at s=1, flat at all three.

    All derivatives vanish at s in {0, 1/2, 1}, so the periodic extension is
    C-infinity despite the fold.
    """
    r = np.mod(np.asarray(s, dtype=float), 1.0)
    return smoothstep(1.0 - np.abs(2.0 * r - 1.0))


def plateau(d, d0, d1):
    """Smooth 1 -> 0 profile of a distance: 1 for d <= d0, 0 for d >= d1."""
    return 1.0 - transition(d, d0, d1)


def quad_integral(f, a, b, M):
    """Composite Simpson integral over [a, b] with M panels (even, >= 4) of a
    vectorized integrand; f maps the M + 1 nodes to values of any shape with
    the nodes on axis 0."""
    if M < 4 or M % 2:
        raise ValueError("Simpson panel count must be even and at least 4")
    vals = np.asarray(f(np.linspace(a, b, M + 1)), dtype=float)
    w = np.ones(M + 1)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    # matmul on a 2-D view is faster than tensordot for the small integrands here
    out = w @ vals.reshape(M + 1, -1)
    return out.reshape(vals.shape[1:]) * ((b - a) / M) / 3.0


def cumulative_simpson(vals, h):
    """Integrals from the first sample to every sample of equally spaced
    values (axis 0, even panel count): composite Simpson at even nodes, the
    quadratic through each panel pair for the half pair at odd nodes."""
    if len(vals) < 5 or len(vals) % 2 == 0:
        raise ValueError("Simpson panel count must be even and at least 4")
    f0, f1, f2 = vals[0:-1:2], vals[1::2], vals[2::2]
    out = np.zeros_like(vals)
    out[2::2] = np.cumsum(h / 3.0 * (f0 + 4.0 * f1 + f2), axis=0)
    out[1::2] = out[0:-1:2] + h / 12.0 * (5.0 * f0 + 8.0 * f1 - f2)
    return out
