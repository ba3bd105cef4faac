"""1-jets, dual pairs, jet sections, differential relations, and the
parameter-absorbing lift that trades a family of sections over E for a single
section over E x P.
"""

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

__all__ = [
    "DualPair",
    "OneJet",
    "JetSection",
    "FamilyOfSections",
    "Relation",
    "update",
    "relation_slice",
    "fd_jacobian",
    "holonomy_residual",
    "psi_project",
    "parametric_relation",
    "bar_family",
]

FD_SCALE = 1e-5  # central-difference step is FD_SCALE * (1 + |x|)


def fd_jacobian(f, x, h=None):
    """Central finite-difference Jacobian of f at x, one column per direction."""
    x = np.asarray(x, dtype=float)
    if h is None:
        h = FD_SCALE * (1.0 + np.linalg.norm(x))
    cols = []
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = h
        cols.append((np.asarray(f(x + e), dtype=float) - np.asarray(f(x - e), dtype=float)) / (2.0 * h))
    return np.stack(cols, axis=-1)


@dataclass(frozen=True)
class DualPair:
    """Covector/vector pair (pi, v) with pi(v) = 1; splits E as ker pi + Rv."""

    pi: np.ndarray
    v: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "pi", np.asarray(self.pi, dtype=float).ravel())
        object.__setattr__(self, "v", np.asarray(self.v, dtype=float).ravel())
        if self.pi.shape != self.v.shape:
            raise ValueError("pi and v must have the same dimension")
        pairing = float(self.pi @ self.v)
        if abs(pairing - 1.0) > 1e-12:
            raise ValueError(f"pi(v) = {pairing!r}, expected 1 within 1e-12")

    @property
    def dim(self):
        return self.v.size

    def pairing(self, x):
        return float(self.pi @ np.asarray(x, dtype=float))


@dataclass(frozen=True)
class OneJet:
    """A point (x, y, phi) of the 1-jet space of maps E -> F."""

    x: np.ndarray
    y: np.ndarray
    phi: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "x", np.asarray(self.x, dtype=float).ravel())
        object.__setattr__(self, "y", np.asarray(self.y, dtype=float).ravel())
        object.__setattr__(self, "phi", np.asarray(self.phi, dtype=float))
        if self.phi.shape != (self.y.size, self.x.size):
            raise ValueError(
                f"phi has shape {self.phi.shape}, expected {(self.y.size, self.x.size)}"
            )

    @classmethod
    def _unchecked(cls, x, y, phi):
        """The jet of arrays already in the form `__post_init__` gives them
        (float64, x and y 1-D, phi of shape (y.size, x.size)), built without
        running it."""
        jet = object.__new__(cls)
        jet.__dict__.update(x=x, y=y, phi=phi)
        return jet


@dataclass
class JetSection:
    """A section x -> (f(x), phi(x)); df is an optional analytic derivative of f."""

    f: Callable[[np.ndarray], np.ndarray]
    phi: Callable[[np.ndarray], np.ndarray]
    df: Optional[Callable[[np.ndarray], np.ndarray]] = None

    def jet(self, x):
        x = np.asarray(x, dtype=float)
        return OneJet(x, self.f(x), self.phi(x))

    def d_f(self, x):
        """Derivative of the f-component, analytic when available."""
        if self.df is not None:
            return np.asarray(self.df(x), dtype=float)
        return fd_jacobian(self.f, x)


@dataclass
class FamilyOfSections:
    """Family p -> (f_p, phi_p) of jet sections over E, parametrised by P."""

    dim_e: int
    param_dim: int
    eval: Callable[[np.ndarray, np.ndarray], tuple]
    dfdp: Optional[Callable[[np.ndarray, np.ndarray], np.ndarray]] = None
    dfdx: Optional[Callable[[np.ndarray, np.ndarray], np.ndarray]] = None

    def f(self, p, x):
        return np.asarray(self.eval(np.atleast_1d(p), np.atleast_1d(x))[0], dtype=float)

    def phi_at(self, p, x):
        return np.asarray(self.eval(np.atleast_1d(p), np.atleast_1d(x))[1], dtype=float)

    def section_at(self, p):
        p = np.atleast_1d(np.asarray(p, dtype=float))
        df = None
        if self.dfdx is not None:
            df = lambda x: np.asarray(self.dfdx(p, np.atleast_1d(x)), dtype=float)
        return JetSection(
            f=lambda x: self.f(p, x),
            phi=lambda x: self.phi_at(p, x),
            df=df,
        )


@dataclass
class Relation:
    """Open first-order relation: membership plus a quantitative openness margin.

    margin(jet) is the radius of a jet-space ball certified to stay inside the
    relation (0 outside); it is the numerical stand-in for openness.
    """

    member: Callable[[OneJet], bool]
    margin: Callable[[OneJet], float] = field(default=lambda jet: 0.0)


def update(p: DualPair, phi, w):
    """Rank-one correction sending v to w while fixing ker pi.

    Returns phi + (w - phi v) (x) pi.
    """
    phi = _check_phi(p, phi)
    return _send(p, phi, phi @ p.v, w)


def _check_phi(p: DualPair, phi):
    phi = np.asarray(phi, dtype=float)
    if phi.shape[1] != p.dim:
        raise ValueError("dimension mismatch in update")
    return phi


def _send(p: DualPair, phi, phi_v, w):
    """update(p, phi, w) given the product phi_v = phi v."""
    w = np.asarray(w, dtype=float).ravel()
    if w.size != phi.shape[0]:
        raise ValueError("dimension mismatch in update")
    return phi + (w - phi_v)[:, None] * p.pi


def relation_slice(R: Relation, sigma: OneJet, p: DualPair):
    """Predicate on F selecting the w with (x, y, update(p, phi, w)) in R.

    sigma and p are checked and phi v is computed once, here.  A call checks
    the size of w, forms update(p, phi, w) by the arithmetic of `update`, and
    hands R.member the jet of sigma's x and y with that phi, built without
    checking them again: one rank-one update and R.member.
    """
    sigma = OneJet(sigma.x, sigma.y, _check_phi(p, sigma.phi))
    x, y, phi = sigma.x, sigma.y, sigma.phi
    phi_v = phi @ p.v

    def member(w):
        return R.member(OneJet._unchecked(x, y, _send(p, phi, phi_v, w)))

    return member


def holonomy_residual(F: JetSection, x, basis):
    """max over basis u of |(Df - phi) u| / (1 + |u|), Df analytic when available."""
    x = np.asarray(x, dtype=float)
    D = F.d_f(x)
    P = np.asarray(F.phi(x), dtype=float)
    worst = 0.0
    for u in basis:
        u = np.asarray(u, dtype=float)
        r = np.linalg.norm((D - P) @ u) / (1.0 + np.linalg.norm(u))
        worst = max(worst, r)
    return worst


def psi_project(sigma_bar: OneJet, dim_e: int):
    """Forget the parameter block: (x, p, y, psi) -> (x, y, psi | E-block)."""
    if dim_e > sigma_bar.x.size:
        raise ValueError("declared E-block exceeds the jet's source dimension")
    return OneJet(sigma_bar.x[:dim_e], sigma_bar.y, sigma_bar.phi[:, :dim_e])


def parametric_relation(R: Relation, param_dim: int):
    """Pull the relation back through the parameter-forgetting projection."""
    if param_dim < 0:
        raise ValueError("param_dim must be nonnegative")

    def member(sigma_bar):
        return R.member(psi_project(sigma_bar, sigma_bar.x.size - param_dim))

    def margin(sigma_bar):
        return R.margin(psi_project(sigma_bar, sigma_bar.x.size - param_dim))

    return Relation(member=member, margin=margin)


def bar_family(F: FamilyOfSections):
    """Absorb the parameter: a family over E becomes one section over E x P.

    The lifted section at (x, p) has value f_p(x) and derivative candidate
    [phi_{p,x} | df/dp], so it is holonomic at (x, p) exactly when F_p is
    holonomic at x: the P-block matches by construction.
    """
    ne, np_ = F.dim_e, F.param_dim

    def split(xp):
        xp = np.asarray(xp, dtype=float).ravel()
        return xp[:ne], xp[ne:]

    def dfdp(x, p):
        if F.dfdp is not None:
            return np.asarray(F.dfdp(p, x), dtype=float).reshape(-1, np_)
        return fd_jacobian(lambda q: F.f(q, x), p)

    def dfdx(x, p):
        if F.dfdx is not None:
            return np.asarray(F.dfdx(p, x), dtype=float).reshape(-1, ne)
        return fd_jacobian(lambda z: F.f(p, z), x)

    def f_bar(xp):
        x, p = split(xp)
        return F.f(p, x)

    def phi_bar(xp):
        x, p = split(xp)
        blocks = [F.phi_at(p, x).reshape(-1, ne)]
        if np_ > 0:
            blocks.append(dfdp(x, p))
        return np.hstack(blocks)

    def df_bar(xp):
        x, p = split(xp)
        blocks = [dfdx(x, p)]
        if np_ > 0:
            blocks.append(dfdp(x, p))
        return np.hstack(blocks)

    return JetSection(f=f_bar, phi=phi_bar, df=df_bar)
