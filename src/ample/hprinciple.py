"""Landscapes, the inductive corrugation step, the basis fold that turns a
formal solution into a holonomic one near a compact set, and the parametric
wrapper that rides on the parameter-absorbing lift.

The step takes a formal solution F = (f, phi), a dual pair p = (pi, v) and a
landscape (C, K0, K1); it builds a loop family with base phi(x)v and average
Df(x)v inside the slice of the relation, corrugates:

    f_t(x)   = f(x) + t rho(x) Corr_{p,N}(gamma_t)(x)
    phi_t(x) = update(p, phi(x), gamma_x^{t rho(x)}(N pi(x))) + Rem_{p,N}(gamma^{t rho(.)})(x)

and returns the homotopy.  The remainder uses the cutoff-absorbed family so
the homotopy starts exactly at F and is exactly unchanged near C and outside
K1.
"""

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .corrugation import CorrugationJob, choose_N, corrugated_derivative, corrugation, remainder
from .errors import MarginExceeded
from .grids import Grid, GridRegion
from .jets import (
    DualPair,
    FamilyOfSections,
    JetSection,
    OneJet,
    Relation,
    bar_family,
    fd_jacobian,
    holonomy_residual,
    parametric_relation,
    psi_project,
    update,
    relation_slice,
)
from .loops import WarpedFamily, build_loop_family
from .smooth import plateau, smoothstep

__all__ = [
    "Landscape",
    "StepLandscape",
    "AcceptsWitness",
    "Cutoff",
    "Homotopy",
    "ConcatenatedHomotopy",
    "ParametricHomotopy",
    "accepts",
    "improve_step",
    "improve",
    "improve_parametric",
    "verify_conclusions",
    "NEAR_CELLS",
]

NEAR_CELLS = 2  # "near" a region always means this many cells of dilation
_STEP_T = (0.5, 1.0)  # grades at which a step probes its margin and bounds its corrugation
_SUP_STRIDE = 2  # every this-many landscape node feeds the bound on N
_HOL_TOL = 1e-6  # holonomy residual a landscape accepts on E' near K0 and near C
_VERIFY_HOL_TOL = 1e-3  # finite-difference holonomy residual verify_conclusions accepts on K0
_VERIFY_T0_TOL = 1e-9  # distance of the homotopy at t=0 from F0 that verify_conclusions accepts
_VERIFY_FROZEN_TOL = 1e-12  # motion outside K1 and near C that verify_conclusions accepts


@dataclass
class Landscape:
    """Ambient data for one improvement pass: nested compacts and a frozen set."""

    grid: Grid
    k0: GridRegion
    k1: GridRegion
    c: Optional[GridRegion] = None
    box: Optional[tuple] = None

    def __post_init__(self):
        if not self.k0.is_empty and not self.k0.dilate(1).issubset(self.k1):
            raise ValueError("K0 dilated by one cell must sit inside K1")
        if self.box is None:
            lo = np.array([a[0] for a in self.grid.axes])
            hi = np.array(
                [
                    a[-1] + (self.grid.spacing[i] if self.grid.periodic[i] else 0.0)
                    for i, a in enumerate(self.grid.axes)
                ]
            )
            self.box = (lo, hi)


@dataclass
class StepLandscape:
    """Landscape plus the direction data of one step: a subspace inside the
    dual pair's hyperplane."""

    landscape: Landscape
    e_sub: list
    p: DualPair

    def __post_init__(self):
        for u in self.e_sub:
            if abs(self.p.pairing(u)) > 1e-10:
                raise ValueError("improved subspace must lie inside ker pi")


@dataclass
class AcceptsWitness:
    """Grid evidence that a landscape accepts a formal solution."""

    formal_ok: bool
    margin_min: float
    e_holonomy_residual: float
    c_holonomy_residual: float
    hol_tol: float

    @property
    def ok(self):
        return (
            self.formal_ok
            and self.margin_min > 0.0
            and self.e_holonomy_residual <= self.hol_tol
            and self.c_holonomy_residual <= self.hol_tol
        )


def accepts(R: Relation, F: JetSection, S: StepLandscape):
    """Check the step preconditions on the landscape grid."""
    L = S.landscape
    formal_ok = True
    margin_min = np.inf
    for x in L.grid.nodes():
        jet = F.jet(x)
        if not R.member(jet):
            formal_ok = False
            margin_min = 0.0
            break
        margin_min = min(margin_min, float(R.margin(jet)))
    e_res = 0.0
    if S.e_sub:
        for x in L.k0.dilate(NEAR_CELLS).nodes():
            e_res = max(e_res, holonomy_residual(F, x, S.e_sub))
    c_res = 0.0
    if L.c is not None and not L.c.is_empty:
        full = list(np.eye(L.grid.dim))
        for x in L.c.dilate(NEAR_CELLS).nodes():
            c_res = max(c_res, holonomy_residual(F, x, full))
    return AcceptsWitness(
        formal_ok=formal_ok,
        margin_min=float(margin_min if formal_ok else 0.0),
        e_holonomy_residual=e_res,
        c_holonomy_residual=c_res,
        hol_tol=_HOL_TOL,
    )


class Cutoff:
    """Smooth cutoff equal to 1 on a dilation of K0 with support inside K1."""

    def __init__(self, landscape: Landscape):
        L = landscape
        h = min(L.grid.spacing)
        self.inner = L.k0.dilate(1)
        outside = L.k1.complement()
        self.trivial = outside.is_empty or self.inner.is_empty
        self.constant = 1.0 if outside.is_empty else 0.0
        if not self.trivial:
            gap = min(self.inner.distance(x) for x in outside.nodes())
            self.d0 = 0.2 * h
            self.d1 = max(gap - 0.55 * h, 0.5 * h)

    def rho(self, x):
        if self.trivial:
            return self.constant
        return float(plateau(self.inner.distance(x), self.d0, self.d1))

    def drho(self, x):
        x = np.atleast_1d(np.asarray(x, dtype=float))
        if self.trivial:
            return np.zeros_like(x)
        return fd_jacobian(self.rho, x, h=1e-6)


class Homotopy:
    """Time-indexed family of jet sections produced by one corrugation step.

    `eval_times(ts, x)` reads a column of times at one point and computes
    rho(x), f(x), phi(x) and the phase N pi(x) once for it; `eval(t, x)` is
    its one-time column.
    """

    def __init__(self, section: JetSection, S: StepLandscape, gamma, N, cutoff: Cutoff, metadata=None):
        self.section = section
        self.S = S
        self.p = S.p
        self.gamma = gamma
        self.N = float(N)
        self.cutoff = cutoff
        self.metadata = metadata or {}
        self._job = CorrugationJob(self.p, self.N, gamma)

    def _warped_job(self, t):
        return CorrugationJob(self.p, self.N, WarpedFamily(self.gamma, lambda x: t * self.cutoff.rho(x)))

    def _f(self, t, x, rho, fx):
        """The f-component f(x) + t rho(x) Corr(x, t) at a clipped t, a point
        x, rho = rho(x) and fx = f(x); computes nothing of phi."""
        return fx + t * rho * corrugation(self._job, x, t)

    def eval_times(self, ts, x):
        """[eval(t, x) for t in ts], bit for bit, with rho(x), f(x), phi(x)
        and the phase N pi(x) computed once for the whole column."""
        x = np.atleast_1d(np.asarray(x, dtype=float))
        rho = self.cutoff.rho(x)
        f0 = self.section.f(x)
        phi0 = self.section.phi(x)
        z = np.array([self.N * self.p.pairing(x)])
        out = []
        for t in ts:
            t = float(np.clip(t, 0.0, 1.0))
            y = self._f(t, x, rho, f0)
            w = self.gamma.eval(x, t * rho, z)[0]
            out.append((y, update(self.p, phi0, w) + remainder(self._warped_job(t), x, 0.0)))
        return out

    def eval(self, t, x):
        return self.eval_times([t], x)[0]

    def d_f_at(self, t, x):
        """Analytic derivative of the f-component via the derivative formula."""
        t = float(np.clip(t, 0.0, 1.0))
        x = np.atleast_1d(np.asarray(x, dtype=float))
        rho = self.cutoff.rho(x)
        D = self.section.d_f(x)
        if t == 0.0:
            return D
        corr = corrugation(self._job, x, t)
        D = D + t * np.outer(corr, self.cutoff.drho(x))
        if rho > 0.0:
            D = D + t * rho * corrugated_derivative(self._job, x, t)
        return D

    def section_at(self, t):
        """The jet section at time t.  Its f is eval(t, x)[0] bit for bit but
        never computes phi, so finite differences of f (the holonomy check,
        the next stage's derivative) cost no remainder."""
        t = float(np.clip(t, 0.0, 1.0))

        def f(x):
            x = np.atleast_1d(np.asarray(x, dtype=float))
            return self._f(t, x, self.cutoff.rho(x), self.section.f(x))

        return JetSection(
            f=f,
            phi=lambda x: self.eval(t, x)[1],
            df=lambda x: self.d_f_at(t, x),
        )


class ConcatenatedHomotopy:
    """Stage-by-stage composition with flat-ended time warps per stage."""

    def __init__(self, stages):
        if not stages:
            raise ValueError("need at least one stage")
        self.stages = list(stages)

    def _stage(self, t):
        """The stage covering global time t, and its flat-ended local time."""
        t = float(np.clip(t, 0.0, 1.0))
        n = len(self.stages)
        u = t * n
        i = min(int(np.floor(u)), n - 1)
        return self.stages[i], float(smoothstep(u - i))

    def eval_times(self, ts, x):
        return [stage.eval(local, x) for stage, local in map(self._stage, ts)]

    def eval(self, t, x):
        # stage i is built on top of stage i-1's final section, so evaluating
        # stage i at its warped local time already includes all earlier stages
        stage, local = self._stage(t)
        return stage.eval(local, x)

    def section_at(self, t):
        stage, local = self._stage(t)
        return stage.section_at(local)

    @property
    def metadata(self):
        return [s.metadata for s in self.stages]


def _choose_step_n(p, gamma, cutoff, points, eps):
    """Frequency from the 1/N bound over every phase: the slice corrugation
    and its remainder at t in {0.5, 1} (the f-term and its derivative) and
    the remainder of the cutoff-absorbed families (the phi-term)."""
    N = choose_N(CorrugationJob(p, 1.0, gamma), points, _STEP_T, eps)
    for t in _STEP_T:
        warped = CorrugationJob(p, 1.0, WarpedFamily(gamma, lambda x, _t=t: _t * cutoff.rho(x)))
        N = max(N, choose_N(warped, points, [0.0], eps))
    return N


def improve_step(R: Relation, F: JetSection, S: StepLandscape, eps):
    """One inductive improvement: returns the corrugation homotopy making F
    E' + Rv holonomic near K0 while staying inside R, unchanged near C and
    outside K1, and moving f by at most eps."""
    L = S.landscape
    p = S.p
    wit = accepts(R, F, S)
    if not wit.ok:
        raise MarginExceeded(f"landscape does not accept the section: {wit}")

    def beta(x):
        return np.asarray(F.phi(x), dtype=float) @ p.v

    def g(x):
        return np.asarray(F.d_f(x), dtype=float) @ p.v

    def omega(x):
        return relation_slice(R, F.jet(x), p)

    if L.c is not None and not L.c.is_empty:
        k_loops = GridRegion(L.grid, L.c.mask & L.k1.mask)
    else:
        k_loops = GridRegion.empty(L.grid)

    gamma = build_loop_family(omega, beta, g, k_loops, L.box, eps, L.grid)

    # margin of the relation along the updated jets bounds the allowed
    # remainder and value drift
    m_star = np.inf
    s_probe = np.linspace(0.0, 1.0, 17)
    for x in L.grid.nodes():
        jet = F.jet(x)
        for t in _STEP_T:
            vals = gamma.eval(x, t, s_probe)
            for w in vals:
                m = R.margin(OneJet(jet.x, jet.y, update(p, jet.phi, w)))
                m_star = min(m_star, float(m))
    eps_n = min(eps, m_star / 4.0) if m_star > 0 else eps

    cutoff = Cutoff(L)
    sup_points = L.grid.nodes()[::_SUP_STRIDE]
    N = _choose_step_n(p, gamma, cutoff, sup_points, eps_n)

    meta = {"N": N, "eps": eps, "eps_n": eps_n, "margin_min": float(m_star), "witness": wit}
    return Homotopy(F, S, gamma, N, cutoff, metadata=meta)


def improve(R: Relation, F0: JetSection, L: Landscape, eps, basis=None):
    """Fold the inductive step over a basis of directions.

    Each step uses the dual pair of the next direction, improves holonomy on
    the span of the previous ones, and spends an equal share of eps.
    """
    dim = L.grid.dim
    if basis is None:
        basis = [np.eye(dim)[i] for i in range(dim)]
    B = np.stack([np.asarray(b, dtype=float) for b in basis], axis=1)
    duals = np.linalg.pinv(B)
    n = len(basis)
    stages = []
    current = F0
    for i, e in enumerate(basis):
        S = StepLandscape(landscape=L, e_sub=[np.asarray(b, dtype=float) for b in basis[:i]], p=DualPair(duals[i], e))
        hom = improve_step(R, current, S, eps / n)
        stages.append(hom)
        current = hom.section_at(1.0)
    return ConcatenatedHomotopy(stages)


class ParametricHomotopy:
    """Read-back of a lifted homotopy: a family over time and parameter."""

    def __init__(self, bar_homotopy, dim_e, param_dim):
        self.bar = bar_homotopy
        self.dim_e = dim_e
        self.param_dim = param_dim

    def eval(self, t, pval, x):
        xp = np.concatenate([np.atleast_1d(np.asarray(x, dtype=float)), np.atleast_1d(np.asarray(pval, dtype=float))])
        y, phi = self.bar.eval(t, xp)
        jet = psi_project(OneJet(xp, y, phi), self.dim_e)
        return jet.y, jet.phi


def improve_parametric(R: Relation, F0: FamilyOfSections, C, K, eps):
    """Parametric h-principle driver: lift the family over E x P, improve
    with corrugations along the E directions, read the family back.

    The landscape lives on K's grid over E x P.  The P-block of the lifted
    derivative candidate is the actual parameter derivative, so only the
    E-directions need improving for every parameter slice to become
    holonomic.
    """
    Fbar = bar_family(F0)
    RP = parametric_relation(R, F0.param_dim)
    L = Landscape(grid=K.grid, k0=K, k1=K.dilate(2), c=C)
    basis = [np.eye(K.grid.dim)[i] for i in range(F0.dim_e)]
    hom = improve(RP, Fbar, L, eps, basis=basis)
    return ParametricHomotopy(hom, F0.dim_e, F0.param_dim)


def verify_conclusions(hom, F0: JetSection, R: Relation, L: Landscape, eps, t_values=None):
    """Residual report for the five step conclusions, all measured on grids.

    The holonomy check runs finite differences on the corrugated map itself
    along every axis, independent of the analytic derivative carried by the
    homotopy.  Each node reads one `hom.eval_times` column over `t_values`;
    the start check reads the one-time `hom.eval(0, x)`, so both read paths
    are checked.
    """
    if t_values is None:
        t_values = np.linspace(0.0, 1.0, 11)
    t_values = [float(t) for t in t_values]
    frozen = L.k1.complement()
    if L.c is not None and not L.c.is_empty:
        frozen = frozen.union(GridRegion(L.grid, L.c.mask & L.k1.mask).dilate(NEAR_CELLS))
    frozen_at = frozen.mask.ravel()

    # one pass over the nodes, one time column per node
    res0 = res_frozen = res_c0 = 0.0
    member_ok = True
    margin_min = np.inf
    witness = None
    for x, is_frozen in zip(L.grid.nodes(), frozen_at):
        f0, p0 = F0.f(x), F0.phi(x)
        y, phi = hom.eval(0.0, x)
        res0 = max(res0, float(np.linalg.norm(y - f0)), float(np.linalg.norm(phi - p0)))
        for t, (y, phi) in zip(t_values, hom.eval_times(t_values, x)):
            jet = OneJet(x, y, phi)
            if not R.member(jet):
                member_ok = False
                witness = (t, np.array(x))
            else:
                margin_min = min(margin_min, float(R.margin(jet)))
            if is_frozen:
                res_frozen = max(res_frozen, float(np.linalg.norm(y - f0)), float(np.linalg.norm(phi - p0)))
            res_c0 = max(res_c0, float(np.linalg.norm(y - f0)))

    report = {"starts_at_input": {"residual": res0, "tol": _VERIFY_T0_TOL, "passed": res0 <= _VERIFY_T0_TOL}}
    report["stays_in_relation"] = {
        "residual": 0.0 if member_ok else 1.0,
        "margin_min": float(margin_min) if member_ok else 0.0,
        "tol": 0.5,
        "passed": member_ok,
        "witness": witness,
    }
    report["frozen_outside"] = {
        "residual": res_frozen,
        "tol": _VERIFY_FROZEN_TOL,
        "passed": res_frozen <= _VERIFY_FROZEN_TOL,
    }
    report["value_drift"] = {"residual": res_c0, "tol": eps, "passed": res_c0 <= eps}

    directions = list(np.eye(L.grid.dim))
    sec1 = hom.section_at(1.0)
    probe = JetSection(f=sec1.f, phi=sec1.phi, df=None)  # force finite differences
    res_hol = 0.0
    for x in L.k0.nodes():
        res_hol = max(res_hol, holonomy_residual(probe, x, directions))
    report["holonomic_near_k0"] = {"residual": res_hol, "tol": _VERIFY_HOL_TOL, "passed": res_hol <= _VERIFY_HOL_TOL}

    report["all_passed"] = all(v["passed"] for k, v in report.items() if isinstance(v, dict))
    return report
