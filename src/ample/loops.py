"""Period-1 loops and loop families: averages, round trips through waypoint
chains, surrounding-loop construction over flood-filled components, the
patch-cover family that glues surrounding loops by satisfied-or-refund, and
the flagship family builder that combines all of it.

Families evaluate as gamma(x, t, s_array) -> (n, dim_f); everything is built
from smooth primitives, so families are as smooth as their ingredients.
"""

from dataclasses import dataclass

import numpy as np

from . import convexity
from .errors import MarginExceeded, NotSurrounded
from .grids import bfs
from .smooth import quad_integral, smoothstep, tent, transition

__all__ = [
    "Loop",
    "average",
    "LoopFamily",
    "RoundTripFamily",
    "PatchFamily",
    "WarpedFamily",
    "BlendedFamily",
    "surrounding_loop_at",
    "SurroundingLoopResult",
    "surround_certificate",
    "build_loop_family",
]


class Loop:
    """Period-1 loop wrapping a vectorized callable R -> F."""

    def __init__(self, fn):
        self.fn = fn

    def __call__(self, s):
        s = np.atleast_1d(np.asarray(s, dtype=float))
        out = np.asarray(self.fn(s), dtype=float)
        if out.ndim == 1:
            out = out.reshape(len(s), -1) if len(s) > 1 else out.reshape(1, -1)
        return out


def average(gamma, M=256):
    """Composite-Simpson average of a loop over one period (M panels)."""
    return quad_integral(gamma, 0.0, 1.0, M)


class LoopFamily:
    """Base class: a family (x, t) -> loop, evaluated at sample arrays s."""

    dim_f = None

    def eval(self, x, t, s):
        raise NotImplementedError

    def loop_at(self, x, t):
        return Loop(lambda s: self.eval(x, t, s))

    def average_at(self, x, t, M=256):
        return quad_integral(lambda s: self.eval(x, t, s), 0.0, 1.0, M)

    def integral_over(self, x, t, a, b, M=256):
        """int_a^b gamma_{x,t}(s) ds by composite Simpson (oriented)."""
        if b < a:
            return -self.integral_over(x, t, b, a, M=M)
        if b == a:
            return np.zeros(self.dim_f)
        return quad_integral(lambda s: self.eval(x, t, s), a, b, M)


class RoundTripFamily(LoopFamily):
    """Loop running out along a waypoint chain and back, grown by t.

    The underlying path P goes base -> w_0 -> ... -> w_m with a flat-ended
    smooth clock per segment; the loop is s -> P(t * tent(s)), so gamma^0 is
    the constant base loop, gamma^t(0) = base, and gamma^1 traverses the whole
    chain out and back.
    """

    def __init__(self, beta, waypoints):
        beta = np.asarray(beta, dtype=float).ravel()
        pts = [beta] + [np.asarray(w, dtype=float).ravel() for w in waypoints]
        if len(pts) < 2:
            raise ValueError("need at least one waypoint")
        self.points = np.stack(pts)
        self.dim_f = beta.size
        seg = np.linalg.norm(np.diff(self.points, axis=0), axis=1)
        seg = np.maximum(seg, 1e-9 * (seg.sum() + 1.0))
        self.breaks = np.concatenate([[0.0], np.cumsum(seg)]) / seg.sum()

    def path(self, u):
        """The chain path P: [0,1] -> F, vectorized."""
        u = np.clip(np.atleast_1d(np.asarray(u, dtype=float)), 0.0, 1.0)
        k = np.clip(np.searchsorted(self.breaks, u, side="right") - 1, 0, len(self.breaks) - 2)
        u0 = self.breaks[k]
        du = self.breaks[k + 1] - u0
        loc = smoothstep((u - u0) / du)
        return self.points[k] + loc[:, None] * (self.points[k + 1] - self.points[k])

    def eval(self, x, t, s):
        s = np.atleast_1d(np.asarray(s, dtype=float))
        return self.path(np.clip(t, 0.0, 1.0) * tent(s))


def _rho_refund(u):
    """Piecewise-affine strength profile: 1 for u <= 1/2, 0 for u >= 1."""
    return float(np.clip(2.0 * (1.0 - u), 0.0, 1.0))


class PatchFamily(LoopFamily):
    """Model loops on a patch cover, glued by satisfied-or-refund.

    Slot j runs models[j] carried to x by translation:
    models[j](t, s) + beta(x) - offsets[j].  weights(x) returns the weights
    tau_1(x), ..., tau_k(x) of slots 1..k as one array.  Slot j occupies the
    width tau_j * prod_{m>j}(1 - tau_m) at the tail end of the earlier slots,
    with homotopy grade damped by the refund profile exactly as in the
    paper's nested construction, so every intermediate loop still contains a
    full surrounding loop.  Flattening keeps evaluation cost linear in the
    number of slots; beta and the weights are evaluated once per call.
    """

    def __init__(self, models, offsets, beta, weights):
        self.models = list(models)
        self.offsets = np.asarray(offsets, dtype=float)
        self.beta = beta
        self.weights = weights
        self.dim_f = self.models[0].dim_f

    def eval(self, x, t, s):
        s = np.mod(np.atleast_1d(np.asarray(s, dtype=float)), 1.0)
        shifts = np.asarray(self.beta(x), dtype=float).ravel() - self.offsets
        taus = np.clip(self.weights(x), 0.0, 1.0)
        k = len(taus)
        widths = np.empty(k + 1)
        grades = np.empty(k + 1)
        suffix_w = 1.0
        suffix_g = 1.0
        for j in range(k - 1, -1, -1):
            widths[j + 1] = taus[j] * suffix_w
            grades[j + 1] = _rho_refund(1.0 - taus[j]) * suffix_g
            suffix_w *= 1.0 - taus[j]
            suffix_g *= _rho_refund(taus[j])
        widths[0] = suffix_w
        grades[0] = suffix_g
        bounds = np.cumsum(widths)

        idx = np.clip(np.searchsorted(bounds, s, side="right"), 0, k)
        out = np.empty((len(s), self.dim_f))
        for j in range(k + 1):
            sel = idx == j
            if not sel.any():
                continue
            if widths[j] <= 0.0:
                # zero-width slot can only be hit at a shared boundary, where
                # every model sits at its base point
                local = np.zeros(int(sel.sum()))
            else:
                local = (s[sel] - (bounds[j] - widths[j])) / widths[j]
            out[sel] = self.models[j].eval(None, grades[j] * t, local) + shifts[j]
        return out


class WarpedFamily(LoopFamily):
    """Family with the homotopy grade tied to the point: (x, _, s) -> gamma(x, t_map(x), s).

    Used to absorb a cutoff into the grade, e.g. t_map(x) = t * rho(x); the
    ignored grade argument keeps the LoopFamily interface.
    """

    def __init__(self, family, t_map):
        self.family = family
        self.t_map = t_map
        self.dim_f = family.dim_f

    def eval(self, x, t, s):
        return self.family.eval(x, float(self.t_map(x)), s)

    def average_at(self, x, t, M=256):
        return self.family.average_at(x, float(self.t_map(x)), M=M)

    def integral_over(self, x, t, a, b, M=256):
        return self.family.integral_over(x, float(self.t_map(x)), a, b, M=M)


class BlendedFamily(LoopFamily):
    """Pointwise convex blend (1 - chi(x)) * beta(x) + chi(x) * family.

    Blending toward the base point preserves base-point and membership
    properties and moves the average by (1 - chi) * (beta - g) only.
    """

    def __init__(self, beta, family, chi):
        self.beta = beta
        self.family = family
        self.chi = chi
        self.dim_f = family.dim_f

    def eval(self, x, t, s):
        c = float(np.clip(self.chi(x), 0.0, 1.0))
        b = np.asarray(self.beta(x), dtype=float).ravel()
        s = np.atleast_1d(np.asarray(s, dtype=float))
        if c <= 0.0:
            return np.tile(b, (len(s), 1))
        vals = self.family.eval(x, t, s)
        if c >= 1.0:
            return vals
        return (1.0 - c) * b + c * vals

    def average_at(self, x, t, M=256):
        c = float(np.clip(self.chi(x), 0.0, 1.0))
        b = np.asarray(self.beta(x), dtype=float).ravel()
        if c <= 0.0:
            return b
        return (1.0 - c) * b + c * self.family.average_at(x, t, M=M)

    def integral_over(self, x, t, a, b_hi, M=256):
        c = float(np.clip(self.chi(x), 0.0, 1.0))
        base = np.asarray(self.beta(x), dtype=float).ravel()
        if c <= 0.0:
            return (b_hi - a) * base
        inner = self.family.integral_over(x, t, a, b_hi, M=M)
        if c >= 1.0:
            return inner
        return (1.0 - c) * (b_hi - a) * base + c * inner


# ---------------------------------------------------------------------------
# surrounding loops at a point


@dataclass
class SurroundingLoopResult:
    family: RoundTripFamily
    basis_points: np.ndarray
    coords: np.ndarray
    component: convexity.GridComponent
    h: float


_CANDIDATE_CAP = 48  # points handed to the subset scan of `convexity.surrounds`


def _candidate_order(points, target):
    """Hull vertices plus nearest points, ordered by distance to the target.

    Empty when the target lies outside the hull of all the points by more
    than Qhull roundoff: no subset then gives it positive coordinates, so
    there is nothing to scan.  Only a hull that Qhull builds (d >= 2 and
    more than d + 1 points in general position) can refuse.
    """
    pts = np.asarray(points, dtype=float)
    target = np.asarray(target, dtype=float)
    n, d = pts.shape
    idx = set()
    if n > d + 1 and d >= 2:  # Qhull needs at least 2-D data
        # deferred so that importing the package loads no scipy
        from scipy.spatial import ConvexHull, QhullError

        try:
            hull = ConvexHull(pts)
        except QhullError:  # collinear or coplanar samples: nearest points only
            pass
        else:
            # unit outward normals: a row's value is the distance beyond its facet
            beyond = hull.equations[:, :-1] @ target + hull.equations[:, -1]
            if beyond.max() > 1e-9 * (1.0 + np.abs(pts).max()):
                return []
            idx.update(int(i) for i in hull.vertices)
    dists = np.linalg.norm(pts - target, axis=1)
    idx.update(int(i) for i in np.argsort(dists, kind="stable")[: max(_CANDIDATE_CAP - len(idx), d + 8)])
    order = sorted(idx, key=lambda i: (dists[i], i))
    return order[:_CANDIDATE_CAP]


def _grid_path(component, start, goal):
    """Shortest axis-neighbour node path inside the component between two
    member nodes."""
    grid = component.grid
    mask = component.region.mask
    start = grid.nearest_index(start)
    goal = grid.nearest_index(goal)
    if not mask[start] or not mask[goal]:
        raise NotSurrounded("path endpoints left the component")
    start, goal = (int(np.ravel_multi_index(i, grid.shape)) for i in (start, goal))
    prev = bfs(grid.shape, start, mask.ravel().tolist().__getitem__, goal=goal)
    if prev[goal] < 0:
        raise NotSurrounded("component is not connected between path endpoints")
    path = [goal]
    while path[-1] != start:
        path.append(prev[path[-1]])
    return [grid.node(np.unravel_index(i, grid.shape)) for i in reversed(path)]


def _simplify_polyline(points):
    """Drop repeated points and interior points of straight runs."""
    pts = [np.asarray(p, dtype=float) for p in points]
    dedup = [pts[0]]
    for p in pts[1:]:
        if np.linalg.norm(p - dedup[-1]) > 1e-12:
            dedup.append(p)
    if len(dedup) <= 2:
        return dedup
    final = [dedup[0]]
    for i in range(1, len(dedup) - 1):
        d1 = dedup[i] - final[-1]
        d2 = dedup[i + 1] - dedup[i]
        n1, n2 = np.linalg.norm(d1), np.linalg.norm(d2)
        cosang = float(d1 @ d2) / (n1 * n2) if n1 > 0 and n2 > 0 else 1.0
        if abs(cosang - 1.0) > 1e-12:
            final.append(dedup[i])
    final.append(dedup[-1])
    return final


_SURROUND_FLOORS = (5e-2, 1e-2, 1e-3, 1e-6)


_MAX_H_HALVINGS = 3  # grid refinements of the flood fill before giving up


def surrounding_loop_at(omega_x, beta_x, g_x, box, h):
    """Build a loop family at one point: based at beta_x, inside omega_x,
    with the t=1 loop surrounding g_x.

    Pipeline: flood-fill the component of omega_x containing beta_x, certify
    an affine basis around g_x among the component points (refining h when
    needed; each finer fill starts from the coarser fill's predicate
    answers), connect the base to the basis by grid paths inside the
    component, and run a round trip through the result.
    """
    beta_x = np.asarray(beta_x, dtype=float).ravel()
    g_x = np.asarray(g_x, dtype=float).ravel()
    hcur = float(h)
    comp = None
    for _ in range(_MAX_H_HALVINGS + 1):
        comp = convexity.flood_fill_component(omega_x, beta_x, box, hcur, coarser=comp)
        pts = comp.points()
        reason = "no certified affine basis"
        order = _candidate_order(pts, g_x)
        if not order:
            reason = f"target outside the hull of the component's {len(pts)} nodes"
        else:
            cand = pts[order]
            found = convexity.surrounds(cand, g_x, _SURROUND_FLOORS)
            if found is not None:
                sub_idx, coords = found
                basis_pts = cand[list(sub_idx)]
                waypoints = []
                cur = beta_x
                for b in basis_pts:
                    leg = _grid_path(comp, cur, b)
                    waypoints.extend(leg if not waypoints else leg[1:])
                    cur = b
                waypoints = _simplify_polyline([beta_x] + waypoints)[1:]
                fam = RoundTripFamily(beta_x, waypoints)
                # the loop must actually stay inside omega_x
                svals = fam.eval(None, 1.0, np.linspace(0.0, 1.0, 129))
                if all(omega_x(v) for v in svals):
                    return SurroundingLoopResult(
                        family=fam,
                        basis_points=basis_pts,
                        coords=coords,
                        component=comp,
                        h=hcur,
                    )
                reason = "loop samples left omega"
        hcur *= 0.5
    raise NotSurrounded(f"surrounding loop search failed at h={hcur * 2}: {reason}")


def surround_certificate(loop, g, M=64):
    """Sampling-based surround certificate for a single loop.

    Returns (s_centers, coords, basis_points) where the loop values at the
    s_centers form an affine basis giving g strictly positive coordinates.
    """
    g = np.asarray(g, dtype=float).ravel()
    svals = np.arange(M) / M
    pts = loop(svals)
    order = _candidate_order(pts, g)
    if not order:
        raise NotSurrounded("target outside the hull of the loop samples")
    cand = pts[order]
    found = convexity.surrounds(cand, g, _SURROUND_FLOORS)
    if found is None:
        raise NotSurrounded("loop does not surround the target on samples")
    sub_idx, coords = found
    sample_idx = [order[i] for i in sub_idx]
    pairs = sorted(zip(sample_idx, range(len(sub_idx))))
    s_centers = np.array([svals[i] for i, _ in pairs])
    perm = [j for _, j in pairs]
    return s_centers, coords[perm], cand[list(sub_idx)][perm]


# ---------------------------------------------------------------------------
# the flagship: families over a whole landscape


_RING_POINTS_2D = 8


def _star_waypoints(dim):
    """Unit-scale waypoints surrounding the origin: a circle in a coordinate
    plane when dim = 2, regular-simplex vertices in higher dimension."""
    if dim == 2:
        ang = 2.0 * np.pi * np.arange(_RING_POINTS_2D) / _RING_POINTS_2D
        return np.stack([np.cos(ang), np.sin(ang)], axis=1)
    # regular simplex: d+1 unit vectors with pairwise equal angles
    eye = np.eye(dim + 1)
    pts = eye - eye.mean(axis=0)
    q, _ = np.linalg.qr(pts.T)
    verts = (pts @ q[:, :dim])
    return verts / np.linalg.norm(verts, axis=1)[:, None]


_G_BETA_TOL = 1e-7  # how far g may stray from beta near K


def build_loop_family(omega, beta, g, K, box, eps, grid):
    """Smooth family of loops with prescribed values, base points and averages.

    At every x the loops live in omega(x), are based at beta(x), degenerate to
    the base when t = 0 or s = 0 or x is near K, and at t = 1 average exactly
    to g(x) at every x.  Requires g = beta near K and g(x) inside the
    hull of the component of omega(x) containing beta(x).

    Construction: one `PatchFamily` whose slots are a small star loop around
    the base near K (its size set by a sampled safety-ball check) and the
    surrounding loops at the centres of a finite patch cover elsewhere, each
    carried by translating its base point and weighted by a smooth cutoff
    around its centre; then reparametrised to fix averages, and finally
    blended back to the base point near K.
    """
    from . import reparam  # deferred: reparam builds on loops

    nodes = grid.nodes()
    dim_f = np.asarray(beta(nodes[0]), dtype=float).size
    hx = min(grid.spacing)

    for x in nodes:
        if not omega(x)(np.asarray(beta(x), dtype=float).ravel()):
            raise MarginExceeded(f"beta({x}) is not in omega")

    have_k = K is not None and not K.is_empty
    models, offsets = [], []
    if have_k:
        guard = K.dilate(6)
        worst = max(
            float(np.linalg.norm(np.asarray(g(x), dtype=float) - np.asarray(beta(x), dtype=float)))
            for x in guard.nodes()
        )
        if worst > _G_BETA_TOL:
            raise ValueError(
                f"g must agree with beta near K (max deviation {worst:.3e} on the 6-cell dilation)"
            )
        # sampled safety ball: beta(x) + 2 delta * direction stays in omega
        dirs = _star_waypoints(dim_f)
        delta = float(eps)
        ok = False
        for _ in range(24):
            ok = all(
                omega(x)(np.asarray(beta(x), dtype=float).ravel() + 2.0 * delta * d)
                for x in guard.nodes()
                for d in dirs
            )
            if ok:
                break
            delta *= 0.5
        if not ok:
            raise MarginExceeded("no safety radius found for the near-K loop")
        # the star slot rides on beta(x) itself: its offset is zero
        models.append(RoundTripFamily(np.zeros(dim_f), 0.5 * delta * _star_waypoints(dim_f)))
        offsets.append(np.zeros(dim_f))
        near_k = K.dilate(2)
        exclusion = K.dilate(4)

        def chi(x):
            return float(transition(near_k.distance(x), 0.25 * hx, 1.9 * hx))

    else:
        exclusion = None

    # --- patch cover -------------------------------------------------------
    patch_stride = max(1, int(np.ceil(max(grid.shape) / 7)))
    centers = []
    it = np.ndindex(*grid.shape)
    for idx in it:
        if all(idx[i] % patch_stride == 0 for i in range(grid.dim)):
            x = grid.node(idx)
            if exclusion is not None and exclusion.contains(x):
                continue
            centers.append(x)
    r_core = 0.85 * patch_stride * max(grid.spacing) * np.sqrt(grid.dim)
    r_outer = 1.6 * r_core

    scale = max(
        1.0,
        max(
            float(np.linalg.norm(np.asarray(g(x), dtype=float) - np.asarray(beta(x), dtype=float)))
            for x in nodes
        ),
    )
    value_h = scale / 8.0

    for c in centers:
        b = np.asarray(beta(c), dtype=float).ravel()
        gg = np.asarray(g(c), dtype=float).ravel()
        lo_v = np.minimum(b, gg)
        hi_v = np.maximum(b, gg)
        pad = 0.6 * np.linalg.norm(hi_v - lo_v) + 4.0 * value_h
        res = surrounding_loop_at(omega(c), b, gg, (lo_v - pad, hi_v + pad), value_h)
        models.append(res.family)
        offsets.append(b)

    if not models:
        raise MarginExceeded("empty patch cover: K fills the whole grid")

    # slot 0 carries no weight: it is the star when K is non-empty, else the
    # first patch
    glued = np.reshape(centers[0 if have_k else 1 :], (-1, grid.dim))

    def weights(x):
        d2 = 0.0
        for i in range(grid.dim):
            di = grid.axis_delta(i, x[i] - glued[:, i])
            d2 += di * di
        return 1.0 - transition(np.sqrt(d2), r_core, r_outer)

    fam = PatchFamily(models, offsets, beta, weights)

    # --- fix averages, then pin the family to the base point near K --------
    fam = reparam.reparametrize_family(fam, g, grid)
    if have_k:
        fam = BlendedFamily(beta, fam, chi)
    return fam
