"""Weighted Sobolev norms on vertex cones via graded polar quadrature.

The norm of order k with weight exponent rho sums, over vertices n and their
cone faces t, L2 norms of

    r^{beta_r - rho} (1+r)^rho q(phi)^{beta_r + beta_phi - rho}
        * d_r^{beta_r} d_phi^{beta_phi} (phi_n u)  ,   1 <= beta_r+beta_phi <= k,

in the sector measure r dr dphi, plus the plain L2 norm of phi_n u per cone.
Here q(phi) = min(phi, gamma - phi) measures the angle to the nearest ray.
Quadrature cells are graded geometrically (ratio 1/2) toward r = 0 and toward
both rays; divergence is declared from sustained growth of the running total
over the deepest refinement shells, which separates power-type divergence from
slow-but-summable tails.

Function data enters through handles that evaluate in-plane Cartesian
derivatives on each cone face; polar derivatives are produced by the chain
rule. Every in-plane derivative table here (the models', and that of the
partition of unity) comes from two rules: `_chain`, a 1-D profile composed
with a point- or line-distance table, and `_leibniz`, the product rule.

Models with known membership thresholds (power of the vertex distance, power
of the edge distance) are provided for calibration: the radial model r^beta
lies in the scale iff rho < beta + 1, the edge model iff rho < beta + 1/2.
"""
from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from itertools import groupby
from math import comb, pi

import numpy as np

from ._gauss import unit_rule
from .surface import (PolyhedralSurface, ResolutionOfUnity, _check_counts,
                      _smooth_step, _smooth_step_derivs, _step_down_derivs)

__all__ = [
    "WeightedSpec",
    "WeightedNormDivergence",
    "VertexPowerModel",
    "EdgePowerModel",
    "AnalyticModel",
    "ConstantModel",
    "FiniteDifferenceHandle",
    "weighted_sobolev_norm",
    "delta_weighted_norm",
    "sector_q",
]


@dataclass(frozen=True)
class WeightedSpec:
    """Derivative order k and weight exponent rho (second exponent fixed at rho).

    Membership statements for the simplified scale assume 0 <= rho <= k, but the
    norm itself is evaluated for any rho >= 0 so that threshold probes beyond k
    can be run (their divergence is part of the contract).
    """

    k: int
    rho: float

    def __post_init__(self):
        if self.k not in (1, 2):
            raise ValueError("derivative order k must be 1 or 2")
        if self.rho < 0:
            raise ValueError("rho must be nonnegative")

    def derivative_terms(self):
        return [(br, bp) for br in range(self.k + 1) for bp in range(self.k + 1)
                if 1 <= br + bp <= self.k]


class WeightedNormDivergence(RuntimeError):
    """Raised when graded refinement keeps growing: the norm integral diverges."""

    def __init__(self, vertex, patch, term, growths):
        self.vertex = vertex
        self.patch = patch
        self.term = term
        self.growths = growths
        msg = (f"weighted norm diverges at vertex {vertex}, face patch {patch}, "
               f"derivative term {term}: tail growth per shell "
               + ", ".join(f"{g:.1%}" for g in growths))
        super().__init__(msg)


def sector_q(phi, gamma):
    """Angle to the nearest ray of a sector of opening gamma."""
    phi = np.asarray(phi, dtype=float)
    return np.minimum(phi, gamma - phi)


# -- derivative tables -----------------------------------------------------------
#
# A table maps (a, b), a + b <= 2, to the derivative d^a/de1^a d^b/de2^b along
# an orthonormal in-plane frame (e1, e2), one value per point.

_TERMS = ((0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2))


def _point_distance(pts, e1, e2, center):
    """Derivative table of d = |x - center|."""
    w = pts - center
    d = np.linalg.norm(w, axis=-1)
    dsafe = np.maximum(d, 1e-300)
    d1 = w @ e1 / dsafe
    d2 = w @ e2 / dsafe
    return {(0, 0): d, (1, 0): d1, (0, 1): d2,
            (2, 0): (1.0 - d1 * d1) / dsafe, (1, 1): (-d1 * d2) / dsafe,
            (0, 2): (1.0 - d2 * d2) / dsafe}


def _line_distance(pts, e1, e2, a, direction):
    """Derivative table of the distance d to the line through `a` with unit
    `direction`; the derivatives are NaN on the line."""
    w = pts - a
    along = w @ direction
    perp = w - along[:, None] * direction[None, :]
    d = np.linalg.norm(perp, axis=-1)
    f1 = e1 - (e1 @ direction) * direction
    f2 = e2 - (e2 @ direction) * direction

    def over_d(x):
        """x / d, formed off the line only: 0/0 would warn from the weighted
        norm's worker threads, which a caller's np.errstate does not reach"""
        return np.divide(x, d, out=np.full_like(d, np.nan), where=d > 0.0)
    d1 = over_d(perp @ f1)
    d2 = over_d(perp @ f2)
    return {(0, 0): d, (1, 0): d1, (0, 1): d2,
            (2, 0): over_d(f1 @ f1 - d1 * d1), (1, 1): over_d(f1 @ f2 - d1 * d2),
            (0, 2): over_d(f2 @ f2 - d2 * d2)}


def _chain(G, dist):
    """Chain rule: the table of G(d) for a distance table `dist`, where G
    returns the profile and its first two derivatives (g, g', g'')."""
    d1, d2 = dist[(1, 0)], dist[(0, 1)]
    g, gp, gpp = G(dist[(0, 0)])
    return {(0, 0): g, (1, 0): gp * d1, (0, 1): gp * d2,
            (2, 0): gpp * d1 * d1 + gp * dist[(2, 0)],
            (1, 1): gpp * d1 * d2 + gp * dist[(1, 1)],
            (0, 2): gpp * d2 * d2 + gp * dist[(0, 2)]}


def _leibniz(fd, gd, upto):
    """Product rule: the table of f * g from the tables of f and g."""
    out = {}
    for a in range(upto + 1):
        for b in range(upto + 1 - a):
            acc = 0.0
            for i in range(a + 1):
                for j in range(b + 1):
                    acc = acc + comb(a, i) * comb(b, j) * fd[(i, j)] * gd[(a - i, b - j)]
            out[(a, b)] = acc
    return out


def _window_derivs(d, lo, hi, width):
    """Smooth window: 0 below lo, 1 on [lo+width, hi-width], 0 above hi."""
    v_up, v1_up, v2_up = _smooth_step_derivs((d - lo) / width)
    v_dn, v1_dn, v2_dn = _smooth_step_derivs((hi - d) / width)
    w = v_up * v_dn
    w1 = v1_up / width * v_dn - v_up * v1_dn / width
    w2 = (v2_up / width ** 2 * v_dn - 2.0 * v1_up * v1_dn / width ** 2
          + v_up * v2_dn / width ** 2)
    return w, w1, w2


class _FaceHandleBase:
    """Shared plumbing: resolve a cone face to (apex, frame) and delegate.

    A model may declare a private support ball ``_support = (center, r)``.
    The contract: at distance >= r from the centre the model's value is
    exactly +0.0 and every derivative of it is exactly zero.
    `wavelets._sample` and `_face_table` rely on the contract and evaluate
    such a model only where the ball can reach.
    """

    def __init__(self, surface: PolyhedralSurface):
        self.surface = surface

    def _face(self, n, t):
        return self.surface.cone_faces(n)[t]

    def face_points(self, n, t, Y):
        face = self._face(n, t)
        Y = np.atleast_2d(np.asarray(Y, dtype=float))
        return face.apex + Y[:, :1] * face.e1 + Y[:, 1:2] * face.e2, face

    def face_derivs(self, n, t, Y, upto: int = 2):
        pts, face = self.face_points(n, t, Y)
        out = self.plane_derivs(pts, face.e1, face.e2)
        if upto < 2:
            out = {ab: v for ab, v in out.items() if sum(ab) <= upto}
        return out

    def plane_derivs(self, pts, e1, e2):  # pragma: no cover - abstract
        raise NotImplementedError


class VertexPowerModel(_FaceHandleBase):
    """u(x) = |x - v|^beta * cutoff(|x - v|): the vertex-singular calibration model.

    The cutoff descends smoothly from 1 to 0 on [cut0, cut1]; with cut1 below
    the vertex clearance the support stays inside the incident patches. Lies in
    the order-k scale iff rho < beta + 1 (radial threshold), any k.
    """

    def __init__(self, surface, vertex: int, beta: float, cut=(0.25, 0.5)):
        super().__init__(surface)
        self.vertex = self.surface._vertex_id("vertex", vertex)
        self.beta = float(beta)
        self.cut0, self.cut1 = float(cut[0]), float(cut[1])
        if not self.cut0 < self.cut1:
            raise ValueError(f"cut must satisfy cut0 < cut1, got {cut!r}")
        self.center = surface.vertices[vertex]
        self._support = (self.center, self.cut1)    # +0.0 beyond it

    def _G(self, d):
        b = self.beta
        chi, chi1, chi2 = _step_down_derivs(d, self.cut0, self.cut1)
        g = d ** b * chi
        gp = b * d ** (b - 1.0) * chi + d ** b * chi1
        gpp = (b * (b - 1.0) * d ** (b - 2.0) * chi
               + 2.0 * b * d ** (b - 1.0) * chi1 + d ** b * chi2)
        return g, gp, gpp

    def __call__(self, pts):
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        d = np.linalg.norm(pts - self.center, axis=-1)
        return d ** self.beta * _smooth_step((self.cut1 - d) / (self.cut1 - self.cut0))

    def plane_derivs(self, pts, e1, e2):
        return _chain(self._G, _point_distance(pts, e1, e2, self.center))


class EdgePowerModel(_FaceHandleBase):
    """u(x) = dist(x, edge line)^beta * annulus(|x - v0|): edge-singular model.

    The annular factor keeps the support away from both edge endpoints so the
    radial direction stays regular; the angular threshold rho < beta + 1/2 is
    then isolated. `band=(a0, a1)` bounds the annulus, `width` the smooth skin.
    """

    def __init__(self, surface, v0: int, v1: int, beta: float,
                 band=(0.2, 0.6), width=0.08):
        super().__init__(surface)
        self.surface._vertex_id("v0", v0)
        if self.surface._vertex_id("v1", v1) == v0:
            raise ValueError(f"v0 and v1 must differ, got {v0} twice")
        self.beta = float(beta)
        self.a = surface.vertices[v0]
        self.v0 = v0
        direction = surface.vertices[v1] - surface.vertices[v0]
        self.direction = direction / np.linalg.norm(direction)
        self.band = (float(band[0]), float(band[1]))
        self.width = float(width)
        if not (self.band[0] < self.band[1] and self.width > 0.0):
            raise ValueError(f"need band[0] < band[1] and width > 0, got {band}, {width}")
        self._support = (self.a, self.band[1])      # the annulus is 0 beyond it

    def __call__(self, pts):
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        w = pts - self.a
        # elementwise, not `w @ direction`: BLAS rounds a one-row block
        # differently, and `analyze` calls this on sub-grids of any shape
        along = (w * self.direction).sum(-1)
        dl = np.linalg.norm(w - along[..., None] * self.direction, axis=-1)
        dv = np.linalg.norm(w, axis=-1)
        lo, hi = self.band
        ann = (_smooth_step((dv - lo) / self.width)
               * _smooth_step((hi - dv) / self.width))
        return dl ** self.beta * ann

    def plane_derivs(self, pts, e1, e2):
        b = self.beta

        def profile(d):
            """d^b and its first two derivatives, these NaN on the line"""
            off = d > 0.0

            def power(e):
                out = np.full_like(d, np.nan)
                out[off] = d[off] ** e
                return out
            return d ** b, b * power(b - 1.0), b * (b - 1.0) * power(b - 2.0)
        line = _chain(profile, _line_distance(pts, e1, e2, self.a, self.direction))
        ann = _chain(lambda d: _window_derivs(d, *self.band, self.width),
                     _point_distance(pts, e1, e2, self.a))
        # where the annulus's table is all zero, u is zero with every
        # derivative, also at points rounded onto the line (NaN in its table)
        off = np.all([v == 0.0 for v in ann.values()], axis=0)
        return {ab: np.where(off, 0.0, v)
                for ab, v in _leibniz(line, ann, upto=2).items()}


class AnalyticModel(_FaceHandleBase):
    """Wraps value/gradient/Hessian callables on 3D points into a face handle."""

    def __init__(self, surface, func, grad, hess=None):
        super().__init__(surface)
        self.func = func
        self.grad = grad
        self.hess = hess

    def __call__(self, pts):
        return np.asarray(self.func(np.atleast_2d(np.asarray(pts, dtype=float))))

    def plane_derivs(self, pts, e1, e2):
        vals = np.asarray(self.func(pts))
        G = np.asarray(self.grad(pts))                 # (N, 3)
        out = {(0, 0): vals, (1, 0): G @ e1, (0, 1): G @ e2}
        if self.hess is not None:
            H = np.asarray(self.hess(pts))             # (N, 3, 3)
            out[(2, 0)] = np.einsum("nij,i,j->n", H, e1, e1)
            out[(1, 1)] = np.einsum("nij,i,j->n", H, e1, e2)
            out[(0, 2)] = np.einsum("nij,i,j->n", H, e2, e2)
        else:
            z = np.zeros_like(vals)
            out[(2, 0)] = out[(1, 1)] = out[(0, 2)] = z
        return out


class ConstantModel(_FaceHandleBase):
    def __init__(self, surface, value=1.0):
        super().__init__(surface)
        self.value = float(value)

    def __call__(self, pts):
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        return np.full(len(pts), self.value)

    def plane_derivs(self, pts, e1, e2):
        z = np.zeros(len(pts))
        return {(0, 0): np.full(len(pts), self.value),
                (1, 0): z, (0, 1): z, (2, 0): z, (1, 1): z, (0, 2): z}


class FiniteDifferenceHandle(_FaceHandleBase):
    """Centered finite differences of a 3D-point callable, in-plane.

    Step h = `rel_step` times the face scale. Refuses evaluation whenever a
    point sits within 10h of the face's patch boundary: one-sided stencils
    would silently sample across the edge, so analytic derivatives are
    required there instead.
    """

    def __init__(self, surface, func, rel_step: float = 1e-5):
        super().__init__(surface)
        self.func = func
        self.rel_step = float(rel_step)

    def __call__(self, pts):
        return np.asarray(self.func(np.atleast_2d(np.asarray(pts, dtype=float))))

    def face_derivs(self, n, t, Y, upto: int = 2):
        pts, face = self.face_points(n, t, Y)
        patch = self.surface.patches[face.patch]
        h = self.rel_step * max(patch.min_edge, 1.0)
        dists = np.full(len(pts), np.inf)
        for ke in range(4):
            a, b = patch.corners[ke], patch.corners[(ke + 1) % 4]
            ab = b - a
            tt = np.clip((pts - a) @ ab / float(ab @ ab), 0.0, 1.0)
            dists = np.minimum(dists, np.linalg.norm(pts - (a + tt[:, None] * ab), axis=1))
        if np.any(dists < 10.0 * h):
            raise ValueError(
                "finite-difference handle refused: points within 10h of the face "
                "boundary; supply analytic derivatives for boundary-graded quadrature")
        f = self.func
        e1, e2 = face.e1, face.e2

        def at(da, db):
            return np.asarray(f(pts + da * h * e1 + db * h * e2))

        out = {(0, 0): at(0, 0)}
        out[(1, 0)] = (at(1, 0) - at(-1, 0)) / (2 * h)
        out[(0, 1)] = (at(0, 1) - at(0, -1)) / (2 * h)
        if upto >= 2:
            out[(2, 0)] = (at(1, 0) - 2 * out[(0, 0)] + at(-1, 0)) / h ** 2
            out[(0, 2)] = (at(0, 1) - 2 * out[(0, 0)] + at(0, -1)) / h ** 2
            out[(1, 1)] = (at(1, 1) - at(1, -1) - at(-1, 1) + at(-1, -1)) / (4 * h ** 2)
        return out


# -- partition-of-unity derivatives on a cone face -------------------------------


def partition_face_derivs(resolution: ResolutionOfUnity, n: int, t: int, pts,
                          e1, e2):
    """In-plane Cartesian derivatives (to order 2) of phi_n at face points.

    phi_n = B_n / sum_m B_m with radial bumps B_m = psi_m(|x - v_m|); the
    quotient rule needs every active bump's table. Near its own vertex the
    profile is flat, so the 1/r curvature of the distance never enters.
    A bump's table is built only where it varies: another vertex's only where
    it is nonzero, its profile only off the plateau. Every term left out is an
    exact zero, and the sums, which start at +0.0, are never -0.0.
    """
    v, r0, r1 = resolution.surface.vertices, resolution.r0, resolution.r1
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    S = {ab: np.zeros(len(pts)) for ab in _TERMS}
    own = _point_distance(pts, e1, e2, v[n])
    # distances to the cylinder about v_n (axis e1 x e2) that holds the points
    normal, w = np.cross(e1, e2), v - v[n]
    lift = np.abs((pts - v[n]) @ normal).max(initial=0.0)
    gap = np.hypot(np.maximum(np.abs(w @ normal) - lift, 0.0), np.maximum(
        np.hypot(w @ e1, w @ e2) - own[(0, 0)].max(initial=0.0), 0.0))
    for m in range(len(v)):
        if m == n:
            at, dist = slice(None), own
        elif gap[m] >= r1[m]:
            continue
        else:
            at = np.linalg.norm(pts - v[m], axis=-1) < r1[m]
            dist = _point_distance(pts[at], e1, e2, v[m])

        def bump(d, m=m):
            out, ramp = np.zeros((3, len(d))), d > r0[m]
            out[0], out[:, ramp] = 1.0, resolution.profile_derivs(m, d[ramp])
            return out

        table = _chain(bump, dist)
        for ab in _TERMS:
            S[ab][at] += table[ab]
        if m == n:
            b, b1, b2, b11, b12, b22 = (table[ab] for ab in _TERMS)
    s, s1, s2, s11, s12, s22 = (S[ab] for ab in _TERMS)
    phi = b / s
    p1 = (b1 - phi * s1) / s
    p2 = (b2 - phi * s2) / s
    p11 = (b11 - 2.0 * p1 * s1 - phi * s11) / s
    p12 = (b12 - p1 * s2 - p2 * s1 - phi * s12) / s
    p22 = (b22 - 2.0 * p2 * s2 - phi * s22) / s
    return {(0, 0): phi, (1, 0): p1, (0, 1): p2,
            (2, 0): p11, (1, 1): p12, (0, 2): p22}


def _polar_derivs(cart, R, PHI, upto):
    """Polar derivative table from in-plane Cartesian derivatives at (R, PHI)."""
    c = np.cos(PHI)
    s = np.sin(PHI)
    f = cart[(0, 0)]
    f1, f2 = cart[(1, 0)], cart[(0, 1)]
    out = {(0, 0): f,
           (1, 0): c * f1 + s * f2,
           (0, 1): R * (-s * f1 + c * f2)}
    if upto >= 2:
        f11, f12, f22 = cart[(2, 0)], cart[(1, 1)], cart[(0, 2)]
        out[(2, 0)] = c * c * f11 + 2 * c * s * f12 + s * s * f22
        out[(1, 1)] = (-s * f1 + c * f2) + R * (
            -c * s * f11 + (c * c - s * s) * f12 + c * s * f22)
        out[(0, 2)] = -R * (c * f1 + s * f2) + R * R * (
            s * s * f11 - 2 * c * s * f12 + c * c * f22)
    return out


# -- graded sector quadrature -----------------------------------------------------


def _graded_cells_to_zero(total: float, depth: int):
    """Geometric cells toward 0 on (0, total]: list of (lo, hi, layer)."""
    cells = []
    hi = total
    for layer in range(depth):
        lo = hi / 2.0
        cells.append((lo, hi, layer))
        hi = lo
    return cells


def _sector_mesh(r_max: float, gamma: float, depth: int, order: int):
    """Tensor graded mesh on (0,r_max] x (0,gamma): nodes, weights, shell layers."""
    xg, wg = unit_rule(order)
    r_cells = _graded_cells_to_zero(r_max, depth)
    half = gamma / 2.0
    p_cells = [(lo, hi, layer) for lo, hi, layer in _graded_cells_to_zero(half, depth)]
    p_cells += [(gamma - hi, gamma - lo, layer) for lo, hi, layer in
                _graded_cells_to_zero(half, depth)]

    def expand(cells):
        nodes, weights, layers = [], [], []
        for lo, hi, layer in cells:
            nodes.append(lo + (hi - lo) * xg)
            weights.append((hi - lo) * wg)
            layers.append(np.full(order, layer, dtype=int))
        return np.concatenate(nodes), np.concatenate(weights), np.concatenate(layers)

    rn, rw, rl = expand(r_cells)
    pn, pw, pl = expand(p_cells)
    return (rn, rw, rl), (pn, pw, pl)


# mesh points per block of `_face_table` (at least one row of the mesh)
_FACE_BLOCK = 1 << 14


def _face_table(handle, surface, resolution, k, n, t, depth, order):
    """phi_n u on the graded sector mesh of cone face (n, t).

    Returns its Cartesian derivative table to order k, the mesh's polar
    coordinates R and PHI, the angle q to the nearest ray, and `shells(F)`:
    the integral of F r dr dphi per refinement shell (the larger of the two
    layer indices).

    A handle with a support ball (see `_FaceHandleBase`) is evaluated only on
    the mesh rows whose radius the ball can reach, and a face with no such
    row calls neither the handle nor the partition. Every point left out
    would add +0.0 to its shell, so the shell sums are bit for bit those of
    the full mesh.

    The handle, the partition and the product rule run on blocks of whole
    mesh rows, at most `_FACE_BLOCK` points a block unless one row holds
    more, and each block is written into the full-face table. Every value
    is computed point by point, so the table does not depend on the block
    size; `shells` sums the full-face arrays in one `bincount`, because
    summing per-block shell sums would round differently.
    """
    if depth <= _WINDOW:
        raise ValueError(f"depth must exceed the {_WINDOW}-shell divergence "
                         f"window, got {depth}")
    face = surface.cone_faces(n)[t]
    (rn, rw, rl), (pn, pw, pl) = _sector_mesh(float(resolution.r1[n]),
                                              face.gamma, depth, order)
    support = getattr(handle, "_support", None)
    if support is not None:
        lo, hi = face._ball_radii(*support)
        rows = (rn >= lo) & (rn <= hi)
        rn, rw, rl = rn[rows], rw[rows], rl[rows]
    R, PHI = np.meshgrid(rn, pn, indexing="ij")
    cart = {ab: np.zeros(R.shape) for ab in _TERMS if sum(ab) <= k}
    step = max(1, _FACE_BLOCK // len(pn))
    for r0 in range(0, len(rn), step):
        Rb, Pb = R[r0:r0 + step], PHI[r0:r0 + step]
        Y = np.stack([(Rb * np.cos(Pb)).ravel(), (Rb * np.sin(Pb)).ravel()],
                     axis=1)
        pts = face.apex + Y[:, :1] * face.e1 + Y[:, 1:2] * face.e2
        ud = handle.face_derivs(n, t, Y, upto=k)
        pd = partition_face_derivs(resolution, n, t, pts, face.e1, face.e2)
        for ab, v in _leibniz(pd, ud, upto=k).items():
            # a complex handle makes the table complex
            cart[ab] = cart[ab].astype(np.result_type(cart[ab], v), copy=False)
            cart[ab][r0:r0 + step] = np.reshape(v, Rb.shape)
    weights = np.outer(rw, pw)
    shell = np.maximum(rl[:, None], pl[None, :]).ravel()

    def shells(F):
        return np.bincount(shell, weights=(F * R * weights).ravel(),
                           minlength=depth)

    return cart, R, PHI, sector_q(PHI, face.gamma), shells


# a term diverges when each of its deepest _WINDOW shells grows its running
# total by more than _GROWTH_TOL
_GROWTH_TOL = 0.01
_WINDOW = 5


def _converged(shell_sums, vertex, patch, term) -> float:
    """A term's total over all shells, or WeightedNormDivergence; ValueError
    if a shell sum is not finite."""
    totals = np.cumsum(shell_sums)
    if not np.isfinite(totals[-1]):
        bad = np.flatnonzero(~np.isfinite(shell_sums)).tolist()
        raise ValueError(f"weighted norm is not finite at vertex {vertex}, "
                         f"face patch {patch}, derivative term {term}: "
                         f"shells {bad}")
    growths = []
    for ell in range(len(shell_sums) - _WINDOW, len(shell_sums)):
        prev = totals[ell - 1] if ell >= 1 else 0.0
        growths.append(shell_sums[ell] / prev if prev > 0 else 0.0)
    if all(g > _GROWTH_TOL for g in growths):
        raise WeightedNormDivergence(vertex, patch, term, growths)
    return float(totals[-1])


# -- the norm ---------------------------------------------------------------------


def weighted_sobolev_norm(handle, surface: PolyhedralSurface,
                          resolution: ResolutionOfUnity, spec: WeightedSpec,
                          *, depth: int = 32, quad_order: int = 8,
                          workers: int = 1):
    """Graded-quadrature evaluation of the order-k weighted norm.

    Sums over vertices: the cone L2 norm of phi_n u plus one weighted L2 norm
    per face and derivative pair. Raises WeightedNormDivergence when the
    deepest five refinement shells of any term all grow by more than 1%;
    convergent power-type tails fall under that rate well before `depth`
    layers, divergent ones never do.
    """
    _check_counts(workers=workers)
    terms = _norm_terms(handle, surface, resolution, spec, depth=depth,
                        quad_order=quad_order, workers=workers)
    total = 0.0
    for _, group in groupby(terms.items(), key=lambda item: item[0][0]):
        l2_sq = 0.0
        for (_, _, term), value in group:
            if term == (0, 0):
                l2_sq += value
            else:
                total += np.sqrt(value)
        total += np.sqrt(l2_sq)
    return total


def _norm_terms(handle, surface, resolution, spec, *, depth, quad_order,
                workers):
    """{(vertex, face, term): squared weighted L2 norm} in vertex, face and
    term order; term (0, 0) is the face's share of the cone L2 norm."""
    def run(job):
        n, t = job
        patch = surface.cone_faces(n)[t].patch
        cart, R, PHI, q, shells = _face_table(handle, surface, resolution,
                                              spec.k, n, t, depth, quad_order)
        pol = _polar_derivs(cart, R, PHI, upto=spec.k)
        values = {}
        for br, bp in [(0, 0)] + spec.derivative_terms():
            W = 1.0 if br + bp == 0 else (R ** (br - spec.rho) * (1.0 + R) ** spec.rho
                                          * q ** (br + bp - spec.rho))
            values[(br, bp)] = _converged(shells(np.abs(W * pol[(br, bp)]) ** 2),
                                          n, patch, (br, bp))
        return job, values

    # a divergent term raises inside its job, so a serial run stops at the
    # first divergent face, and either map raises the first one in job order
    jobs = [(n, t) for n in range(surface.n_vertices)
            for t in range(len(surface.cone_faces(n)))]
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as ex:
            results = dict(ex.map(run, jobs))
    else:
        results = dict(map(run, jobs))
    return {(n, t, term): value for (n, t) in jobs
            for term, value in results[(n, t)].items()}


def delta_weighted_norm(handle, surface: PolyhedralSurface,
                        resolution: ResolutionOfUnity, spec: WeightedSpec,
                        vertex: int, *, depth: int = 32,
                        quad_order: int = 8) -> float:
    """Sum over faces of ||min(C2, ray distance)^(k-rho) D^a (phi_n u)||_L2,
    |a| <= k, in Cartesian in-plane derivatives: the flattened-weight side of
    the comparison inequality against the weighted norm."""
    total = 0.0
    for t, face in enumerate(surface.cone_faces(vertex)):
        cart, R, _, q, shells = _face_table(handle, surface, resolution, spec.k,
                                            vertex, t, depth, quad_order)
        Wd = np.minimum(resolution.C2,
                        R * np.sin(np.minimum(q, pi / 2.0))) ** (spec.k - spec.rho)
        for term in sorted(cart):
            sums = shells(np.abs(Wd * cart[term]) ** 2)
            total += np.sqrt(_converged(sums, vertex, face.patch, term))
    return total
