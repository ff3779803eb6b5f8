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
rule. Models with known membership thresholds (power of the vertex distance,
power of the edge distance) are provided for calibration: the radial model
r^beta lies in the scale iff rho < beta + 1, the edge model iff rho < beta + 1/2.
"""
from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from math import comb, pi
from typing import Protocol, runtime_checkable

import numpy as np

from ._gauss import unit_rule
from .surface import (PolyhedralSurface, ResolutionOfUnity, _smooth_step_derivs)

__all__ = [
    "WeightedSpec",
    "WeightedNormDivergence",
    "SmoothFunctionHandle",
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

    @property
    def mu(self) -> float:
        return self.rho

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


@runtime_checkable
class SmoothFunctionHandle(Protocol):
    """Function on the surface with in-plane derivatives on each cone face."""

    def __call__(self, pts): ...

    def face_derivs(self, n: int, t: int, Y, upto: int) -> dict: ...


def sector_q(phi, gamma):
    """Angle to the nearest ray of a sector of opening gamma."""
    phi = np.asarray(phi, dtype=float)
    return np.minimum(phi, gamma - phi)


# -- distance fields and their in-plane derivatives -----------------------------


def _point_distance_derivs(pts, e1, e2, center):
    """d = |x - center| with first and second derivatives along (e1, e2)."""
    w = pts - center
    d = np.linalg.norm(w, axis=-1)
    d1 = w @ e1 / d
    d2 = w @ e2 / d
    d11 = (1.0 - d1 * d1) / d
    d12 = (-d1 * d2) / d
    d22 = (1.0 - d2 * d2) / d
    return d, (d1, d2), (d11, d12, d22)


def _line_distance_derivs(pts, e1, e2, a, direction):
    """Distance to the line through `a` with unit `direction`, with derivatives."""
    w = pts - a
    along = w @ direction
    perp = w - along[:, None] * direction[None, :]
    d = np.linalg.norm(perp, axis=-1)
    f1 = e1 - (e1 @ direction) * direction
    f2 = e2 - (e2 @ direction) * direction
    d1 = perp @ f1 / d
    d2 = perp @ f2 / d
    d11 = (f1 @ f1 - d1 * d1) / d
    d12 = (f1 @ f2 - d1 * d2) / d
    d22 = (f2 @ f2 - d2 * d2) / d
    return d, (d1, d2), (d11, d12, d22)


def _compose_radial(G, pts, e1, e2, center):
    """In-plane derivatives of G(|x - center|): G returns (g, g', g'')."""
    d, (d1, d2), (d11, d12, d22) = _point_distance_derivs(pts, e1, e2, center)
    g, gp, gpp = G(d)
    out = {(0, 0): g,
           (1, 0): gp * d1, (0, 1): gp * d2,
           (2, 0): gpp * d1 * d1 + gp * d11,
           (1, 1): gpp * d1 * d2 + gp * d12,
           (0, 2): gpp * d2 * d2 + gp * d22}
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


def _step_down_derivs(d, lo, hi):
    """Smooth descent from 1 below lo to 0 above hi, with two derivatives."""
    w = hi - lo
    v, v1, v2 = _smooth_step_derivs((hi - np.asarray(d, dtype=float)) / w)
    return v, -v1 / w, v2 / w ** 2


class _FaceHandleBase:
    """Shared plumbing: resolve a cone face to (apex, frame) and delegate."""

    def __init__(self, surface: PolyhedralSurface):
        self.surface = surface

    def _vertex_id(self, name: str, v):
        """v if it is a vertex id of the surface, else ValueError."""
        n = self.surface.n_vertices
        if not (isinstance(v, (int, np.integer)) and 0 <= v < n):
            raise ValueError(f"{name} must be a vertex id in [0, {n}), "
                             f"got {v!r}")
        return v

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
        self.vertex = self._vertex_id("vertex", vertex)
        self.beta = float(beta)
        self.cut0, self.cut1 = float(cut[0]), float(cut[1])
        self.center = surface.vertices[vertex]

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
        chi, _, _ = _step_down_derivs(d, self.cut0, self.cut1)
        return d ** self.beta * chi

    def plane_derivs(self, pts, e1, e2):
        return _compose_radial(self._G, pts, e1, e2, self.center)


class EdgePowerModel(_FaceHandleBase):
    """u(x) = dist(x, edge line)^beta * annulus(|x - v0|): edge-singular model.

    The annular factor keeps the support away from both edge endpoints so the
    radial direction stays regular; the angular threshold rho < beta + 1/2 is
    then isolated. `band=(a0, a1)` bounds the annulus, `width` the smooth skin.
    """

    def __init__(self, surface, v0: int, v1: int, beta: float,
                 band=(0.2, 0.6), width=0.08):
        super().__init__(surface)
        self._vertex_id("v0", v0)
        if self._vertex_id("v1", v1) == v0:
            raise ValueError(f"v0 and v1 must differ, got {v0} twice")
        self.beta = float(beta)
        self.a = surface.vertices[v0]
        self.v0 = v0
        direction = surface.vertices[v1] - surface.vertices[v0]
        self.direction = direction / np.linalg.norm(direction)
        self.band = (float(band[0]), float(band[1]))
        self.width = float(width)

    def _ann(self, dv):
        return _window_derivs(dv, self.band[0], self.band[1], self.width)

    def __call__(self, pts):
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        w = pts - self.a
        along = w @ self.direction
        dl = np.linalg.norm(w - along[:, None] * self.direction, axis=-1)
        dv = np.linalg.norm(w, axis=-1)
        ann, _, _ = self._ann(dv)
        return dl ** self.beta * ann

    def plane_derivs(self, pts, e1, e2):
        b = self.beta
        dl, (l1, l2), (l11, l12, l22) = _line_distance_derivs(
            pts, e1, e2, self.a, self.direction)
        dv, (v1, v2), (v11, v12, v22) = _point_distance_derivs(pts, e1, e2, self.a)
        g = dl ** b
        gp = b * dl ** (b - 1.0)
        gpp = b * (b - 1.0) * dl ** (b - 2.0)
        A, A1, A2 = self._ann(dv)
        # product (g o dl) * (A o dv)
        u = g * A
        u1 = gp * l1 * A + g * A1 * v1
        u2 = gp * l2 * A + g * A1 * v2
        u11 = (gpp * l1 * l1 + gp * l11) * A + 2 * gp * l1 * A1 * v1 \
            + g * (A2 * v1 * v1 + A1 * v11)
        u12 = (gpp * l1 * l2 + gp * l12) * A + gp * (l1 * v2 + l2 * v1) * A1 \
            + g * (A2 * v1 * v2 + A1 * v12)
        u22 = (gpp * l2 * l2 + gp * l22) * A + 2 * gp * l2 * A1 * v2 \
            + g * (A2 * v2 * v2 + A1 * v22)
        return {(0, 0): u, (1, 0): u1, (0, 1): u2,
                (2, 0): u11, (1, 1): u12, (0, 2): u22}


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
    quotient rule needs every active bump's distance field differentiated
    along the face frame. Near its own vertex the profile is flat, so the
    1/r curvature of the distance never enters.
    """
    surf = resolution.surface
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    N = len(pts)
    S = np.zeros(N)
    S1 = np.zeros(N)
    S2 = np.zeros(N)
    S11 = np.zeros(N)
    S12 = np.zeros(N)
    S22 = np.zeros(N)
    B = {}
    for m in range(surf.n_vertices):
        w = pts - surf.vertices[m]
        d = np.linalg.norm(w, axis=-1)
        active = d < resolution.r1[m]
        if not np.any(active) and m != n:
            continue
        psi, psi1, psi2 = resolution.profile_derivs(m, d)
        flat = d <= resolution.r0[m]
        psi1 = np.where(flat, 0.0, psi1)
        psi2 = np.where(flat, 0.0, psi2)
        dsafe = np.maximum(d, 1e-300)
        d1 = w @ e1 / dsafe
        d2 = w @ e2 / dsafe
        d11 = (1.0 - d1 * d1) / dsafe
        d12 = -d1 * d2 / dsafe
        d22 = (1.0 - d2 * d2) / dsafe
        b = psi
        b1 = psi1 * d1
        b2 = psi1 * d2
        b11 = psi2 * d1 * d1 + psi1 * d11
        b12 = psi2 * d1 * d2 + psi1 * d12
        b22 = psi2 * d2 * d2 + psi1 * d22
        S += b; S1 += b1; S2 += b2; S11 += b11; S12 += b12; S22 += b22
        if m == n:
            B = {"b": b, "b1": b1, "b2": b2, "b11": b11, "b12": b12, "b22": b22}
    phi = B["b"] / S
    p1 = (B["b1"] - phi * S1) / S
    p2 = (B["b2"] - phi * S2) / S
    p11 = (B["b11"] - 2.0 * p1 * S1 - phi * S11) / S
    p12 = (B["b12"] - p1 * S2 - p2 * S1 - phi * S12) / S
    p22 = (B["b22"] - 2.0 * p2 * S2 - phi * S22) / S
    return {(0, 0): phi, (1, 0): p1, (0, 1): p2,
            (2, 0): p11, (1, 1): p12, (0, 2): p22}


def _leibniz(fd, gd, upto):
    """2-D Leibniz rule for the product of two derivative tables."""
    out = {}
    for a in range(upto + 1):
        for b in range(upto + 1 - a):
            acc = 0.0
            for i in range(a + 1):
                for j in range(b + 1):
                    acc = acc + comb(a, i) * comb(b, j) * fd[(i, j)] * gd[(a - i, b - j)]
            out[(a, b)] = acc
    return out


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


def _shell_sums(F, rw, rl, pw, pl, depth):
    """Integral contributions per refinement shell (max of the two layer indices)."""
    contrib = F * np.outer(rw, pw)
    shell = np.maximum(rl[:, None], pl[None, :])
    return np.bincount(shell.ravel(), weights=contrib.ravel(), minlength=depth)


def _classify_tail(shell_sums, growth_tol, window=5):
    """(converged?, total, growth list over the last `window` shells)."""
    totals = np.cumsum(shell_sums)
    growths = []
    for ell in range(len(shell_sums) - window, len(shell_sums)):
        prev = totals[ell - 1] if ell >= 1 else 0.0
        growths.append(shell_sums[ell] / prev if prev > 0 else 0.0)
    diverged = all(g > growth_tol for g in growths)
    return (not diverged), float(totals[-1]), growths


# -- the norm ---------------------------------------------------------------------


def _face_term_sums(handle, surface, resolution, spec, n, t,
                    depth, order, weight_mode):
    """Per-shell sums of every integral term on cone face (n, t).

    weight_mode "polar" gives the weighted polar-derivative terms plus the L2
    term; "delta" gives min(C2, distance-to-rays)^(k-rho) times Cartesian
    derivatives (the flattened-weight variant used for the comparison bound).
    """
    face = surface.cone_faces(n)[t]
    gamma = face.gamma
    r_max = float(resolution.r1[n])
    (rn, rw, rl), (pn, pw, pl) = _sector_mesh(r_max, gamma, depth, order)
    R, PHI = np.meshgrid(rn, pn, indexing="ij")
    Y = np.stack([(R * np.cos(PHI)).ravel(), (R * np.sin(PHI)).ravel()], axis=1)
    pts = face.apex + Y[:, :1] * face.e1 + Y[:, 1:2] * face.e2

    k = spec.k
    ud = handle.face_derivs(n, t, Y, upto=k)
    pd = partition_face_derivs(resolution, n, t, pts, face.e1, face.e2)
    cart = _leibniz(pd, ud, upto=k)
    shape = R.shape
    cart = {ab: np.asarray(v).reshape(shape) for ab, v in cart.items()}

    out = {}
    q = sector_q(PHI, gamma)
    if weight_mode == "polar":
        pol = _polar_derivs(cart, R, PHI, upto=k)
        g0 = pol[(0, 0)]
        out[(0, 0)] = _shell_sums(np.abs(g0) ** 2 * R, rw, rl, pw, pl, depth)
        for br, bp in spec.derivative_terms():
            W = (R ** (br - spec.rho) * (1.0 + R) ** spec.rho
                 * q ** (br + bp - spec.rho))
            F = np.abs(W * pol[(br, bp)]) ** 2 * R
            out[(br, bp)] = _shell_sums(F, rw, rl, pw, pl, depth)
    else:
        delta = np.minimum(resolution.C2, R * np.sin(np.minimum(q, pi / 2.0)))
        Wd = delta ** (k - spec.rho)
        for ab, vals in cart.items():
            F = np.abs(Wd * vals) ** 2 * R
            out[ab] = _shell_sums(F, rw, rl, pw, pl, depth)
    return out


def _cone_jobs(surface, vertices):
    jobs = []
    for n in vertices:
        for t in range(len(surface.cone_faces(n))):
            jobs.append((n, t))
    return jobs


def weighted_sobolev_norm(handle, surface: PolyhedralSurface,
                          resolution: ResolutionOfUnity, spec: WeightedSpec,
                          *, depth: int = 32, quad_order: int = 8,
                          growth_tol: float = 0.01, workers: int = 1,
                          return_report: bool = False):
    """Graded-quadrature evaluation of the order-k weighted norm.

    Sums over vertices: the cone L2 norm of phi_n u plus one weighted L2 norm
    per face and derivative pair. Raises WeightedNormDivergence when the
    deepest five refinement shells of any term all grow by more than
    `growth_tol`; convergent power-type tails fall under that rate well before
    `depth` layers, divergent ones never do.
    """
    jobs = _cone_jobs(surface, range(surface.n_vertices))

    def run(job):
        n, t = job
        return job, _face_term_sums(handle, surface, resolution, spec, n, t,
                                    depth, quad_order, "polar")

    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as ex:
            results = dict(ex.map(run, jobs))
    else:
        results = dict(map(run, jobs))

    report = {}
    total = 0.0
    for n in range(surface.n_vertices):
        faces = range(len(surface.cone_faces(n)))
        l2_sq = 0.0
        for t in faces:
            sums = results[(n, t)]
            ok, value, growths = _classify_tail(sums[(0, 0)], growth_tol)
            if not ok:
                raise WeightedNormDivergence(n, surface.cone_faces(n)[t].patch,
                                             (0, 0), growths)
            l2_sq += value
            report[(n, t, (0, 0))] = value
            for term in spec.derivative_terms():
                ok, value, growths = _classify_tail(sums[term], growth_tol)
                if not ok:
                    raise WeightedNormDivergence(
                        n, surface.cone_faces(n)[t].patch, term, growths)
                report[(n, t, term)] = value
                total += np.sqrt(value)
        total += np.sqrt(l2_sq)
    if return_report:
        return total, report
    return total


def delta_weighted_norm(handle, surface: PolyhedralSurface,
                        resolution: ResolutionOfUnity, spec: WeightedSpec,
                        vertex: int, *, depth: int = 32, quad_order: int = 8,
                        growth_tol: float = 0.01) -> float:
    """Sum over faces of ||min(C2, ray distance)^(k-rho) D^a (phi_n u)||_L2,
    |a| <= k, in Cartesian in-plane derivatives: the flattened-weight side of
    the comparison inequality against the weighted norm."""
    total = 0.0
    for t in range(len(surface.cone_faces(vertex))):
        sums = _face_term_sums(handle, surface, resolution, spec, vertex, t,
                               depth, quad_order, "delta")
        for term, s in sorted(sums.items()):
            ok, value, growths = _classify_tail(s, growth_tol)
            if not ok:
                raise WeightedNormDivergence(
                    vertex, surface.cone_faces(vertex)[t].patch, term, growths)
            total += np.sqrt(value)
    return total
