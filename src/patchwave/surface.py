"""Patchwise-flat polyhedral surfaces with vertex cone atlases and a smooth partition of unity.

A surface is a closed, oriented collection of planar convex quadrilateral patches.
Every patch carries a bilinear chart from the unit square; every vertex carries a
tangent-cone atlas: one planar sector per incident patch, each with an opening angle
and a distance-preserving map from the unfolded sector into 3-space.
"""
from __future__ import annotations

import hashlib
import json
import math
import numbers
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "SurfaceError",
    "Patch",
    "ConeFace",
    "PolyhedralSurface",
    "ResolutionOfUnity",
    "load_surface",
    "surface_text",
    "unit_cube",
    "fichera_corner",
    "quasi_random_points",
]

_PLANAR_TOL = 1e-9


class SurfaceError(ValueError):
    """Raised for invalid surface descriptions or incompatible configuration."""


def _is_integer(value) -> bool:
    """An int or numpy integer, but not a bool."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _check_counts(**counts) -> None:
    """Levels and worker counts must be integers (not bools) >= 1."""
    for name, value in counts.items():
        if not _is_integer(value) or value < 1:
            raise ValueError(f"{name} must be >= 1 and an integer, got {value!r}")


def _map(fn, jobs, workers: int) -> list:
    """fn of each job, on `workers` threads when more than one.  The results
    come back in job order, and the error raised is the first failing job's
    in that order."""
    if workers == 1:
        return [fn(job) for job in jobs]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, jobs))


def _unit(v):
    n = np.linalg.norm(v)
    if n == 0.0:
        raise SurfaceError("zero-length edge encountered")
    return v / n


def quad_edge_distance(P, corners):
    """Distance from points P (..., 3) to the nearest of a quad's four edges.

    Elementwise products and last-axis sums only, so one point and an array
    of points agree bit for bit.
    """
    dist = np.inf
    for k in range(4):
        a, b = corners[k], corners[(k + 1) % 4]
        ab = b - a
        t = np.clip(((P - a) * ab).sum(-1) / (ab * ab).sum(-1), 0.0, 1.0)
        foot = P - (a + t[..., None] * ab)
        dist = np.minimum(dist, np.sqrt((foot * foot).sum(-1)))
    return dist


def points_quad_distance(P, corners):
    """Euclidean distance from each row of P (N, 3) to a planar convex quad
    given by 4 corners: the plane offset where the point projects inside,
    else the edge distance.  The inside test's tolerance scales with each
    edge's squared length, so the result scales with the quad."""
    c = np.asarray(corners, dtype=float)
    n = _unit(np.cross(c[1] - c[0], c[3] - c[0]))
    off = (P - c[0]) @ n
    proj = P - off[:, None] * n
    ab = np.roll(c, -1, axis=0) - c                       # the 4 edges, (4, 3)
    tol = -1e-14 * (ab * ab).sum(-1)[:, None]
    inside = np.all(np.cross(ab[:, None], proj - c[:, None]) @ n >= tol, axis=0)
    return np.where(inside, np.abs(off), quad_edge_distance(P, c))


@dataclass(frozen=True)
class Patch:
    """Planar convex quadrilateral with a bilinear chart kappa: [0,1]^2 -> R^3.

    Corners are in cyclic order, counter-clockwise when seen from outside, so the
    outward unit normal is cross(c1-c0, c3-c0) normalized.
    """

    index: int
    corner_ids: tuple[int, int, int, int]
    corners: np.ndarray          # (4, 3)
    normal: np.ndarray           # (3,)
    frame: np.ndarray            # (2, 3) orthonormal in-plane basis
    area: float
    min_edge: float

    # bilinear coefficients: kappa(s,t) = a + b s + c t + d s t
    coeff_a: np.ndarray = field(repr=False)
    coeff_b: np.ndarray = field(repr=False)
    coeff_c: np.ndarray = field(repr=False)
    coeff_d: np.ndarray = field(repr=False)

    def chart(self, s, t):
        """Evaluate the bilinear chart at parameters (s, t); broadcasts."""
        s = np.asarray(s, dtype=float)[..., None]
        t = np.asarray(t, dtype=float)[..., None]
        return self.coeff_a + self.coeff_b * s + self.coeff_c * t + self.coeff_d * (s * t)

    def _chart_grid(self, s, t):
        """The chart on the tensor grid of 1-D arrays s x t as three (len(s),
        len(t)) coordinate arrays, each bitwise its coordinate of
        ``chart(s[:, None], t[None, :])``: the same operations in the same
        order, with a + b s formed once per row and c t once per column."""
        s = np.asarray(s, dtype=float)[:, None]
        t = np.asarray(t, dtype=float)[None, :]
        st = s * t
        out = []
        for a, b, c, d in zip(self.coeff_a, self.coeff_b, self.coeff_c, self.coeff_d):
            x = (a + b * s) + c * t
            x += d * st
            out.append(x)
        return tuple(out)

    def jacobian_det(self, s, t):
        """Area scaling |det D kappa| at (s, t); affine in (s, t) for planar quads."""
        s = np.asarray(s, dtype=float)
        t = np.asarray(t, dtype=float)
        ds = self.coeff_b + self.coeff_d * t[..., None]
        dt = self.coeff_c + self.coeff_d * s[..., None]
        return np.linalg.norm(np.cross(ds, dt), axis=-1)

    def _ball_box(self, center, r):
        """Parameter box ((s0, s1), (t0, t1)) holding every (s, t) in the unit
        square whose chart point lies within r of `center`; margins absorb
        rounding, so it never cuts into the ball.

        On the unit square the bilinear term d s t moves a point by at most
        |d|, so the affine part a + M (s, t) comes within R = r + |d|. That
        is, in the patch plane at distance p, a disc about the foot st0 (none
        if p >= R) with box st0 +- sqrt(R^2 - p^2) sqrt(diag((M^T M)^-1)).
        """
        M = np.column_stack([self.coeff_b, self.coeff_c])
        G = np.linalg.inv(M.T @ M)
        off = np.asarray(center, dtype=float) - self.coeff_a
        st0 = G @ (M.T @ off)
        R = (r + np.linalg.norm(self.coeff_d)) * (1.0 + 1e-6)
        p = abs(float(off @ self.normal))
        if p >= R:
            return ((np.inf, np.inf), (np.inf, np.inf))
        half = np.sqrt(R * R - p * p) * np.sqrt(np.diag(G)) + 1e-6 * np.abs(st0)
        return tuple(zip(st0 - half, st0 + half))

    def chart_inverse(self, x):
        """Invert the chart for a point known to lie on the patch plane: at
        most 40 Newton steps from the affine guess, to a residual of 1e-13."""
        x = np.asarray(x, dtype=float)
        u1, u2 = self.frame
        p = np.array([np.dot(x - self.coeff_a, u1), np.dot(x - self.coeff_a, u2)])
        b2 = np.array([np.dot(self.coeff_b, u1), np.dot(self.coeff_b, u2)])
        c2 = np.array([np.dot(self.coeff_c, u1), np.dot(self.coeff_c, u2)])
        d2 = np.array([np.dot(self.coeff_d, u1), np.dot(self.coeff_d, u2)])
        st = np.linalg.solve(np.column_stack([b2, c2]), p)  # affine initial guess
        if np.dot(d2, d2) > 0.0:
            for _ in range(40):
                r = b2 * st[0] + c2 * st[1] + d2 * st[0] * st[1] - p
                if np.dot(r, r) < 1e-13 * 1e-13:
                    break
                J = np.column_stack([b2 + d2 * st[1], c2 + d2 * st[0]])
                st = st - np.linalg.solve(J, r)
        return float(st[0]), float(st[1])


@dataclass(frozen=True)
class ConeFace:
    """One face of a vertex tangent cone: a planar sector unfolded at the origin.

    The distance-preserving map is R(y) = apex + y1*e1 + y2*e2 with orthonormal
    in-plane vectors e1 (first bounding ray, along an edge of the patch) and e2.
    """

    vertex: int
    patch: int                   # the unique incident patch spanning this sector
    gamma: float                 # opening angle in (0, pi)
    apex: np.ndarray             # (3,)
    e1: np.ndarray               # (3,)
    e2: np.ndarray               # (3,)
    normal: np.ndarray           # (3,)

    def _ball_radii(self, center, r):
        """Interval (R0, R1) of sector radii |y| holding every face point
        within r of `center`; margins absorb rounding, so it never cuts into
        the ball. The cone-face counterpart of `Patch._ball_box`.

        With the centre's projection at in-plane distance rho from the apex
        and the centre at height h off the face plane, a point at radius R
        lies at distance >= sqrt((R - rho)^2 + h^2): the interval is
        rho +- sqrt(r^2 - h^2), and empty if |h| >= r.
        """
        off = np.asarray(center, dtype=float) - self.apex
        rho = float(np.hypot(off @ self.e1, off @ self.e2))
        h = abs(float(off @ self.normal))
        r = r * (1.0 + 1e-6)
        if h >= r:
            return (np.inf, np.inf)
        half = np.sqrt(r * r - h * h) + 1e-6 * rho
        return (rho - half, rho + half)


class PolyhedralSurface:
    """Immutable closed surface made of planar convex quadrilateral patches."""

    def __init__(self, vertices, patches, constants=None):
        try:
            self.vertices = np.asarray(vertices, dtype=float)
        except (TypeError, ValueError):
            raise SurfaceError("vertices must be an (N, 3) array of numbers") from None
        self.vertices.flags.writeable = False
        if self.vertices.ndim != 2 or self.vertices.shape[1] != 3 or not len(self.vertices):
            raise SurfaceError("vertices must be an (N, 3) array")
        if not np.all(np.abs(self.vertices) < 1e150):     # tolerances square the extent
            raise SurfaceError("vertex coordinates must be finite and below 1e150")
        if not isinstance(patches, (list, tuple, np.ndarray)) or not len(patches):
            raise SurfaceError("patches must be a non-empty list of [v0, v1, v2, v3]")
        for i, q in enumerate(patches):
            if not isinstance(q, (list, tuple, np.ndarray)) or any(
                    isinstance(v, bool) or not isinstance(v, numbers.Integral) for v in q):
                raise SurfaceError(f"patch {i}: vertex ids must be integers, got {q!r}")
        quads = [tuple(int(v) for v in q) for q in patches]
        if constants is not None and not (isinstance(constants, dict) and all(
                isinstance(c, numbers.Real) and not isinstance(c, bool)
                for c in constants.values())):
            raise SurfaceError("constants must map names to numbers")
        try:
            self.constants = {k: float(v) for k, v in (constants or {}).items()}
        except OverflowError:
            raise SurfaceError("constants must lie in the float range") from None
        C1 = self.constants.get("C1")
        if C1 is not None and not 0 < C1 < math.inf:
            raise SurfaceError(f"C1 must be finite and positive, got {C1:.6g}")
        self._scale = float(np.max(np.ptp(self.vertices, axis=0)))
        self.patches = [self._build_patch(i, q) for i, q in enumerate(quads)]
        self._check_edges()
        self._check_volume()
        self.cones = self._build_cones()
        self.min_edge = min(p.min_edge for p in self.patches)
        # read-only interior cell masks per wavelet level, filled on demand
        # by ``wavelets.classify_level``
        self._interior_masks: dict[int, np.ndarray] = {}

    # -- construction -------------------------------------------------------

    def _build_patch(self, index, quad):
        if len(quad) != 4 or len(set(quad)) != 4:
            raise SurfaceError(f"patch {index}: degenerate patch (needs 4 distinct corners)")
        for v in quad:
            if not 0 <= v < self.n_vertices:
                raise SurfaceError(f"patch {index}: vertex id {v} is not in "
                                   f"[0, {self.n_vertices})")
        c = self.vertices[list(quad)]
        n_raw = np.cross(c[1] - c[0], c[3] - c[0])
        if np.linalg.norm(n_raw) <= 1e-14 * self._scale ** 2:
            raise SurfaceError(f"patch {index}: degenerate patch (zero area corner span)")
        normal = _unit(n_raw)
        if abs(np.dot(c[2] - c[0], normal)) > _PLANAR_TOL * self._scale:
            raise SurfaceError(f"patch {index}: non-planar quadrilateral")
        u1 = _unit(c[1] - c[0])
        u2 = np.cross(normal, u1)
        # bilinear coefficients
        a = c[0]
        b = c[1] - c[0]
        cc = c[3] - c[0]
        d = c[2] - c[1] - c[3] + c[0]
        # det D kappa is affine in (s,t); positivity at all four corners <=> convex,
        # counter-clockwise quad <=> the chart is a diffeomorphism onto the patch
        p2 = lambda v: np.array([np.dot(v, u1), np.dot(v, u2)])
        b2, c2, d2 = p2(b), p2(cc), p2(d)
        cross2 = lambda u, v: u[0] * v[1] - u[1] * v[0]
        dets = [cross2(b2 + d2 * t, c2 + d2 * s) for s, t in ((0, 0), (1, 0), (0, 1), (1, 1))]
        if min(dets) <= 1e-12 * self._scale ** 2:
            raise SurfaceError(
                f"patch {index}: degenerate patch (chart Jacobian not positive; "
                "quad must be strictly convex and counter-clockwise from outside)")
        edges = [np.linalg.norm(c[(k + 1) % 4] - c[k]) for k in range(4)]
        area = 0.5 * abs(cross2(p2(c[2] - c[0]), p2(c[3] - c[1])))
        patch = Patch(index=index, corner_ids=tuple(quad), corners=c, normal=normal,
                      frame=np.vstack([u1, u2]), area=float(area), min_edge=float(min(edges)),
                      coeff_a=a, coeff_b=b, coeff_c=cc, coeff_d=d)
        for arr in (patch.corners, patch.normal, patch.frame):
            arr.flags.writeable = False
        return patch

    def _check_edges(self):
        seen: dict[tuple[int, int], list[tuple[int, int, int]]] = {}
        for p in self.patches:
            ids = p.corner_ids
            for k in range(4):
                a, b = ids[k], ids[(k + 1) % 4]
                seen.setdefault((min(a, b), max(a, b)), []).append((p.index, a, b))
        for (a, b), uses in seen.items():
            if len(uses) != 2:
                raise SurfaceError(
                    f"non-manifold edge ({a},{b}): shared by {len(uses)} patches, expected 2")
            if uses[0][1] == uses[1][1]:
                raise SurfaceError(
                    f"inconsistent orientation across edge ({a},{b}) "
                    f"between patches {uses[0][0]} and {uses[1][0]}")

    def _check_volume(self):
        """The patch normals must enclose positive volume: they point
        outward.  By the divergence theorem with F = x, 3 V is the sum over
        the flat patches of (x . n) |patch|, x any point of the patch."""
        vol = sum(float(np.dot(p.chart(0.5, 0.5), p.normal)) * p.area
                  for p in self.patches)
        if vol <= 0.0:
            raise SurfaceError("patch normals enclose nonpositive volume "
                               "(surface oriented inward)")

    def _build_cones(self):
        incident: dict[int, list[tuple[int, int]]] = {}
        for p in self.patches:
            for pos, vid in enumerate(p.corner_ids):
                incident.setdefault(vid, []).append((p.index, pos))
        cones: dict[int, list[ConeFace]] = {}
        for vid, inc in sorted(incident.items()):
            self._check_vertex_cycle(vid, inc)
            faces = []
            for pi, pos in sorted(inc):
                p = self.patches[pi]
                apex = self.vertices[vid]
                nxt = p.corners[(pos + 1) % 4] - apex
                prv = p.corners[(pos - 1) % 4] - apex
                e1 = _unit(nxt)
                e2 = _unit(prv - np.dot(prv, e1) * e1)
                gamma = math.atan2(float(np.dot(prv, e2)), float(np.dot(prv, e1)))
                f = ConeFace(vertex=vid, patch=pi, gamma=gamma, apex=apex,
                             e1=e1, e2=e2, normal=p.normal)
                for arr in (f.e1, f.e2):
                    arr.flags.writeable = False
                faces.append(f)
            cones[vid] = faces
        return cones

    def _check_vertex_cycle(self, vid, inc):
        """The incident patches must close up into a single cycle around the
        vertex; by `_check_edges`, each edge at the vertex joins two of them."""
        edge_of = {}
        for pi, pos in inc:
            ids = self.patches[pi].corner_ids
            nxt, prv = ids[(pos + 1) % 4], ids[(pos - 1) % 4]
            for other in (nxt, prv):
                edge_of.setdefault((min(vid, other), max(vid, other)), []).append(pi)
        neighbors: dict[int, list[int]] = {}
        for ps in edge_of.values():
            neighbors.setdefault(ps[0], []).append(ps[1])
            neighbors.setdefault(ps[1], []).append(ps[0])
        start = inc[0][0]
        seen = {start}
        cur, prev = neighbors[start][0], start
        while cur != start:
            seen.add(cur)
            a, b = neighbors[cur]
            cur, prev = (b, cur) if a == prev else (a, cur)
        if len(seen) != len(inc):
            raise SurfaceError(f"vertex {vid}: incident patches do not form a single cycle")

    # -- queries -------------------------------------------------------------

    @property
    def n_vertices(self):
        return self.vertices.shape[0]

    @property
    def n_patches(self):
        return len(self.patches)

    def _vertex_id(self, name: str, v):
        """v if it is a vertex id of the surface, else ValueError."""
        n = self.n_vertices
        if not (_is_integer(v) and 0 <= v < n):
            raise ValueError(f"{name} must be a vertex id in [0, {n}), "
                             f"got {v!r}")
        return v

    def cone_faces(self, n) -> list[ConeFace]:
        return self.cones[self._vertex_id("vertex", n)]

    def description(self):
        return {
            "vertices": [[float(x) for x in v] for v in self.vertices],
            "patches": [list(p.corner_ids) for p in self.patches],
            "constants": dict(sorted(self.constants.items())),
        }

    def content_hash(self):
        return hashlib.sha256(surface_text(self).encode()).hexdigest()


# -- serialization ----------------------------------------------------------

def surface_text(surface: PolyhedralSurface) -> str:
    """Canonical structured-text (JSON) form; coordinate round-trip is exact."""
    return json.dumps(surface.description(), sort_keys=True, separators=(",", ":"))


def load_surface(source) -> PolyhedralSurface:
    """Build a surface from a description dict, JSON text, or a path to a JSON file.

    Required fields: ``vertices`` (list of [x, y, z]) and ``patches`` (list of
    [v0, v1, v2, v3], counter-clockwise from outside). Optional: ``constants``
    with key C1, the clearance of `ResolutionOfUnity`, finite and positive.
    A surface whose patch normals enclose nonpositive volume (wound inward)
    is refused.
    """
    if isinstance(source, PolyhedralSurface):
        return source
    if isinstance(source, dict):
        doc = source
    else:
        text = None
        if isinstance(source, (str, os.PathLike)):
            s = str(source)
            if s.lstrip().startswith("{"):
                text = s
            else:
                with open(s, "r", encoding="utf-8") as fh:
                    text = fh.read()
        if text is None:
            raise SurfaceError(f"cannot interpret surface source of type {type(source)!r}")
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise SurfaceError(f"surface file is not valid JSON: {exc}") from exc
        except RecursionError:
            raise SurfaceError("surface file is not valid JSON: nested too "
                               "deeply") from None
    for key in ("vertices", "patches"):
        if key not in doc:
            raise SurfaceError(f"surface description lacks required field '{key}'")
    return PolyhedralSurface(doc["vertices"], doc["patches"], doc.get("constants"))


# -- resolution of unity ----------------------------------------------------

def _smooth_step(t):
    """C-infinity step built from exp(-1/t): 0 at t<=0, 1 at t>=1, monotone."""
    t = np.asarray(t, dtype=float)
    u = 1.0 - t
    pos = t > 1e-9
    neg = u > 1e-9
    # exp(-1/t) where t > 1e-9 and exp(-1/(1-t)) where 1-t > 1e-9, +0.0
    # elsewhere, each formed in place by a masked ufunc
    a = np.divide(-1.0, t, out=np.zeros_like(t), where=pos)
    b = np.divide(-1.0, u, out=np.zeros_like(t), where=neg)
    with np.errstate(under="ignore"):
        np.exp(a, out=a, where=pos)
        np.exp(b, out=b, where=neg)
    s = a + b
    return a / (s + (s == 0.0))


def _smooth_step_derivs(t):
    """Value, first and second derivative of the smooth step, away from {0,1} clamps."""
    t = np.asarray(t, dtype=float)
    tc = np.clip(t, 1e-7, 1.0 - 1e-7)
    with np.errstate(under="ignore"):
        a = np.exp(-1.0 / tc)
        b = np.exp(-1.0 / (1.0 - tc))
    ap = a / tc ** 2
    bp = -b / (1.0 - tc) ** 2
    app = a * (1.0 / tc ** 4 - 2.0 / tc ** 3)
    bpp = b * (1.0 / (1.0 - tc) ** 4 - 2.0 / (1.0 - tc) ** 3)
    s = a + b
    v = a / s
    num = ap * b - a * bp
    v1 = num / s ** 2
    v2 = (app * b - a * bpp) / s ** 2 - 2.0 * num * (ap + bp) / s ** 3
    inside = (t > 1e-7) & (t < 1.0 - 1e-7)
    v = np.where(t <= 1e-7, 0.0, np.where(t >= 1.0 - 1e-7, 1.0, v))
    v1 = np.where(inside, v1, 0.0)
    v2 = np.where(inside, v2, 0.0)
    return v, v1, v2


def _step_down_derivs(d, lo, hi):
    """Smooth descent from 1 below lo to 0 above hi, with two derivatives."""
    w = hi - lo
    v, v1, v2 = _smooth_step_derivs((hi - np.asarray(d, dtype=float)) / w)
    return v, -v1 / w, v2 / w ** 2


class ResolutionOfUnity:
    """Smooth partition of unity from radial vertex bumps, normalized to sum to one.

    Each vertex n carries a radial profile equal to 1 for r <= r0[n], 0 for
    r >= r1[n], with r0 = min(C1, r1 / 2); phi_n is the bump divided by the
    sum of all bumps. C1 is the surface's constant C1, else min_edge / 8, and
    r1[n] is vertex n's clearance from the patches not containing it, less
    2 C1, so every bump vanishes on those patches with clearance C1.
    Construction validates the rest: r1 is positive, plateau balls meet no
    other bump, and the supports cover the surface.
    """

    def __init__(self, surface: PolyhedralSurface):
        self.surface = surface
        self.C1 = surface.constants.get("C1", surface.min_edge / 8.0)
        self.r1 = self._clearances() - 2.0 * self.C1
        self.r0 = np.minimum(self.C1, 0.5 * self.r1)
        self._validate()
        self.r0.flags.writeable = False
        self.r1.flags.writeable = False

    def _clearances(self):
        """Distance from each vertex to the nearest patch not containing it."""
        surf = self.surface
        out = np.full(surf.n_vertices, np.inf)
        for patch in surf.patches:
            d = points_quad_distance(surf.vertices, patch.corners)
            d[list(patch.corner_ids)] = np.inf
            np.minimum(out, d, out=out)
        return out

    def _validate(self):
        surf = self.surface
        tol = 1e-12 * surf.min_edge
        # with r0 = min(C1, r1 / 2) and C1 > 0, 0 < r0 < r1 holds iff r1 > 0
        bad = self.r1 <= 0
        if np.any(bad):
            n = int(np.argmax(bad))
            raise SurfaceError(f"resolution radius r1[{n}]={self.r1[n]:.6g} "
                               f"must be positive")
        # plateau balls must not meet any other bump support
        v = surf.vertices
        for n in range(surf.n_vertices):
            d = np.linalg.norm(v - v[n], axis=1)
            d[n] = np.inf
            if np.any(self.r0[n] + self.r1 > d + tol):
                m = int(np.argmin(d - self.r1))
                raise SurfaceError(
                    f"plateau of vertex {n} meets the bump of vertex {m}: "
                    f"r0+r1={self.r0[n] + self.r1[m]:.6g} > dist={d[m]:.6g}")
        # supports must cover the surface
        _, _, pts = quasi_random_points(surf, 2048)
        if np.min(self._bumps(pts).sum(axis=0)) < 1e-6:
            raise SurfaceError("resolution radii leave part of the surface uncovered")

    # profile and bumps ------------------------------------------------------

    def profile(self, n, r):
        """Radial profile of the bump at vertex n (1 inside r0, 0 outside r1)."""
        r = np.asarray(r, dtype=float)
        t = (self.r1[n] - r) / (self.r1[n] - self.r0[n])
        return _smooth_step(t)

    def profile_derivs(self, n, r):
        """Profile value and first two radial derivatives at radii r."""
        return _step_down_derivs(r, self.r0[n], self.r1[n])

    def _bumps(self, pts):
        """Every vertex's bump at the given points: shape (n_vertices, N)."""
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        return np.vstack([self.profile(m, np.linalg.norm(pts - v, axis=1))
                          for m, v in enumerate(self.surface.vertices)])


# -- reference surfaces -----------------------------------------------------

def unit_cube() -> dict:
    """Description of the boundary of the unit cube (8 vertices, 6 patches)."""
    vertices = [[0, 0, 0], [1, 0, 0], [1, 1, 0], [0, 1, 0],
                [0, 0, 1], [1, 0, 1], [1, 1, 1], [0, 1, 1]]
    patches = [[0, 3, 2, 1], [4, 5, 6, 7], [0, 1, 5, 4],
               [1, 2, 6, 5], [2, 3, 7, 6], [3, 0, 4, 7]]
    return {"vertices": [[float(c) for c in v] for v in vertices], "patches": patches}


def fichera_corner() -> dict:
    """Description of the Fichera corner boundary ([-1,1]^3 minus [0,1]^3).

    The three big outer faces are quartered and the three L-shaped faces split
    into three unit squares, which adds flat (degenerate) vertices on edges and
    face centers; all 24 patches are unit squares.
    """
    squares = []  # (axis, level, u-range start, v-range start, outward sign)
    for axis in range(3):
        for a in (-1, 0):
            for b in (-1, 0):
                squares.append((axis, -1.0, a, b, -1.0))
        for a, b in ((-1, -1), (-1, 0), (0, -1)):
            squares.append((axis, 1.0, a, b, 1.0))
        squares.append((axis, 0.0, 0, 0, 1.0))
    vid: dict[tuple[float, float, float], int] = {}
    vertices: list[list[float]] = []
    patches = []
    for axis, level, a, b, sign in squares:
        u, v = (axis + 1) % 3, (axis + 2) % 3
        quad = []
        for du, dv in ((0, 0), (1, 0), (1, 1), (0, 1)):
            p = [0.0, 0.0, 0.0]
            p[axis], p[u], p[v] = level, float(a + du), float(b + dv)
            key = tuple(p)
            if key not in vid:
                vid[key] = len(vertices)
                vertices.append(list(key))
            quad.append(vid[key])
        c = np.array([vertices[i] for i in quad])
        n = np.cross(c[1] - c[0], c[3] - c[0])
        if n[axis] * sign < 0:
            quad = quad[::-1]
        patches.append(quad)
    return {"vertices": vertices, "patches": patches}


# -- sampling ----------------------------------------------------------------

def quasi_random_points(surface: PolyhedralSurface, count: int):
    """Deterministic low-discrepancy surface points, allocated to patches by area.

    Returns (patch_ids, params, points) with params in [0,1]^2.
    """
    areas = np.array([p.area for p in surface.patches])
    quota = areas / areas.sum() * count
    counts = np.floor(quota).astype(int)
    rem = count - counts.sum()
    if rem > 0:
        order = np.argsort(-(quota - counts))
        counts[order[:rem]] += 1
    # unscrambled Halton in bases 2 and 3 from index 1 (the origin skipped),
    # with the radical-inverse digits summed in scipy.stats.qmc's order
    params = np.zeros((int(counts.sum()), 2))
    for col, base in enumerate((2, 3)):
        q, b2r = np.arange(1, len(params) + 1), 1.0 / base
        while q.any():
            params[:, col] += (q % base) * b2r
            q, b2r = q // base, b2r / base
    patch_ids = np.repeat(np.arange(surface.n_patches), counts)
    pts = np.vstack([
        surface.patches[pi].chart(params[i, 0], params[i, 1])
        for i, pi in enumerate(patch_ids)]) if len(patch_ids) else np.zeros((0, 3))
    return patch_ids, params, pts
