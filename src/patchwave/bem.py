"""Dense Galerkin double layer solver on piecewise-flat closed surfaces.

The operator is (1/2)Id - K with the double layer kernel differentiated at
the source point.  Piecewise constants on dyadic cell grids make every
same-patch block exact (the kernel vanishes between coplanar points), and
the remaining inner integrals have a closed form: the kernel integrated
over a flat source cell is the signed solid angle the cell subtends.  Only
the outer (test-cell) integral is done by quadrature, graded toward shared
edges and corners.

Sign conventions: kernel(x, eta, y) = -(1/(4 pi)) <eta, x - y> / |x - y|^3,
so the kernel integral over the whole surface is -1 at interior points,
-1/2 at smooth surface points, 0 outside.  The interior trace of the
potential of a density u is (K - 1/2 Id) u, so reproducing an interior
harmonic h means solving ((1/2)Id - K) u = -h|_boundary.
"""

from __future__ import annotations

import math
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.linalg import lu_factor, lu_solve
from scipy.linalg.lapack import dgecon

from ._gauss import unit_rule
from .surface import PolyhedralSurface, SurfaceError, point_quad_distance
from .spaces import BesovSpec
from .wavelets import BasisSpec, CoefficientField, analyze
from .weighted import WeightedSpec
from .approx import (RateReport, fit_rate, gamma_star, level_tail_sums,
                     n_term_plan, uniform_approx)

_FOUR_PI = 4.0 * math.pi


# -- kernel and solid angles -----------------------------------------------------


def double_layer_kernel(x, eta, y):
    """-(1/(4 pi)) <eta, x - y> / |x - y|^3 for source x with normal eta.

    Broadcasts over leading axes; raises on coincident points.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    eta = np.asarray(eta, dtype=float)
    d = x - y
    r2 = (d * d).sum(axis=-1)
    if np.any(r2 == 0.0):
        raise ValueError("kernel evaluated at coincident points")
    num = (eta * d).sum(axis=-1)
    return -num / (_FOUR_PI * r2 * np.sqrt(r2))


def _quad_kernel(Q, Y):
    """Signed solid angles of planar quads seen from points Y.

    Q holds four (x, y, z) component triples, one per quad corner, and Y one
    (x, y, z) triple; all twelve plus three arrays broadcast to the output
    shape.  Each quad is split into the triangles (0, 1, 2) and (0, 2, 3),
    whose solid angles follow van Oosterom-Strackee with the four corner
    norms and R0.R2 shared.  Every dot is summed (x + y) + z and every cross
    component is a1*b2 - a2*b1, the order of numpy's .sum(-1) and np.cross,
    so the values equal bit for bit, signed zeros included, those of the
    formula written with (..., 3) vectors, .sum(-1) and np.cross.  (A dot
    here may differ from .sum(-1) in the sign of a zero only; that reaches
    arctan2 through the numerator alone, since the denominator, led by a
    product of norms, is never -0.0.)
    """
    def dot(a, b):
        d = a[0] * b[0]
        d += a[1] * b[1]
        d += a[2] * b[2]
        return d

    R = [[q - y for q, y in zip(corner, Y)] for corner in Q]
    r = [np.sqrt(dot(a, a)) for a in R]

    def triple(a, b, c):
        """a . (b x c)"""
        t = a[0] * (b[1] * c[2] - b[2] * c[1])
        t += a[1] * (b[2] * c[0] - b[0] * c[2])
        t += a[2] * (b[0] * c[1] - b[1] * c[0])
        t += 0.0        # .sum(-1) of three -0.0 is +0.0, and arctan2 sees it
        return t

    def angle(i, j, k, dij, dik, djk):
        ri, rj, rk = r[i], r[j], r[k]
        den = ri * rj
        den *= rk
        den += dij * rk
        den += dik * rj
        den += djk * ri
        return np.arctan2(triple(R[i], R[j], R[k]), den)

    d02 = dot(R[0], R[2])
    out = angle(0, 1, 2, dot(R[0], R[1]), d02, dot(R[1], R[2]))
    out += angle(0, 2, 3, d02, dot(R[0], R[3]), dot(R[2], R[3]))
    out *= 2.0
    return out


_TILE = 1 << 14      # kernel elements per tile: its temporaries stay in cache


def solid_angles(quads: np.ndarray, Y: np.ndarray,
                 chunk: int = 1024) -> np.ndarray:
    """Signed solid angles of planar quads (Nq, 4, 3) from points Y (Ny, 3).

    Quad corners must wind right-handed about the surface normal; the result
    is then the exact integral of <x - y, eta> / |x - y|^3 over each quad.
    Points go in chunks of `chunk`, quads in tiles of about 16k kernel
    elements per chunk; the kernel is elementwise, so tiling changes no bit.
    """
    Y = np.atleast_2d(np.asarray(Y, dtype=float))
    Q = [[np.ascontiguousarray(quads[None, :, k, c]) for c in range(3)]
         for k in range(4)]
    out = np.empty((len(Y), len(quads)))
    step = max(1, _TILE // max(1, min(chunk, len(Y))))
    for lo in range(0, len(Y), chunk):
        Yc = [Y[lo:lo + chunk, c, None] for c in range(3)]
        for qlo in range(0, len(quads), step):
            Qt = [[a[:, qlo:qlo + step] for a in corner] for corner in Q]
            out[lo:lo + chunk, qlo:qlo + step] = _quad_kernel(Qt, Yc)
    return out


def _solid_angles_paired(quads: np.ndarray, Y: np.ndarray,
                         chunk: int = 1024) -> np.ndarray:
    """Solid angle of quads[i] from each point of Y[i]: (N, 4, 3) with
    (N, q, 3) -> (N, q)."""
    out = np.empty(Y.shape[:2])
    for lo in range(0, len(quads), chunk):
        q = quads[lo:lo + chunk]
        Q = [[q[:, k, c, None] for c in range(3)] for k in range(4)]
        Yc = [Y[lo:lo + chunk, :, c] for c in range(3)]
        out[lo:lo + chunk] = _quad_kernel(Q, Yc)
    return out


# -- cell geometry ---------------------------------------------------------------


def _cell_quads(patch, L: int) -> np.ndarray:
    """Corner coordinates (4^L, 4, 3) of the dyadic cells, C-ordered (k1, k2),
    corners wound (00, 10, 11, 01) to match the patch normal."""
    h = 0.5 ** L
    c = 1 << L
    k = np.arange(c)
    K1, K2 = np.meshgrid(k, k, indexing="ij")
    s0 = K1.ravel() * h
    t0 = K2.ravel() * h
    return np.stack([patch.chart(s0, t0), patch.chart(s0 + h, t0),
                     patch.chart(s0 + h, t0 + h), patch.chart(s0, t0 + h)],
                    axis=1)


def _cell_gauss(patch, L: int, order: int):
    """Outer quadrature nodes/weights per cell: (4^L, order^2, 3) and
    (4^L, order^2) including the surface jacobian."""
    nodes, wts = unit_rule(order)
    h = 0.5 ** L
    c = 1 << L
    k = np.arange(c)
    g = (k[:, None] + nodes[None, :]).ravel() * h     # c*order points per axis
    S, T = np.meshgrid(g, g, indexing="ij")
    pts = patch.chart(S.ravel(), T.ravel())
    jac = patch.jacobian_det(S.ravel(), T.ravel())
    W2 = np.outer(wts, wts)
    n = order
    # reshape (c, n, c, n) -> cells (c*c) x nodes (n*n)
    P = pts.reshape(c, n, c, n, 3).transpose(0, 2, 1, 3, 4).reshape(c * c, n * n, 3)
    Jc = jac.reshape(c, n, c, n).transpose(0, 2, 1, 3).reshape(c * c, n * n)
    W = W2.ravel()[None, :] * Jc * h * h
    return P, W


def _orientation_check(surface: PolyhedralSurface) -> None:
    """Directed shared edges must alternate and the enclosed volume must be
    positive (consistently outward patch normals)."""
    directed = Counter()
    for p in surface.patches:
        ids = list(p.corner_ids)
        for k in range(4):
            directed[(ids[k], ids[(k + 1) % 4])] += 1
    for (u, v), cnt in directed.items():
        if cnt != 1 or directed.get((v, u), 0) != 1:
            raise SurfaceError("patch windings are not consistently oriented")
    vol = 0.0
    for p in surface.patches:
        n = np.cross(p.coeff_b, p.coeff_c)
        area = float(np.linalg.norm(n))
        center = p.chart(np.array([0.5]), np.array([0.5]))[0]
        vol += float(np.dot(center, n / area)) * area / 3.0
    if vol <= 0.0:
        raise SurfaceError("patch normals enclose nonpositive volume "
                           "(surface oriented inward)")


# -- graded outer quadrature for touching cells ----------------------------------


def _graded_segments(depth: int) -> list[tuple[float, float]]:
    """Dyadic segments of [0, 1] refined toward 0: [0, 2^-depth], then
    doubling up to [1/2, 1]."""
    cuts = [0.0] + [2.0 ** (-depth + i) for i in range(depth + 1)]
    return list(zip(cuts[:-1], cuts[1:]))


def _graded_cell_nodes(patch, L: int, k1: int, k2: int, feature: tuple,
                       depth: int, order: int):
    """Gauss nodes on one cell, graded toward a side or corner.

    feature = ("side", axis, end) grades the coordinate `axis` toward
    end in {0, 1}; feature = ("corner", e1, e2) grades both coordinates.
    """
    nodes, wts = unit_rule(order)
    segs = _graded_segments(depth)
    uniform = [(0.0, 0.5), (0.5, 1.0)]

    def axis_panels(graded: bool, end: int):
        if not graded:
            return uniform
        if end == 0:
            return segs
        return [(1.0 - b, 1.0 - a) for a, b in segs]

    if feature[0] == "side":
        _, axis, end = feature
        pans1 = axis_panels(axis == 0, end if axis == 0 else 0)
        pans2 = axis_panels(axis == 1, end if axis == 1 else 0)
    else:
        _, e1, e2 = feature
        pans1 = axis_panels(True, e1)
        pans2 = axis_panels(True, e2)
    h = 0.5 ** L
    S, T, W = [], [], []
    for a1, b1 in pans1:
        x1 = a1 + (b1 - a1) * nodes
        w1 = (b1 - a1) * wts
        for a2, b2 in pans2:
            x2 = a2 + (b2 - a2) * nodes
            w2 = (b2 - a2) * wts
            XX, YY = np.meshgrid(x1, x2, indexing="ij")
            S.append((k1 + XX.ravel()) * h)
            T.append((k2 + YY.ravel()) * h)
            W.append(np.outer(w1, w2).ravel())
    S = np.concatenate(S)
    T = np.concatenate(T)
    W = np.concatenate(W) * h * h * patch.jacobian_det(S, T)
    return patch.chart(S, T), W


# -- the assembled system --------------------------------------------------------


@dataclass
class DoubleLayerSystem:
    """Dense Galerkin matrix of (1/2)Id - K on piecewise constants.

    Cells are C-ordered (patch, k1, k2); row m tests against cell m, column
    n integrates the density of cell n.  Same-patch off-diagonal entries
    are exactly zero.
    """

    surface: PolyhedralSurface
    L: int
    A: np.ndarray
    areas: np.ndarray
    centers: np.ndarray
    quad_order: int
    grade_depth: int

    @property
    def n_cells(self) -> int:
        return len(self.areas)

    def flat_index(self, patch: int, k1: int, k2: int) -> int:
        c = 1 << self.L
        return (patch * c + k1) * c + k2


def _near_box(pts, others, reach: float) -> np.ndarray:
    """Sorted indices of the points within `reach` of the bounding box of
    `others`.  Per coordinate the box gap never exceeds the gap to any of
    `others`, in floating point too, so no point within reach is dropped."""
    gap = np.maximum(np.maximum(others.min(axis=0) - pts,
                                pts - others.max(axis=0)), 0.0)
    return np.nonzero((gap ** 2).sum(-1) <= reach ** 2)[0]


def _touch_candidates(quads_m, quads_n):
    """Cell-pair lists (touching, near) between two distinct patches.

    Cells of distinct patches can only meet along the shared patch edge or
    corner, where the dyadic grids align node-to-node, so touching pairs are
    exactly the pairs sharing a corner coordinate (to 1e-9 cell diagonals).
    Near pairs (gap below about one cell diameter) get an upgraded
    quadrature as a safety margin.  Centre distances are taken only between
    the cells near the other patch, O(4^L) work; both lists are row-major.
    """
    diag = max(np.linalg.norm(quads_m[:, 2] - quads_m[:, 0], axis=1).max(),
               np.linalg.norm(quads_n[:, 2] - quads_n[:, 0], axis=1).max())
    cm = quads_m.mean(axis=1)
    cn = quads_n.mean(axis=1)
    rows = _near_box(cm, cn, 2.5 * diag)
    cols = _near_box(cn, cm, 2.5 * diag)
    d2 = ((cm[rows, None, :] - cn[None, cols, :]) ** 2).sum(-1)
    i, j = np.nonzero(d2 <= (2.5 * diag) ** 2)
    if len(i) == 0:
        return [], []
    mi, ni = rows[i], cols[j]
    qm = quads_m[mi]
    qn = quads_n[ni]
    cc = ((qm[:, :, None, :] - qn[:, None, :, :]) ** 2).sum(-1).min(axis=(1, 2))
    touch = cc < (1e-9 * diag) ** 2
    near = ~touch & (d2[i, j] <= (1.8 * diag) ** 2)
    return (list(zip(mi[touch].tolist(), ni[touch].tolist())),
            list(zip(mi[near].tolist(), ni[near].tolist())))


def _is_affine(patch) -> bool:
    return bool(np.all(np.asarray(patch.coeff_d) == 0.0))


def _offset_classes(V: np.ndarray, scale: float):
    """Classes of equal offsets among the rows of V (N, 3).

    Offsets are quantised to scale/8192 and packed into one int64 key.
    Returns (first, inv) as np.unique(return_index, return_inverse) gives
    them, or None when the quantisation overflows or merges offsets more
    than 1e-9 * scale apart.
    """
    q = np.round(V * (8192.0 / scale)).astype(np.int64)
    if np.any(np.abs(q) >= (1 << 20)):
        return None
    base = 1 << 20
    key = ((q[:, 0] + base) << 42) | ((q[:, 1] + base) << 21) | (q[:, 2] + base)
    _, first, inv = np.unique(key, return_index=True, return_inverse=True)
    # a merge of genuinely distinct offsets would corrupt entries: verify
    if float(np.abs(V - V[first][inv]).max()) > 1e-9 * scale:
        return None
    return first, inv


def _pair_classes(patch_m, patch_n, L: int):
    """Translation classes of (test, source) cell pairs on affine patches.

    The Galerkin entry depends on the lattice offset between the two cells
    only, so entries are computed once per distinct offset.  The offset of
    cells m = (m1, m2) and n = (n1, n2) is (n1 b_n - m1 b_m) + (n2 c_n -
    m2 c_m), a sum of two groups of c^2 = 4^L one-dimensional offsets;
    pairing (m1, n2) with (m2, n1) instead collapses more when b_m is
    parallel to c_n.  Each group is deduplicated, then the sums of the two
    groups' classes (at most (2c - 1) c^2 on the cube, not c^4).  The cost
    is O(4^L) per group plus the class sums, never the full 16^L pairs.

    Returns ((cls, ia, ib), (rep_m, rep_n)): pair (m1, m2, n1, n2) lies in
    class cls[ia, ib], with ia and ib broadcasting to (c, c, c, c), and each
    class's representative is its first pair in C order, as np.unique of
    all 16^L offsets would pick it.  None when the offsets cannot be
    separated reliably.
    """
    c = 1 << L
    k = np.arange(c, dtype=float)
    bm, cm = patch_m.coeff_b, patch_m.coeff_c
    bn, cn = patch_n.coeff_b, patch_n.coeff_c
    scale = max(float(np.linalg.norm(v)) for v in (bm, cm, bn, cn))

    def group(vm, vn):
        """Offsets k_n vn - k_m vm, C-ordered (k_m, k_n), and their classes."""
        U = (k[None, :, None] * vn - k[:, None, None] * vm).reshape(-1, 3)
        return U, _offset_classes(U, scale)

    best = None
    for swap, (ga, gb) in enumerate((((bm, bn), (cm, cn)),
                                     ((bm, cn), (cm, bn)))):
        (UA, A), (UB, B) = group(*ga), group(*gb)
        if A is not None and B is not None and (
                best is None or len(A[0]) * len(B[0]) < best[0]):
            best = len(A[0]) * len(B[0]), UA[A[0]], UB[B[0]], A, B, swap
    if best is None:
        return None
    _, RA, RB, (fa, ia), (fb, ib), swap = best
    # the first pair of an (A class, B class) combination takes m1 and the
    # A-side n from A's first pair and m2 and the B-side n from B's, since
    # the C order (m1, m2, n1, n2) compares m1, then m2
    ma, na = np.divmod(fa, c)
    mb, nb = np.divmod(fb, c)
    n1, n2 = (nb[None, :], na[:, None]) if swap else (na[:, None], nb[None, :])
    flat = (((ma[:, None] * c + mb[None, :]) * c + n1) * c + n2).ravel()
    # unique's first occurrences in flat order are the classes' first pairs
    order = np.argsort(flat)
    S = (RA[:, None, :] + RB[None, :, :]).reshape(-1, 3)[order]
    classes = _offset_classes(S, scale)
    if classes is None:
        return None
    first, inv = classes
    cls = np.empty_like(inv)
    cls[order] = inv
    rep = flat[order[first]]
    shape_a, shape_b = ((c, 1, 1, c), (1, c, c, 1)) if swap else \
        ((c, 1, c, 1), (1, c, 1, c))
    cells = c * c
    return ((cls.reshape(len(fa), len(fb)), ia.reshape(shape_a),
             ib.reshape(shape_b)), (rep // cells, rep % cells))


def _cell_feature(qm, qn) -> tuple:
    """Locate the shared feature of a touching pair in cell m's local frame."""
    tol = 1e-9 * float(np.linalg.norm(qm[2] - qm[0]))
    on = [point_quad_distance(corner, qn) < tol for corner in qm]
    # corner order (00, 10, 11, 01) in (s, t)
    locs = [(0, 0), (1, 0), (1, 1), (0, 1)]
    hit = [locs[i] for i in range(4) if on[i]]
    if len(hit) >= 2:
        (a1, a2), (b1, b2) = hit[0], hit[1]
        if a1 == b1:
            return ("side", 0, a1)
        if a2 == b2:
            return ("side", 1, a2)
    if len(hit) == 1:
        return ("corner", hit[0][0], hit[0][1])
    # closest corner fallback for vertex-on-edge contact
    dists = [point_quad_distance(corner, qn) for corner in qm]
    return ("corner", *locs[int(np.argmin(dists))])


def assemble(surface: PolyhedralSurface, L: int, *, quad_order: int = 4,
             grade_depth: int = 4, workers: int = 1,
             verify_quadrature: bool = True,
             max_cells: int = 8192) -> DoubleLayerSystem:
    """Galerkin matrix A[m, n] = (1/2) delta_mn |cell_m| - (K-part).

    The source-cell integral is the closed-form signed solid angle; the
    test-cell integral uses 4x4 Gauss, upgraded to a 2x2 subdivision on
    near pairs and to grade_depth-graded panels toward the shared feature
    on touching pairs.  verify_quadrature recomputes touching entries one
    grading level coarser and raises on disagreement.
    """
    if L < 1:
        raise ValueError("L must be >= 1")
    _orientation_check(surface)
    c = 1 << L
    cells = c * c
    N = surface.n_patches * cells
    if N > max_cells:
        raise MemoryError(f"{N} cells exceed the budget of {max_cells}")

    quads = [_cell_quads(p, L) for p in surface.patches]
    gauss = [_cell_gauss(p, L, quad_order) for p in surface.patches]
    areas = np.concatenate([w.sum(axis=1) for _, w in gauss])
    centers = np.concatenate([q.mean(axis=1) for q in quads])

    A = np.zeros((N, N))

    def near_value(pm, pn, m, n):
        k1, k2 = divmod(m, c)
        pts, wts = _graded_cell_nodes(surface.patches[pm], L, k1, k2,
                                      ("side", 0, 0), 1, quad_order)
        # depth-1 grading is a plain 2x2 subdivision on both axes
        return float(wts @ solid_angles(quads[pn][n:n + 1], pts)[:, 0]) / _FOUR_PI

    def touching_value(pm, pn, m, n):
        k1, k2 = divmod(m, c)
        feat = _cell_feature(quads[pm][m], quads[pn][n])
        patch_m = surface.patches[pm]
        qn1 = quads[pn][n:n + 1]
        pts, wts = _graded_cell_nodes(patch_m, L, k1, k2, feat,
                                      grade_depth, quad_order)
        val = float(wts @ solid_angles(qn1, pts)[:, 0]) / _FOUR_PI
        if verify_quadrature:
            pts2, wts2 = _graded_cell_nodes(patch_m, L, k1, k2, feat,
                                            grade_depth - 1, quad_order)
            val2 = float(wts2 @ solid_angles(qn1, pts2)[:, 0]) / _FOUR_PI
            if abs(val - val2) > max(0.05 * abs(val), 1e-12):
                raise RuntimeError(
                    f"quadrature failure on touching cell pair "
                    f"({pm},{m})x({pn},{n}): {val} vs {val2}")
        return val

    def do_pair(pm: int, pn: int) -> None:
        qn = quads[pn]
        P, W = gauss[pm]                      # (cells, q2, 3), (cells, q2)
        touching, near = _touch_candidates(quads[pm], qn)
        classes = None
        if _is_affine(surface.patches[pm]) and _is_affine(surface.patches[pn]):
            classes = _pair_classes(surface.patches[pm], surface.patches[pn], L)
        if classes is not None:
            (cls, ia, ib), (rep_m, rep_n) = classes
            ia4 = np.broadcast_to(ia, (c, c, c, c))
            ib4 = np.broadcast_to(ib, (c, c, c, c))
            om = _solid_angles_paired(qn[rep_n], P[rep_m])
            entries = (W[rep_m] * om).sum(axis=1) / _FOUR_PI
            done: set[int] = set()
            for kind, pairs in (("near", near), ("touch", touching)):
                for m, n in pairs:
                    at = (m // c, m % c, n // c, n % c)
                    cid = int(cls[ia4[at], ib4[at]])
                    if cid in done:
                        continue
                    done.add(cid)
                    entries[cid] = (near_value(pm, pn, m, n) if kind == "near"
                                    else touching_value(pm, pn, m, n))
            block = entries[cls][ia, ib].reshape(cells, cells)
        else:
            om = solid_angles(qn, P.reshape(-1, 3))
            om = om.reshape(cells, P.shape[1], cells)
            block = np.einsum("mq,mqn->mn", W, om) / _FOUR_PI
            for m, n in near:
                block[m, n] = near_value(pm, pn, m, n)
            for m, n in touching:
                block[m, n] = touching_value(pm, pn, m, n)
        rows = slice(pm * cells, (pm + 1) * cells)
        cols = slice(pn * cells, (pn + 1) * cells)
        A[rows, cols] = block

    pairs = [(pm, pn) for pm in range(surface.n_patches)
             for pn in range(surface.n_patches) if pm != pn]
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            list(pool.map(lambda ab: do_pair(*ab), pairs))
    else:
        for pm, pn in pairs:
            do_pair(pm, pn)

    idx = np.arange(N)
    A[idx, idx] += 0.5 * areas
    return DoubleLayerSystem(surface=surface, L=L, A=A, areas=areas,
                             centers=centers, quad_order=quad_order,
                             grade_depth=grade_depth)


# -- identity checks -------------------------------------------------------------


def gauss_check(surface: PolyhedralSurface, x, patch: int | None = None,
                L: int = 4) -> float:
    """Kernel integral over the surface (cellwise at level L) at point x.

    Classical values: -1 at interior points, -1/2 at smooth surface points
    (pass the containing patch; its own coplanar contribution is exactly
    zero), 0 outside.
    """
    x = np.asarray(x, dtype=float)
    total = 0.0
    for p in surface.patches:
        if patch is not None and p.index == patch:
            continue
        om = solid_angles(_cell_quads(p, L), x[None, :])
        total += float(om.sum())
    return -total / _FOUR_PI


@dataclass(frozen=True)
class HarmonicProbe:
    """A harmonic function plus helpers for traces and Laplacian residuals."""

    name: str
    func: Callable

    def __call__(self, pts) -> np.ndarray:
        return np.asarray(self.func(np.atleast_2d(np.asarray(pts, dtype=float))))

    @staticmethod
    def linear(axis: int) -> "HarmonicProbe":
        return HarmonicProbe(name=f"linear{axis}",
                             func=lambda p: p[:, axis].copy())

    @staticmethod
    def point_source(pole) -> "HarmonicProbe":
        pole = np.asarray(pole, dtype=float)
        return HarmonicProbe(
            name="pole",
            func=lambda p: 1.0 / np.linalg.norm(p - pole, axis=1))

    def laplacian_residual(self, points, h: float = 5e-4) -> float:
        """max |Laplacian| over the points, by second central differences."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        lap = -6.0 * self(pts)
        for ax in range(3):
            e = np.zeros(3)
            e[ax] = h
            lap = lap + self(pts + e) + self(pts - e)
        return float(np.abs(lap).max() / (h * h))


# -- solving and evaluating ------------------------------------------------------


@dataclass(frozen=True)
class SolveReport:
    """Cellwise density with direct-solver diagnostics."""

    density: np.ndarray          # (patches, 2^L, 2^L)
    residual: float
    cond: float
    rhs: np.ndarray


def galerkin_rhs(system: DoubleLayerSystem, g, quad_order: int = 4) -> np.ndarray:
    """Cellwise integrals of g: callable on 3D points, or per-cell values."""
    surface = system.surface
    c = 1 << system.L
    if callable(g):
        parts = []
        for p in surface.patches:
            P, W = _cell_gauss(p, system.L, quad_order)
            vals = np.asarray(g(P.reshape(-1, 3))).reshape(P.shape[:2])
            parts.append((W * vals).sum(axis=1))
        return np.concatenate(parts)
    vals = np.asarray(g, dtype=float).reshape(surface.n_patches, c, c)
    return vals.ravel() * system.areas


def solve(system: DoubleLayerSystem, g, quad_order: int = 4,
          use_gmres: bool = False) -> SolveReport:
    """Solve A u = Galerkin rhs of g; dense LU by default.

    The LU path reports a 1-norm condition estimate and raises on a
    numerically singular matrix.  use_gmres switches to unpreconditioned
    GMRES (intended for L >= 5 when factorization is too expensive); the
    condition estimate is then not available.
    """
    b = galerkin_rhs(system, g, quad_order)
    bnorm = float(np.linalg.norm(b))
    if use_gmres:
        from scipy.sparse.linalg import gmres
        u, info = gmres(system.A, b, rtol=1e-12, atol=0.0, maxiter=400)
        if info != 0:
            raise RuntimeError(f"GMRES did not converge (info={info})")
        cond = math.nan
    else:
        lu, piv = lu_factor(system.A)
        if np.any(np.abs(np.diag(lu)) == 0.0):
            raise RuntimeError("singular Galerkin matrix: discretization bug")
        u = lu_solve((lu, piv), b)
        anorm = float(np.abs(system.A).sum(axis=0).max())
        rcond, _ = dgecon(lu, anorm, norm="1")
        cond = math.inf if rcond == 0.0 else 1.0 / float(rcond)
        # dgecon's estimate is only O(1)-accurate but its last bits wobble
        # with buffer alignment; clamp to 12 digits so reports are replayable
        if math.isfinite(cond):
            cond = float(f"{cond:.12g}")
    residual = float(np.linalg.norm(system.A @ u - b)) / (bnorm if bnorm else 1.0)
    c = 1 << system.L
    density = u.reshape(system.surface.n_patches, c, c)
    return SolveReport(density=density, residual=residual, cond=cond, rhs=b)


def interior_dirichlet_density(system: DoubleLayerSystem,
                               h: Callable) -> SolveReport:
    """Density whose interior potential reproduces the harmonic function h
    (jump relation: interior trace of the potential is (K - 1/2 Id) u)."""
    return solve(system, lambda pts: -np.asarray(h(pts)))


def potential_eval(surface: PolyhedralSurface, density: np.ndarray, y,
                   min_clearance: float | None = None):
    """Double layer potential of a cellwise density at interior points.

    Exact for piecewise-constant densities (per-cell solid angles); refuses
    points closer to the surface than one cell size.
    """
    density = np.asarray(density, dtype=float)
    n_patches, cdim, _ = density.shape
    L = int(round(math.log2(cdim)))
    if (1 << L) != cdim:
        raise ValueError("density grid is not dyadic")
    y = np.asarray(y, dtype=float)
    single = y.ndim == 1
    Y = np.atleast_2d(y)
    if min_clearance is None:
        edge = max(float(np.linalg.norm(p.coeff_b) + np.linalg.norm(p.coeff_d))
                   for p in surface.patches)
        edge = max(edge, max(float(np.linalg.norm(p.coeff_c)
                                   + np.linalg.norm(p.coeff_d))
                             for p in surface.patches))
        min_clearance = edge * 0.5 ** L
    for pt in Y:
        d = min(point_quad_distance(pt, p.corners) for p in surface.patches)
        if d <= min_clearance:
            raise ValueError(f"evaluation point {pt} within one cell size "
                             "of the surface")
    out = np.zeros(len(Y))
    for p in surface.patches:
        om = solid_angles(_cell_quads(p, L), Y)
        out += om @ density[p.index].ravel()
    out = -out / _FOUR_PI
    return float(out[0]) if single else out


# -- wavelet regularity study of the solved density -------------------------------


class _CellDensitySampler:
    """Piecewise-constant parametric sampler over a dyadic cell grid."""

    def __init__(self, density: np.ndarray):
        self.density = np.asarray(density, dtype=float)
        self.cdim = self.density.shape[1]

    def eval_params(self, patch_index: int, S, T):
        i1 = np.clip((np.asarray(S) * self.cdim).astype(int), 0, self.cdim - 1)
        i2 = np.clip((np.asarray(T) * self.cdim).astype(int), 0, self.cdim - 1)
        return self.density[patch_index][i1, i2]


@dataclass(frozen=True)
class SolutionReport:
    """Adaptive-vs-uniform approximation study of a solved density."""

    field: CoefficientField
    adaptive: RateReport | None
    uniform: RateReport | None
    predicted_gamma: float
    alpha_star: float
    boundary_tails: dict
    interior_tails: dict
    noise_floor: bool

    @property
    def exponent_ratio(self) -> float:
        """Adaptive decay over uniform decay (inf when uniform is flat)."""
        if self.adaptive is None or self.uniform is None:
            return math.nan
        if self.uniform.decay <= 0.0:
            return math.inf
        return self.adaptive.decay / self.uniform.decay


def analyze_solution(surface: PolyhedralSurface, density: np.ndarray,
                     basis: BasisSpec, J: int, weighted: WeightedSpec, *,
                     s: float = 0.75, s_prime: float = 0.0,
                     workers: int = 1) -> SolutionReport:
    """Wavelet-analyze a cellwise density and fit adaptive/uniform rates.

    Targets (s_prime, 2, 2); the adaptive prediction is gamma*/2 from the
    assumed interior regularity (k, rho) and boundary smoothness s, with
    alpha* = min(rho, k - rho, s); s is restricted to (0, 1).
    """
    if isinstance(density, SolveReport):
        density = density.density
    density = np.asarray(density, dtype=float)
    cdim = density.shape[1]
    L = int(round(math.log2(cdim)))
    if J > L:
        raise ValueError("analysis level J must not exceed the grid level L")
    if not (0.0 < s < 1.0):
        raise ValueError("predictions require s in (0, 1)")
    field = analyze(surface, _CellDensitySampler(density), basis, J,
                    min_cell_level=L, workers=workers)
    target = BesovSpec(s_prime, 2.0, 2.0)
    a_star = min(weighted.rho, weighted.k - weighted.rho, s)
    gam = gamma_star(s, s_prime, 2.0, a_star)

    plan = n_term_plan(field, target)
    scale = plan.error_at(0)
    noise = scale <= 1e-10 * max(1.0, float(np.abs(density).max()))
    adaptive = uniform = None
    if not noise:
        # a cellwise density resolves nothing beyond its grid: fit only well
        # above the resolution floor (a quarter of the resolved census, and
        # errors at least 1e-8 of the total)
        resolved = int((plan.weights > 1e-9 * plan.weights[0]).sum())
        n_hi = min(1 << 14, max(resolved // 4, 16))
        ns = [1 << m for m in range(4, int(math.log2(n_hi)) + 1)]
        samples = [(n, plan.error_at(n)) for n in ns]
        samples = [se for se in samples if se[1] > 1e-8 * scale]
        if len(samples) >= 4:
            adaptive = fit_rate(samples, predicted=gam / 2.0)
        uni = [uniform_approx(field, target, Jk)
               for Jk in range(basis.j_star, J)]
        uni = [u for u in uni if u.error > 1e-8 * scale]
        if len(uni) >= 4:
            uniform = fit_rate([(u.n_effective, u.error) for u in uni])

    # tail exponents: 1/tau inside the admissible boundary window
    # [1/2, 1/2 + s) and interior window [1/2, 1/2 + min(rho, k - rho))
    tau_b = 1.0 if s > 0.5 else 1.0 / (0.5 + 0.5 * s)
    tau_i = 1.0 / (0.5 + 0.5 * min(weighted.rho, weighted.k - weighted.rho))
    return SolutionReport(
        field=field, adaptive=adaptive, uniform=uniform,
        predicted_gamma=gam, alpha_star=a_star,
        boundary_tails=level_tail_sums(field, tau_b, kinds="boundary"),
        interior_tails=level_tail_sums(field, tau_i, kinds="interior"),
        noise_floor=noise)
