"""Galerkin double layer solver on piecewise-flat closed surfaces.

The operator is (1/2)Id - K with the double layer kernel differentiated at
the source point.  Piecewise constants on dyadic cell grids make every
same-patch block exact (the kernel vanishes between coplanar points), and
the remaining inner integrals have a closed form: the kernel integrated
over a flat source cell is the signed solid angle the cell subtends.  Only
the outer (test-cell) integral is done by quadrature, graded toward shared
edges and corners.

Every solid angle comes from one van Oosterom-Strackee core, _quad_kernel,
fed by one of two front ends that give the same bits: per corner for
arbitrary quads (near and touching pairs, scattered far classes), or from a
vertex grid that forms each vertex's distance and each edge's dot product
once for all the cells sharing them (far classes whose source cells fill a
rectangle, and solid_angles on a patch's cells, as potential_eval and
gauss_check pass them).

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
from functools import cached_property, lru_cache
from typing import Callable, NamedTuple

import numpy as np

from ._gauss import unit_rule
from .surface import (PolyhedralSurface, SurfaceError, _check_counts,
                      points_quad_distance)
from .spaces import BesovSpec
from .wavelets import BasisSpec, CoefficientField, analyze
from .weighted import WeightedSpec
from .approx import (RateReport, alpha_star, fit_rate, gamma_star,
                     level_tail_sums, n_term_plan, uniform_approx)

_FOUR_PI = 4.0 * math.pi


# -- kernel and solid angles -----------------------------------------------------


def _dot(a, b):
    """a . b of two (x, y, z) component triples, summed (x + y) + z."""
    d = a[0] * b[0]
    d += a[1] * b[1]
    d += a[2] * b[2]
    return d


def _quad_kernel(R, r, d01, d12, d23, d03):
    """Signed solid angles of planar quads from their corner vectors.

    R holds four (x, y, z) component triples, corner minus viewpoint, r
    their norms and dij = R[i] . R[j] the dots of the four edges; all
    arrays broadcast to the output shape.  Each quad is split into the
    triangles (0, 1, 2) and (0, 2, 3), whose solid angles follow van
    Oosterom-Strackee with the four corner norms and R0.R2 shared.  Every
    dot is summed (x + y) + z and every cross component is a1*b2 - a2*b1,
    the order of numpy's .sum(-1) and np.cross, so the values equal bit for
    bit, signed zeros included, those of the formula written with (..., 3)
    vectors, .sum(-1) and np.cross.  (A dot here may differ from .sum(-1)
    in the sign of a zero only; that reaches arctan2 through the numerator
    alone, since the denominator, led by a product of norms, is never
    -0.0.)  Products commute, so a front end may take an edge's dot in
    either direction: the per-corner front end (_corner_solid_angles) forms
    every corner of every quad, the vertex-grid one (_grid_solid_angles)
    each grid vertex and edge once.
    """
    def triple(a, b, c):
        """a . (b x c), each product formed in place"""
        t = b[1] * c[2]
        t -= b[2] * c[1]
        t *= a[0]
        u = b[2] * c[0]
        u -= b[0] * c[2]
        u *= a[1]
        t += u
        u = b[0] * c[1]
        u -= b[1] * c[0]
        u *= a[2]
        t += u
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

    d02 = _dot(R[0], R[2])
    out = angle(0, 1, 2, d01, d02, d12)
    out += angle(0, 2, 3, d02, d03, d23)
    out *= 2.0
    return out


def _corner_solid_angles(Q, Y):
    """_quad_kernel of quads Q, four (x, y, z) corner triples, seen from
    points Y, one triple; all fifteen arrays broadcast to the output shape."""
    R = [[q - y for q, y in zip(corner, Y)] for corner in Q]
    r = [np.sqrt(_dot(a, a)) for a in R]
    return _quad_kernel(R, r, _dot(R[0], R[1]), _dot(R[1], R[2]),
                        _dot(R[2], R[3]), _dot(R[0], R[3]))


def _grid_solid_angles(V, Y):
    """_quad_kernel of the h x w cells of G vertex grids seen from nodes.

    V holds the (x, y, z) components (h + 1, w + 1, G) of the grids, Y the
    components (G, q) of the nodes each grid is seen from.  Cell (i, j) is
    the quad of vertices (i, j), (i+1, j), (i+1, j+1), (i, j+1), wound as in
    _cell_quads.  Returns the solid angles (h, w, G, q), a view.

    R and |R| are formed once per vertex and the dots once per edge.  The
    vertices are flattened row-major, or column-major when h > w, with one
    padding column (a padding cell ends each row) and the node axis (G, q)
    last, so the four corners of every cell are the contiguous slices at
    offsets 0, s1, s1 + s2 and s2 along the vertex axis, with s1 and s2 the
    flat steps of i and j; one padding vertex closes the last padding cell.
    """
    h, w, G = V[0].shape[0] - 1, V[0].shape[1] - 1, V[0].shape[2]
    tall = h > w
    rows, cols = (w + 1, h + 1) if tall else (h + 1, w + 1)
    s1, s2 = (1, cols) if tall else (cols, 1)
    n = (rows - 1) * cols                       # cells, padding included
    R = []
    for v, y in zip(V, Y):
        flat = np.empty((rows * cols + 1, G))
        flat[:-1] = (v.transpose(1, 0, 2) if tall else v).reshape(-1, G)
        flat[-1] = flat[-2]
        R.append(flat[:, :, None] - y)
    r = np.sqrt(_dot(R, R))
    e1 = _dot([a[:-s1] for a in R], [a[s1:] for a in R])
    e2 = _dot([a[:-s2] for a in R], [a[s2:] for a in R])
    corners = (0, s1, s1 + s2, s2)
    om = _quad_kernel([[a[o:o + n] for a in R] for o in corners],
                      [r[o:o + n] for o in corners],
                      e1[:n], e2[s1:s1 + n], e1[s2:s2 + n], e2[:n])
    om = om.reshape(rows - 1, cols, G, -1)[:, :-1]
    return om.transpose(1, 0, 2, 3) if tall else om


def _vertex_grid(quads: np.ndarray) -> list | None:
    """The (x, y, z) components (c + 1, c + 1) of the vertex grid whose
    cells are `quads`, c^2 of them C-ordered (k1, k2) and wound as in
    _cell_quads, or None when the quads do not share their corners bit for
    bit that way."""
    c = math.isqrt(len(quads))
    if c == 0 or c * c != len(quads) or quads.shape[1:] != (4, 3):
        return None
    Q = quads.reshape(c, c, 4, 3)
    V = np.empty((c + 1, c + 1, 3))
    V[:-1, :-1] = Q[:, :, 0]
    V[-1, :-1] = Q[-1, :, 1]
    V[:-1, -1] = Q[:, -1, 3]
    V[-1, -1] = Q[-1, -1, 2]
    for k, (i, j) in enumerate(((0, 0), (1, 0), (1, 1), (0, 1))):
        if not np.array_equal(Q[:, :, k].view(np.int64),
                              V[i:i + c, j:j + c].view(np.int64)):
            return None
    return [np.ascontiguousarray(V[..., a]) for a in range(3)]


_TILE = 1 << 14      # kernel elements per tile: its temporaries stay in cache
_GRID_MIN = _TILE // 4   # kernel elements that repay a vertex-grid call
_CHUNK = 1024        # points per solid_angles chunk, quads per paired chunk


def solid_angles(quads: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """Signed solid angles of planar quads (Nq, 4, 3) from points Y (Ny, 3).

    Quad corners must wind right-handed about the surface normal; the result
    is then the exact integral of <x - y, eta> / |x - y|^3 over each quad.
    Points go in chunks of _CHUNK, quads in tiles of about _TILE kernel
    elements per chunk; the kernel is elementwise, so tiling changes no bit.
    Quads that are the c x c cells of one vertex grid, C-ordered (k1, k2),
    wound (00, 10, 11, 01) and sharing their corners bit for bit, as a
    patch's cells are, go through the vertex-grid front end in tiles of
    points instead, with the same values.
    """
    quads = np.asarray(quads, dtype=float)
    if quads.ndim != 3 or quads.shape[1:] != (4, 3):
        raise ValueError(f"quads must have shape (N, 4, 3), got {quads.shape}")
    if not np.isfinite(quads).all():
        raise ValueError("quad corners must be finite")
    Y = _as_points(Y)
    out = np.empty((len(Y), len(quads)))
    V = _vertex_grid(quads)
    if V is not None:
        c = V[0].shape[0] - 1
        V = [v[:, :, None] for v in V]
        step = max(1, min(_CHUNK, _TILE // (c + 1) ** 2))
        for lo in range(0, len(Y), step):
            om = _grid_solid_angles(V, [Y[None, lo:lo + step, a] for a in range(3)])
            out[lo:lo + step].reshape(-1, c, c)[...] = om[:, :, 0].transpose(2, 0, 1)
        return out
    Q = [[np.ascontiguousarray(quads[None, :, k, c]) for c in range(3)]
         for k in range(4)]
    step = max(1, _TILE // max(1, min(_CHUNK, len(Y))))
    for lo in range(0, len(Y), _CHUNK):
        Yc = [Y[lo:lo + _CHUNK, c, None] for c in range(3)]
        for qlo in range(0, len(quads), step):
            Qt = [[a[:, qlo:qlo + step] for a in corner] for corner in Q]
            out[lo:lo + _CHUNK, qlo:qlo + step] = _corner_solid_angles(Qt, Yc)
    return out


def _solid_angles_paired(quads: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """Solid angle of quads[i] from each point of Y[i]: (N, 4, 3) with
    (N, q, 3) -> (N, q), in chunks of _CHUNK quads."""
    out = np.empty(Y.shape[:2])
    for lo in range(0, len(quads), _CHUNK):
        q = quads[lo:lo + _CHUNK]
        Q = [[q[:, k, c, None] for c in range(3)] for k in range(4)]
        Yc = [Y[lo:lo + _CHUNK, :, c] for c in range(3)]
        out[lo:lo + _CHUNK] = _corner_solid_angles(Q, Yc)
    return out


# -- cell geometry ---------------------------------------------------------------


def _cell_quads(patch, L: int) -> np.ndarray:
    """Corner coordinates (4^L, 4, 3) of the dyadic cells, C-ordered (k1, k2),
    corners wound (00, 10, 11, 01) to match the patch normal."""
    h = 0.5 ** L
    k1, k2 = np.divmod(np.arange(1 << 2 * L), 1 << L)
    return patch.chart((k1[:, None] + [0, 1, 1, 0]) * h,
                       (k2[:, None] + [0, 0, 1, 1]) * h)


@lru_cache(maxsize=None)
def _unit_cell_rule(order: int, feature: tuple | None = None, depth: int = 0):
    """Read-only outer rule (s, t, w) on the unit cell: `order`-point Gauss
    on each pair of panels, nodes in (panel1, panel2, i, j) order.

    Without a feature each axis is one panel.  Otherwise feature = (end1,
    end2) names, per coordinate, the end in {0, 1} of the cell toward which
    it is graded (dyadic panels down to 2^-depth), or None for a plain
    2-panel split: a side grades one coordinate, a corner both.
    """
    nodes, wts = unit_rule(order)
    cuts = [0.0] + [2.0 ** (-depth + i) for i in range(depth + 1)]
    segs = list(zip(cuts[:-1], cuts[1:]))

    def axis(end):
        """Nodes and weights (panels, order) along one coordinate."""
        pans = ([(0.0, 1.0)] if feature is None else
                [(0.0, 0.5), (0.5, 1.0)] if end is None else
                segs if end == 0 else [(1.0 - b, 1.0 - a) for a, b in segs])
        return (np.array([a + (b - a) * nodes for a, b in pans]),
                np.array([(b - a) * wts for a, b in pans]))

    (x1, w1), (x2, w2) = map(axis, feature or (None, None))
    shape = (len(x1), len(x2), order, order)
    rule = (np.broadcast_to(x1[:, None, :, None], shape).ravel(),
            np.broadcast_to(x2[None, :, None, :], shape).ravel(),
            (w1[:, None, :, None] * w2[None, :, None, :]).ravel())
    for a in rule:
        a.setflags(write=False)
    return rule


def _cell_nodes(patch, L: int, cells: np.ndarray, rule):
    """`rule` on the level-L cells `cells` (flat (k1, k2) indices): nodes
    (len(cells), q, 3) and weights (len(cells), q), jacobian included."""
    s, t, w = rule
    h = 0.5 ** L
    k1, k2 = np.divmod(cells, 1 << L)
    S = (k1[:, None] + s) * h
    T = (k2[:, None] + t) * h
    return patch.chart(S, T), w * h * h * patch.jacobian_det(S, T)


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


# -- the assembled system --------------------------------------------------------


class _Block(NamedTuple):
    """Patch-pair block (pm, pn) in _pair_classes' form: entries[cls][ia, ib],
    with ia and ib broadcasting to (c, c, c, c) over (m1, m2, n1, n2).  Each
    class's entry is computed at its representative, with the far, near or
    touching rule that _close_classes gives the class there."""

    pm: int
    pn: int
    entries: np.ndarray
    cls: np.ndarray
    ia: np.ndarray
    ib: np.ndarray


@dataclass
class DoubleLayerSystem:
    """Galerkin matrix of (1/2)Id - K on piecewise constants.

    Cells are C-ordered (patch, k1, k2); row m tests against cell m, column
    n integrates the density of cell n.  Same-patch off-diagonal entries
    are exactly zero, and the diagonal is (1/2)|cell|.  Each other patch-pair
    block is kept as its class table (`blocks`, in (pm, pn) order): `matvec`
    applies the matrix from those tables, and the dense `A` is built only on
    its first access.
    """

    surface: PolyhedralSurface
    L: int
    blocks: list[_Block]
    areas: np.ndarray
    centers: np.ndarray
    quad_order: int
    grade_depth: int

    @property
    def n_cells(self) -> int:
        return len(self.areas)

    @cached_property
    def A(self) -> np.ndarray:
        """The dense (N, N) matrix, built once from the class tables."""
        cells = 1 << (2 * self.L)
        N = self.n_cells
        A = np.zeros((N, N))
        for b in self.blocks:
            A[b.pm * cells:(b.pm + 1) * cells, b.pn * cells:(b.pn + 1) * cells] = \
                b.entries[b.cls][b.ia, b.ib].reshape(cells, cells)
        idx = np.arange(N)
        A[idx, idx] += 0.5 * self.areas
        return A

    @cached_property
    def _factors(self) -> list[tuple]:
        """Per block (pm, pn, E, flat, transpose): the block times a source
        density X (c, c) is Z.ravel()[flat].sum(-1) with Z = E @ X, or E @ X
        transposed; flat is None when E is the whole block.

        With T = entries[cls] and (na, nb) = (n1, n2), or (n2, n1) in the
        swapped form, the block entry is T[ia(m1, na), ib(m2, nb)].  T is
        expanded along the group with more classes, so E has rows (class,
        m) and columns n of that group; the other group's classes are
        gathered by flat, an (m1 m2, n) index into Z, and summed over n.
        """
        c = 1 << self.L
        k = np.arange(c)
        out = []
        for b in self.blocks:
            T = b.entries[b.cls]
            if b.ia.shape == (c, c, 1, 1):          # one class per pair
                out.append((b.pm, b.pn, T, None, False))
                continue
            swap = b.ia.shape == (c, 1, 1, c)
            ia, ib = b.ia.reshape(c, c), b.ib.reshape(c, c)
            if T.shape[0] <= T.shape[1]:
                # E[(a, m2), nb] = T[a, ib(m2, nb)]; sum Z[ia(m1, na), m2, na]
                E = T[:, ib].reshape(-1, c)
                flat = (ia[:, None, :] * c + k[:, None]) * c + k
                transpose = not swap
            else:
                # E[(m1, b), na] = T[ia(m1, na), b]; sum Z[m1, ib(m2, nb), nb]
                E = np.ascontiguousarray(T[ia].transpose(0, 2, 1)).reshape(-1, c)
                flat = (k[:, None, None] * T.shape[1] + ib) * c + k
                transpose = swap
            out.append((b.pm, b.pn, E, flat.reshape(c * c, c), transpose))
        return out

    def matvec(self, x) -> np.ndarray:
        """A @ x from the class tables, without forming A."""
        x = np.asarray(x, dtype=float)
        if x.size != self.n_cells:
            raise ValueError(f"matvec needs {self.n_cells} values, got {x.size}")
        c = 1 << self.L
        X = x.reshape(-1, c, c)
        y = 0.5 * self.areas * x.ravel()
        Y = y.reshape(-1, c * c)
        for pm, pn, E, flat, transpose in self._factors:
            if flat is None:
                Y[pm] += E @ X[pn].ravel()
            else:
                Z = E @ (X[pn].T if transpose else X[pn])
                Y[pm] += Z.ravel()[flat].sum(axis=1)
        return y


def _shared_feature(shared) -> tuple:
    """The feature of a cell that a touching cell shares, in
    _unit_cell_rule's form, from flags telling which of its corners
    coincide with a corner of the other: the coordinates that all those
    corners share are graded toward their value."""
    # the corners in (s, t), in _cell_quads' winding
    corners = ((0, 0), (1, 0), (1, 1), (0, 1))
    s, t = zip(*(loc for loc, on in zip(corners, shared) if on))
    return tuple(v[0] if len(set(v)) == 1 else None for v in (s, t))


def _is_affine(patch) -> bool:
    """The chart's bilinear term is rounding noise: |d| <= 64 eps times the
    longer edge vector. `_offset_classes` still verifies every class."""
    edge = max(np.linalg.norm(patch.coeff_b), np.linalg.norm(patch.coeff_c))
    return bool(np.linalg.norm(patch.coeff_d) <= 64 * np.finfo(float).eps * edge)


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


def _every_pair(c: int):
    """One class per pair of a block, in _pair_classes' form."""
    cell = np.arange(c * c)
    return ((np.arange(c ** 4).reshape(c * c, c * c), cell.reshape(c, c, 1, 1),
             cell.reshape(1, 1, c, c)), np.divmod(np.arange(c ** 4), c * c))


def _pair_classes(patch_m, patch_n, L: int):
    """Translation classes of (test, source) cell pairs.

    Between affine patches the Galerkin entry depends on the lattice offset
    between the two cells only, so entries are computed once per distinct
    offset.  The offset of cells m = (m1, m2) and n = (n1, n2) is (n1 b_n -
    m1 b_m) + (n2 c_n - m2 c_m), a sum of two groups of c^2 = 4^L
    one-dimensional offsets; pairing (m1, n2) with (m2, n1) instead
    collapses more when b_m is parallel to c_n.  Each group is deduplicated,
    then the sums of the two groups' classes (at most (2c - 1) c^2 on the
    cube, not c^4).  The cost is O(4^L) per group plus the class sums, never
    the full 16^L pairs.

    Returns ((cls, ia, ib), (rep_m, rep_n)): pair (m1, m2, n1, n2) lies in
    class cls[ia, ib], with ia and ib broadcasting to (c, c, c, c), and each
    class's representative is its first pair in C order, as np.unique of
    all 16^L offsets would pick it.  When a patch is bilinear, or the
    offsets cannot be separated reliably, every pair is its own class.
    """
    c = 1 << L
    if not (_is_affine(patch_m) and _is_affine(patch_n)):
        return _every_pair(c)
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
        return _every_pair(c)
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
        return _every_pair(c)
    first, inv = classes
    cls = np.empty_like(inv)
    cls[order] = inv
    rep = flat[order[first]]
    shape_a, shape_b = ((c, 1, 1, c), (1, c, c, 1)) if swap else \
        ((c, 1, c, 1), (1, c, 1, c))
    cells = c * c
    return ((cls.reshape(len(fa), len(fb)), ia.reshape(shape_a),
             ib.reshape(shape_b)), (rep // cells, rep % cells))


def _far_entries(P, W, verts, quads_n, rep_m, rep_n, L: int) -> np.ndarray:
    """(W[m] * solid angles of source cell n from the nodes P[m]).sum(-1)
    for each class representative (m, n) = (rep_m, rep_n).

    The classes of one test cell m form a group.  Groups whose source cells
    fill an h x w rectangle of more than one cell are batched by shape, and
    a batch of at least _GRID_MIN kernel elements goes through
    _grid_solid_angles on those rectangles of `verts`; every other class
    goes through _solid_angles_paired.  Both sum the same contiguous row of
    q products per class, so the path changes no bit.
    """
    q = W.shape[1]
    out = np.empty(len(rep_m))
    rest = np.arange(len(rep_m))
    if len(rep_m) * q >= _GRID_MIN:
        c = 1 << L
        order = np.lexsort((rep_n, rep_m))
        rm, rn = rep_m[order], rep_n[order]
        start = np.flatnonzero(np.r_[True, rm[1:] != rm[:-1]])
        count = np.diff(np.r_[start, len(rm)])
        n1, n2 = np.divmod(rn, c)
        i0, j0 = np.minimum.reduceat(n1, start), np.minimum.reduceat(n2, start)
        h = np.maximum.reduceat(n1, start) - i0 + 1
        w = np.maximum.reduceat(n2, start) - j0 + 1
        rect = (h * w == count) & (count > 1)
        grid = np.zeros_like(rect)
        for hg, wg in set(zip(h[rect].tolist(), w[rect].tolist())):
            g = np.flatnonzero(rect & (h == hg) & (w == wg))
            if len(g) * hg * wg * q < _GRID_MIN:
                continue
            grid[g] = True
            step = max(1, _TILE // (hg * wg * q))
            for lo in range(0, len(g), step):
                gs = g[lo:lo + step]
                ii = np.arange(hg + 1)[:, None, None] + i0[gs]
                jj = np.arange(wg + 1)[:, None] + j0[gs]
                m = rm[start[gs]]
                om = _grid_solid_angles([v[ii, jj] for v in verts],
                                        [P[m, :, a] for a in range(3)])
                vals = (W[m] * om).sum(axis=-1)
                out[order[np.arange(hg * wg)[:, None] + start[gs]]] = \
                    vals.reshape(hg * wg, -1)
        rest = order[np.repeat(~grid, count)]
    for lo in range(0, len(rest), _CHUNK):    # one gather of nodes and quads
        k = rest[lo:lo + _CHUNK]
        om = _solid_angles_paired(quads_n[rep_n[k]], P[rep_m[k]])
        out[k] = (W[rep_m[k]] * om).sum(axis=1)
    return out


def _close_classes(quads_m, quads_n, centers_m, centers_n, diag,
                   rep_m, rep_n):
    """Near and touching classes of a block between distinct patches, each
    judged once, at its representative (m, n) = (rep_m[k], rep_n[k]).

    Cells of distinct patches meet only where their dyadic grids align node
    to node, so a pair is touching when a corner of m coincides with one of
    n, to 1e-9 `diag` (the larger cell diagonal); its feature grades toward
    the coinciding corners of m.  Otherwise it is near when the centres lie
    within 1.8 diagonals; only centres within 2.5 are compared by corners.
    A class's pairs share one offset, hence the rule; were a centre distance
    within rounding of 1.8 diagonals, the representative would decide, as it
    does the entry.  Returns (near ids, touching ids in the C order of their
    representatives, touching features in _unit_cell_rule's form).
    """
    d2 = ((centers_m[rep_m] - centers_n[rep_n]) ** 2).sum(-1)
    k = np.flatnonzero(d2 <= (2.5 * diag) ** 2)
    k = k[np.lexsort((rep_n[k], rep_m[k]))]
    # (class, corner of m, corner of n): which corners coincide
    shared = ((quads_m[rep_m[k], :, None, :] - quads_n[rep_n[k], None, :, :])
              ** 2).sum(-1) < (1e-9 * diag) ** 2
    touch = shared.any(axis=(1, 2))
    near = k[~touch & (d2[k] <= (1.8 * diag) ** 2)]
    features = map(_shared_feature, shared[touch].any(axis=2).tolist())
    return near, k[touch], list(features)


def assemble(surface: PolyhedralSurface, L: int, *, quad_order: int = 4,
             grade_depth: int = 4, workers: int = 1,
             max_cells: int = 8192) -> DoubleLayerSystem:
    """Galerkin matrix A[m, n] = (1/2) delta_mn |cell_m| - (K-part).

    The source-cell integral is the closed-form signed solid angle; the
    test-cell integral maps one cached _unit_cell_rule onto each batch of
    cells: quad_order^2 Gauss, upgraded to a 2x2 subdivision on near classes
    and to grade_depth-graded panels toward the shared feature on touching
    classes.  Each patch-pair block is kept as a table with one entry per
    class of _pair_classes, and every class is computed, and judged far,
    near or touching (_close_classes), once, at its first pair.  Every
    touching entry is recomputed one grading level coarser, and a
    disagreement of more than 5% raises, at the first such pair in C order.
    No (N, N) array is allocated until the system's `A` is read.
    """
    _check_counts(L=L, quad_order=quad_order, grade_depth=grade_depth,
                  workers=workers)
    _orientation_check(surface)
    c = 1 << L
    cells = c * c
    N = surface.n_patches * cells
    if N > max_cells:
        raise MemoryError(f"{N} cells exceed the budget of {max_cells}")

    quads = [_cell_quads(p, L) for p in surface.patches]
    verts = [_vertex_grid(q) for q in quads]
    gauss = [_cell_nodes(p, L, np.arange(cells), _unit_cell_rule(quad_order))
             for p in surface.patches]
    areas = np.concatenate([w.sum(axis=1) for _, w in gauss])
    centers = np.concatenate([q.mean(axis=1) for q in quads])
    cell_centers = centers.reshape(-1, cells, 3)
    diags = [np.linalg.norm(q[:, 2] - q[:, 0], axis=1).max() for q in quads]

    def rule_values(pm, pn, m, n, feature, depth):
        """Entries of cell pairs (m, n) of block (pm, pn), each its w @ o."""
        P, W = _cell_nodes(surface.patches[pm], L, m,
                           _unit_cell_rule(quad_order, feature, depth))
        om = _solid_angles_paired(quads[pn][n], P)
        return np.array([w @ o for w, o in zip(W, om)]) / _FOUR_PI

    def do_pair(pm: int, pn: int) -> _Block:
        qn = quads[pn]
        P, W = gauss[pm]                      # (cells, q2, 3), (cells, q2)
        (cls, ia, ib), (rep_m, rep_n) = _pair_classes(
            surface.patches[pm], surface.patches[pn], L)
        # keep close classes here: dropping them splits the far grid rectangles
        entries = _far_entries(P, W, verts[pn], qn, rep_m, rep_n, L)
        entries /= _FOUR_PI
        near, touching, features = _close_classes(
            quads[pm], qn, cell_centers[pm], cell_centers[pn],
            max(diags[pm], diags[pn]), rep_m, rep_n)
        # each close class is computed at its representative; near classes
        # take the 2x2 split at depth 0, which exempts them from the
        # coarser-level check
        k = np.concatenate([near, touching])
        m, n = rep_m[k], rep_n[k]
        rules = ([((None, None), 0)] * len(near)
                 + [(feature, grade_depth) for feature in features])
        val, val2 = np.empty(len(k)), np.empty(len(k))
        for feature, depth in dict.fromkeys(rules):
            idx = np.array([i for i, r in enumerate(rules) if r == (feature, depth)])
            val[idx] = rule_values(pm, pn, m[idx], n[idx], feature, depth)
            if depth:
                val2[idx] = rule_values(pm, pn, m[idx], n[idx], feature, depth - 1)
        entries[k] = val
        # every touching entry is checked one grading level coarser; entries
        # scale with the cell area, and so must the floor
        t = np.arange(len(near), len(k))
        floor = 1e-12 * areas[pm * cells + m[t]]
        bad = t[np.abs(val[t] - val2[t]) > np.maximum(0.05 * np.abs(val[t]), floor)]
        if bad.size:
            i = bad[0]
            raise RuntimeError(
                f"quadrature failure on touching cell pair "
                f"({pm},{m[i]})x({pn},{n[i]}): {val[i]} vs {val2[i]}")
        return _Block(pm, pn, entries, cls, ia, ib)

    pairs = [(pm, pn) for pm in range(surface.n_patches)
             for pn in range(surface.n_patches) if pm != pn]
    # map returns the blocks in the order of pairs, whichever thread ends first
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            blocks = list(pool.map(lambda ab: do_pair(*ab), pairs))
    else:
        blocks = [do_pair(pm, pn) for pm, pn in pairs]
    return DoubleLayerSystem(surface=surface, L=L, blocks=blocks, areas=areas,
                             centers=centers, quad_order=quad_order,
                             grade_depth=grade_depth)


# -- identity checks -------------------------------------------------------------


def _as_points(y, one: bool = False) -> np.ndarray:
    """Finite points of shape (3,), or (N, 3) unless `one`, as (N, 3)."""
    Y = np.asarray(y, dtype=float)
    if Y.shape != (3,) and (one or Y.ndim != 2 or Y.shape[1] != 3):
        want = "(3,)" if one else "(3,) or (N, 3)"
        raise ValueError(f"points must have shape {want}, got {Y.shape}")
    if not np.isfinite(Y).all():
        raise ValueError("points must be finite")
    return Y.reshape(-1, 3)


def gauss_check(surface: PolyhedralSurface, x, patch: int | None = None,
                L: int = 4) -> float:
    """Kernel integral over the surface (cellwise at level L) at point x.

    Classical values: -1 at interior points, -1/2 at smooth surface points
    (pass the containing patch; its own coplanar contribution is exactly
    zero), 0 outside.
    """
    _check_counts(L=L)
    if patch is not None and (isinstance(patch, bool) or not isinstance(
            patch, (int, np.integer)) or not 0 <= patch < surface.n_patches):
        raise ValueError(f"patch must be None or a patch index in "
                         f"[0, {surface.n_patches}), got {patch!r}")
    x = _as_points(x, one=True)
    total = sum(float(solid_angles(_cell_quads(p, L), x).sum())
                for p in surface.patches if p.index != patch)
    return -total / _FOUR_PI


@dataclass(frozen=True)
class HarmonicProbe:
    """A named harmonic function, evaluated at an (N, 3) array of points."""

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
        _check_counts(quad_order=quad_order)
        parts = []
        for p in surface.patches:
            P, W = _cell_nodes(p, system.L, np.arange(c * c),
                               _unit_cell_rule(quad_order))
            vals = np.asarray(g(P.reshape(-1, 3)))
            if vals.size != W.size:
                raise ValueError(f"g returned {vals.size} values for "
                                 f"{W.size} points")
            parts.append((W * vals.reshape(W.shape)).sum(axis=1))
        return np.concatenate(parts)
    vals = np.asarray(g, dtype=float)
    if vals.size != system.n_cells:
        raise ValueError(f"per-cell values need {system.n_cells} entries, "
                         f"got {vals.size}")
    return vals.reshape(surface.n_patches, c, c).ravel() * system.areas


def solve(system: DoubleLayerSystem, g, quad_order: int = 4,
          use_gmres: bool = False) -> SolveReport:
    """Solve A u = Galerkin rhs of g; dense LU by default.

    The LU path factors the dense `system.A`, reports a 1-norm condition
    estimate and raises on a numerically singular matrix.  use_gmres
    switches to unpreconditioned GMRES on `system.matvec`, which never forms
    A (intended for L >= 5 when factorization is too expensive); the
    condition estimate is then not available.  A non-finite right-hand side
    is a ValueError.
    """
    b = galerkin_rhs(system, g, quad_order)
    if not np.isfinite(b).all():
        raise ValueError("the Galerkin right-hand side has non-finite values")
    bnorm = float(np.linalg.norm(b))
    if use_gmres:
        from scipy.sparse.linalg import LinearOperator, gmres
        op = LinearOperator((len(b), len(b)), matvec=system.matvec, dtype=float)
        u, info = gmres(op, b, rtol=1e-12, atol=0.0, maxiter=400)
        if info != 0:
            raise RuntimeError(f"GMRES did not converge (info={info})")
        cond = math.nan
        Au = system.matvec(u)
    else:
        from scipy.linalg import lu_factor, lu_solve
        from scipy.linalg.lapack import dgecon
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
        Au = system.A @ u
    residual = float(np.linalg.norm(Au - b)) / (bnorm if bnorm else 1.0)
    c = 1 << system.L
    density = u.reshape(system.surface.n_patches, c, c)
    return SolveReport(density=density, residual=residual, cond=cond, rhs=b)


def interior_dirichlet_density(system: DoubleLayerSystem,
                               h: Callable) -> SolveReport:
    """Density whose interior potential reproduces the harmonic function h
    (jump relation: interior trace of the potential is (K - 1/2 Id) u)."""
    return solve(system, lambda pts: -np.asarray(h(pts)))


def _density_level(surface: PolyhedralSurface, density: np.ndarray) -> int:
    """The level L of a cellwise density of shape (n_patches, 2^L, 2^L)."""
    shape = density.shape
    cdim = shape[1] if len(shape) == 3 else 0
    if (len(shape) != 3 or shape[0] != surface.n_patches or shape[2] != cdim
            or cdim < 1 or cdim & (cdim - 1)):
        raise ValueError(f"a cellwise density on {surface.n_patches} patches has "
                         f"shape ({surface.n_patches}, 2^L, 2^L), got {shape}")
    return cdim.bit_length() - 1


def potential_eval(surface: PolyhedralSurface, density: np.ndarray, y):
    """Double layer potential of a cellwise density at interior points.

    Exact for piecewise-constant densities (per-cell solid angles); refuses
    points closer to the surface than one cell size.
    """
    density = np.asarray(density, dtype=float)
    L = _density_level(surface, density)
    single = np.ndim(y) == 1
    Y = _as_points(y)
    edge = max(float(np.linalg.norm(v) + np.linalg.norm(p.coeff_d))
               for p in surface.patches for v in (p.coeff_b, p.coeff_c))
    d = np.min([points_quad_distance(Y, p.corners) for p in surface.patches], axis=0)
    refused = np.flatnonzero(d <= edge * 0.5 ** L)
    if refused.size:
        raise ValueError(f"evaluation point {Y[refused[0]]} within one cell size "
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
    alpha* = min(rho, k - rho, s); s is restricted to (0, 1) and rho to
    (0, k).
    """
    if isinstance(density, SolveReport):
        density = density.density
    density = np.asarray(density, dtype=float)
    L = _density_level(surface, density)
    if J > L:
        raise ValueError("analysis level J must not exceed the grid level L")
    if not (0.0 < s < 1.0):
        raise ValueError("predictions require s in (0, 1)")
    if not (0.0 < weighted.rho < weighted.k):
        raise ValueError(f"predictions require rho in (0, k), got rho = "
                         f"{weighted.rho} with k = {weighted.k}")
    field = analyze(surface, _CellDensitySampler(density), basis, J,
                    min_cell_level=L, workers=workers)
    target = BesovSpec(s_prime, 2.0, 2.0)
    a_star = alpha_star(weighted.rho, weighted.k, s, 2.0)
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
