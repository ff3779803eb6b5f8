"""Galerkin double layer solver on piecewise-flat closed surfaces.

The operator is (1/2)Id - K with the double layer kernel differentiated at
the source point.  Piecewise constants on dyadic cell grids make every
same-patch block exact (the kernel vanishes between coplanar points), and
the remaining inner integrals have a closed form: the kernel integrated
over a flat source cell is the signed solid angle the cell subtends.  Only
the outer (test-cell) integral is done by quadrature, graded toward shared
edges and corners.  Far cells take a plain Gauss rule of quad_order points a
side or, mostly where the cell centres lie at least _FAR_DIAGS = 10 cell
diagonals apart (see assemble), one point fewer: there the outer integrand
is smooth enough that order 3 differs from order 8 by at most 6.0e-13 of
max|A|, and order 2 by 2.9e-9 (Sauter and Schwab, Boundary Element
Methods, 2011, ch. 5).

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
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Callable, NamedTuple

import numpy as np

from ._gauss import unit_rule
from .surface import (PolyhedralSurface, SurfaceError, _check_counts, _map,
                      points_quad_distance)
from .spaces import BesovSpec
from .wavelets import BasisSpec, CoefficientField, analyze
from .weighted import WeightedSpec
from .approx import (RateReport, alpha_star, fit_rate, gamma_star,
                     n_term_plan, uniform_approx)

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
_BATCH = 1 << 15     # classes per far-field batch of consecutive blocks
_FAR_DIAGS = 10.0    # centre distance, in larger-cell diagonals, from which a
                     # far class takes one Gauss order less (see assemble)


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
    """The enclosed volume must be positive: the patch normals point
    outward.  That the windings agree across every shared edge is already
    checked by `load_surface` (PolyhedralSurface._check_edges)."""
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
    """Patch-pair block (pm, pn) in matvec form: the block times a source
    density X (c, c) is Z.ravel()[flat].sum(-1) with Z = E @ X, or E @ X.T
    when `transpose`; flat (c^2, c, int32) is None when E is the whole
    block (_factor_form)."""

    pm: int
    pn: int
    E: np.ndarray
    flat: np.ndarray | None
    transpose: bool


def _factor_form(T: np.ndarray, ia: np.ndarray, ib: np.ndarray, c: int):
    """(E, flat, transpose) of _Block for the block entry T[ia, ib], where
    T = entries[cls] and ia and ib broadcast to (c, c, c, c) over (m1, m2,
    n1, n2) as _pair_classes gives them.

    With (na, nb) = (n1, n2), or (n2, n1) in the swapped form, the entry is
    T[ia(m1, na), ib(m2, nb)].  T is expanded along the group with more
    classes, so E has rows (class, m) and columns n of that group; the
    other group's classes are gathered by flat, an (m1 m2, n) index into Z,
    and summed over n.  Either way flat[m, j] // c is the row of E that
    holds the entries (m, n) with n = (j, i) when `transpose`, else (i, j),
    at column i.
    """
    if ia.shape == (c, c, 1, 1):                # one class per pair
        return T, None, False
    k = np.arange(c, dtype=np.int32)
    swap = ia.shape == (c, 1, 1, c)
    ia, ib = ia.reshape(c, c).astype(np.int32), ib.reshape(c, c).astype(np.int32)
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
    return E, flat.reshape(c * c, c), transpose


@dataclass
class DoubleLayerSystem:
    """Galerkin matrix of (1/2)Id - K on piecewise constants.

    Cells are C-ordered (patch, k1, k2); row m tests against cell m, column
    n integrates the density of cell n.  Same-patch off-diagonal entries
    are exactly zero, and the diagonal is (1/2)|cell|.  Each other patch-pair
    block is stored once, in the matvec form of _Block (`blocks`, in (pm,
    pn) order): `matvec` applies the matrix from those factors, and the
    dense `A`, an exact copy of their entries, is built only on its first
    access.
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
        """The dense (N, N) matrix, gathered once from the blocks."""
        c = 1 << self.L
        cells = c * c
        N = self.n_cells
        A = np.zeros((N, N))
        for pm, pn, E, flat, transpose in self.blocks:
            if flat is not None:
                E = E[flat // c]                # (m, j, i), see _factor_form
                E = (E if transpose else E.transpose(0, 2, 1)).reshape(cells, cells)
            A[pm * cells:(pm + 1) * cells, pn * cells:(pn + 1) * cells] = E
        idx = np.arange(N)
        A[idx, idx] += 0.5 * self.areas
        return A

    def matvec(self, x) -> np.ndarray:
        """A @ x from the blocks, without forming A."""
        x = np.asarray(x, dtype=float)
        if x.size != self.n_cells:
            raise ValueError(f"matvec needs {self.n_cells} values, got {x.size}")
        c = 1 << self.L
        X = x.reshape(-1, c, c)
        y = 0.5 * self.areas * x.ravel()
        Y = y.reshape(-1, c * c)
        # flat widened into one buffer: numpy gathers by an int32 index
        # through a cast, 2 ms of a 7 ms product on the cube at L=5 (2-core
        # Xeon, one BLAS thread)
        idx = np.empty((c * c, c), dtype=np.intp)
        for pm, pn, E, flat, transpose in self.blocks:
            if flat is None:
                Y[pm] += E @ X[pn].ravel()
            else:
                Z = E @ (X[pn].T if transpose else X[pn])
                idx[...] = flat
                Y[pm] += Z.ravel()[idx].sum(axis=1)
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


def _offset_classes(V: np.ndarray, scale: float, rank: np.ndarray):
    """Classes of equal offsets among the rows of V (N, 3).

    Offsets are quantised to scale/8192 and packed into one int64 key.
    Returns (first, inv): the row of least `rank` (N distinct integers) in
    each class and each row's class, classes numbered in the order of their
    keys, as np.unique(return_index, return_inverse) gives them for rows
    ranked in array order; or None when the quantisation overflows or
    merges offsets more than 1e-9 * scale apart.
    """
    q = np.round(V * (8192.0 / scale)).astype(np.int64)
    if np.any(np.abs(q) >= (1 << 20)):
        return None
    base = 1 << 20
    key = ((q[:, 0] + base) << 42) | ((q[:, 1] + base) << 21) | (q[:, 2] + base)
    perm = np.argsort(key)
    key = key[perm]
    new = np.r_[True, key[1:] != key[:-1]]
    sorted_inv = np.cumsum(new) - 1
    inv = np.empty_like(sorted_inv)
    inv[perm] = sorted_inv
    rank = rank[perm]
    least = np.minimum.reduceat(rank, np.flatnonzero(new))    # per class
    first = perm[rank == least[sorted_inv]]
    # a merge of genuinely distinct offsets would corrupt entries: verify,
    # one coordinate at a time (a row gather of V costs six times as much)
    at = first[inv]
    if float(np.max([np.abs(v - v[at]).max() for v in V.T])) > 1e-9 * scale:
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
        return U, _offset_classes(U, scale, np.arange(len(U)))

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
    # a class's first pair in C order is its member of least flat index
    classes = _offset_classes((RA[:, None, :] + RB[None, :, :]).reshape(-1, 3),
                              scale, flat)
    if classes is None:
        return _every_pair(c)
    first, inv = classes
    rep = flat[first]
    shape_a, shape_b = ((c, 1, 1, c), (1, c, c, 1)) if swap else \
        ((c, 1, c, 1), (1, c, 1, c))
    cells = c * c
    return ((inv.reshape(len(fa), len(fb)), ia.reshape(shape_a),
             ib.reshape(shape_b)), (rep // cells, rep % cells))


def _far_pieces(block, rep_m, rep_n, beyond, c: int):
    """Which far classes take the lower order, and the rectangles their
    groups cut into, for _far_entries (whose arguments these are).

    The classes of one test cell m in one block form a group.  A group's
    lines are the rows of its source cells (n1, n2) when their bounding
    rectangle is no taller than wide, else its columns.  A class takes the
    lower order when it is `beyond` and its line lies outside the span of
    the lines holding a class of the group that is not; so every class not
    beyond, and every beyond class whose line crosses that span, keeps the
    order.  A group whose source cells fill a rectangle is cut across its
    lines into that span and the bands on either side.

    Returns (lower, order, pieces): `order` sorts the classes by (block, m,
    n1, n2), and pieces holds, for each piece of more than one cell, its
    rule (1: the lower order), first row, first column, rows, columns, the
    sorted position of its first cell, the step in position of one row, and
    the first class of its group.
    """
    key = block * c * c + rep_m
    order = np.argsort(key * c * c + rep_n)      # no two classes share a pair
    key = key[order]
    start = np.flatnonzero(np.r_[True, key[1:] != key[:-1]])
    count = np.diff(np.r_[start, len(key)])
    n1, n2 = np.divmod(rep_n[order], c)
    i0, j0 = np.minimum.reduceat(n1, start), np.minimum.reduceat(n2, start)
    h = np.maximum.reduceat(n1, start) - i0 + 1
    w = np.maximum.reduceat(n2, start) - j0 + 1
    g = np.flatnonzero((h * w == count) & (count > 1))
    i, j, hh, ww = i0[g], j0[g], h[g], w[g]
    # pieces of the rectangles g: (first row, first column, rows, columns)
    pieces, rule = [(i, j, hh, ww)], [0]
    lower = np.zeros(len(key), dtype=bool)
    if beyond.any():
        rows = h <= w
        k = np.repeat(np.arange(len(start)), count)
        line = np.where(rows[k], n1, n2)
        far = beyond[order]
        # [b, e) spans the lines holding a class not beyond
        b = np.minimum.reduceat(np.where(far, c, line), start)
        e = np.maximum.reduceat(np.where(far, -1, line), start) + 1
        lower[order] = far & ~((b[k] <= line) & (line < e[k]))
        rows, b, e = rows[g], b[g], e[g]
        first = np.where(rows, i, j)
        end = first + np.where(rows, hh, ww)
        empty = e <= b                  # no class kept: all in one band
        b[empty] = e[empty] = end[empty]

        def band(lo, hi):
            """The lines [lo, hi) of each rectangle g as a piece."""
            return (np.where(rows, lo, i), np.where(rows, j, lo),
                    np.where(rows, hi - lo, hh), np.where(rows, ww, hi - lo))
        pieces, rule = [band(b, e), band(first, b), band(e, end)], [0, 1, 1]
    PI, PJ, PH, PW = (np.concatenate(a) for a in zip(*pieces))
    G, PR = np.tile(g, len(rule)), np.repeat(rule, len(g))
    big = PH * PW > 1
    G, PR, PI, PJ, PH, PW = (a[big] for a in (G, PR, PI, PJ, PH, PW))
    base = start[G] + (PI - i0[G]) * w[G] + (PJ - j0[G])
    return lower, order, (PR, PI, PJ, PH, PW, base, w[G], order[start[G]])


def _far_entries(rules, verts, quads, pairs, block, rep_m, rep_n, beyond,
                 L: int) -> np.ndarray:
    """(W[m] * solid angles of source cell n from the nodes P[m]).sum(-1)
    for each class representative: test cell m = rep_m of patch pm, source
    cell n = rep_n of patch pn, where (pm, pn) = pairs[block], with (P, W) =
    rules[1] for the classes that _far_pieces lowers, else rules[0].  rules
    hold (P, W) of every patch, (patches, cells, q, 3) and (patches, cells,
    q); verts the (x, y, z) components (patches, c + 1, c + 1) of the vertex
    grids; quads the cells (patches, cells, 4, 3).

    The pieces of _far_pieces are batched by rule and shape, and a batch of
    at least _GRID_MIN kernel elements goes through _grid_solid_angles on
    those rectangles of `verts`; every other class goes through
    _solid_angles_paired.  Both sum the same contiguous row of q products
    per class, so the path changes no bit.
    """
    c = 1 << L
    out = np.empty(len(rep_m))
    q = np.array([W.shape[-1] for _, W in rules])
    lower, order, (PR, PI, PJ, PH, PW, base, stride, first) = _far_pieces(
        block, rep_m, rep_n, beyond, c)
    _, inv = np.unique((PR * (c + 1) + PH) * (c + 1) + PW, return_inverse=True)
    done = np.zeros(len(rep_m), dtype=bool)
    for u in np.flatnonzero(np.bincount(inv, PH * PW * q[PR]) >= _GRID_MIN):
        sel = np.flatnonzero(inv == u)
        r, hg, wg = PR[sel[0]], PH[sel[0]], PW[sel[0]]
        P, W = rules[r]
        step = max(1, _TILE // (hg * wg * q[r]))
        for lo in range(0, len(sel), step):
            s = sel[lo:lo + step]
            k = first[s]
            pm, pn = pairs[block[k]].T
            # the rectangles' vertices, flat in (patch, i, j)
            ii = (pn * (c + 1) + PI[s]) + np.arange(hg + 1)[:, None, None]
            vi = ii * (c + 1) + (PJ[s] + np.arange(wg + 1)[:, None])
            m = pm, rep_m[k]
            om = _grid_solid_angles([v.ravel()[vi] for v in verts],
                                    [P[m + (slice(None), a)] for a in range(3)])
            om *= W[m]
            pos = (base[s] + np.arange(hg)[:, None, None] * stride[s]
                   + np.arange(wg)[:, None])
            out[order[pos]] = om.sum(axis=-1)
            done[pos] = True
    rest = order[~done]
    for r, (P, W) in enumerate(rules):
        ks = rest[lower[rest] == bool(r)]
        for lo in range(0, len(ks), _CHUNK):  # one gather of nodes and quads
            k = ks[lo:lo + _CHUNK]
            pm, pn = pairs[block[k]].T
            m = pm, rep_m[k]
            om = _solid_angles_paired(quads[pn, rep_n[k]], P[m])
            out[k] = (W[m] * om).sum(axis=1)
    return out


def _close_classes(quads_m, quads_n, d2, diag, rep_m, rep_n):
    """Near and touching classes of a block between distinct patches, each
    judged once, at its representative (m, n) = (rep_m[k], rep_n[k]), whose
    cell centres lie d2[k] apart, squared.

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
    cells: quad_order^2 Gauss on far classes, upgraded to a 2x2 subdivision
    on near classes and to grade_depth-graded panels toward the shared
    feature on touching classes.  With quad_order >= 4, a far class whose
    representative's cell centres lie at least _FAR_DIAGS (10) larger-cell
    diagonals apart takes (quad_order - 1)^2 Gauss instead, unless its
    source row (or column) lies within the span of those holding a closer
    class of the same test cell, so that the classes still cut into few
    rectangles (_far_pieces); no closer class is lowered.  On the unit
    cube up to L=3 no centres lie that far apart, so A keeps its bits; above
    that, no entry moves by more than 1e-12 of max|A|.  Every class of
    _pair_classes is computed, and judged far, near or touching
    (_close_classes), once, at its first pair; as soon as a block's class
    entries exist they are expanded into its matvec form (_factor_form),
    the only form the system keeps.  Every touching entry is recomputed one
    grading level coarser, and a disagreement of more than 5% raises, at
    the first such pair in C order.  No (N, N) array is allocated until the
    system's `A` is read.
    """
    _check_counts(L=L, quad_order=quad_order, grade_depth=grade_depth,
                  workers=workers)
    _orientation_check(surface)
    c = 1 << L
    cells = c * c
    N = surface.n_patches * cells
    if N > max_cells:
        raise MemoryError(f"{N} cells exceed the budget of {max_cells}")

    quads = np.stack([_cell_quads(p, L) for p in surface.patches])
    verts = [np.stack(v) for v in zip(*map(_vertex_grid, quads))]
    # far classes at least _FAR_DIAGS diagonals apart take one order less:
    # there order 3 is off by 6.0e-13 of max|A|, order 2 by 2.9e-9
    orders = (quad_order, quad_order - 1) if quad_order >= 4 else (quad_order,)
    rules = []                          # (P, W) of every patch, per order
    for order in orders:
        P, W = zip(*(_cell_nodes(p, L, np.arange(cells), _unit_cell_rule(order))
                     for p in surface.patches))
        rules.append((np.stack(P), np.stack(W)))
    areas = rules[0][1].sum(axis=2).ravel()
    centers = np.concatenate([q.mean(axis=1) for q in quads])
    # (x, y, z) rows of each patch's cell centres
    cell_centers = np.ascontiguousarray(centers.reshape(-1, cells, 3)
                                        .transpose(0, 2, 1))
    diags = [np.linalg.norm(q[:, 2] - q[:, 0], axis=1).max() for q in quads]

    def rule_values(pm, pn, m, n, feature, depth):
        """Entries of cell pairs (m, n) of block (pm, pn), each its w @ o."""
        P, W = _cell_nodes(surface.patches[pm], L, m,
                           _unit_cell_rule(quad_order, feature, depth))
        om = _solid_angles_paired(quads[pn][n], P)
        return np.array([w @ o for w, o in zip(W, om)]) / _FOUR_PI

    def classes(pm: int, pn: int):
        """Block (pm, pn)'s classes, its far classes far enough apart for
        the lower order, and its near and touching classes."""
        table, (rep_m, rep_n) = _pair_classes(
            surface.patches[pm], surface.patches[pn], L)
        diag = max(diags[pm], diags[pn])
        d = [a[rep_m] - b[rep_n]
             for a, b in zip(cell_centers[pm], cell_centers[pn])]
        d2 = _dot(d, d)                 # the bits of (d ** 2).sum(-1)
        beyond = (d2 >= (_FAR_DIAGS * diag) ** 2) & (len(orders) > 1)
        close = _close_classes(quads[pm], quads[pn], d2, diag, rep_m, rep_n)
        return pm, pn, table, rep_m, rep_n, beyond, close

    def finish(todo) -> list[_Block]:
        """The blocks of `todo`, their far classes computed in one batch."""
        pms, pns, tables, reps_m, reps_n, beyond, close = zip(*todo)
        counts = [len(r) for r in reps_m]
        # close classes too: without them the grid rectangles would split
        far = _far_entries(rules, verts, quads, np.array([pms, pns]).T,
                           np.repeat(np.arange(len(todo)), counts),
                           *map(np.concatenate, (reps_m, reps_n, beyond)), L)
        far /= _FOUR_PI
        blocks = []
        for pm, pn, table, rep_m, rep_n, (near, touching, features), entries \
                in zip(pms, pns, tables, reps_m, reps_n, close,
                       np.split(far, np.cumsum(counts)[:-1])):
            # each close class is computed at its representative; near
            # classes take the 2x2 split at depth 0, which exempts them from
            # the coarser-level check
            k = np.concatenate([near, touching])
            m, n = rep_m[k], rep_n[k]
            kinds = ([((None, None), 0)] * len(near)
                     + [(feature, grade_depth) for feature in features])
            val, val2 = np.empty(len(k)), np.empty(len(k))
            for feature, depth in dict.fromkeys(kinds):
                idx = np.array([i for i, r in enumerate(kinds)
                                if r == (feature, depth)])
                val[idx] = rule_values(pm, pn, m[idx], n[idx], feature, depth)
                if depth:
                    val2[idx] = rule_values(pm, pn, m[idx], n[idx], feature,
                                            depth - 1)
            entries[k] = val
            # every touching entry is checked one grading level coarser;
            # entries scale with the cell area, and so must the floor
            t = np.arange(len(near), len(k))
            floor = 1e-12 * areas[pm * cells + m[t]]
            bad = t[np.abs(val[t] - val2[t])
                    > np.maximum(0.05 * np.abs(val[t]), floor)]
            if bad.size:
                i = bad[0]
                raise RuntimeError(
                    f"quadrature failure on touching cell pair "
                    f"({pm},{m[i]})x({pn},{n[i]}): {val[i]} vs {val2[i]}")
            cls, ia, ib = table
            blocks.append(_Block(pm, pn, *_factor_form(entries[cls], ia, ib, c)))
        return blocks

    def do_pairs(pairs) -> list[_Block]:
        """The blocks of `pairs`, in order.  Far classes are computed for
        runs of consecutive blocks of at most _BATCH classes together (or
        one block), so that small blocks fill the vertex-grid batches."""
        blocks, todo, size = [], [], 0
        for pm, pn in pairs:
            block = classes(pm, pn)
            if todo and size + len(block[3]) > _BATCH:
                blocks += finish(todo)
                todo, size = [], 0
            todo.append(block)
            size += len(block[3])
        return blocks + finish(todo)

    pairs = [(pm, pn) for pm in range(surface.n_patches)
             for pn in range(surface.n_patches) if pm != pn]
    # one run of consecutive pairs a worker, so one run when workers == 1;
    # the first failing run holds the first failing pair in order
    step = -(-len(pairs) // workers)
    runs = [pairs[i:i + step] for i in range(0, len(pairs), step)]
    blocks = [b for run in _map(do_pairs, runs, workers) for b in run]
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
    zero), 0 outside.  An inward-oriented surface is a SurfaceError.
    """
    _check_counts(L=L)
    _orientation_check(surface)
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
    """A harmonic function, evaluated at an (N, 3) array of points."""

    func: Callable

    def __call__(self, pts) -> np.ndarray:
        return np.asarray(self.func(np.atleast_2d(np.asarray(pts, dtype=float))))

    @staticmethod
    def linear(axis: int) -> "HarmonicProbe":
        return HarmonicProbe(lambda p: p[:, axis].copy())

    @staticmethod
    def point_source(pole) -> "HarmonicProbe":
        pole = np.asarray(pole, dtype=float)
        return HarmonicProbe(lambda p: 1.0 / np.linalg.norm(p - pole, axis=1))


# -- solving and evaluating ------------------------------------------------------


@dataclass(frozen=True)
class SolveReport:
    """Cellwise density with direct-solver diagnostics."""

    density: np.ndarray          # (patches, 2^L, 2^L)
    residual: float
    cond: float


_RHS_ORDER = 4       # Gauss points a side of each cell's right-hand side rule


def galerkin_rhs(system: DoubleLayerSystem, g) -> np.ndarray:
    """Cellwise integrals of g: callable on 3D points, or per-cell values."""
    surface = system.surface
    c = 1 << system.L
    if callable(g):
        parts = []
        for p in surface.patches:
            P, W = _cell_nodes(p, system.L, np.arange(c * c),
                               _unit_cell_rule(_RHS_ORDER))
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


_RESTART = 20        # Krylov vectors per GMRES cycle
_MAX_CYCLES = 400    # GMRES restart cycles before it gives up
_RTOL = 1e-12        # GMRES stops at a true residual of _RTOL |b|


def _gmres(matvec: Callable, b: np.ndarray) -> tuple[np.ndarray, float]:
    """x with |b - A x| <= _RTOL |b|, and that norm |b - A x|, by restarted
    GMRES(_RESTART) from x = 0 (Saad and Schultz, SIAM J. Sci. Stat.
    Comput. 7, 1986): modified Gram-Schmidt Arnoldi, Givens rotations, and
    the true residual checked after each cycle; a Krylov space that the
    operator leaves invariant ends the cycle, and the next one restarts from
    the true residual.  Raises RuntimeError after _MAX_CYCLES cycles short
    of the tolerance, and on a zero pivot of the rotated Hessenberg matrix."""
    tol = _RTOL * float(np.linalg.norm(b))
    m = min(_RESTART, len(b))
    V, H = np.empty((m + 1, len(b))), np.zeros((m + 1, m))
    cs, sn = np.zeros(m), np.zeros(m)
    x, r = np.zeros(len(b)), b
    for cycle in range(_MAX_CYCLES + 1):
        beta = float(np.linalg.norm(r))
        if beta <= tol:
            return x, beta
        if cycle == _MAX_CYCLES or not math.isfinite(beta):
            raise RuntimeError(f"GMRES did not converge: residual {beta:.3e} "
                               f"above {tol:.3e} after {cycle} cycles of {m}")
        V[0] = r / beta
        g = np.zeros(m + 1)
        g[0] = beta
        for j in range(m):
            w = matvec(V[j])
            h0 = float(np.linalg.norm(w))
            for i in range(j + 1):
                H[i, j] = V[i] @ w
                w -= H[i, j] * V[i]
            H[j + 1, j] = float(np.linalg.norm(w))
            invariant = H[j + 1, j] <= np.finfo(float).eps * h0
            if invariant:
                H[j + 1, j] = 0.0
            else:
                V[j + 1] = w / H[j + 1, j]
            for i in range(j):
                H[i, j], H[i + 1, j] = (cs[i] * H[i, j] + sn[i] * H[i + 1, j],
                                        cs[i] * H[i + 1, j] - sn[i] * H[i, j])
            rho = math.hypot(H[j, j], H[j + 1, j])
            if rho == 0.0:
                raise RuntimeError("GMRES broke down: the operator maps a "
                                   "Krylov vector to zero")
            cs[j], sn[j] = H[j, j] / rho, H[j + 1, j] / rho
            H[j, j], H[j + 1, j] = rho, 0.0
            g[j + 1] = -sn[j] * g[j]
            g[j] *= cs[j]
            if invariant or abs(g[j + 1]) <= tol:
                break
        y = g[:j + 1]                   # back substitution on H[:j+1, :j+1]
        for i in range(j, -1, -1):
            y[i] = (y[i] - H[i, i + 1:j + 1] @ y[i + 1:]) / H[i, i]
        x += y @ V[:j + 1]
        r = b - matvec(x)


def solve(system: DoubleLayerSystem, g, use_gmres: bool = False) -> SolveReport:
    """Solve A u = `galerkin_rhs` of g; dense LU by default.

    The LU path factors the dense `system.A` with scipy.linalg, reports a
    1-norm condition estimate and raises on a numerically singular matrix.
    use_gmres switches to the package's own unpreconditioned restarted
    GMRES (_gmres) on `system.matvec`, which never forms A and imports
    nothing from scipy (intended for L >= 5 when factorization is too
    expensive); the condition estimate is then not available, and a solve
    that does not converge raises RuntimeError.  A non-finite right-hand
    side is a ValueError.
    """
    b = galerkin_rhs(system, g)
    if not np.isfinite(b).all():
        raise ValueError("the Galerkin right-hand side has non-finite values")
    bnorm = float(np.linalg.norm(b))
    if use_gmres:
        u, rnorm = _gmres(system.matvec, b)
        cond = math.nan
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
        rnorm = float(np.linalg.norm(system.A @ u - b))
    residual = rnorm / (bnorm if bnorm else 1.0)
    c = 1 << system.L
    density = u.reshape(system.surface.n_patches, c, c)
    return SolveReport(density=density, residual=residual, cond=cond)


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
    points closer to the surface than one cell size, and an inward-oriented
    surface (SurfaceError).
    """
    _orientation_check(surface)
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
                     s: float = 0.75, workers: int = 1) -> SolutionReport:
    """Wavelet-analyze a cellwise density and fit adaptive/uniform rates.

    Targets (0, 2, 2), the L2 sequence norm (s' = 0); the adaptive
    prediction is gamma*/2 from the assumed interior regularity (k, rho)
    and boundary smoothness s, with alpha* = min(rho, k - rho, s); s is
    restricted to (0, 1) and rho to (0, k).
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
    target = BesovSpec(0.0, 2.0, 2.0)
    a_star = alpha_star(weighted.rho, weighted.k, s, 2.0)
    gam = gamma_star(s, 0.0, 2.0, a_star)

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
    return SolutionReport(
        field=field, adaptive=adaptive, uniform=uniform,
        predicted_gamma=gam, alpha_star=a_star, noise_floor=noise)
