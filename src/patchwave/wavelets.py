"""Patchwise tensor-product multiwavelet bases with exact dyadic supports.

The 1-D building blocks are orthonormal piecewise-polynomial multiwavelets on
[0,1]: order 1 is the Haar system, order 2 the piecewise-linear system with two
dual vanishing moments (the dual system equals the primal one, so analysis and
synthesis use the same, pointwise-evaluable functions). Surface bases arise by
lifting tensor products through each patch chart; nothing couples across patch
boundaries.

Coefficients are taken in the patchwise parametric inner product
``<u, v> = sum_i int_{[0,1]^2} u(kappa_i(s,t)) conj(v(kappa_i(s,t))) ds dt``.
"""
from __future__ import annotations

import json
import zipfile
from dataclasses import dataclass, field
from functools import lru_cache
from math import sqrt

import numpy as np

from ._gauss import unit_rule
from .surface import (PolyhedralSurface, _check_counts, _is_integer, _map,
                      quad_edge_distance)

__all__ = [
    "BasisSpec",
    "WaveletIndex",
    "CoefficientField",
    "haar_basis",
    "multiwavelet_basis",
    "empty_field",
    "analyze",
    "synthesize",
    "synthesize_params",
    "classify_index",
    "classify_level",
    "moment_check",
    "level_size",
    "save_field",
    "load_field",
]

_SQ3 = sqrt(3.0)


def _readonly(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class BasisSpec:
    """Basis family parameters: primal order d and coarsest wavelet level j_star.

    Supported orders are 1 (Haar) and 2. The family is orthonormal, so its
    dual order ``dt`` equals d; analysis takes ``quad_order`` = 4 Gauss
    points per cell and direction. Wavelet levels run from j_star upward;
    the generator block sits at level j_star - 1 by convention.
    """

    d: int = 1
    j_star: int = 0

    def __post_init__(self):
        if not (_is_integer(self.d) and self.d in (1, 2)):
            raise ValueError("supported primal orders are the integers 1 (Haar) "
                             f"and 2, got {self.d!r}")
        if not (_is_integer(self.j_star) and self.j_star >= 0):
            raise ValueError(f"j_star must be an integer >= 0, got {self.j_star!r}")

    @property
    def dt(self) -> int:
        return self.d

    @property
    def quad_order(self) -> int:
        return 4


def haar_basis() -> BasisSpec:
    return BasisSpec(d=1, j_star=0)


def multiwavelet_basis() -> BasisSpec:
    """Order-2 family: piecewise linear, two vanishing moments, orthonormal."""
    return BasisSpec(d=2, j_star=2)


# -- 1-D reference functions --------------------------------------------------

class _Family1D:
    """Piecewise-polynomial 1-D system on [0,1] with a breakpoint at 1/2.

    ``sca[m]`` / ``wav[m]`` hold monomial coefficients (ascending) per half.
    """

    def __init__(self, order: int):
        self.order = order
        if order == 1:
            self.sca = np.array([[[1.0], [1.0]]])
            self.wav = np.array([[[1.0], [-1.0]]])
        else:
            self.sca = np.array([
                [[1.0, 0.0], [1.0, 0.0]],
                [[-_SQ3, 2.0 * _SQ3], [-_SQ3, 2.0 * _SQ3]],
            ])
            # m=0: even about 1/2, two vanishing moments; m=1: odd, three
            self.wav = np.array([
                [[_SQ3, -4.0 * _SQ3], [-3.0 * _SQ3, 4.0 * _SQ3]],
                [[1.0, -6.0], [5.0, -6.0]],
            ])

    def _eval(self, table, m, x):
        x = np.asarray(x, dtype=float)
        v0 = np.polynomial.polynomial.polyval(x, table[m, 0])
        v1 = np.polynomial.polynomial.polyval(x, table[m, 1])
        out = np.where(x < 0.5, v0, v1)
        return np.where((x < 0.0) | (x > 1.0), 0.0, out)

    def scaling(self, m, x):
        return self._eval(self.sca, m, x)

    def wavelet(self, m, x):
        return self._eval(self.wav, m, x)


_FAMILIES: dict[int, _Family1D] = {}


def family_for(basis: BasisSpec) -> _Family1D:
    fam = _FAMILIES.get(basis.d)
    if fam is None:
        fam = _FAMILIES[basis.d] = _Family1D(basis.d)
    return fam


# -- indices ------------------------------------------------------------------

@dataclass(frozen=True, order=True)
class WaveletIndex:
    """Single basis function index.

    level == j_star - 1 with etype == 0 denotes the generator (coarse) block;
    wavelet levels have etype in {1, 2, 3} (wavelet x scaling, scaling x wavelet,
    wavelet x wavelet). (m1, m2) select the per-cell polynomial component and
    are always 0 for the Haar family. Sort order is the serialization tie order
    (level, patch, etype, k1, k2, m1, m2).
    """

    level: int
    patch: int
    etype: int
    k1: int
    k2: int
    m1: int = 0
    m2: int = 0


def _check_index(basis: BasisSpec, n_patches, idx: WaveletIndex) -> int:
    """The level of `idx`, or ValueError unless it names a wavelet (level >=
    j_star) of `basis` on `n_patches` patches."""
    fields = (idx.level, idx.patch, idx.etype, idx.k1, idx.k2, idx.m1, idx.m2)
    if not all(isinstance(v, (int, np.integer)) for v in fields):
        raise ValueError(f"{idx} has a non-integer field")
    j = idx.level
    if idx.etype == 0:
        raise ValueError("generator-block indices are not classified")
    elif idx.etype not in (1, 2, 3):
        raise ValueError(f"etype {idx.etype} is not a wavelet type (1, 2 or 3)")
    elif j < basis.j_star:
        raise ValueError(f"level {j} is below the first wavelet level {basis.j_star}")
    if not (0 <= idx.m1 < basis.d and 0 <= idx.m2 < basis.d):
        raise ValueError(f"components ({idx.m1}, {idx.m2}) outside [0, {basis.d})")
    cells = 1 << j
    if not (0 <= idx.patch < n_patches
            and 0 <= idx.k1 < cells and 0 <= idx.k2 < cells):
        raise ValueError(f"{idx} lies outside the surface's level-{j} cells")
    return j


def level_size(basis: BasisSpec, j: int, n_patches: int) -> int:
    """Number of wavelet indices at level j across the whole surface."""
    return n_patches * 3 * basis.d ** 2 * (1 << j) ** 2


# -- coefficient container ----------------------------------------------------

@dataclass(frozen=True)
class CoefficientField:
    """Generator-block plus per-level wavelet coefficients up to level J.

    Arrays: ``coarse`` has shape (I, K, K, r, r) with K = 2**j_star;
    ``levels[j]`` has shape (I, 3, 2**j, 2**j, r, r). C-order flattening matches
    the documented lexicographic index order (patch, etype, k1, k2, m1, m2).
    """

    basis: BasisSpec
    J: int
    n_patches: int
    coarse: np.ndarray
    levels: dict[int, np.ndarray] = field(default_factory=dict)
    surface: PolyhedralSurface | None = None

    def __post_init__(self):
        r, K = self.basis.d, 1 << self.basis.j_star
        if self.coarse.shape != (self.n_patches, K, K, r, r):
            raise ValueError(f"coarse block shape {self.coarse.shape} inconsistent with basis")
        for j, arr in self.levels.items():
            if not (self.basis.j_star <= j <= self.J):
                raise ValueError(f"level {j} outside [j_star, J]")
            if arr.shape != (self.n_patches, 3, 1 << j, 1 << j, r, r):
                raise ValueError(f"level {j} array has shape {arr.shape}")
        self.coarse.flags.writeable = False
        for arr in self.levels.values():
            arr.flags.writeable = False

    def level(self, j: int) -> np.ndarray:
        return self.levels[j]

    def level_range(self):
        return range(self.basis.j_star, self.J + 1)


def _zero_arrays(basis: BasisSpec, n_patches: int, J: int, dtype=np.float64):
    """Writable zero coarse block and levels j_star..J of a field layout."""
    r, K = basis.d, 1 << basis.j_star
    coarse = np.zeros((n_patches, K, K, r, r), dtype=dtype)
    levels = {j: np.zeros((n_patches, 3, 1 << j, 1 << j, r, r), dtype=dtype)
              for j in range(basis.j_star, J + 1)}
    return coarse, levels


def empty_field(basis: BasisSpec, n_patches: int, J: int,
                surface: PolyhedralSurface | None = None) -> CoefficientField:
    coarse, levels = _zero_arrays(basis, n_patches, J)
    return CoefficientField(basis=basis, J=J, n_patches=n_patches,
                            coarse=coarse, levels=levels, surface=surface)


# -- analysis -----------------------------------------------------------------

def _ref_nodes(basis: BasisSpec, subcells: int):
    """Composite Gauss nodes/weights on [0,1] split into `subcells` equal parts."""
    x, w = unit_rule(basis.quad_order)
    offs = np.arange(subcells) / subcells
    nodes = (offs[:, None] + x[None, :] / subcells).ravel()
    weights = np.tile(w / subcells, subcells)
    return nodes, weights


def _value_matrices(basis: BasisSpec, subcells: int):
    """Weighted reference values of scaling/wavelet components at composite nodes."""
    fam = family_for(basis)
    nodes, weights = _ref_nodes(basis, subcells)
    r = basis.d
    S = np.vstack([fam.scaling(m, nodes) * weights for m in range(r)])
    W = np.vstack([fam.wavelet(m, nodes) * weights for m in range(r)])
    return nodes, S, W


def _sample(sampler, patch, xs, ys):
    """The sampler on the tensor grid xs x ys of one patch: (len(xs), len(ys)).

    A model with a support ball ``_support = (center, r)``, beyond which it is
    exactly +0.0 (the contract is stated on `weighted._FaceHandleBase`), is
    charted and evaluated only on the sub-grid in the ball's parameter box,
    bit for bit as on the full grid; None if that is empty.
    Other samplers see the full meshgrid.
    """
    support = getattr(sampler, "_support", None)
    if support is None:
        S, T = np.meshgrid(xs, ys, indexing="ij")
        if hasattr(sampler, "eval_params"):
            return np.asarray(sampler.eval_params(patch.index, S, T))
        return np.asarray(sampler(patch.chart(S.ravel(), T.ravel()))).reshape(S.shape)
    (s0, s1), (t0, t1) = patch._ball_box(*support)
    i0, i1 = np.searchsorted(xs, (s0, s1))
    j0, j1 = np.searchsorted(ys, (t0, t1))
    if i0 == i1 or j0 == j1:
        return None
    out = np.zeros((len(xs), len(ys)))
    out[i0:i1, j0:j1] = sampler(patch.chart(xs[i0:i1, None], ys[None, j0:j1]))
    return out


# grid points sampled at once by one `analyze` job (at least one row of cells)
_ANALYZE_BLOCK = 1 << 16


def analyze(surface: PolyhedralSurface, sampler, basis: BasisSpec, J: int,
            min_cell_level: int = 0, workers: int = 1) -> CoefficientField:
    """Patchwise wavelet analysis of a function up to level J.

    `sampler` is either a callable on 3D points of shape (N, 3) or an object
    with ``eval_params(patch_index, S, T)``. ``min_cell_level`` forces the
    per-cell quadrature grid at least that fine (exactness for data that is
    piecewise polynomial on a known dyadic grid).

    Each job samples its level in blocks of whole rows of cells, at most
    `_ANALYZE_BLOCK` grid points a block unless one row holds more, so the
    working memory stays bounded at any J. A block always spans the full
    width of the level: the contraction over a block of rows gives each row
    the bits it gets from the whole grid, but a narrower column range could
    round differently. The coefficients do not depend on the block size.
    """
    _check_counts(workers=workers)
    if J < basis.j_star:
        raise ValueError("J must be >= j_star")
    jobs = []
    for patch in surface.patches:
        jobs.append((patch, None))          # coarse block
        for j in range(basis.j_star, J + 1):
            jobs.append((patch, j))

    # probe dtype cheaply (None: a model with a support ball, which is real)
    probe = _sample(sampler, surface.patches[0],
                    np.array([0.21]), np.array([0.37]))
    dtype = np.complex128 if np.iscomplexobj(probe) else np.float64

    coarse, levels = _zero_arrays(basis, surface.n_patches, J, dtype)

    def run(job):
        patch, j = job
        if j is None:
            lev, kind = basis.j_star, "coarse"
        else:
            lev, kind = j, "wavelet"
        sub = 1 << max(0, max(lev + (kind == "wavelet"), min_cell_level) - lev)
        nodes, Smat, Wmat = _value_matrices(basis, sub)
        cells = 1 << lev
        x1d = ((np.arange(cells)[:, None] + nodes[None, :]) / cells).ravel()
        npc = len(nodes)
        scale = 0.5 ** lev  # 2^{-lev/2} per direction: cell width times L2 normalization
        chunk = max(1, min(cells, _ANALYZE_BLOCK // (npc * cells * npc)))
        for c0 in range(0, cells, chunk):
            c1 = min(cells, c0 + chunk)
            U = _sample(sampler, patch, x1d[c0 * npc:c1 * npc], x1d)
            if U is None:       # the rows miss the support: coefficients stay +0.0
                continue
            U4 = U.reshape(c1 - c0, npc, cells, npc)
            if kind == "coarse":
                coarse[patch.index, c0:c1] = (
                    np.einsum("ma,nb,kalb->klmn", Smat, Smat, U4) * scale)
            else:
                i = patch.index
                levels[j][i, 0, c0:c1] = np.einsum("ma,nb,kalb->klmn", Wmat, Smat, U4) * scale
                levels[j][i, 1, c0:c1] = np.einsum("ma,nb,kalb->klmn", Smat, Wmat, U4) * scale
                levels[j][i, 2, c0:c1] = np.einsum("ma,nb,kalb->klmn", Wmat, Wmat, U4) * scale

    _map(run, jobs, workers)
    return CoefficientField(basis=basis, J=J, n_patches=surface.n_patches,
                            coarse=coarse, levels=levels, surface=surface)


# -- synthesis ----------------------------------------------------------------

def synthesize_params(field: CoefficientField, patch_index: int, S, T):
    """Evaluate the expansion at parameter points of one patch."""
    if not (_is_integer(patch_index) and 0 <= patch_index < field.n_patches):
        raise ValueError(f"patch {patch_index!r} lies outside the field's "
                         f"{field.n_patches} patches")
    basis = field.basis
    fam = family_for(basis)
    shape = np.asarray(S).shape
    S = np.asarray(S, dtype=float).ravel()
    T = np.asarray(T, dtype=float).ravel()
    if S.shape != T.shape:
        raise ValueError("S and T must have matching shapes")
    r = basis.d
    out = np.zeros(S.shape, dtype=field.coarse.dtype)

    def local(j, X):
        cells = 1 << j
        k = np.minimum((X * cells).astype(int), cells - 1)
        return k, X * cells - k

    # generator block at level j_star
    j0 = basis.j_star
    k1, ls = local(j0, S)
    k2, lt = local(j0, T)
    sv = np.stack([fam.scaling(m, ls) for m in range(r)])
    tv = np.stack([fam.scaling(m, lt) for m in range(r)])
    C = field.coarse[patch_index][k1, k2]              # (N, r, r)
    out += (1 << j0) * np.einsum("pmn,mp,np->p", C, sv, tv)

    for j in field.level_range():
        if j not in field.levels:
            continue
        k1, ls = local(j, S)
        k2, lt = local(j, T)
        sw = np.stack([fam.wavelet(m, ls) for m in range(r)])
        ss = np.stack([fam.scaling(m, ls) for m in range(r)])
        tw = np.stack([fam.wavelet(m, lt) for m in range(r)])
        ts = np.stack([fam.scaling(m, lt) for m in range(r)])
        lev = field.levels[j][patch_index]             # (3, 2^j, 2^j, r, r)
        Cg = lev[:, k1, k2]                            # (3, N, r, r)
        acc = (np.einsum("pmn,mp,np->p", Cg[0], sw, ts)
               + np.einsum("pmn,mp,np->p", Cg[1], ss, tw)
               + np.einsum("pmn,mp,np->p", Cg[2], sw, tw))
        out += (1 << j) * acc
    return out.reshape(shape)


def synthesize(field: CoefficientField, points):
    """Evaluate the expansion at 3D surface points (slow path: chart inversion)."""
    if field.surface is None:
        raise ValueError("field has no surface attached; use synthesize_params")
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    out = np.zeros(len(pts), dtype=field.coarse.dtype)
    surf = field.surface
    for i, x in enumerate(pts):
        hit = None
        for patch in surf.patches:
            if abs(float(np.dot(x - patch.coeff_a, patch.normal))) > 2e-9 * surf.min_edge:
                continue
            s, t = patch.chart_inverse(x)
            if -1e-12 <= s <= 1 + 1e-12 and -1e-12 <= t <= 1 + 1e-12:
                hit = (patch.index, min(max(s, 0.0), 1.0), min(max(t, 0.0), 1.0))
                break
        if hit is None:
            raise ValueError(f"point {x} not located on any patch")
        out[i] = synthesize_params(field, hit[0], np.array([hit[1]]), np.array([hit[2]]))[0]
    return out if out.size > 1 else out[0]


# -- classification -------------------------------------------------------------

def _cell_clearance(patch, j: int, k1, k2):
    """Clearance of the image of level-j cell (k1, k2) from the patch boundary.

    The distance from the corner mean to the patch boundary, minus the
    largest corner distance from the mean (the circumscribed ball's radius).
    Broadcasts over k1 and k2 using elementwise operations and last-axis sums
    only, so one cell and a whole level agree bit for bit.
    """
    h = 0.5 ** j
    s0 = np.asarray(k1) * h
    t0 = np.asarray(k2) * h
    c = [patch.chart(s0 + ds, t0 + dt)
         for ds, dt in ((0.0, 0.0), (h, 0.0), (h, h), (0.0, h))]
    center = (c[0] + c[1] + c[2] + c[3]) / 4.0
    radius = np.sqrt(((c[0] - center) ** 2).sum(-1))
    for ck in c[1:]:
        radius = np.maximum(radius, np.sqrt(((ck - center) ** 2).sum(-1)))
    return quad_edge_distance(center, patch.corners) - radius


def classify_index(surface: PolyhedralSurface, basis: BasisSpec,
                   idx: WaveletIndex) -> bool:
    """Whether a wavelet index is interior, one cell at a time.

    Interior requires: the support cell sits strictly inside the open parameter
    square, and the circumscribed ball of its image keeps more than 2^{-level}
    (surface units) of clearance from the patch boundary.
    """
    j = _check_index(basis, surface.n_patches, idx)
    cells = 1 << j
    if idx.k1 == 0 or idx.k2 == 0 or idx.k1 == cells - 1 or idx.k2 == cells - 1:
        return False
    return bool(_cell_clearance(surface.patches[idx.patch], j, idx.k1, idx.k2)
                > 0.5 ** j)


def classify_level(surface: PolyhedralSurface, basis: BasisSpec, j: int):
    """Vectorized interior mask per patch at level j: bool array (I, 2^j, 2^j).

    A cell is interior when it avoids the parameter boundary and the
    circumscribed ball of its image clears the patch boundary by more than
    2^{-j} surface units; agrees cell-by-cell with ``classify_index``. The
    mask depends on the surface and j only; it is computed once per surface
    and level and returned read-only.
    """
    masks = surface._interior_masks.get(j)
    if masks is None:
        cells = 1 << j
        k = np.arange(cells)
        inner = (k > 0) & (k < cells - 1)
        ring = inner[:, None] & inner[None, :]
        masks = _readonly(np.stack([
            ring & (_cell_clearance(patch, j, k[:, None], k[None, :]) > 0.5 ** j)
            for patch in surface.patches]))
        surface._interior_masks[j] = masks
    return masks


# -- dual moments ---------------------------------------------------------------

def _factor_values(basis: BasisSpec, j: int, k, m: int, wavelet: bool, x):
    """1-D factor at parameter points x: component m of the wavelet (or
    scaling function) on cell k of level j, zero off the cell; k may be an
    array that broadcasts with x."""
    fam = family_for(basis)
    local = np.asarray(x) * (1 << j) - k
    inside = (local >= 0.0) & (local <= 1.0)
    vals = fam.wavelet(m, np.clip(local, 0.0, 1.0)) if wavelet \
        else fam.scaling(m, np.clip(local, 0.0, 1.0))
    return np.where(inside, vals, 0.0) * sqrt(2.0) ** j


def _horner(c, x):
    """numpy's ``polyval`` Horner scheme over the first axis of c, with the
    same operations in the same order, so the values agree bit for bit."""
    p = c[-1] + x * 0.0
    for ci in c[-2::-1]:
        p = ci + p * x
    return p


@lru_cache(maxsize=16)
def _moment_table(basis: BasisSpec, j: int, shape, data: bytes, block: int = 0):
    """Read-only |<P, psi>| for the level-j indices in one block of k1 rows,
    indexed (etype - 1, m1, m2, k1 - block * rows, k2), for the finite P of
    degree < dt with these coefficients.  A block has as many rows as keep
    its temporaries at about 2^20 elements, or one row, so up to level 4 one
    block is the whole level.

    The per-index formula broadcast over the cells with the same elementwise
    operations, each sum over one cell's contiguous (2o, 2o) grid, so every
    entry is bitwise the per-cell sum.
    """
    C = np.frombuffer(data).reshape(shape)
    if not np.isfinite(C).all():
        raise ValueError("poly_coeffs must be finite")
    ps, pt = np.nonzero(C)
    deg = int((ps + pt).max()) if ps.size else -1
    if deg >= basis.dt:
        raise ValueError(f"polynomial degree {deg} not below dt={basis.dt}")
    x, w = unit_rule(basis.quad_order)  # exact: degree <= 2 per direction
    half = 0.5 ** (j + 1)
    cells, r = 1 << j, basis.d
    k = np.arange(cells)[:, None]
    nodes = np.concatenate([k * 2 * half + x * half,
                            k * 2 * half + half + x * half], axis=1)
    ws = np.concatenate([w * half, w * half])
    W = np.outer(ws, ws)
    # F[wavelet, m, k]: 1-D factor values on the nodes of cell k
    F = np.array([[_factor_values(basis, j, k, m, wav, nodes) for m in range(r)]
                  for wav in (False, True)])
    fs, ft = F[[1, 0, 1]], F[[0, 1, 1]]   # etypes 1, 2, 3
    rows = max(1, (1 << 20) // (3 * r * r * cells * W.size))
    b = slice(block * rows, (block + 1) * rows)
    # polyval2d(S, T, C) on each cell's tensor grid: Horner in s, then in t
    P = _horner(_horner(C[:, :, None, None], nodes[b])[:, :, None, :, None],
                nodes[:, None, :])
    vals = fs[:, :, None, b, None, :, None] * ft[:, None, :, None, :, None, :]
    vals *= W * P
    return _readonly(np.abs(vals.sum(axis=(-2, -1))))


def moment_check(surface: PolyhedralSurface, basis: BasisSpec,
                 idx: WaveletIndex, poly_coeffs) -> float:
    """|<P, dual wavelet>| in the patch inner product, for interior indices.

    ``poly_coeffs[a, b]`` multiplies s^a t^b; the total degree must be < dt.
    Refuses boundary and generator indices: the vanishing-moment property is
    only asserted for interior duals. The interior test reads the cached
    ``classify_level`` mask, and the value is one entry of a cached table of
    the index's block of k1 rows, keyed by basis, level, polynomial (which
    fix the quadrature order) and block; the polynomial's degree and
    finiteness are checked there.
    """
    C = np.atleast_2d(np.asarray(poly_coeffs, dtype=float))
    if C.ndim != 2 or C.size == 0:
        raise ValueError(f"poly_coeffs must be a non-empty 2-D array, got shape {C.shape}")
    j = _check_index(basis, surface.n_patches, idx)
    if not classify_level(surface, basis, j)[idx.patch, idx.k1, idx.k2]:
        raise ValueError("moment_check applies to interior indices only")
    # the first block's row count gives the index's block; a level of one
    # block, as every level up to 4 is, takes one cache lookup per call
    key = (basis, j, C.shape, C.tobytes())
    table = _moment_table(*key)
    block, k1 = divmod(idx.k1, table.shape[3])
    if block:
        table = _moment_table(*key, block)
    return float(table[idx.etype - 1, idx.m1, idx.m2, k1, idx.k2])


# -- serialization --------------------------------------------------------------

def save_field(field: CoefficientField, path) -> None:
    """Loss-free dump: npz archive with a JSON header and per-level arrays."""
    header = {
        "basis": {"d": field.basis.d, "j_star": field.basis.j_star},
        "J": field.J,
        "n_patches": field.n_patches,
        "surface_hash": field.surface.content_hash() if field.surface else None,
        "levels": sorted(field.levels.keys()),
    }
    arrays = {f"level_{j}": field.levels[j] for j in field.levels}
    np.savez(path, header=np.frombuffer(json.dumps(header).encode(), dtype=np.uint8),
             coarse=field.coarse, **arrays)


def load_field(path, surface: PolyhedralSurface | None = None) -> CoefficientField:
    """Read a save_field archive; any other file is a ValueError naming path."""
    try:
        with np.load(path) as data:
            header = json.loads(bytes(data["header"]).decode())
            spec = header["basis"]
            basis = BasisSpec(spec["d"], spec["j_star"])
            # older archives also record dt and quad_order, at these values
            if not (spec.keys() <= {"d", "dt", "j_star", "quad_order"} and all(
                    spec[key] == getattr(basis, key) for key in spec)):
                raise ValueError(f"basis {spec} is not one that save_field writes")
            levels = {j: data[f"level_{j}"]
                      for j in range(basis.j_star, header["J"] + 1)}
            field = CoefficientField(basis=basis, J=header["J"],
                                     n_patches=header["n_patches"],
                                     coarse=data["coarse"], levels=levels,
                                     surface=surface)
            built_on = header["surface_hash"]
    except (KeyError, TypeError, ValueError, zipfile.BadZipFile) as exc:
        raise ValueError(f"{path}: not a saved coefficient field: {exc}") from None
    if surface is not None and built_on is not None:
        if surface.content_hash() != built_on:
            raise ValueError("surface does not match the one the field was built on")
    return field
