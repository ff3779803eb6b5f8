import functools
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

import patchwave.bem as bem
from patchwave import (
    HarmonicProbe,
    SurfaceError,
    WeightedSpec,
    analyze_solution,
    assemble,
    fichera_corner,
    galerkin_rhs,
    gauss_check,
    haar_basis,
    interior_dirichlet_density,
    load_surface,
    potential_eval,
    solid_angles,
    solve,
    unit_cube,
)
from patchwave._gauss import unit_rule
from patchwave.surface import Patch, points_quad_distance


def point_quad_distance(p, corners):
    """Distance from one point to a planar convex quad, one edge at a time:
    the scalar oracle of `points_quad_distance`, with the same inside test
    (a tolerance of 1e-14 squared edge lengths)."""
    c = np.asarray(corners, dtype=float)
    n = np.cross(c[1] - c[0], c[3] - c[0])
    n = n / np.linalg.norm(n)
    off = float(np.dot(p - c[0], n))
    proj = p - off * n
    edges = [(c[k], c[(k + 1) % 4]) for k in range(4)]
    if all(np.dot(np.cross(b - a, proj - a), n) >= -1e-14 * np.dot(b - a, b - a)
           for a, b in edges):
        return abs(off)
    dists = []
    for a, b in edges:
        t = min(1.0, max(0.0, float(np.dot(p - a, b - a) / np.dot(b - a, b - a))))
        dists.append(float(np.linalg.norm(p - (a + t * (b - a)))))
    return min(dists)


def _tri_oracle(R1, R2, R3):
    """van Oosterom-Strackee with numpy's .sum(-1) and np.cross: the formula
    the fused kernel must reproduce bit for bit."""
    r1 = np.sqrt((R1 * R1).sum(-1))
    r2 = np.sqrt((R2 * R2).sum(-1))
    r3 = np.sqrt((R3 * R3).sum(-1))
    num = (R1 * np.cross(R2, R3)).sum(-1)
    den = (r1 * r2 * r3 + (R1 * R2).sum(-1) * r3
           + (R1 * R3).sum(-1) * r2 + (R2 * R3).sum(-1) * r1)
    return 2.0 * np.arctan2(num, den)


def _quad_oracle(R):
    return (_tri_oracle(R[..., 0, :], R[..., 1, :], R[..., 2, :])
            + _tri_oracle(R[..., 0, :], R[..., 2, :], R[..., 3, :]))


def _same_bits(a, b):
    """Bitwise equality, telling -0.0 from 0.0 (CSV reports do)."""
    return a.shape == b.shape and np.array_equal(a.view(np.int64),
                                                 b.view(np.int64))


# signed zeros and repeated small integers reach the degenerate branches
_coords = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0]),
                    st.floats(-4.0, 4.0, allow_nan=False, allow_infinity=False))


@settings(max_examples=60)
@given(quads=arrays(float, st.tuples(st.integers(1, 7), st.just(4), st.just(3)),
                    elements=_coords),
       data=st.data())
def test_solid_angle_kernel_is_bitwise_oracle(quads, data):
    n = len(quads)
    q = data.draw(st.integers(1, 5))
    Y = data.draw(arrays(float, (n, q, 3), elements=_coords))
    # viewpoints on corners hit the 0/0 branch of arctan2
    Y[0, 0] = quads[0, 2]
    # small chunks, so the examples cross chunk boundaries
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(bem, "_CHUNK", 3)
        full = solid_angles(quads, Y.reshape(-1, 3))
        mp.setattr(bem, "_CHUNK", 2)
        paired = bem._solid_angles_paired(quads, Y)
    assert _same_bits(
        full, _quad_oracle(quads[None, :, :, :] - Y.reshape(-1, 1, 1, 3)))
    assert _same_bits(
        paired, _quad_oracle(quads[:, None, :, :] - Y[:, :, None, :]))
    diag = full.reshape(n, q, n)[np.arange(n), :, np.arange(n)]
    assert _same_bits(paired, diag)


def test_solid_angle_kernel_matches_oracle_on_cells(cube, rng):
    quads = np.concatenate([bem._cell_quads(p, 3) for p in cube.patches])
    Y = rng.uniform(-0.5, 1.5, (300, 3))
    assert _same_bits(solid_angles(quads, Y),
                      _quad_oracle(quads[None] - Y[:, None, None, :]))
    P, _ = bem._cell_nodes(cube.patches[2], 3, np.arange(64),
                           bem._unit_cell_rule(4))
    qn = bem._cell_quads(cube.patches[0], 3)
    assert _same_bits(bem._solid_angles_paired(qn, P),
                      _quad_oracle(qn[:, None] - P[:, :, None]))


@settings(max_examples=80)
@example(shape=(1, 1, 1, 1), flat=True, on_vertex=True, seed=0)
@example(shape=(1, 4, 2, 3), flat=True, on_vertex=False, seed=1)
@example(shape=(4, 1, 2, 3), flat=False, on_vertex=True, seed=2)
@given(shape=st.tuples(st.integers(1, 5), st.integers(1, 5), st.integers(1, 3),
                       st.integers(1, 4)),
       flat=st.booleans(), on_vertex=st.booleans(), seed=st.integers(0, 2 ** 32 - 1))
def test_grid_front_end_is_bitwise_oracle(shape, flat, on_vertex, seed):
    h, w, G, q = shape
    rng = np.random.default_rng(seed)
    # G charts a + b s + c t + d s t on integer (s, t), from values that
    # include signed zeros; d = 0 makes a grid affine
    pool = np.array([0.0, -0.0, 1.0, -1.0, 2.0, 0.5])
    coef = np.where(rng.random((4, G, 3)) < 0.5, rng.choice(pool, (4, G, 3)),
                    rng.uniform(-4.0, 4.0, (4, G, 3)))
    coef[3] *= rng.random(G)[:, None] < 0.5
    if flat:                    # the grid lies in the plane z = a_z
        coef[1:, :, 2] = 0.0
    s = np.arange(h + 1.0)[:, None, None, None]
    t = np.arange(w + 1.0)[None, :, None, None]
    V = coef[0] + coef[1] * s + coef[2] * t + coef[3] * (s * t)   # (h+1, w+1, G, 3)
    Y = np.where(rng.random((G, q, 3)) < 0.3, rng.choice(pool, (G, q, 3)),
                 rng.uniform(-4.0, 4.0, (G, q, 3)))
    if flat:                    # viewpoints in the grid's plane
        Y[:, -1, 2] = coef[0, :, 2]
    if on_vertex:               # the 0/0 branch of arctan2
        Y[0, 0] = V[rng.integers(h + 1), rng.integers(w + 1), 0]
    got = bem._grid_solid_angles([V[..., a] for a in range(3)],
                                 [Y[..., a] for a in range(3)])
    quads = np.stack([V[:-1, :-1], V[1:, :-1], V[1:, 1:], V[:-1, 1:]], axis=-2)
    want = _quad_oracle(quads[:, :, :, None] - Y[None, None, :, :, None, :])
    assert _same_bits(np.ascontiguousarray(got), want)


@pytest.fixture()
def grid_calls(monkeypatch):
    """The grid shapes _grid_solid_angles is called on, for the test."""
    calls, grid = [], bem._grid_solid_angles

    def counted(V, Y):
        calls.append(V[0].shape)
        return grid(V, Y)

    monkeypatch.setattr(bem, "_grid_solid_angles", counted)
    return calls


def test_cell_grids_take_the_vertex_grid_path(cube, rng, grid_calls):
    frustum = _frustum()
    for patch, L in [(cube.patches[1], 3), (frustum.patches[2], 2),
                     (frustum.patches[4], 4)]:
        quads = bem._cell_quads(patch, L)
        # free points, points on cell corners and points in the patch plane
        Y = np.vstack([rng.uniform(-0.5, 2.5, (40, 3)), quads[::7, 2],
                       patch.chart(rng.uniform(-1, 2, 5), rng.uniform(-1, 2, 5))])
        want = _quad_oracle(quads[None] - Y[:, None, None, :])
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(bem, "_CHUNK", 16)
            assert _same_bits(solid_angles(quads, Y), want)
        assert grid_calls and bem._vertex_grid(quads) is not None
    # cells out of order, or one shared corner off by one ulp or by the sign
    # of a zero, take the per-corner path, with the oracle's values too
    quads = bem._cell_quads(cube.patches[0], 2)
    axis = int(np.flatnonzero((quads == 0.0).all(axis=(0, 1)))[0])
    nudged1, nudged3, signed = quads.copy(), quads.copy(), quads.copy()
    nudged1[5, 1, 0] = np.nextafter(nudged1[5, 1, 0], np.inf)
    nudged3[0, 3, 1] = np.nextafter(nudged3[0, 3, 1], -np.inf)
    signed[0, 2, axis] = -0.0           # vertex (1, 1), shared by four cells
    Y = rng.uniform(-0.5, 1.5, (20, 3))
    for other in (quads[::-1], nudged1, nudged3, signed):
        grid_calls.clear()
        assert bem._vertex_grid(other) is None
        assert _same_bits(solid_angles(other, Y),
                          _quad_oracle(other[None] - Y[:, None, None, :]))
        assert not grid_calls
    grid_calls.clear()
    potential_eval(cube, np.ones((6, 4, 4)), np.array([0.45, 0.55, 0.48]))
    assert len(grid_calls) == 6


def test_solid_angle_matches_quadrature(cube):
    patch = cube.patches[0]
    quad = patch.corners[None, :, :]
    viewpoint = np.array([[0.3, -0.7, 0.9]])
    omega = solid_angles(quad, viewpoint)[0, 0]
    # reference: integral of <x - y, eta> / |x - y|^3 over the quad
    nodes, wts = unit_rule(24)
    S, T = np.meshgrid(nodes, nodes, indexing="ij")
    W = np.outer(wts, wts).ravel()
    X = patch.chart(S.ravel(), T.ravel())
    d = X - viewpoint[0]
    r = np.linalg.norm(d, axis=1)
    integrand = (d @ patch.normal) / r ** 3
    jac = patch.jacobian_det(S.ravel(), T.ravel())
    assert omega == pytest.approx(float((W * integrand * jac).sum()), abs=1e-10)


def test_solid_angle_closed_sums(cube):
    quads = np.concatenate([bem._cell_quads(p, 2) for p in cube.patches])
    inside = np.array([[0.37, 0.52, 0.61]])
    outside = np.array([[1.9, -0.4, 0.3]])
    on_face = cube.patches[0].chart(np.array([0.31]), np.array([0.47]))
    assert solid_angles(quads, inside).sum() == pytest.approx(
        4 * math.pi, rel=1e-12)
    assert solid_angles(quads, outside).sum() == pytest.approx(0.0, abs=1e-12)
    # for a point on patch 0 the containing quad contributes its interior
    # limit 2*pi; excluding that patch leaves the 2*pi of the remaining faces
    on_face_all = solid_angles(quads, on_face).sum()
    assert on_face_all == pytest.approx(4 * math.pi, rel=1e-9)
    assert solid_angles(quads[16:], on_face).sum() == pytest.approx(
        2 * math.pi, rel=1e-9)


def test_gauss_identity_triple(cube, monkeypatch):
    monkeypatch.setattr(bem, "_GAUSS_LEVEL", 3)
    inside = gauss_check(cube, np.array([0.42, 0.57, 0.5]))
    outside = gauss_check(cube, np.array([1.7, 0.3, -0.2]))
    on_face = gauss_check(cube, cube.patches[2].chart(0.35, 0.6), patch=2)
    assert inside == pytest.approx(-1.0, abs=1e-3)
    assert on_face == pytest.approx(-0.5, abs=1e-3)
    assert outside == pytest.approx(0.0, abs=1e-6)


def test_assemble_structure(systems):
    system = systems[2]
    n = system.n_cells
    assert n == 6 * 16
    assert system.A.shape == (n, n)
    assert np.allclose(system.areas, 1.0 / 16.0, atol=1e-15)
    assert np.array_equal(np.diag(system.A), 0.5 * system.areas)
    # cells of one flat patch do not see each other: bitwise zeros
    blk = system.A[:16, :16].copy()
    np.fill_diagonal(blk, 0.0)
    assert not blk.any()


def test_row_sums_are_cell_areas(systems):
    c = 1 << 3
    k1, k2 = np.divmod(np.arange(c * c), c)
    interior = (k1 > 0) & (k1 < c - 1) & (k2 > 0) & (k2 < c - 1)
    off_edge = np.tile(interior, 6)
    # the frustum's four bilinear sides give blocks of one class per pair
    for system in (systems[3], assemble(_frustum(), 3)):
        sums = system.A @ np.ones(system.n_cells)
        err = np.abs(sums - system.areas) / system.areas
        assert float(err[off_edge].max()) < 1e-8
        assert float(err.max()) < 1e-3


def test_refinement_consistency(systems):
    coarse, fine = systems[2], systems[3]

    def flat(system, patch, k1, k2):
        c = 1 << system.L
        return (patch * c + k1) * c + k2

    m2 = flat(coarse, 0, 1, 2)
    n2 = flat(coarse, 3, 2, 1)
    total = 0.0
    for a1 in range(2):
        for a2 in range(2):
            m3 = flat(fine, 0, 2 + a1, 4 + a2)
            for b1 in range(2):
                for b2 in range(2):
                    n3 = flat(fine, 3, 4 + b1, 2 + b2)
                    total += fine.A[m3, n3]
    assert coarse.A[m2, n2] == pytest.approx(total, abs=1e-11)


def _moved_cube(s=1.0):
    """The unit cube rotated twice by the (3, 4, 5) angle, so scaled by 25,
    translated and scaled by s: integer-exact vertices keep the patches
    affine."""
    rot = (np.array([[3, -4, 0], [4, 3, 0], [0, 0, 5]])
           @ np.array([[5, 0, 0], [0, 3, -4], [0, 4, 3]]))
    desc = unit_cube()
    desc["vertices"] = ((np.array(desc["vertices"]) @ rot.T
                         + [0.5, -1.25, 2.0]) * s).tolist()
    return load_surface(desc)


def _rotation(q):
    """The proper rotation of the quaternion q (normalised here)."""
    w, x, y, z = np.asarray(q) / np.linalg.norm(q)
    return np.array([[1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
                     [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
                     [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)]])


def _frustum():
    """A square frustum: its four sides are planar trapezoids, whose charts
    have a bilinear term."""
    desc = unit_cube()
    desc["vertices"] = [[0, 0, 0], [2, 0, 0], [2, 2, 0], [0, 2, 0],
                        [0.5, 0.5, 1], [1.5, 0.5, 1], [1.5, 1.5, 1], [0.5, 1.5, 1]]
    return load_surface(desc)


def _assert_dedup_matches_full_path(surface, fast, monkeypatch):
    assert all(bem._is_affine(p) for p in surface.patches)
    monkeypatch.setattr(bem, "_is_affine", lambda patch: False)
    full = assemble(surface, fast.L)
    # entries scale with the cell area; the unit cube's at L=2 is 1/16
    scale = 16.0 * float(fast.areas.max())
    assert np.allclose(full.A, fast.A, rtol=1e-12, atol=1e-14 * scale)


def test_translation_dedup_matches_full_path(cube, systems, monkeypatch):
    _assert_dedup_matches_full_path(cube, systems[2], monkeypatch)


def test_translation_dedup_matches_full_path_moved_cube(monkeypatch):
    moved = _moved_cube()
    _assert_dedup_matches_full_path(moved, assemble(moved, 2), monkeypatch)


def _prism(a=1.3, b=0.3):
    """A parallelogram prism; with a = 1.3 and b = 0.3 rounding leaves a
    bilinear term of about 6e-17 on three of its sides."""
    desc = unit_cube()
    base = np.array([[0, 0, 0], [1, 0, 0], [a, a, 0], [b, a, 0]])
    desc["vertices"] = np.vstack([base, base + [b, b, 1]]).tolist()
    return load_surface(desc)


def _n_classes(surface, L):
    return sum(len(bem._pair_classes(pm, pn, L)[1][0])
               for pm in surface.patches for pn in surface.patches
               if pm.index != pn.index)


@pytest.mark.parametrize("name, L", [("prism", 3), ("small_moved_cube", 2)])
def test_rounding_noise_bilinear_terms_take_the_class_path(name, L, monkeypatch):
    surface = _prism() if name == "prism" else _moved_cube(1e-6)
    assert any(np.any(p.coeff_d != 0.0) for p in surface.patches)
    assert all(bem._is_affine(p) for p in surface.patches)
    if name == "prism":
        assert _n_classes(surface, L) == _n_classes(_prism(1.25, 0.25), L)
    fast = assemble(surface, L)
    monkeypatch.setattr(bem, "_is_affine", lambda patch: False)
    full = assemble(surface, L)
    assert float(np.abs(full.A - fast.A).max()) <= 1e-13 * float(
        np.abs(full.A).max())


def test_touching_tolerances_scale_with_the_surface(systems):
    # with absolute touching tolerances, touching pairs fell to the near
    # path at this scale and A / s^2 moved by 2.6e-5 relative
    s = 25.0 * 1e8
    big = assemble(_moved_cube(1e8), 2)
    unit = systems[2].A
    assert float(np.abs(big.A / s ** 2 - unit).max()) < 1e-12 * float(
        np.abs(unit).max())


@functools.cache
def _unit_frame(name, L):
    surface = {"cube": lambda: load_surface(unit_cube()),
               "fichera": lambda: load_surface(fichera_corner()),
               "prism": _prism}[name]()
    return surface, assemble(surface, L).A


@pytest.mark.parametrize("name, L", [("cube", 3), ("fichera", 2), ("prism", 3)])
@settings(max_examples=3)
@given(q=st.lists(st.floats(-1.0, 1.0), min_size=4, max_size=4),
       shift=st.lists(st.floats(-10.0, 10.0), min_size=3, max_size=3),
       log_s=st.floats(-3.0, 3.0))
def test_A_is_invariant_under_rotation_translation_and_scaling(name, L, q,
                                                               shift, log_s):
    assume(np.linalg.norm(q) > 0.1)
    surface, unit = _unit_frame(name, L)
    s = 10.0 ** log_s
    moved = load_surface({
        "vertices": ((surface.vertices @ _rotation(q).T + shift) * s).tolist(),
        "patches": [list(p.corner_ids) for p in surface.patches]})
    A = assemble(moved, L).A / s ** 2
    assert float(np.abs(A - unit).max()) <= 1e-13 * float(np.abs(unit).max())


def _skewed(rule):
    """The unit-cell `rule` with its depth-3 weights scaled by 1.1."""
    def skewed(order, feature=None, depth=0):
        s, t, w = rule(order, feature, depth)
        return s, t, w * (1.1 if depth == 3 else 1.0)
    return skewed


@pytest.mark.parametrize("scale", [None, 1e-6])
def test_verify_quadrature_fires_at_any_scale(scale, cube, monkeypatch):
    # with an absolute 1e-12 floor the check missed a 10% disagreement on the
    # small cube, whose largest touching entry is 4.3e-12
    monkeypatch.setattr(bem, "_unit_cell_rule", _skewed(bem._unit_cell_rule))
    surface = cube if scale is None else _moved_cube(scale)
    with pytest.raises(RuntimeError, match="quadrature failure"):
        assemble(surface, 2)


# -- the class and touch searches over all 16^L pairs, as oracles ------------


def _every_pair_oracle(c):
    cells = c * c
    pair = np.arange(cells * cells)
    return pair, (pair // cells, pair % cells)


def _pair_classes_oracle(patch_m, patch_n, L):
    """Translation classes from the full (4^L x 4^L, 3) offset array; one
    class per pair on a bilinear patch or when the offsets do not separate."""
    c = 1 << L
    for p in (patch_m, patch_n):
        edge = max(np.linalg.norm(p.coeff_b), np.linalg.norm(p.coeff_c))
        if np.linalg.norm(p.coeff_d) > 64 * np.finfo(float).eps * edge:
            return _every_pair_oracle(c)
    k = np.arange(c, dtype=float)
    K1, K2 = np.meshgrid(k, k, indexing="ij")
    kk = np.stack([K1.ravel(), K2.ravel()], axis=1)
    sm = kk @ np.stack([patch_m.coeff_b, patch_m.coeff_c])
    sn = kk @ np.stack([patch_n.coeff_b, patch_n.coeff_c])
    V = (sn[None, :, :] - sm[:, None, :]).reshape(-1, 3)
    scale = max(float(np.linalg.norm(v)) for v in
                (patch_m.coeff_b, patch_m.coeff_c,
                 patch_n.coeff_b, patch_n.coeff_c))
    q = np.round(V * (8192.0 / scale)).astype(np.int64)
    if np.any(np.abs(q) >= (1 << 20)):
        return _every_pair_oracle(c)
    base = 1 << 20
    key = ((q[:, 0] + base) << 42) | ((q[:, 1] + base) << 21) | (q[:, 2] + base)
    _, first, inv = np.unique(key, return_index=True, return_inverse=True)
    if float(np.abs(V - V[first][inv]).max()) > 1e-9 * scale:
        return _every_pair_oracle(c)
    cells = c * c
    return inv, (first // cells, first % cells)


def _cell_feature_oracle(qm, qn) -> tuple:
    """The shared feature of a touching pair in cell m's local frame, from
    the corners of m lying on quad n, as per-axis grading ends."""
    tol = 1e-9 * float(np.linalg.norm(qm[2] - qm[0]))
    on = [point_quad_distance(corner, qn) < tol for corner in qm]
    # corner order (00, 10, 11, 01) in (s, t)
    locs = [(0, 0), (1, 0), (1, 1), (0, 1)]
    hit = [locs[i] for i in range(4) if on[i]]
    if len(hit) >= 2:
        (a1, a2), (b1, b2) = hit[0], hit[1]
        if a1 == b1:
            return (a1, None)
        if a2 == b2:
            return (None, a2)
    if len(hit) == 1:
        return hit[0]
    # closest corner fallback for vertex-on-edge contact
    dists = [point_quad_distance(corner, qn) for corner in qm]
    return locs[int(np.argmin(dists))]


def _touch_candidates_oracle(quads_m, quads_n):
    """Touching and near lists from the full centre-distance matrix, and
    touching features from the point-to-quad rule."""
    diag = max(np.linalg.norm(quads_m[:, 2] - quads_m[:, 0], axis=1).max(),
               np.linalg.norm(quads_n[:, 2] - quads_n[:, 0], axis=1).max())
    cm = quads_m.mean(axis=1)
    cn = quads_n.mean(axis=1)
    d2 = ((cm[:, None, :] - cn[None, :, :]) ** 2).sum(-1)
    mi, ni = np.nonzero(d2 <= (2.5 * diag) ** 2)
    if len(mi) == 0:
        return [], []
    qm = quads_m[mi]
    qn = quads_n[ni]
    cc = ((qm[:, :, None, :] - qn[:, None, :, :]) ** 2).sum(-1).min(axis=(1, 2))
    touch = cc < 1e-18
    near = ~touch & (d2[mi, ni] <= (1.8 * diag) ** 2)
    return ([(m, n, _cell_feature_oracle(quads_m[m], quads_n[n]))
             for m, n in zip(mi[touch].tolist(), ni[touch].tolist())],
            list(zip(mi[near].tolist(), ni[near].tolist())))


def _assert_same_classes(patch_m, patch_n, L):
    inv, (rep_m, rep_n) = _pair_classes_oracle(patch_m, patch_n, L)
    (cls, ia, ib), (new_m, new_n) = bem._pair_classes(patch_m, patch_n, L)
    new_inv = cls[ia, ib].ravel()
    assert len(new_m) == len(rep_m)
    # the representative of every pair's class: same partition, same reps
    assert np.array_equal(new_m[new_inv], rep_m[inv])
    assert np.array_equal(new_n[new_inv], rep_n[inv])


def _close(quads_m, quads_n, rep_m, rep_n):
    """bem._close_classes with the squared centre distances and the diagonal
    assemble passes."""
    diag = max(np.linalg.norm(q[:, 2] - q[:, 0], axis=1).max()
               for q in (quads_m, quads_n))
    d2 = ((quads_m.mean(axis=1)[rep_m] - quads_n.mean(axis=1)[rep_n]) ** 2).sum(-1)
    return bem._close_classes(quads_m, quads_n, d2, diag, rep_m, rep_n)


def _assert_every_pair_has_its_class_rule(patch_m, patch_n, L, features=True):
    """The rule of each class, judged at its representative, is the
    oracle's rule of every pair in the class: far, near, or touching along
    the same feature (touching only, without `features`)."""
    c = 1 << L
    quads_m, quads_n = bem._cell_quads(patch_m, L), bem._cell_quads(patch_n, L)
    (cls, ia, ib), (rep_m, rep_n) = bem._pair_classes(patch_m, patch_n, L)
    near, touching, feats = _close(quads_m, quads_n, rep_m, rep_n)
    codes = {"far": 0}

    def code(rule):
        """One code per rule; without `features` every touching rule is one."""
        if not features and rule != "near":
            rule = "touching"
        return codes.setdefault(rule, len(codes))

    by_class = np.zeros(len(rep_m), dtype=int)
    by_class[near] = code("near")
    for k, feature in zip(touching, feats):
        by_class[k] = code(feature)
    want = np.zeros((c * c, c * c), dtype=int)
    oracle_touching, oracle_near = _touch_candidates_oracle(quads_m, quads_n)
    for m, n in oracle_near:
        want[m, n] = code("near")
    for m, n, feature in oracle_touching:
        want[m, n] = code(feature)
    assert np.array_equal(by_class[cls[ia, ib]].reshape(c * c, c * c), want)
    # touching classes come in the C order of their representatives
    flat = rep_m[touching] * c * c + rep_n[touching]
    assert np.all(np.diff(flat) > 0)


@pytest.mark.parametrize("name, L", [("cube", 1), ("cube", 2), ("cube", 3),
                                     ("cube", 4), ("fichera", 2), ("moved", 3),
                                     ("frustum", 2), ("prism", 3)])
def test_pair_classes_and_touch_lists_match_oracles(name, L, cube, fichera):
    surface = {"cube": cube, "fichera": fichera, "frustum": _frustum(),
               "prism": _prism()}.get(name) or _moved_cube()
    for pm in surface.patches:
        for pn in surface.patches:
            if pm.index != pn.index:
                _assert_same_classes(pm, pn, L)
                _assert_every_pair_has_its_class_rule(pm, pn, L)


class _Parallelogram:
    """An affine patch a + b s + c t, enough for the cell and class helpers."""

    chart = Patch.chart

    def __init__(self, a, b, c):
        self.coeff_a, self.coeff_b, self.coeff_c = (
            np.asarray(v, dtype=float) for v in (a, b, c))
        self.coeff_d = np.zeros(3)


_small_vec = st.tuples(*[st.integers(-3, 3)] * 3)


@settings(max_examples=100)
# a class whose first pair is not that of its smallest group-A key
@example(bm=(1, -1, 2), cm=(2, -3, -1), bn=(1, -2, -1), cn=(-1, 1, 2),
         corner=(0, 0), shift=(0, 0, 0), den=1, share=None, L=3)
@given(bm=_small_vec, cm=_small_vec, bn=_small_vec, cn=_small_vec,
       corner=st.sampled_from([(0, 0), (1, 0), (0, 1), (1, 1)]),
       shift=_small_vec, den=st.sampled_from([1, 2, 3, 4]),
       share=st.sampled_from([None, "b", "c", "-b", "-c"]),
       L=st.integers(1, 3))
def test_pair_classes_and_touch_lists_match_oracles_on_parallelograms(
        bm, cm, bn, cn, corner, shift, den, share, L):
    bm, cm, bn, cn, shift = (np.array(v) / den
                             for v in (bm, cm, bn, cn, shift))
    if share is not None:
        # a source edge along a test edge: collapsing groups, shared sides
        bn = {"b": bm, "c": cm, "-b": -bm, "-c": -cm}[share]
    assume(np.linalg.norm(np.cross(bm, cm)) > 0.0)
    assume(np.linalg.norm(np.cross(bn, cn)) > 0.0)
    # the source patch starts at a test-patch corner, or a lattice step off it
    an = corner[0] * bm + corner[1] * cm + (shift if share is None else 0.0)
    patch_m = _Parallelogram(np.zeros(3), bm, cm)
    patch_n = _Parallelogram(an, bn, cn)
    _assert_same_classes(patch_m, patch_n, L)
    # overlapping parallelograms are no surface: corners of one cell may lie
    # on the other cell off its corners, so only near or touching is compared
    _assert_every_pair_has_its_class_rule(patch_m, patch_n, L, features=False)


def _oracle_classes(patch_m, patch_n, L):
    """The oracle's classes in _pair_classes' (cls, ia, ib) form."""
    inv, reps = _pair_classes_oracle(patch_m, patch_n, L)
    c = 1 << L
    cell = np.arange(c * c).reshape(c, c)
    return (inv.reshape(c * c, c * c), cell[:, :, None, None],
            cell[None, None, :, :]), reps


def _close_classes_oracle(quads_m, quads_n, pair_cls):
    """_close_classes' result from _touch_candidates_oracle's pair lists, as
    the per-pair path mapped them: each class takes the rule of its first
    pair in list order (near, then touching).  pair_cls[m, n] is the class
    of the pair (m, n)."""
    touching, near = _touch_candidates_oracle(quads_m, quads_n)
    first = {}
    for m, n, feature in [(m, n, None) for m, n in near] + touching:
        first.setdefault(int(pair_cls[m, n]), feature)
    touch = [(k, f) for k, f in first.items() if f is not None]
    return (np.array([k for k, f in first.items() if f is None], dtype=np.int64),
            np.array([k for k, _ in touch], dtype=np.int64),
            [f for _, f in touch])


@pytest.mark.parametrize("name, L", [("cube", 3), ("fichera", 2)])
def test_assemble_is_bitwise_the_oracle_assembly(name, L, systems, fichera,
                                                 monkeypatch):
    surface = fichera if name == "fichera" else systems[L].surface
    new = systems[L].A if name == "cube" else assemble(surface, L).A
    # one worker: each block's classes are read right after they are made
    block = {}

    def classes(patch_m, patch_n, L):
        block["classes"] = _oracle_classes(patch_m, patch_n, L)
        return block["classes"]

    def close(quads_m, quads_n, *_):
        (cls, ia, ib), _ = block["classes"]
        pair_cls = cls[ia, ib].reshape(len(quads_m), len(quads_n))
        return _close_classes_oracle(quads_m, quads_n, pair_cls)

    monkeypatch.setattr(bem, "_pair_classes", classes)
    monkeypatch.setattr(bem, "_close_classes", close)
    assert _same_bits(new, assemble(surface, L, workers=1).A)


def _graded_cell_nodes_oracle(patch, L, k1, k2, feature, depth, order, skew):
    """Outer nodes and weights of one cell, graded toward a side or corner,
    built panel pair by panel pair with one meshgrid each; the unit-cell
    weights are scaled by `skew`, where _skewed scales them."""
    nodes, wts = unit_rule(order)
    cuts = [0.0] + [2.0 ** (-depth + i) for i in range(depth + 1)]
    segs = list(zip(cuts[:-1], cuts[1:]))

    def panels(end):
        if end is None:
            return [(0.0, 0.5), (0.5, 1.0)]
        return segs if end == 0 else [(1.0 - b, 1.0 - a) for a, b in segs]

    h = 0.5 ** L
    S, T, W = [], [], []
    for a1, b1 in panels(feature[0]):
        for a2, b2 in panels(feature[1]):
            XX, YY = np.meshgrid(a1 + (b1 - a1) * nodes, a2 + (b2 - a2) * nodes,
                                 indexing="ij")
            S.append((k1 + XX.ravel()) * h)
            T.append((k2 + YY.ravel()) * h)
            W.append(np.outer((b1 - a1) * wts, (b2 - a2) * wts).ravel())
    S, T = np.concatenate(S), np.concatenate(T)
    W = np.concatenate(W) * skew * h * h * patch.jacobian_det(S, T)
    return patch.chart(S, T), W


def _block_classes(system, b):
    """Block b's class of every pair, (c, c, c, c) over (m1, m2, n1, n2), and
    each class's representative (rm, rn), from _pair_classes."""
    surface, L, c = system.surface, system.L, 1 << system.L
    (cls, ia, ib), reps = bem._pair_classes(surface.patches[b.pm],
                                            surface.patches[b.pn], L)
    return cls[np.broadcast_to(ia, (c,) * 4), np.broadcast_to(ib, (c,) * 4)], reps


def _class_entries(system):
    """Per block, each class's entry read from the stored matvec form at the
    class's representative (m, n): E[m, n] when flat is None, else
    E[flat[m, j] // c, i] with n = (j, i) when transpose, else (i, j)."""
    c = 1 << system.L
    out = []
    for b in system.blocks:
        _, (rm, rn) = _block_classes(system, b)
        if b.flat is None:
            out.append(b.E[rm, rn])
            continue
        n1, n2 = np.divmod(rn, c)
        j, i = (n1, n2) if b.transpose else (n2, n1)
        out.append(b.E[b.flat[rm, j] // c, i])
    return out


def _near_and_touching_oracle(system, skew=1.0):
    """Every near and touching class entry of `system`, computed pair by pair
    in list order (near, then touching) at the first pair of its class: graded
    nodes, one one-quad solid_angles call, wts @ om.  Depth-3 weights are
    scaled by `skew`.  Returns ({(block, class): entry}, the message of the
    first failing 5% check or None)."""
    surface, L, c = system.surface, system.L, 1 << system.L
    quads = [bem._cell_quads(p, L) for p in surface.patches]

    def value(pm, pn, m, n, feature, depth):
        pts, wts = _graded_cell_nodes_oracle(
            surface.patches[pm], L, m // c, m % c, feature, depth,
            bem._QUAD_ORDER, skew if depth == 3 else 1.0)
        return float(wts @ solid_angles(quads[pn][n:n + 1], pts)[:, 0]) / (4 * math.pi)

    want, failure = {}, None
    for k, b in enumerate(system.blocks):
        cls, _ = _block_classes(system, b)
        touching, near = _touch_candidates_oracle(quads[b.pm], quads[b.pn])
        for m, n, feature in [(m, n, None) for m, n in near] + touching:
            key = (k, int(cls[m // c, m % c, n // c, n % c]))
            if key in want:
                continue
            if feature is None:
                want[key] = value(b.pm, b.pn, m, n, (None, None), 1)
                continue
            val = value(b.pm, b.pn, m, n, feature, bem._GRADE_DEPTH)
            val2 = value(b.pm, b.pn, m, n, feature, bem._GRADE_DEPTH - 1)
            floor = 1e-12 * system.areas[b.pm * c * c + m]
            if failure is None and abs(val - val2) > max(0.05 * abs(val), floor):
                failure = (f"quadrature failure on touching cell pair "
                           f"({b.pm},{m})x({b.pn},{n}): {val} vs {val2}")
            want[key] = val
    return want, failure


@pytest.mark.parametrize("name, L", [("cube", 3), ("fichera", 2), ("frustum", 2),
                                     ("prism", 3)])
def test_near_and_touching_classes_are_bitwise_the_per_pair_path(
        name, L, systems, fichera, monkeypatch):
    surface = {"cube": systems[3].surface, "fichera": fichera,
               "frustum": _frustum(), "prism": _prism()}[name]
    by_workers = [assemble(surface, L, workers=workers) for workers in (1, 2)]
    want, _ = _near_and_touching_oracle(by_workers[0])
    assert len(want) > 0
    for system in by_workers:
        entries = _class_entries(system)
        got = np.array([entries[k][cid] for k, cid in want])
        assert _same_bits(got, np.array(list(want.values())))
    # a skewed depth-3 rule fails at the same first pair with the same values
    _, failure = _near_and_touching_oracle(by_workers[0], skew=1.1)
    assert failure is not None
    monkeypatch.setattr(bem, "_unit_cell_rule", _skewed(bem._unit_cell_rule))
    with pytest.raises(RuntimeError) as err:
        assemble(surface, L)
    assert str(err.value) == failure


def _class_kinds(system):
    """Per block: its classes' representatives (rm, rn), their kinds (0 far,
    1 near, 2 touching) from the all-pairs touch oracle, and the far classes
    whose cell centres lie at least 10 larger-cell diagonals apart."""
    surface, L, c = system.surface, system.L, 1 << system.L
    quads = [bem._cell_quads(p, L) for p in surface.patches]
    out = []
    for b in system.blocks:
        cls, (rm, rn) = _block_classes(system, b)
        touching, near = _touch_candidates_oracle(quads[b.pm], quads[b.pn])
        kind = np.zeros(len(rm), dtype=int)
        for code, pairs in ((1, near), (2, [(m, n) for m, n, _ in touching])):
            if pairs:
                m, n = np.array(pairs).T
                kind[cls[m // c, m % c, n // c, n % c]] = code
        diag = max(np.linalg.norm(q[:, 2] - q[:, 0], axis=1).max()
                   for q in (quads[b.pm], quads[b.pn]))
        d2 = ((quads[b.pm].mean(axis=1)[rm] - quads[b.pn].mean(axis=1)[rn]) ** 2
              ).sum(-1)
        out.append((rm, rn, kind, (kind == 0) & (d2 >= (10.0 * diag) ** 2)))
    return out


def _lowered_oracle(rm, rn, beyond, c):
    """The classes that take the lower order, from the rule's statement, one
    test cell at a time: a class at least 10 diagonals apart is lowered
    unless its line, its source row when its test cell's source cells span
    no more rows than columns and else its source column, lies within the
    span of the lines holding a class of that test cell that is not."""
    lowered = np.zeros(len(rm), dtype=bool)
    n1, n2 = np.divmod(rn, c)
    order = np.argsort(rm, kind="stable")
    for g in np.split(order, np.flatnonzero(np.diff(rm[order])) + 1):
        line = n1[g] if np.ptp(n1[g]) <= np.ptp(n2[g]) else n2[g]
        kept = line[~beyond[g]]
        spanned = (kept.min() <= line) & (line <= kept.max()) if len(kept) else False
        lowered[g] = beyond[g] & ~spanned
    return lowered


def _far_values(system, block, m, n, order):
    """Entries of cell pairs (m, n) of a block at the plain order-`order`
    outer rule, each W[m] . solid angles from one _solid_angles_paired call
    per chunk of pairs."""
    surface, L = system.surface, system.L
    b = system.blocks[block]
    quads = bem._cell_quads(surface.patches[b.pn], L)
    P, W = bem._cell_nodes(surface.patches[b.pm], L, np.arange(4 ** L),
                           bem._unit_cell_rule(order))
    out = np.empty(len(m))
    for lo in range(0, len(m), 4096):
        k = slice(lo, lo + 4096)
        out[k] = (W[m[k]] * bem._solid_angles_paired(quads[n[k]], P[m[k]])
                  ).sum(axis=1)
    return out / (4 * math.pi)


def _far_per_pair(system):
    """Per block, every far class entry computed at its first pair, at
    _QUAD_ORDER or, where _lowered_oracle lowers it, one order less:
    {block: (far class ids, entries)}."""
    want = {}
    c, q = 1 << system.L, bem._QUAD_ORDER
    for k, (rm, rn, kind, beyond) in enumerate(_class_kinds(system)):
        far = np.flatnonzero(kind == 0)
        lowered = _lowered_oracle(rm, rn, beyond, c)[far]
        entries = np.empty(len(far))
        for order, sel in ((q, ~lowered), (q - 1, lowered)):
            ids = far[sel]
            entries[sel] = _far_values(system, k, rm[ids], rn[ids], order)
        want[k] = far, entries
    return want


@pytest.mark.parametrize("name, L", [("cube", 3), ("fichera", 2), ("frustum", 2),
                                     ("prism", 3), ("moved_cube", 3)])
def test_far_entries_are_bitwise_the_per_pair_path(name, L, grid_calls,
                                                  monkeypatch):
    surface = _OPERATOR_SURFACES[name]()
    systems = [assemble(surface, L, workers=workers) for workers in (1, 2)]
    # with no size floor every rectangle group takes the vertex-grid path
    monkeypatch.setattr(bem, "_GRID_MIN", 0)
    systems.append(assemble(surface, L))
    assert grid_calls
    want = _far_per_pair(systems[0])
    for system in systems:
        got = _class_entries(system)
        for k, (far, entries) in want.items():
            assert _same_bits(got[k][far], entries), k


def _max_abs_A(system):
    """max|A| from the stored blocks and the diagonal, without forming A."""
    return max([float(np.abs(b.E).max()) for b in system.blocks]
               + [float(0.5 * system.areas.max())])


@pytest.mark.parametrize("name, L", [("cube", 4), ("fichera", 3), ("prism", 3),
                                     ("frustum", 4)])
def test_distant_far_classes_take_one_order_less(name, L, systems):
    system = (systems[4] if name == "cube"
              else assemble(_OPERATOR_SURFACES[name](), L))
    scale = _max_abs_A(system)
    q, c = bem._QUAD_ORDER, 1 << L
    n_beyond = n_lowered = 0
    entries = _class_entries(system)
    for k, (rm, rn, kind, beyond) in enumerate(_class_kinds(system)):
        got = entries[k]
        # below 10 diagonals: the _QUAD_ORDER rule, bit for bit
        ids = np.flatnonzero((kind == 0) & ~beyond)
        assert _same_bits(got[ids], _far_values(system, k, rm[ids], rn[ids], q)), k
        # from 10 diagonals on: within 1e-12 of max|A| of the _QUAD_ORDER value
        # and of an order-8 reference, and bit for bit the rule's order
        ids = np.flatnonzero(beyond)
        lowered = _lowered_oracle(rm, rn, beyond, c)[ids]
        at = {o: _far_values(system, k, rm[ids], rn[ids], o) for o in (q, q - 1, 8)}
        assert _same_bits(got[ids], np.where(lowered, at[q - 1], at[q])), k
        assert float(np.abs(got[ids] - at[q]).max(initial=0.0)) <= 1e-12 * scale
        assert float(np.abs(got[ids] - at[8]).max(initial=0.0)) <= 1e-12 * scale
        n_beyond += len(ids)
        n_lowered += int(lowered.sum())
    assert n_beyond >= 120
    # on the prism no line holds beyond classes only
    assert (n_lowered > 0) == (name != "prism")


@pytest.mark.parametrize("name, L, touching", [("cube", 3, 2.5e-4),
                                               ("fichera", 2, 2.5e-4),
                                               ("frustum", 2, 4e-4)])
def test_entries_are_within_their_budget_of_a_converged_A(name, L, touching,
                                                          systems, monkeypatch):
    system = (systems[3] if name == "cube"
              else assemble(_OPERATOR_SURFACES[name](), L))
    # converged well below the budgets: on the cube at L=3, grading to depth
    # 24 moves no touching entry by 1e-15 of itself, and order 16 by 2.5e-6
    monkeypatch.setattr(bem, "_QUAD_ORDER", 12)
    monkeypatch.setattr(bem, "_GRADE_DEPTH", 8)
    ref = assemble(system.surface, L)
    scale = _max_abs_A(ref)
    err = {0: 0.0, 1: 0.0, 2: 0.0}
    for (_, _, kind, _), got, want in zip(_class_kinds(system),
                                         _class_entries(system),
                                         _class_entries(ref)):
        for code in err:
            d, w = np.abs(got - want)[kind == code], np.abs(want[kind == code])
            if code == 2:   # touching: relative to the entry, zero if coplanar
                d = np.divide(d, w, out=np.where(d > 0.0, np.inf, 0.0), where=w > 0.0)
            err[code] = max(err[code], float(d.max(initial=0.0)))
    print(f"{name} L={L}: far {err[0] / scale:.2e}, near {err[1] / scale:.2e} "
          f"of max|A|; touching {err[2]:.2e} of the entry")
    assert err[0] <= 2e-8 * scale
    assert err[1] <= 2e-8 * scale
    assert err[2] <= touching
    assert float(np.abs(system.areas - ref.areas).max()) <= 1e-14 * scale


def test_assemble_guards(cube):
    with pytest.raises(ValueError):
        assemble(cube, 0)
    # 6 patches of 64^2 cells exceed the 8192-cell budget
    with pytest.raises(MemoryError, match="24576 cells exceed the budget of 8192"):
        assemble(cube, 6)


def test_identity_checks_refuse_an_inward_surface():
    # the reversed cube used to load; its kernel integral at the centre came
    # out +1, where the classical value at interior points is -1.  It is
    # refused where it loads, so no assemble, gauss_check or potential_eval
    # sees it
    flipped = unit_cube()
    flipped["patches"] = [list(q)[::-1] for q in flipped["patches"]]
    with pytest.raises(SurfaceError, match="oriented inward"):
        load_surface(flipped)


_INSIDE = np.array([0.4, 0.5, 0.6])


@pytest.mark.parametrize("call, match", [
    (lambda s: assemble(s.surface, 2.0), r"L must be >= 1 and an integer, got 2\.0"),
    (lambda s: assemble(s.surface, True), "L must be >= 1 and an integer, got True"),
    # these worker counts returned a system
    (lambda s: assemble(s.surface, 1, workers=2.5),
     r"workers must be >= 1 and an integer, got 2\.5"),
    (lambda s: assemble(s.surface, 1, workers=0), "workers must be"),
    (lambda s: assemble(s.surface, 1, workers=-3), "workers must be"),
    (lambda s: assemble(s.surface, 1, workers=True), "workers must be"),
    (lambda s: analyze_solution(s.surface, np.ones((6, 2, 2)), haar_basis(), 1,
                                WeightedSpec(1, 0.5), workers=0),
     "workers must be"),
    # an IndexError for quads of 3 corners
    (lambda s: solid_angles(np.zeros((2, 3, 3)), _INSIDE),
     r"quads must have shape \(N, 4, 3\), got \(2, 3, 3\)"),
    (lambda s: solid_angles(np.zeros((4, 3)), _INSIDE), "quads must have shape"),
    (lambda s: solid_angles(np.full((1, 4, 3), np.inf), _INSIDE),
     "quad corners must be finite"),
    # patch 99 was ignored (the interior value -1), L = 1.5 a TypeError
    # the patch is checked before any cell is integrated
    (lambda s: gauss_check(s.surface, _INSIDE, patch=99),
     r"patch must be None or a patch index in \[0, 6\), got 99"),
    (lambda s: gauss_check(s.surface, _INSIDE, patch=-1), "patch must be None"),
    (lambda s: gauss_check(s.surface, _INSIDE, patch=1.0), "patch must be None"),
    (lambda s: galerkin_rhs(s, lambda pts: np.ones(3)),
     "g returned 3 values for 64 points"),
])
def test_counts_and_rhs_values_are_checked(systems, call, match):
    with pytest.raises(ValueError, match=match):
        call(systems[1])


def test_solve_constant_density(systems):
    report = solve(systems[2], lambda pts: np.ones(len(pts)))
    assert report.residual < 1e-12
    assert report.density.shape == (6, 4, 4)
    assert np.isfinite(report.cond) and report.cond < 50.0
    inner = report.density[:, 1:-1, 1:-1]
    assert np.abs(inner - 1.0).max() < 1e-2
    assert np.abs(report.density - 1.0).max() < 0.2


def test_gmres_matches_lu(systems):
    lu = solve(systems[2], lambda pts: np.ones(len(pts)))
    gm = solve(systems[2], lambda pts: np.ones(len(pts)), use_gmres=True)
    assert np.allclose(gm.density, lu.density, atol=1e-9)
    assert math.isnan(gm.cond)


_OPERATOR_SURFACES = {"cube": lambda: load_surface(unit_cube()),
                      "fichera": lambda: load_surface(fichera_corner()),
                      "moved_cube": _moved_cube, "prism": _prism,
                      "frustum": _frustum}


@functools.lru_cache(maxsize=None)
def _operator_system(name, L, workers):
    return assemble(_OPERATOR_SURFACES[name](), L, workers=workers)


# the prism takes the swapped group form, the frustum one class per pair
@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("name, L", [("cube", 1), ("cube", 2), ("cube", 3),
                                     ("cube", 4), ("fichera", 2),
                                     ("moved_cube", 2), ("prism", 3),
                                     ("frustum", 2)])
@settings(max_examples=12)
@given(seed=st.integers(0, 2 ** 32 - 1),
       kind=st.sampled_from(["normal", "wide", "cell", "patch"]))
def test_matvec_is_the_dense_product(name, L, workers, seed, kind):
    system = _operator_system(name, L, workers)
    n = system.n_cells
    rng = np.random.default_rng(seed)
    if kind == "cell":
        x = np.zeros(n)
        x[rng.integers(n)] = 1.0
    elif kind == "patch":
        x = np.repeat(rng.standard_normal(system.surface.n_patches),
                      n // system.surface.n_patches)
    else:
        x = rng.standard_normal(n)
        if kind == "wide":
            x *= 10.0 ** rng.uniform(-6, 6, n)
    got = system.matvec(x)
    assert got.shape == (n,)
    A = system.A
    assert float(np.abs(got - A @ x).max()) <= 1e-13 * float(
        (np.abs(A) @ np.abs(x)).max())


def test_matvec_is_deterministic_across_threads(systems):
    x = np.random.default_rng(2734).standard_normal(systems[3].n_cells)
    first, second = (assemble(systems[3].surface, 3, workers=2).matvec(x)
                     for _ in range(2))
    assert _same_bits(first, second)
    assert _same_bits(first, systems[3].matvec(x))


def test_workers_change_no_bit_where_far_classes_are_lowered(systems):
    # at L=4 on the cube some cell centres lie 10 or more diagonals apart,
    # so distant far classes take the lower order, and two workers each
    # batch the far classes of their own run of blocks
    want = systems[4]
    centers, cells = want.centers, 4 ** 4
    span = np.linalg.norm(centers[:cells, None] - centers[None, cells:], axis=-1)
    assert span.max() >= bem._FAR_DIAGS * math.sqrt(2.0) / 16
    got = assemble(want.surface, 4, workers=2)
    assert _same_bits(got.areas, want.areas)
    assert len(got.blocks) == len(want.blocks)
    for a, b in zip(got.blocks, want.blocks):
        assert (a.pm, a.pn, a.transpose) == (b.pm, b.pn, b.transpose)
        assert _same_bits(a.E, b.E), (a.pm, a.pn)
        assert (a.flat is None) == (b.flat is None)
        assert a.flat is None or np.array_equal(a.flat, b.flat)


def test_operator_gmres_matches_lu(systems):
    def g(pts):
        return np.cos(pts[:, 0]) + pts[:, 1] * pts[:, 2]

    lu = solve(systems[3], g)
    gm = solve(systems[3], g, use_gmres=True)
    assert float(np.abs(gm.density - lu.density).max()) <= 1e-9 * float(
        np.abs(lu.density).max())
    assert gm.residual < 1e-11


def test_gmres_solve_never_forms_the_dense_matrix(cube):
    tracemalloc.start()
    try:
        system = assemble(cube, 4)
        held, peak = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        report = solve(system, lambda pts: np.ones(len(pts)), use_gmres=True)
        solve_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the dense A alone is 1536^2 doubles, 18.9 MB; assembly peaks at 9.1 MB,
    # and the solve adds 0.87 MB (right-hand side nodes, Krylov basis) to
    # the 2.5 MB the system holds
    assert max(peak, solve_peak) < 11.4e6
    assert solve_peak - held < 1.1e6
    assert "A" not in vars(system)
    assert report.residual < 1e-12


def test_blocks_are_stored_once_in_matvec_form(cube):
    tracemalloc.start()
    try:
        system = assemble(cube, 4)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    for b in system.blocks:
        assert b.E.dtype == np.float64
        assert b.flat is None or b.flat.dtype == np.int32
    # one float64 per expanded entry and one int32 per index, besides the
    # cell areas and centres: keeping the 196,230 class entries as well
    # would add 1.6 MB to the 2.4 MB stored
    stored = (8 * sum(b.E.size for b in system.blocks)
              + 4 * sum(b.flat.size for b in system.blocks if b.flat is not None)
              + system.areas.nbytes + system.centers.nbytes)
    assert held <= 1.05 * stored
    assert "A" not in vars(system)


def _operator_rhs(pts):
    return np.cos(pts[:, 0]) + pts[:, 1] * pts[:, 2]


def test_gmres_raises_when_it_does_not_converge(systems, monkeypatch):
    # one cycle of two Krylov vectors cannot reach 1e-12 of |b|
    monkeypatch.setattr(bem, "_RESTART", 2)
    monkeypatch.setattr(bem, "_MAX_CYCLES", 1)
    with pytest.raises(RuntimeError, match=r"GMRES did not converge: residual "
                                           r"\S+ above \S+ after 1 cycles of 2"):
        solve(systems[2], _operator_rhs, use_gmres=True)


@pytest.mark.parametrize("scale", [0.0, 2.0])
def test_gmres_breakdown_solves_exactly_or_raises(systems, monkeypatch, scale):
    # a right-hand side on one cell spans an invariant Krylov space of the
    # operator 2 Id at the first step, and the zero operator breaks down
    # there with no solution
    monkeypatch.setattr(bem.DoubleLayerSystem, "matvec",
                        lambda self, x: scale * np.asarray(x, dtype=float))
    g = np.eye(1, 96, 5).ravel()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        if scale == 0.0:
            with pytest.raises(RuntimeError, match="GMRES broke down"):
                solve(systems[2], g, use_gmres=True)
            return
        report = solve(systems[2], g, use_gmres=True)
    assert report.residual == 0.0
    assert _same_bits(report.density.ravel(), galerkin_rhs(systems[2], g) / 2.0)


@pytest.mark.parametrize("use_gmres", [False, True])
@pytest.mark.parametrize("g, match", [
    (lambda pts: np.full(len(pts), np.nan), "non-finite"),
    (lambda pts: np.full(len(pts), np.inf), "non-finite"),
    (np.r_[np.ones(95), -np.inf], "non-finite"),
    (np.ones(10), "need 96 entries, got 10"),
])
def test_solve_rejects_a_bad_right_hand_side(systems, g, match, use_gmres):
    # GMRES ran 400 iterations on a NaN rhs and reported non-convergence;
    # LU failed inside scipy, and a short array in numpy's reshape
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=match):
            solve(systems[2], g, use_gmres=use_gmres)


def test_conditioning_stays_bounded(systems):
    for L in (1, 2, 3, 4):
        rep = solve(systems[L], lambda pts: np.ones(len(pts)))
        assert rep.cond < 50.0


def test_galerkin_rhs_forms(systems):
    system = systems[2]
    from_callable = galerkin_rhs(system, lambda pts: np.full(len(pts), 2.0))
    from_values = galerkin_rhs(system, np.full(system.n_cells, 2.0))
    assert np.allclose(from_callable, from_values, atol=1e-14)
    assert np.allclose(from_values, 2.0 * system.areas, atol=1e-15)


def test_potential_of_unit_density(cube):
    density = np.ones((6, 4, 4))
    inside = potential_eval(cube, density, np.array([0.45, 0.55, 0.48]))
    outside = potential_eval(cube, density, np.array([2.4, 1.1, -0.7]))
    assert inside == pytest.approx(-1.0, abs=1e-12)
    assert outside == pytest.approx(0.0, abs=1e-12)
    with pytest.raises(ValueError):
        potential_eval(cube, density, np.array([0.5, 0.5, 0.01]))


def test_potential_clearance_refuses_what_the_scalar_distance_refuses(cube):
    # seeded points near and far from the cube's faces, edges and corners
    rng = np.random.default_rng(2734)
    V = cube.vertices
    mids = 0.5 * (V[:, None] + V[None]).reshape(-1, 3)
    near = np.concatenate([mids, mids + rng.normal(scale=0.1, size=mids.shape)])
    pts = np.concatenate([rng.uniform(-0.5, 1.5, (200, 3)),
                          near + rng.normal(scale=1e-3, size=near.shape)])
    for p in cube.patches:
        got = points_quad_distance(pts, p.corners)
        want = np.array([point_quad_distance(y, p.corners) for y in pts])
        assert np.all(np.abs(got - want) <= 1e-15 * want)
    density = np.ones((6, 4, 4))
    clear = np.array([min(point_quad_distance(y, p.corners) for p in cube.patches)
                      > 0.25 for y in pts])
    assert 0 < clear.sum() < len(pts)
    potential_eval(cube, density, pts[clear])
    first = pts[np.flatnonzero(~clear)[0]]
    with pytest.raises(ValueError) as err:
        potential_eval(cube, density, pts)
    assert str(err.value) == (f"evaluation point {first} within one cell size "
                              "of the surface")
    for y in pts[~clear][:20]:
        with pytest.raises(ValueError, match="within one cell size"):
            potential_eval(cube, density, y)


@pytest.mark.parametrize("call, y, match", [
    ("potential", [[np.nan, 0.5, 0.5]], "points must be finite"),
    ("potential", [0.5, 0.5, np.inf], "points must be finite"),
    ("potential", np.ones((1, 2)), r"shape \(3,\) or \(N, 3\), got \(1, 2\)"),
    ("gauss", [np.nan, 0.5, 0.5], "points must be finite"),
    ("gauss", np.full((2, 3), 0.5), r"shape \(3,\), got \(2, 3\)"),
    # solid_angles gave NaN for a NaN point and an IndexError for (3, 2)
    ("solid", [[0.5, np.nan, 0.5]], "points must be finite"),
    ("solid", np.ones((3, 2)), r"shape \(3,\) or \(N, 3\), got \(3, 2\)"),
])
def test_bad_points_are_value_errors(cube, call, y, match):
    with pytest.raises(ValueError, match=match):
        if call == "potential":
            potential_eval(cube, np.ones((6, 2, 2)), y)
        elif call == "solid":
            solid_angles(bem._cell_quads(cube.patches[0], 1), y)
        else:
            gauss_check(cube, y)


def test_interior_dirichlet_reproduces_probes(cube, systems):
    system = systems[3]
    pts = np.array([[0.41, 0.52, 0.63], [0.5, 0.35, 0.55], [0.62, 0.58, 0.44]])
    for probe in (HarmonicProbe.linear(2),
                  HarmonicProbe.point_source((2.5, 1.7, 3.1))):
        density = interior_dirichlet_density(system, probe).density
        got = np.array([potential_eval(cube, density, p) for p in pts])
        want = probe(pts)
        scale = float(np.abs(want).max())
        assert np.abs(got - want).max() < 2e-2 * scale


def test_harmonic_probes():
    pts = np.array([[0.2, 0.4, 0.6], [0.5, 0.5, 0.5]])
    lin = HarmonicProbe.linear(1)
    assert np.allclose(lin(pts), pts[:, 1])
    pole = np.array([2.5, 1.7, 3.1])
    src = HarmonicProbe.point_source(pole)
    assert np.allclose(src(pts), 1.0 / np.linalg.norm(pts - pole, axis=1))
    # harmonic: the second-difference Laplacian vanishes to its O(h^2) error
    h = 5e-4
    for probe, bound in ((lin, 1e-8), (src, 1e-6)):
        lap = -6.0 * probe(pts)
        for e in h * np.eye(3):
            lap = lap + probe(pts + e) + probe(pts - e)
        assert np.abs(lap).max() / (h * h) < bound


def test_analyze_solution_noise_floor(cube, haar):
    # an exactly constant density has no wavelet content at all
    density = np.ones((6, 8, 8))
    sol = analyze_solution(cube, density, haar, 3, WeightedSpec(1, 0.5))
    assert sol.noise_floor
    assert sol.adaptive is None and sol.uniform is None
    assert math.isnan(sol.exponent_ratio)
    assert sol.predicted_gamma == pytest.approx(1.0)
    assert sol.alpha_star == pytest.approx(0.5)


def test_analyze_solution_validation(cube, systems, haar):
    density = solve(systems[2], lambda pts: np.ones(len(pts))).density
    with pytest.raises(ValueError):
        analyze_solution(cube, density, haar, 3, WeightedSpec(1, 0.5))  # J > L
    with pytest.raises(ValueError):
        analyze_solution(cube, density, haar, 2, WeightedSpec(1, 0.5), s=1.0)
    # rho = 2 ended in a ZeroDivisionError, rho = 1.5 wrote alpha* = -0.5
    for k, rho in [(1, 0.0), (1, 1.0), (1, 1.5), (1, 2.0), (2, 3.0)]:
        with pytest.raises(ValueError, match="rho in \\(0, k\\)"):
            analyze_solution(cube, density, haar, 2, WeightedSpec(k, rho))


@pytest.mark.parametrize("shape", [(5, 4, 4), (6, 4, 2), (6, 3, 3), (6, 0, 0),
                                   (6, 16), (6, 4, 4, 1)])
def test_density_shape_is_checked(cube, haar, shape):
    density = np.ones(shape)
    with pytest.raises(ValueError, match="shape \\(6, 2\\^L, 2\\^L\\)"):
        potential_eval(cube, density, np.array([0.5, 0.5, 0.5]))
    with pytest.raises(ValueError, match="shape \\(6, 2\\^L, 2\\^L\\)"):
        analyze_solution(cube, density, haar, 1, WeightedSpec(1, 0.5))


def test_solve_rejects_zero_diagonal(systems):
    import dataclasses

    broken_A = systems[2].A.copy()
    broken_A[5, :] = 0.0
    broken = dataclasses.replace(systems[2])
    broken.A = broken_A
    with pytest.raises(RuntimeError), warnings.catch_warnings():
        warnings.simplefilter("ignore")  # scipy flags the zero pivot first
        solve(broken, lambda pts: np.ones(len(pts)))
