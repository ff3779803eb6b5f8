import math
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
    double_layer_kernel,
    galerkin_rhs,
    gauss_check,
    interior_dirichlet_density,
    load_surface,
    potential_eval,
    solid_angles,
    solve,
    unit_cube,
)
from patchwave._gauss import unit_rule
from patchwave.surface import Patch


def test_kernel_hand_values():
    x = np.array([[0.0, 0.0, 1.0]])
    eta = np.array([[0.0, 0.0, 1.0]])
    assert double_layer_kernel(x, eta, np.zeros((1, 3)))[0] == pytest.approx(
        -1.0 / (4.0 * math.pi), rel=1e-14)
    # doubling the distance along the normal: factor (2) / (2^3) = 1/4
    y2 = np.array([[0.0, 0.0, -1.0]])
    assert double_layer_kernel(x, eta, y2)[0] == pytest.approx(
        -1.0 / (16.0 * math.pi), rel=1e-14)
    # coplanar points see a vanishing kernel
    y3 = np.array([[0.7, -0.3, 1.0]])
    assert double_layer_kernel(x, eta, y3)[0] == 0.0


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


@settings(max_examples=60, deadline=None)
@given(quads=arrays(float, st.tuples(st.integers(1, 7), st.just(4), st.just(3)),
                    elements=_coords),
       data=st.data())
def test_solid_angle_kernel_is_bitwise_oracle(quads, data):
    n = len(quads)
    q = data.draw(st.integers(1, 5))
    Y = data.draw(arrays(float, (n, q, 3), elements=_coords))
    # viewpoints on corners hit the 0/0 branch of arctan2
    Y[0, 0] = quads[0, 2]
    full = solid_angles(quads, Y.reshape(-1, 3), chunk=3)
    assert _same_bits(
        full, _quad_oracle(quads[None, :, :, :] - Y.reshape(-1, 1, 1, 3)))
    paired = bem._solid_angles_paired(quads, Y, chunk=2)
    assert _same_bits(
        paired, _quad_oracle(quads[:, None, :, :] - Y[:, :, None, :]))
    diag = full.reshape(n, q, n)[np.arange(n), :, np.arange(n)]
    assert _same_bits(paired, diag)


def test_solid_angle_kernel_matches_oracle_on_cells(cube, rng):
    quads = np.concatenate([bem._cell_quads(p, 3) for p in cube.patches])
    Y = rng.uniform(-0.5, 1.5, (300, 3))
    assert _same_bits(solid_angles(quads, Y),
                      _quad_oracle(quads[None] - Y[:, None, None, :]))
    P, _ = bem._cell_gauss(cube.patches[2], 3, 4)
    qn = bem._cell_quads(cube.patches[0], 3)
    assert _same_bits(bem._solid_angles_paired(qn, P),
                      _quad_oracle(qn[:, None] - P[:, :, None]))


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


def test_gauss_identity_triple(cube):
    inside = gauss_check(cube, np.array([0.42, 0.57, 0.5]), L=3)
    outside = gauss_check(cube, np.array([1.7, 0.3, -0.2]), L=3)
    on_face = gauss_check(cube, cube.patches[2].chart(0.35, 0.6), patch=2, L=3)
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
    assert system.flat_index(1, 2, 3) == 16 + 2 * 4 + 3


def test_row_sums_are_cell_areas(systems):
    system = systems[3]
    c = 1 << 3
    sums = system.A @ np.ones(system.n_cells)
    err = np.abs(sums - system.areas) / system.areas
    k1, k2 = np.divmod(np.arange(c * c), c)
    interior = (k1 > 0) & (k1 < c - 1) & (k2 > 0) & (k2 < c - 1)
    off_edge = np.tile(interior, 6)
    assert float(err[off_edge].max()) < 1e-8
    assert float(err.max()) < 1e-3


def test_refinement_consistency(systems):
    coarse, fine = systems[2], systems[3]
    m2 = coarse.flat_index(0, 1, 2)
    n2 = coarse.flat_index(3, 2, 1)
    total = 0.0
    for a1 in range(2):
        for a2 in range(2):
            m3 = fine.flat_index(0, 2 + a1, 4 + a2)
            for b1 in range(2):
                for b2 in range(2):
                    n3 = fine.flat_index(3, 4 + b1, 2 + b2)
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


def test_touching_tolerances_scale_with_the_surface(systems):
    # with absolute touching tolerances, touching pairs fell to the near
    # path at this scale and A / s^2 moved by 2.6e-5 relative
    s = 25.0 * 1e8
    big = assemble(_moved_cube(1e8), 2)
    unit = systems[2].A
    assert float(np.abs(big.A / s ** 2 - unit).max()) < 1e-12 * float(
        np.abs(unit).max())


# -- the class and touch searches over all 16^L pairs, as oracles ------------


def _pair_classes_oracle(patch_m, patch_n, L):
    """Translation classes from the full (4^L x 4^L, 3) offset array."""
    c = 1 << L
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
        return None
    base = 1 << 20
    key = ((q[:, 0] + base) << 42) | ((q[:, 1] + base) << 21) | (q[:, 2] + base)
    _, first, inv = np.unique(key, return_index=True, return_inverse=True)
    if float(np.abs(V - V[first][inv]).max()) > 1e-9 * scale:
        return None
    cells = c * c
    return inv, (first // cells, first % cells)


def _touch_candidates_oracle(quads_m, quads_n):
    """Touching and near lists from the full centre-distance matrix."""
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
    return (list(zip(mi[touch].tolist(), ni[touch].tolist())),
            list(zip(mi[near].tolist(), ni[near].tolist())))


def _assert_same_classes(patch_m, patch_n, L):
    want = _pair_classes_oracle(patch_m, patch_n, L)
    got = bem._pair_classes(patch_m, patch_n, L)
    assert (got is None) == (want is None)
    if want is None:
        return
    inv, (rep_m, rep_n) = want
    (cls, ia, ib), (new_m, new_n) = got
    new_inv = cls[ia, ib].ravel()
    assert len(new_m) == len(rep_m)
    # the representative of every pair's class: same partition, same reps
    assert np.array_equal(new_m[new_inv], rep_m[inv])
    assert np.array_equal(new_n[new_inv], rep_n[inv])


def _assert_same_touch_lists(quads_m, quads_n):
    assert bem._touch_candidates(quads_m, quads_n) == \
        _touch_candidates_oracle(quads_m, quads_n)


@pytest.mark.parametrize("name, L", [("cube", 1), ("cube", 2), ("cube", 3),
                                     ("cube", 4), ("fichera", 2), ("moved", 3)])
def test_pair_classes_and_touch_lists_match_oracles(name, L, cube, fichera):
    surface = {"cube": cube, "fichera": fichera}.get(name) or _moved_cube()
    quads = {p.index: bem._cell_quads(p, L) for p in surface.patches}
    for pm in surface.patches:
        for pn in surface.patches:
            if pm.index != pn.index:
                _assert_same_classes(pm, pn, L)
                _assert_same_touch_lists(quads[pm.index], quads[pn.index])


class _Parallelogram:
    """An affine patch a + b s + c t, enough for the cell and class helpers."""

    chart = Patch.chart

    def __init__(self, a, b, c):
        self.coeff_a, self.coeff_b, self.coeff_c = (
            np.asarray(v, dtype=float) for v in (a, b, c))
        self.coeff_d = np.zeros(3)


_small_vec = st.tuples(*[st.integers(-3, 3)] * 3)


@settings(max_examples=100, deadline=None)
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
    _assert_same_touch_lists(bem._cell_quads(patch_m, L),
                             bem._cell_quads(patch_n, L))


def _oracle_classes(patch_m, patch_n, L):
    """The oracle's classes in _pair_classes' (cls, ia, ib) form."""
    classes = _pair_classes_oracle(patch_m, patch_n, L)
    if classes is None:
        return None
    inv, reps = classes
    c = 1 << L
    cell = np.arange(c * c).reshape(c, c)
    return (inv.reshape(c * c, c * c), cell[:, :, None, None],
            cell[None, None, :, :]), reps


@pytest.mark.parametrize("name, L", [("cube", 3), ("fichera", 2)])
def test_assemble_is_bitwise_the_oracle_assembly(name, L, systems, fichera,
                                                 monkeypatch):
    surface = fichera if name == "fichera" else systems[L].surface
    new = systems[L].A if name == "cube" else assemble(surface, L).A
    monkeypatch.setattr(bem, "_pair_classes", _oracle_classes)
    monkeypatch.setattr(bem, "_touch_candidates", _touch_candidates_oracle)
    assert _same_bits(new, assemble(surface, L).A)


def test_assemble_guards(cube):
    with pytest.raises(ValueError):
        assemble(cube, 0)
    with pytest.raises(MemoryError):
        assemble(cube, 5, max_cells=1000)
    flipped = unit_cube()
    flipped["patches"] = [list(q)[::-1] for q in flipped["patches"]]
    inward = load_surface(flipped)
    with pytest.raises(SurfaceError):
        assemble(inward, 1)


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
    assert lin.laplacian_residual(pts) < 1e-8
    assert src.laplacian_residual(pts) < 1e-6


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
    report = solve(systems[2], lambda pts: np.ones(len(pts)))
    with pytest.raises(ValueError):
        analyze_solution(cube, report, haar, 3, WeightedSpec(1, 0.5))  # J > L
    with pytest.raises(ValueError):
        analyze_solution(cube, report, haar, 2, WeightedSpec(1, 0.5), s=1.0)


def test_solve_rejects_zero_diagonal(systems):
    import dataclasses

    broken_A = systems[2].A.copy()
    broken_A[5, :] = 0.0
    broken = dataclasses.replace(systems[2], A=broken_A)
    with pytest.raises(RuntimeError), warnings.catch_warnings():
        warnings.simplefilter("ignore")  # scipy flags the zero pivot first
        solve(broken, lambda pts: np.ones(len(pts)))
