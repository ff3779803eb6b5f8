import dataclasses
import json
import re
import tracemalloc
from math import sqrt

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from patchwave import (
    BasisSpec,
    BesovSpec,
    EdgePowerModel,
    VertexPowerModel,
    WaveletIndex,
    analyze,
    classify_index,
    classify_level,
    empty_field,
    fichera_corner,
    haar_basis,
    level_size,
    load_field,
    load_surface,
    moment_check,
    multiwavelet_basis,
    save_field,
    synth_field,
    synthesize,
    synthesize_params,
    unit_cube,
)
from patchwave import bem, wavelets
from patchwave._gauss import unit_rule
from patchwave.wavelets import family_for
from test_bem import _frustum, _moved_cube
from test_surface import _posed, _surface
from test_weighted import _call_oracle


class _FieldSampler:
    """Evaluate a coefficient field as if it were boundary data."""

    def __init__(self, field):
        self.field = field

    def eval_params(self, patch_index, S, T):
        return synthesize_params(self.field, patch_index, S, T)


@pytest.fixture(params=["haar", "alpert2"])
def basis(request, haar, alpert2):
    return haar if request.param == "haar" else alpert2


def test_basis_spec_validation():
    assert haar_basis().d == 1 and haar_basis().j_star == 0
    assert multiwavelet_basis().d == 2 and multiwavelet_basis().j_star == 2
    with pytest.raises(ValueError):
        BasisSpec(d=3)
    assert BasisSpec(d=2).dt == 2         # construction is self-dual


@pytest.mark.parametrize("args, match", [
    ((1, 0.5), "j_star must be an integer"),
    ((1.0,), "primal orders are the integers"),
    ((True, True), "primal orders are the integers"),
    ((1, True), "j_star must be an integer"),
], ids=["half-level", "float-order", "bool-order", "bool-level"])
def test_basis_spec_refuses_a_non_integer(args, match):
    with pytest.raises(ValueError, match=match):
        BasisSpec(*args)


def test_level_size(basis):
    r = basis.d
    for j in (basis.j_star, basis.j_star + 2):
        assert level_size(basis, j, 6) == 6 * 3 * 4 ** j * r * r


def test_orthonormality(cube, basis):
    # analysis of one basis function gives its unit field back: it has norm
    # one and is orthogonal to every other index up to level J (the cube's
    # charts are isometric, so this holds on the geometric surface too)
    j0, r = basis.j_star, basis.d
    J = j0 + 1
    idxs = [
        WaveletIndex(j0, 0, 0, 0, 0, 0, 0),
        WaveletIndex(j0, 0, 1, 0, 0, r - 1, 0),
        WaveletIndex(j0, 0, 2, 0, 0, 0, r - 1),
        WaveletIndex(j0, 0, 3, 0, 0, r - 1, r - 1),
        WaveletIndex(J, 0, 1, 1, 0, 0, 0),
        WaveletIndex(J, 0, 3, 0, 1, 0, 0),
    ]
    for patch in (0, 3, 5):
        for idx in idxs:
            coarse, levels = wavelets._zero_arrays(basis, cube.n_patches, J)
            idx = dataclasses.replace(idx, patch=patch)
            if idx.etype == 0:
                coarse[patch, idx.k1, idx.k2, idx.m1, idx.m2] = 1.0
            else:
                levels[idx.level][patch, idx.etype - 1, idx.k1, idx.k2,
                                  idx.m1, idx.m2] = 1.0
            unit = wavelets.CoefficientField(basis, J, cube, coarse, levels)
            back = analyze(cube, _FieldSampler(unit), basis, J,
                           min_cell_level=J + 1)
            assert np.abs(back.coarse - unit.coarse).max() <= 1e-12
            for j in unit.level_range():
                assert np.abs(back.level(j) - unit.level(j)).max() <= 1e-12


def test_analyze_synthesize_roundtrip(cube, basis):
    J = basis.j_star + 2
    field = synth_field(cube, basis, "random_besov", J,
                        spec=_any_spec(), seed=7)
    # the synthesized function is piecewise polynomial on the level-(J+1)
    # dyadic grid, so force analysis quadrature cells at least that fine
    back = analyze(cube, _FieldSampler(field), basis, J, min_cell_level=J + 1)
    assert np.allclose(back.coarse, field.coarse, atol=1e-11)
    for j in field.level_range():
        assert np.allclose(back.level(j), field.level(j), atol=1e-11)


def _any_spec():
    return BesovSpec(1.0, 2.0, 2.0)


def test_analyze_workers_match(cube, haar):
    field = synth_field(cube, haar, "random_besov", 3, spec=_any_spec(), seed=3)
    sampler = _FieldSampler(field)
    a1 = analyze(cube, sampler, haar, 3, workers=1)
    a4 = analyze(cube, sampler, haar, 3, workers=4)
    assert np.array_equal(a1.coarse, a4.coarse)
    for j in a1.level_range():
        assert np.array_equal(a1.level(j), a4.level(j))
    # a fraction or zero ran the analysis serially and returned a field
    for workers in (2.5, 0, True):
        with pytest.raises(ValueError, match="workers must be >= 1 and an integer"):
            analyze(cube, sampler, haar, 3, workers=workers)


def _bitwise_equal(a, b):
    return np.array_equal(a.coarse.view(np.int64), b.coarse.view(np.int64)) \
        and all(np.array_equal(a.level(j).view(np.int64), b.level(j).view(np.int64))
                for j in a.level_range())


@settings(max_examples=60)
@given(name=st.sampled_from(["cube", "fichera", "moved_cube", "frustum"]),
       order=st.sampled_from([1, 2]), edge=st.booleans(),
       workers=st.sampled_from([1, 2]), data=st.data())
def test_analyze_on_the_support_is_bitwise_the_full_grid(name, order, edge,
                                                         workers, data):
    surface = _frustum() if name == "frustum" else _SURFACES[name]
    basis = haar_basis() if order == 1 else multiwavelet_basis()
    model = _draw_support_model(surface, edge, data)
    J = basis.j_star + data.draw(st.integers(0, 2))
    got = analyze(surface, model, basis, J, workers=workers)
    # a plain callable declares no support, so it takes the full-grid path;
    # this one is the model's formula over interleaved (N, 3) points
    want = analyze(surface, lambda pts: _call_oracle(model, pts), basis, J)
    assert _bitwise_equal(got, want)


def _draw_support_model(surface, edge, data):
    """A vertex or edge model on `surface`, its radii drawn in units of the
    shortest edge."""
    h = surface.min_edge
    frac = st.floats(0.02, 1.5)
    if edge:
        ids = surface.patches[data.draw(st.integers(0, surface.n_patches - 1))].corner_ids
        k = data.draw(st.integers(0, 3))
        lo = data.draw(frac) * h
        return EdgePowerModel(surface, ids[k], ids[(k + 1) % 4],
                              data.draw(st.floats(0.1, 1.0)),
                              band=(lo, lo + data.draw(frac) * h),
                              width=data.draw(frac) * h / 4)
    cut0 = data.draw(frac) * h
    return VertexPowerModel(surface, data.draw(st.integers(0, surface.n_vertices - 1)),
                            data.draw(st.floats(-0.4, 1.5)),
                            cut=(cut0, cut0 + data.draw(frac) * h))


def _bits(a):
    return np.asarray(a, dtype=float).view(np.int64)


@settings(max_examples=80, deadline=None)
@given(name=st.sampled_from(["cube", "fichera", "moved_cube", "frustum"]),
       posed=st.booleans(), edge=st.booleans(), data=st.data())
def test_the_component_form_is_bitwise_the_interleaved_formula(name, posed,
                                                               edge, data):
    surface = _frustum() if name == "frustum" else _SURFACES[name]
    if posed:
        q = data.draw(st.lists(st.floats(-1.0, 1.0), min_size=4, max_size=4))
        assume(np.linalg.norm(q) > 0.1)
        surface = _posed(name, q, 10.0 ** data.draw(st.floats(-3.0, 3.0)),
                         data.draw(st.lists(st.floats(-3.0, 3.0), min_size=3,
                                            max_size=3)))
    model = _draw_support_model(surface, edge, data)
    patch = surface.patches[data.draw(st.integers(0, surface.n_patches - 1))]
    grid = st.lists(st.floats(0.0, 1.0), min_size=1, max_size=24)
    xs, ys = np.sort(data.draw(grid)), np.sort(data.draw(grid))
    pts = patch.chart(xs[:, None], ys[None, :])
    # a grid point on the vertex is d = 0, infinite at a negative beta
    with np.errstate(divide="ignore"):
        want = _call_oracle(model, pts.reshape(-1, 3)).reshape(pts.shape[:2])
        # +0.0 is sampled off the parameter box of the support ball
        got = wavelets._sample(model, patch, patch._ball_box(*model._support),
                               xs, ys)
        assert np.array_equal(_bits(np.zeros_like(want) if got is None else got),
                              _bits(want))
        # __call__ on the interleaved points, of any leading shape
        assert np.array_equal(_bits(model(pts)), _bits(_call_oracle(model, pts)))
        assert np.array_equal(_bits(model(pts[0, 0])), _bits(want[:1, 0]))


@pytest.mark.parametrize("name", ["cube", "fichera", "frustum"])
def test_analyze_block_size_changes_no_bit(name, haar, alpert2, monkeypatch):
    surface = _frustum() if name == "frustum" else _SURFACES[name]
    h = surface.min_edge
    model = VertexPowerModel(surface, 0, 0.6, cut=(0.3 * h, 0.7 * h))
    plain = lambda pts: np.exp(pts @ np.array([0.3, -0.2, 0.5]))
    # at J=6 a default block holds 16 of a level's 64 rows of cells
    J = 5 if name == "fichera" else 6
    runs = [(sampler, basis, workers) for basis in (haar, alpert2)
            for sampler, workers in ((model, 2), (plain, 1))]

    def fields():
        return [analyze(surface, sampler, basis, J, workers=workers)
                for sampler, basis, workers in runs]

    want = fields()
    for block in (1, 1 << 30):
        monkeypatch.setattr(wavelets, "_ANALYZE_BLOCK", block)
        assert all(map(_bitwise_equal, fields(), want))


def test_analyze_runs_in_bounded_memory(cube, haar):
    # the level-8 grid of a patch has 4096^2 points; sampled in one block
    # per job, analyze peaked at about 228 MB, in blocks at about 21 MB
    model = VertexPowerModel(cube, 0, 0.6)
    tracemalloc.start()
    try:
        analyze(cube, model, haar, 8, workers=2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64e6


@pytest.mark.parametrize("name", ["cube", "fichera", "moved_cube", "frustum"])
def test_ball_box_never_cuts_into_the_ball(name, rng):
    surface = _frustum() if name == "frustum" else _SURFACES[name]
    lo, hi = surface.vertices.min(axis=0), surface.vertices.max(axis=0)
    grid = np.linspace(0.0, 1.0, 101)
    for patch in surface.patches:
        pts = patch.chart(grid[:, None], grid[None, :])
        for k in range(12):
            r = rng.uniform(0.05, 0.8) * float(np.max(hi - lo))
            center = rng.uniform(lo, hi)
            if k >= 8:      # balls that just touch, or just miss, the plane
                center = (patch.chart(*grid[rng.integers(0, 101, 2)])
                          + patch.normal * r * (1.0 + 1e-9 * (k - 10)))
            (s0, s1), (t0, t1) = patch._ball_box(center, r)
            outside = ~(((grid >= s0) & (grid <= s1))[:, None]
                        & ((grid >= t0) & (grid <= t1))[None, :])
            assert (np.linalg.norm(pts - center, axis=-1)[outside] >= r).all()
    if name == "frustum":
        assert not any(bem._is_affine(p) for p in surface.patches[2:])


def test_plain_callables_see_every_grid_point(cube, haar):
    calls = []

    def plain(pts):
        calls.append(pts.shape)
        return np.ones(len(pts))

    J, q = 3, haar.quad_order
    analyze(cube, plain, haar, J)
    # the dtype probe, then the coarse grid and, per level j, the grid of
    # two sub-cells per cell, on every patch
    per_patch = q ** 2 + sum((2 * q << j) ** 2 for j in range(J + 1))
    assert sum(n for n, _ in calls) == 1 + cube.n_patches * per_patch
    assert all(shape[1:] == (3,) for shape in calls)

    class CountingVertexModel(VertexPowerModel):
        seen = 0

        def _eval_xyz(self, x, y, z):
            self.seen += x.size
            return super()._eval_xyz(x, y, z)

    model = CountingVertexModel(cube, 0, 0.6)
    analyze(cube, model, haar, J)
    # the probe point, then a quarter of each of the 3 faces that the ball
    # of radius 1/2 about a corner meets
    assert model.seen == 1 + 3 * per_patch // 4


def test_synthesize_at_points(cube, haar):
    field = synth_field(cube, haar, "random_besov", 2, spec=_any_spec(), seed=5)
    patch = cube.patches[2]
    S = np.array([0.12, 0.55, 0.81])
    T = np.array([0.33, 0.9, 0.05])
    want = synthesize_params(field, 2, S, T)
    got = synthesize(field, patch.chart(S, T))
    assert np.allclose(got, want, atol=1e-12)


@pytest.mark.parametrize("s", [1e-6, 1.0, 1e6])
def test_synthesize_plane_test_is_in_surface_units(haar, s):
    # at s = 1e-6 an absolute 1e-9 floor located a point 7e-4 cube
    # lengths off the face
    desc = unit_cube()
    desc["vertices"] = [[s * x for x in v] for v in desc["vertices"]]
    surf = load_surface(desc)
    field = synth_field(surf, haar, "random_besov", 2, spec=_any_spec(), seed=5)
    patch = surf.patches[2]
    on = patch.chart(np.array([0.4]), np.array([0.6]))[0]
    want = synthesize_params(field, 2, np.array([0.4]), np.array([0.6]))[0]
    assert synthesize(field, on + 1e-10 * s * patch.normal) == pytest.approx(
        want, rel=1e-9)
    with pytest.raises(ValueError, match="not located on any patch"):
        synthesize(field, on + 7e-4 * s * patch.normal)


def test_moment_spot_checks(cube, haar, alpert2):
    idx = WaveletIndex(3, 0, 1, 3, 4, 0, 0)
    # Haar wavelets kill constants; order-2 wavelets kill all of P1
    assert moment_check(cube, haar, idx, [[1.0]]) < 1e-14
    for coeffs in ([[1.0]], [[0.0, 1.0]], [[0.0], [1.0]]):
        assert moment_check(cube, alpert2, idx, coeffs) < 1e-14
    with pytest.raises(ValueError):
        moment_check(cube, haar, idx, [[0.0, 1.0]])  # degree 1 >= dt


def test_moment_check_refuses_boundary(cube, haar):
    edge_idx = WaveletIndex(3, 0, 1, 0, 4, 0, 0)
    with pytest.raises(ValueError):
        moment_check(cube, haar, edge_idx, [[1.0]])


def test_moment_check_refuses_generators_and_foreign_indices(cube, haar):
    with pytest.raises(ValueError, match="generator"):
        moment_check(cube, haar, WaveletIndex(-1, 0, 0, 0, 0), [[1.0]])
    for idx in (WaveletIndex(3, 6, 1, 3, 4), WaveletIndex(3, -1, 1, 3, 4),
                WaveletIndex(3, 0, 1, 8, 4), WaveletIndex(3, 0, 1, 3, -2)):
        with pytest.raises(ValueError, match="outside"):
            moment_check(cube, haar, idx, [[1.0]])


def _classify_matches(surface, j, patches):
    mask = classify_level(surface, haar_basis(), j)
    cells = 1 << j
    for i in patches:
        for k1 in range(cells):
            for k2 in range(cells):
                idx = WaveletIndex(j, i, 1, k1, k2, 0, 0)
                assert classify_index(surface, haar_basis(), idx) is bool(mask[i, k1, k2])
    return mask


def test_classify_level_matches_classify_index(cube):
    mask = _classify_matches(cube, 3, (0, 4))
    # the outermost ring can never be interior
    assert not mask[:, 0, :].any()
    assert not mask[:, -1, :].any()
    assert not mask[:, :, 0].any()
    assert not mask[:, :, -1].any()


@pytest.mark.parametrize("name", ["fichera", "moved_cube"])
@pytest.mark.parametrize("j", [2, 3, 4, 5, 6])
def test_classify_level_matches_classify_index_off_the_cube(fichera, name, j):
    surface = fichera if name == "fichera" else _moved_cube()
    n = surface.n_patches
    mask = _classify_matches(surface, j, (0, n // 2, n - 1))
    assert mask.shape == (n, 1 << j, 1 << j)
    if j >= 4:
        assert mask.any()


def _clearance_oracle(patch, j):
    """Every level-j cell's clearance, with the patch boundary distance taken
    one edge at a time, where `_cell_clears` uses the surface's shared edge
    distance."""
    h, k = 0.5 ** j, np.arange(1 << j)
    s0, t0 = k[:, None] * h, k[None, :] * h
    c = [patch.chart(s0 + ds, t0 + dt)
         for ds, dt in ((0.0, 0.0), (h, 0.0), (h, h), (0.0, h))]
    center = (c[0] + c[1] + c[2] + c[3]) / 4.0
    radius = np.sqrt(((c[0] - center) ** 2).sum(-1))
    for ck in c[1:]:
        radius = np.maximum(radius, np.sqrt(((ck - center) ** 2).sum(-1)))
    dist = np.inf
    for ke in range(4):
        a, b = patch.corners[ke], patch.corners[(ke + 1) % 4]
        ab = b - a
        tpar = np.clip(((center - a) * ab).sum(-1) / (ab * ab).sum(-1), 0.0, 1.0)
        foot = center - (a + tpar[..., None] * ab)
        dist = np.minimum(dist, np.sqrt((foot * foot).sum(-1)))
    return dist - radius


@pytest.mark.parametrize("name", ["cube", "fichera", "moved_cube", "frustum"])
def test_classify_level_keeps_the_per_edge_clearance(name):
    surface = _surface(name)
    for j in range(1, 9):
        cells = 1 << j
        k = np.arange(cells)
        inner = (k > 0) & (k < cells - 1)
        ring = inner[:, None] & inner[None, :]
        mask = classify_level(surface, haar_basis(), j)
        for patch in surface.patches:
            unit = min(np.linalg.norm(patch.coeff_b), np.linalg.norm(patch.coeff_c))
            want = ring & (_clearance_oracle(patch, j) > 0.5 ** j * unit)
            assert np.array_equal(mask[patch.index], want)


@settings(max_examples=40, deadline=None)
@given(name=st.sampled_from(["cube", "fichera"]), j=st.sampled_from([3, 4, 5]),
       q=st.lists(st.floats(-1.0, 1.0), min_size=4, max_size=4),
       offset=st.lists(st.floats(-3.0, 3.0), min_size=3, max_size=3),
       log_s=st.floats(-6.0, 6.0))
def test_interior_counts_do_not_change_when_the_surface_turns_or_scales(
        name, j, q, offset, log_s):
    # measured against an absolute 2^-j, the unit cube's interior cells at
    # j=3 were 96 at scale 1, 0 at scale 1e-6 and 216 at scale 1e6
    assume(np.linalg.norm(q) > 0.1)
    posed = _posed(name, q, 10.0 ** log_s, offset)
    counts = [int(classify_level(s, haar_basis(), j).sum())
              for s in (_surface(name), posed)]
    assert counts[1] == counts[0]


def test_classify_level_mask_is_cached_and_read_only(cube, haar, alpert2):
    mask = classify_level(cube, haar, 4)
    assert not mask.flags.writeable
    with pytest.raises(ValueError):
        mask[0, 5, 5] = False
    # the mask is a property of the surface and the level, not of the basis
    assert classify_level(cube, alpert2, 4) is mask


def _index_values_oracle(basis, idx, x, dim):
    """1-D factor of a basis function, as evaluated before the caches."""
    fam = family_for(basis)
    j = basis.j_star if idx.etype == 0 else idx.level
    k = idx.k1 if dim == 0 else idx.k2
    m = idx.m1 if dim == 0 else idx.m2
    local = np.asarray(x) * (1 << j) - k
    inside = (local >= 0.0) & (local <= 1.0)
    use_wavelet = (idx.etype in (1, 3)) if dim == 0 else (idx.etype in (2, 3))
    vals = fam.wavelet(m, np.clip(local, 0.0, 1.0)) if use_wavelet \
        else fam.scaling(m, np.clip(local, 0.0, 1.0))
    return np.where(inside, vals, 0.0) * sqrt(2.0) ** j


def _moment_oracle(basis, idx, poly_coeffs):
    """The per-call moment formula from before the caches, for an index
    already known to be interior."""
    C = np.atleast_2d(np.asarray(poly_coeffs, dtype=float))
    deg = -1
    for aa in range(C.shape[0]):
        for bb in range(C.shape[1]):
            if C[aa, bb] != 0.0:
                deg = max(deg, aa + bb)
    j = idx.level
    order = max(basis.quad_order, basis.d + max(deg, 0) // 2 + 1)
    x, w = unit_rule(order)
    half = 0.5 ** (j + 1)
    xs = np.concatenate([idx.k1 * 2 * half + x * half, idx.k1 * 2 * half + half + x * half])
    ws = np.concatenate([w * half, w * half])
    xt = np.concatenate([idx.k2 * 2 * half + x * half, idx.k2 * 2 * half + half + x * half])
    S, T = np.meshgrid(xs, xt, indexing="ij")
    P = np.polynomial.polynomial.polyval2d(S, T, C)
    vals = _index_values_oracle(basis, idx, S, 0) * _index_values_oracle(basis, idx, T, 1)
    return float(abs(np.sum(np.outer(ws, ws) * P * vals)))


_SURFACES = {"cube": load_surface(unit_cube()),
             "fichera": load_surface(fichera_corner()),
             "moved_cube": _moved_cube()}
_COEFF = st.one_of(st.just(0.0), st.floats(-1e3, 1e3, allow_nan=False))


@settings(max_examples=200)
@given(order=st.sampled_from([1, 2]), name=st.sampled_from(sorted(_SURFACES)),
       j=st.integers(2, 5), data=st.data())
def test_moment_check_is_bitwise_the_per_call_formula(order, name, j, data):
    basis = haar_basis() if order == 1 else multiwavelet_basis()
    surface = _SURFACES[name]
    cells = np.argwhere(classify_level(surface, basis, j))
    assume(len(cells) > 0)
    i, k1, k2 = (int(v) for v in cells[data.draw(st.integers(0, len(cells) - 1))])
    idx = WaveletIndex(j, i, data.draw(st.integers(1, 3)), k1, k2,
                       data.draw(st.integers(0, order - 1)),
                       data.draw(st.integers(0, order - 1)))
    shape = data.draw(st.tuples(st.integers(1, 2), st.integers(1, 2)))
    coeffs = np.array([[data.draw(_COEFF) if a + b < basis.dt else 0.0
                        for b in range(shape[1])] for a in range(shape[0])])
    got = np.float64(moment_check(surface, basis, idx, coeffs))
    want = np.float64(_moment_oracle(basis, idx, coeffs))
    assert got.view(np.int64) == want.view(np.int64)


_SWEEP_POLYS = ([[1.0]], [[0.0], [1.0]], [[0.0, 1.0]], [[1.0, -3.0], [2.0, 0.0]])


@pytest.mark.parametrize("name", ["cube", "fichera"])
def test_moment_check_is_the_oracle_on_every_interior_index(name, haar, alpert2):
    surface = _SURFACES[name]
    for basis in (haar, alpert2):
        polys = _SWEEP_POLYS if basis.dt == 2 else _SWEEP_POLYS[:1]
        for i, k1, k2 in np.argwhere(classify_level(surface, basis, 3)).tolist():
            for e in (1, 2, 3):
                for m1 in range(basis.d):
                    for m2 in range(basis.d):
                        idx = WaveletIndex(3, i, e, k1, k2, m1, m2)
                        for P in polys:
                            got = np.float64(moment_check(surface, basis, idx, P))
                            want = np.float64(_moment_oracle(basis, idx, P))
                            assert got.view(np.int64) == want.view(np.int64)
    key = (alpert2, 3, (1, 1), np.ones((1, 1)).tobytes())
    table = wavelets._moment_table(*key)
    assert wavelets._moment_table(*key) is table
    assert not table.flags.writeable
    with pytest.raises(ValueError):
        table[0, 0, 0, 3, 4] = 1.0


def test_moment_check_builds_a_level_in_bounded_memory(cube, haar):
    classify_level(cube, haar, 9)
    idx = WaveletIndex(9, 2, 3, 200, 301)
    tracemalloc.start()
    try:
        got = np.float64(moment_check(cube, haar, idx, [[0.7]]))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the level-9 Haar table itself is 3 * 512^2 doubles, 6.3 MB
    assert peak < 32e6
    want = np.float64(_moment_oracle(haar, idx, [[0.7]]))
    assert got.view(np.int64) == want.view(np.int64)


def test_one_fine_moment_check_builds_one_block_of_rows(cube, alpert2):
    # the whole level-10 alpert2 table took 3.7 s and peaked at 115 MB
    assert classify_level(cube, alpert2, 10)[2, 341, 513]
    idx = WaveletIndex(10, 2, 3, 341, 513, 1, 0)
    P = [[0.3, 1.0], [2.0, 0.0]]
    tracemalloc.start()
    try:
        got = np.float64(moment_check(cube, alpert2, idx, P))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16e6
    want = np.float64(_moment_oracle(alpert2, idx, P))
    assert got.view(np.int64) == want.view(np.int64)


@pytest.mark.parametrize("basis_name, idx, coeffs, match", [
    ("alpert2", WaveletIndex(3, 0, 1, 3, 4, 2, 0), [[1.0]], "components"),
    ("haar", WaveletIndex(3, 0, 1, 3, 4, 1, 0), [[1.0]], "components"),
    ("haar", WaveletIndex(3, 0, 1, 3, 4, 0, -1), [[1.0]], "components"),
    ("haar", WaveletIndex(3, 0, 4, 3, 4), [[1.0]], "etype"),
    ("haar", WaveletIndex(3, 0, -1, 3, 4), [[1.0]], "etype"),
    ("haar", WaveletIndex(3, 0, 1, 3, 4), [[np.nan]], "finite"),
    ("haar", WaveletIndex(3, 0, 1, 3, 4), [[np.inf]], "finite"),
    ("haar", WaveletIndex(3, 0, 1, 3, 4), [[[1.0]]], "2-D"),
    ("haar", WaveletIndex(3, 0, 1, 3, 4), [], "non-empty"),
    ("haar", WaveletIndex(-2, 0, 1, 3, 4), [[1.0]], "level"),
    ("alpert2", WaveletIndex(1, 0, 1, 1, 1), [[1.0]], "level"),
    ("haar", WaveletIndex(3, 0, 1, 3.5, 4), [[1.0]], "non-integer"),
])
def test_moment_check_rejects_malformed_input(basis_name, idx, coeffs, match,
                                              haar, alpert2, cube):
    basis = haar if basis_name == "haar" else alpert2
    with pytest.raises(ValueError, match=match):
        moment_check(cube, basis, idx, coeffs)


def test_field_save_load_roundtrip(tmp_path, cube, haar):
    field = synth_field(cube, haar, "random_besov", 3, spec=_any_spec(), seed=1)
    path = tmp_path / "field.npz"
    save_field(field, path)
    back = load_field(path, cube)
    assert back.basis == field.basis
    assert back.J == field.J
    assert np.array_equal(back.coarse, field.coarse)
    for j in field.level_range():
        assert np.array_equal(back.level(j), field.level(j))


def test_load_field_reads_an_archive_that_records_dt_and_quad_order(tmp_path,
                                                                    cube, haar):
    # as archives did while both were settable
    field = synth_field(cube, haar, "random_besov", 2, spec=_any_spec(), seed=3)
    save_field(field, tmp_path / "field.npz")
    with np.load(tmp_path / "field.npz") as data:
        members = dict(data)
    header = json.loads(bytes(members.pop("header")).decode())
    header["basis"].update(dt=1, quad_order=4)
    np.savez(tmp_path / "older.npz", **members,
             header=np.frombuffer(json.dumps(header).encode(), np.uint8))
    back = load_field(tmp_path / "older.npz", cube)
    assert back.basis == haar
    assert np.array_equal(back.coarse, field.coarse)
    for j in field.level_range():
        assert np.array_equal(back.level(j), field.level(j))


# header changes to the basis that no saved field has
_BASIS_SPOILS = {"dt-not-d": {"dt": 2}, "quad-order-8": {"quad_order": 8},
                 "unknown-basis-key": {"extra": 1}}


@pytest.mark.parametrize("spoil", ["no-header", "header-not-json",
                                   "wrong-shape", "levels-short-of-J",
                                   *_BASIS_SPOILS])
def test_load_field_refuses_an_archive_that_is_not_a_field(tmp_path, cube,
                                                           haar, spoil):
    field = synth_field(cube, haar, "random_besov", 2, spec=_any_spec(), seed=1)
    save_field(field, tmp_path / "field.npz")
    with np.load(tmp_path / "field.npz") as data:
        members = dict(data)
    if spoil == "no-header":
        del members["header"]
    elif spoil == "header-not-json":
        members["header"] = np.frombuffer(b"{basis", dtype=np.uint8)
    elif spoil == "wrong-shape":
        members["level_1"] = members["level_1"][:, :, :1]
    else:
        header = json.loads(bytes(members.pop("header")).decode())
        if spoil == "levels-short-of-J":
            header["levels"] = header["levels"][:-1]
            del members[f"level_{field.J}"]
        else:
            header["basis"].update(_BASIS_SPOILS[spoil])
        members["header"] = np.frombuffer(json.dumps(header).encode(), np.uint8)
    bad = tmp_path / "bad.npz"
    np.savez(bad, **members)
    with pytest.raises(ValueError,
                       match=re.escape(f"{bad}: not a saved coefficient field")):
        load_field(bad, cube)


def test_field_structure(cube, haar):
    field = empty_field(haar, cube, 4)
    assert list(field.level_range()) == [0, 1, 2, 3, 4]
    assert field.level(2).shape == (6, 3, 4, 4, 1, 1)


@pytest.mark.parametrize("levels, match", [
    ((0, 1, 3), r"missing \[2\], extra \[\]"),
    ((0, 1, 2, 3, 4), r"missing \[\], extra \[4\]"),
], ids=["missing-level", "extra-level"])
def test_a_field_holds_every_level_from_j_star_to_J(cube, haar, levels, match):
    # a field without level 2 was built, and n_term_plan, besov_norm,
    # uniform_approx and level_tail_sums then raised a KeyError
    coarse, arrays = wavelets._zero_arrays(haar, cube.n_patches, 4)
    with pytest.raises(ValueError, match="a field holds levels 0..3: " + match):
        wavelets.CoefficientField(haar, 3, cube, coarse,
                                  {j: arrays[j] for j in levels})


def _whole(field, surface):
    return (list(field.levels) == list(field.level_range())
            and field.n_patches == surface.n_patches == len(field.coarse))


@settings(max_examples=30)
@given(name=st.sampled_from(["cube", "fichera"]), order=st.sampled_from([1, 2]),
       extra=st.integers(0, 2), kind=st.sampled_from(
           ["analyze", "empty", "lacunary", "random_besov", "suffix_saturator",
            "extremal_a_star"]))
def test_every_built_or_loaded_field_is_whole(tmp_path_factory, name, order,
                                              extra, kind):
    surface = _SURFACES[name]
    basis = haar_basis() if order == 1 else multiwavelet_basis()
    J = basis.j_star + extra
    if kind == "analyze":
        field = analyze(surface, lambda pts: pts[:, 0] - pts[:, 2], basis, J)
    elif kind == "empty":
        field = empty_field(basis, surface, J)
    else:
        params = {"lacunary": {"alpha": 1.0},
                  "random_besov": {"spec": _any_spec(), "seed": 3},
                  "suffix_saturator": {"gamma": 1.0, "spec": BesovSpec(0.0, 2.0, 2.0)},
                  "extremal_a_star": {"level": J, "alpha": 0.5}}[kind]
        field = synth_field(surface, basis, kind, J, **params)
    assert _whole(field, surface)
    path = tmp_path_factory.mktemp("whole") / "field.npz"
    save_field(field, path)
    back = load_field(path, surface)
    assert _whole(back, surface) and _bitwise_equal(back, field)


def _rewrite_header(src, dst, **changes):
    """Copy the archive `src` to `dst` with `changes` made to its header."""
    with np.load(src) as data:
        members = dict(data)
    header = json.loads(bytes(members.pop("header")).decode())
    header.update(changes)
    np.savez(dst, **members,
             header=np.frombuffer(json.dumps(header).encode(), np.uint8))


def test_load_field_compares_the_surface_before_the_shapes(tmp_path, cube,
                                                           fichera, haar):
    field = synth_field(cube, haar, "random_besov", 2, spec=_any_spec(), seed=2)
    save_field(field, tmp_path / "field.npz")
    with pytest.raises(ValueError, match="^surface does not match"):
        load_field(tmp_path / "field.npz", fichera)
    # an archive that records no surface, as one of a field saved without
    # its surface did, loads where its arrays fit and nowhere else
    _rewrite_header(tmp_path / "field.npz", tmp_path / "nohash.npz",
                    surface_hash=None)
    assert _bitwise_equal(load_field(tmp_path / "nohash.npz", cube), field)
    with pytest.raises(ValueError, match="not a saved coefficient field: "
                                         "coarse block shape"):
        load_field(tmp_path / "nohash.npz", fichera)


_QUERIES = {
    "classify_index": lambda f, idx: classify_index(f.surface, f.basis, idx),
    "moment_check": lambda f, idx: moment_check(f.surface, f.basis, idx, [[1.0]]),
}
_OTHER_QUERIES = {
    "synthesize_params": lambda f, idx: synthesize_params(
        f, idx.patch, np.array([0.5]), np.array([0.5])),
}
# each bad index (on a haar field of the cube up to level 3), by name, and
# the refusal that every query above gives it
_BAD_INDICES = {
    "k1-outside": (WaveletIndex(2, 0, 1, 9, 1), "outside"),
    "k2-outside": (WaveletIndex(2, 0, 1, 1, -1), "outside"),
    "patch-outside": (WaveletIndex(2, 99, 1, 1, 1), "outside"),
    "etype": (WaveletIndex(2, 0, 7, 1, 1), "etype"),
    "components": (WaveletIndex(2, 0, 1, 1, 1, 1, 0), "components"),
    "non-integer": (WaveletIndex(2, 0, 1, 1.5, 1), "non-integer"),
    "below-first-level": (WaveletIndex(-2, 0, 1, 1, 1), "below the first wavelet level"),
    # a bool patch read as patch 1, and a bool cell indexed the mask as a
    # boolean array ("truth value of an array ... is ambiguous")
    "patch-bool": (WaveletIndex(3, True, 1, 2, 2), "non-integer"),
    "k1-bool": (WaveletIndex(2, 0, 1, True, 1), "non-integer"),
    "level-bool": (WaveletIndex(True, 0, 1, 0, 1), "non-integer"),
}


@pytest.mark.parametrize("query, idx, match", [
    *[pytest.param(q, idx, match, id=f"{q}-{case}")
      for q in _QUERIES for case, (idx, match) in _BAD_INDICES.items()],
    pytest.param("classify_index", WaveletIndex(-1, 0, 0, 0, 0), "generator",
                 id="classify_index-generator"),
    pytest.param("synthesize_params", WaveletIndex(2, 99, 1, 1, 1), "outside",
                 id="synthesize_params-patch-outside"),
])
def test_every_index_query_refuses_an_index_it_does_not_hold(cube, haar, query,
                                                             idx, match):
    field = empty_field(haar, cube, 3)
    with pytest.raises(ValueError, match=match):
        {**_QUERIES, **_OTHER_QUERIES}[query](field, idx)
