import functools
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from patchwave import (
    AnalyticModel,
    ConstantModel,
    EdgePowerModel,
    FiniteDifferenceHandle,
    VertexPowerModel,
    WeightedNormDivergence,
    WeightedSpec,
    ResolutionOfUnity,
    delta_weighted_norm,
    fichera_corner,
    load_surface,
    partition_face_derivs,
    sector_q,
    unit_cube,
    weighted_sobolev_norm,
)
from patchwave import weighted
from patchwave.surface import _smooth_step_derivs
from patchwave.weighted import (_TERMS, _sector_mesh, _step_down_derivs,
                                _window_derivs)
from test_bem import _moved_cube

FAST = dict(depth=16, quad_order=4)


def test_weighted_spec():
    spec = WeightedSpec(k=2, rho=0.7)
    terms = set(spec.derivative_terms())
    assert (1, 0) in terms and (0, 1) in terms
    assert (2, 0) in terms and (1, 1) in terms and (0, 2) in terms
    with pytest.raises(ValueError):
        WeightedSpec(k=0, rho=0.5)
    with pytest.raises(ValueError):
        WeightedSpec(k=1, rho=-0.1)
    # rho beyond k stays constructible: divergence probes need it
    assert WeightedSpec(k=1, rho=1.8).rho == 1.8


def test_sector_q():
    gamma = np.pi / 2
    assert sector_q(0.0, gamma) == pytest.approx(0.0, abs=1e-15)
    assert sector_q(gamma, gamma) == pytest.approx(0.0, abs=1e-15)
    # symmetric about the bisector, maximal there
    for phi in (0.2, 0.5, 0.7):
        assert sector_q(phi, gamma) == pytest.approx(sector_q(gamma - phi, gamma))
    mid = sector_q(gamma / 2, gamma)
    assert mid >= sector_q(0.3, gamma)


def test_vertex_power_model_values(cube):
    beta = 0.6
    model = VertexPowerModel(cube, vertex=0, beta=beta)
    v = cube.vertices[0]
    inc = cube.incident_patches(0)
    patch = cube.patches[inc[0]]
    # walk along a patch diagonal away from the vertex
    s, t = patch.chart_inverse(v)
    for lam, inside in ((0.05, True), (0.12, True), (0.9, False)):
        x = patch.chart(s + lam * (0.5 - s) * 2, t + lam * (0.5 - t) * 2)
        r = np.linalg.norm(x - v)
        got = float(model(np.atleast_2d(x))[0])
        if inside and r < 0.25:
            assert got == pytest.approx(r ** beta, rel=1e-12)
        elif not inside:
            assert got == 0.0


def test_edge_power_model_values(cube):
    model = EdgePowerModel(cube, v0=0, v1=1, beta=0.5)
    a, b = cube.vertices[0], cube.vertices[1]
    direction = (b - a) / np.linalg.norm(b - a)
    # a point at small normal offset from the edge midline
    inc = [p for p in cube.patches
           if 0 in p.corner_ids and 1 in p.corner_ids][0]
    mid = 0.5 * (a + b)
    inward = inc.chart(0.5, 0.5) - mid
    inward -= np.dot(inward, direction) * direction
    inward /= np.linalg.norm(inward)
    for d in (0.01, 0.05):
        x = mid + d * inward
        got = float(model(np.atleast_2d(x))[0])
        assert got == pytest.approx(d ** 0.5, rel=1e-6)


# smooth-step arguments at the centre, in both clamp regions and on the ramp
_STEP_TS = np.concatenate([
    [-0.5, 0.0, 1e-9, 5e-8, 1e-7, 2e-7, 1 - 2e-7, 1 - 1e-7, 1 - 5e-8, 1.0, 1.5],
    np.random.default_rng(3).uniform(0.0, 1.0, 256)])


def _around(center, radii, seed=5):
    rng = np.random.default_rng(seed)
    dirs = rng.normal(size=(16, 3))
    dirs /= np.linalg.norm(dirs, axis=1)[:, None]
    return (center + radii[:, None, None] * dirs).reshape(-1, 3)


def test_vertex_model_values_are_the_derivative_path_values(cube):
    # a ramp width that is not a power of two, so rounding shows
    model = VertexPowerModel(cube, vertex=0, beta=0.6, cut=(0.2, 0.47))
    w = model.cut1 - model.cut0
    radii = np.concatenate([[0.0], model.cut1 - _STEP_TS * w])
    pts = _around(model.center, radii)
    d = np.linalg.norm(pts - model.center, axis=-1)
    want = d ** model.beta * _step_down_derivs(d, model.cut0, model.cut1)[0]
    got = model(pts)
    assert np.array_equal(got.view(np.int64), want.view(np.int64))
    t = (model.cut1 - d) / w
    assert (got[d == 0.0] == 0.0).all() and (d == 0.0).sum() == 16
    assert (got[t <= 1e-7] == 0.0).all()
    assert (got[t >= 1 - 1e-7] == d[t >= 1 - 1e-7] ** model.beta).all()
    ramp = (t > 0.01) & (t < 0.99)
    assert ramp.any() and (got[ramp] > 0.0).all()


def test_edge_model_values_are_the_derivative_path_values(cube):
    model = EdgePowerModel(cube, v0=0, v1=1, beta=0.5)
    (lo, hi), width = model.band, model.width
    radii = np.concatenate([[0.0], lo + _STEP_TS * width,
                            hi - _STEP_TS * width, [0.4]])
    pts = _around(model.a, radii)
    w = pts - model.a
    dl = np.linalg.norm(w - (w @ model.direction)[:, None] * model.direction,
                        axis=-1)
    dv = np.linalg.norm(w, axis=-1)
    want = dl ** model.beta * _window_derivs(dv, lo, hi, width)[0]
    got = model(pts)
    assert np.array_equal(got.view(np.int64), want.view(np.int64))
    assert (got[dv <= lo] == 0.0).all() and (got[dv >= hi] == 0.0).all()
    plateau = (dv >= lo + width) & (dv <= hi - width)
    assert plateau.any()
    assert (got[plateau] == dl[plateau] ** model.beta).all()


def test_models_reject_foreign_vertices(cube):
    for bad in (8, -1, 1.0):
        with pytest.raises(ValueError, match="vertex id in \\[0, 8\\)"):
            VertexPowerModel(cube, vertex=bad, beta=0.5)
    with pytest.raises(ValueError, match="v1 must be a vertex id"):
        EdgePowerModel(cube, v0=0, v1=8, beta=0.5)
    with pytest.raises(ValueError, match="must differ"):
        EdgePowerModel(cube, v0=2, v1=2, beta=0.5)


def test_analytic_vs_finite_difference(cube):
    func = lambda p: np.sin(p[:, 0] + 2 * p[:, 1]) * np.exp(p[:, 2])  # noqa: E731

    def grad(p):
        g = np.empty_like(p)
        g[:, 0] = np.cos(p[:, 0] + 2 * p[:, 1]) * np.exp(p[:, 2])
        g[:, 1] = 2 * np.cos(p[:, 0] + 2 * p[:, 1]) * np.exp(p[:, 2])
        g[:, 2] = np.sin(p[:, 0] + 2 * p[:, 1]) * np.exp(p[:, 2])
        return g

    exact = AnalyticModel(cube, func, grad)
    fd = FiniteDifferenceHandle(cube, func)
    Y = np.array([[0.3, 0.2], [0.6, 0.45], [0.1, 0.8]])
    for n, t in ((0, 0), (3, 1)):
        de = exact.face_derivs(n, t, Y, upto=1)
        dn = fd.face_derivs(n, t, Y, upto=1)
        for key in ((0, 0), (1, 0), (0, 1)):
            assert np.allclose(dn[key], de[key], rtol=1e-6, atol=1e-8)


def test_constant_model_norm_finite(cube, rou):
    handle = ConstantModel(cube, 1.0)
    value = weighted_sobolev_norm(handle, cube, rou, WeightedSpec(1, 0.5),
                                  **FAST)
    assert np.isfinite(value) and value > 0.0


def test_norm_reports_per_term(cube, rou):
    handle = ConstantModel(cube, 1.0)
    report = weighted._norm_terms(handle, cube, rou, WeightedSpec(1, 0.5),
                                  workers=1, **FAST)
    # one L2 entry per cone face plus one entry per derivative term
    faces = sum(len(cube.cone_faces(n)) for n in range(cube.n_vertices))
    assert sum(1 for key in report if key[2] == (0, 0)) == faces
    assert all(v >= 0.0 for v in report.values())


def test_divergence_detected(cube, rou):
    # rho = 1.5 is far beyond the vertex threshold beta + 1 = 1.2
    handle = VertexPowerModel(cube, vertex=0, beta=0.2)
    with pytest.raises(WeightedNormDivergence) as err:
        weighted_sobolev_norm(handle, cube, rou, WeightedSpec(1, 1.5),
                              depth=24, quad_order=4)
    assert err.value.vertex == 0


@pytest.mark.parametrize("workers", [1, 2])
def test_divergence_stops_at_the_first_divergent_face(cube, rou, monkeypatch,
                                                      workers):
    # the norm of `embed-check --model vertex --beta=-0.3 --rho 0.9`: term
    # (1, 0) of the first face diverges, and a serial run computes no other
    faces = []
    face_table = weighted._face_table

    def counted(*args):
        faces.append(args[4:6])
        return face_table(*args)

    monkeypatch.setattr(weighted, "_face_table", counted)
    handle = VertexPowerModel(cube, vertex=0, beta=-0.3)
    with pytest.raises(WeightedNormDivergence) as err:
        weighted_sobolev_norm(handle, cube, rou, WeightedSpec(1, 0.9),
                              workers=workers)
    assert (err.value.vertex, err.value.patch, err.value.term) == (0, 0, (1, 0))
    if workers == 1:
        assert faces == [(0, 0)]


@pytest.mark.parametrize("depth", [0, 3, 5])
def test_depth_must_exceed_the_divergence_window(cube, rou, depth):
    # the test reads the deepest 5 shells, so at depth 5 this divergent norm
    # returned 10.77 (depth 6 raises), and at depth 0 numpy failed
    handle = VertexPowerModel(cube, vertex=0, beta=-0.3)
    spec = WeightedSpec(1, 0.9)
    with pytest.raises(ValueError, match="depth must exceed the 5-shell"):
        weighted_sobolev_norm(handle, cube, rou, spec, depth=depth)
    with pytest.raises(ValueError, match="depth must exceed the 5-shell"):
        delta_weighted_norm(handle, cube, rou, spec, 0, depth=depth)
    with pytest.raises(WeightedNormDivergence):
        weighted_sobolev_norm(handle, cube, rou, spec, depth=6, quad_order=4)


def test_delta_weighted_norm_runs(cube, rou):
    handle = ConstantModel(cube, 1.0)
    value = delta_weighted_norm(handle, cube, rou, WeightedSpec(1, 0.5), 0,
                                depth=16, quad_order=4)
    assert np.isfinite(value) and value > 0.0


def test_workers_do_not_change_the_norm(cube, rou):
    handle = ConstantModel(cube, 1.0)
    spec = WeightedSpec(1, 0.5)
    v1 = weighted_sobolev_norm(handle, cube, rou, spec, workers=1, **FAST)
    v4 = weighted_sobolev_norm(handle, cube, rou, spec, workers=4, **FAST)
    assert v1 == v4
    # a fraction went on to ThreadPoolExecutor unchecked
    for workers in (2.5, 0, -3, True):
        with pytest.raises(ValueError, match="workers must be >= 1 and an integer"):
            weighted_sobolev_norm(handle, cube, rou, spec, workers=workers, **FAST)


# -- the norm evaluates a model only where its support ball reaches -----------


class _NoSupport:
    """A model's face derivatives without its support ball: every mesh row."""

    def __init__(self, model):
        self.face_derivs = model.face_derivs


def _outcome(fn, *args, **kwargs):
    """fn's value (or per-term dict) as int64 bits, or the divergence it
    raises."""
    bits = lambda x: np.float64(x).view(np.int64)
    try:
        result = fn(*args, **kwargs)
    except WeightedNormDivergence as exc:
        return exc.vertex, exc.patch, exc.term, exc.growths
    if isinstance(result, dict):
        return {key: bits(v) for key, v in result.items()}
    return bits(result)


@functools.cache
def _surface_and_rou(name):
    surface = {"cube": lambda: load_surface(unit_cube()),
               "fichera": lambda: load_surface(fichera_corner()),
               "moved_cube": _moved_cube}[name]()
    return surface, ResolutionOfUnity(surface)


@settings(max_examples=16)
@given(name=st.sampled_from(["cube", "fichera", "moved_cube"]),
       edge=st.booleans(), k=st.sampled_from([1, 2]),
       workers=st.sampled_from([1, 2]), data=st.data())
def test_the_norm_on_the_support_is_bitwise_the_full_mesh(name, edge, k,
                                                          workers, data):
    surface, rou = _surface_and_rou(name)
    h = surface.min_edge
    frac = st.floats(0.05, 1.0)
    if edge:
        ids = surface.patches[data.draw(st.integers(0, surface.n_patches - 1))].corner_ids
        j = data.draw(st.integers(0, 3))
        lo = data.draw(frac) * h / 2
        model = EdgePowerModel(surface, ids[j], ids[(j + 1) % 4],
                               data.draw(st.floats(0.1, 1.0)),
                               band=(lo, lo + data.draw(frac) * h / 2),
                               width=data.draw(frac) * h / 8)
        vertex = ids[j]
    else:
        cut0 = data.draw(frac) * h / 2
        vertex = data.draw(st.integers(0, surface.n_vertices - 1))
        model = VertexPowerModel(surface, vertex, data.draw(st.floats(-0.4, 1.5)),
                                 cut=(cut0, cut0 + data.draw(frac) * h / 2))
    spec = WeightedSpec(k, 0.5)
    assert (_outcome(weighted._norm_terms, model, surface, rou, spec,
                     workers=workers, **FAST)
            == _outcome(weighted._norm_terms, _NoSupport(model), surface,
                        rou, spec, workers=1, **FAST))
    assert (_outcome(delta_weighted_norm, model, surface, rou, spec,
                     vertex, **FAST)
            == _outcome(delta_weighted_norm, _NoSupport(model), surface,
                        rou, spec, vertex, **FAST))


def test_face_derivs_only_where_the_support_ball_reaches(cube, rou,
                                                         monkeypatch):
    # the ball of radius 0.5 about vertex 0 reaches its own three faces up to
    # radius 0.5, and the six faces of its neighbours that lie in a plane
    # through it from radius 1 - 0.5 = 0.5 on; sectors have radius 0.75
    calls, partitions = {}, []
    model = VertexPowerModel(cube, 0, 0.6)
    face_derivs = model.face_derivs

    # the face table runs in row blocks, so a face may be called more than
    # once: count its points over the calls
    def counted(n, t, Y, upto=2):
        calls[(n, t)] = calls.get((n, t), 0) + len(Y)
        return face_derivs(n, t, Y, upto)

    def partition(resolution, n, t, *args):
        partitions.append((n, t))
        return partition_face_derivs(resolution, n, t, *args)

    model.face_derivs = counted
    monkeypatch.setattr(weighted, "partition_face_derivs", partition)
    weighted_sobolev_norm(model, cube, rou, WeightedSpec(1, 0.5))
    (rn, _, _), (pn, _, _) = _sector_mesh(0.75, np.pi / 2, 32, 8)
    own = {(0, t) for t in range(3)}
    touched = {(n, t) for n in (1, 3, 4) for t, face in
               enumerate(cube.cone_faces(n))
               if abs((cube.vertices[0] - face.apex) @ face.normal) < 0.5}
    assert len(touched) == 6 and set(calls) == own | touched
    assert set(partitions) == set(calls)
    inner, outer = int((rn <= 0.5).sum()), int((rn >= 0.5).sum())
    assert (inner, outer) == (251, 5)
    assert all(calls[face] == inner * len(pn) for face in own)
    assert all(calls[face] == outer * len(pn) for face in touched)


@pytest.mark.parametrize("name, case", [("cube", "vertex"), ("cube", "plain"),
                                        ("fichera", "edge")])
def test_face_block_size_changes_no_bit(name, case, monkeypatch):
    surface, rou = _surface_and_rou(name)
    h = surface.min_edge
    # the default mesh (256 x 512 points a face) splits into row blocks
    mesh = dict(depth=32, quad_order=8)
    if case == "vertex":
        handle, spec = VertexPowerModel(surface, 0, 0.6), WeightedSpec(1, 0.5)
    elif case == "plain":
        handle, spec = _NoSupport(VertexPowerModel(surface, 0, 0.6)), \
            WeightedSpec(2, 1.2)
        mesh = FAST
    else:
        handle = EdgePowerModel(surface, 0, 1, 0.6, band=(0.1 * h, 0.4 * h),
                                width=0.05 * h)
        spec = WeightedSpec(2, 1.2)

    def outcome():
        return (_outcome(weighted._norm_terms, handle, surface, rou, spec,
                         workers=2, **mesh),
                _outcome(delta_weighted_norm, handle, surface, rou, spec, 0,
                         **mesh))

    want = outcome()
    for block in (1, 1 << 30):
        monkeypatch.setattr(weighted, "_FACE_BLOCK", block)
        assert outcome() == want


def test_edge_model_derivatives_warn_nowhere_and_vanish_on_the_line():
    # mesh points that round onto the edge line made 0/0 in the line's
    # table; a caller's np.errstate does not reach the weighted norm's pool
    # threads, so every run printed four RuntimeWarnings from there
    surface, rou = _surface_and_rou("fichera")
    h = surface.min_edge
    handle = EdgePowerModel(surface, 0, 1, 0.6, band=(0.1 * h, 0.4 * h),
                            width=0.05 * h)
    spec, mesh = WeightedSpec(2, 1.2), dict(depth=32, quad_order=8)
    on_line = 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        by_workers = [_outcome(weighted._norm_terms, handle, surface, rou, spec,
                               workers=workers, **mesh) for workers in (1, 2)]
        for n, t, face, pts in _sector_faces(surface, rou):
            on = weighted._line_distance(pts, face.e1, face.e2, handle.a,
                                         handle.direction)[(0, 0)] == 0.0
            on_line += int(on.sum())
            for v in handle.plane_derivs(pts, face.e1, face.e2).values():
                assert not v[on].view(np.int64).any()       # all +0.0
    assert by_workers[0] == by_workers[1]
    assert on_line > 0


def test_the_weighted_norm_runs_in_bounded_memory(cube, rou):
    # a face's mesh has 256 x 512 points; in one block the norm peaked at
    # about 78 MB, in row blocks at about 25 MB
    model = VertexPowerModel(cube, 0, 0.6)
    tracemalloc.start()
    try:
        weighted_sobolev_norm(model, cube, rou, WeightedSpec(1, 1.2), workers=2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 40e6


def test_edge_norm_is_finite_on_the_fichera_corner(cube, fichera):
    # the mesh has points rounded onto the edge line near vertex 0, in the
    # annulus's hole: the line distance's table is 0/0 there, the model's
    # +0.0. Vertex 0 of both surfaces sees the same corner, so the norms agree
    spec = WeightedSpec(1, 0.5)
    value = weighted_sobolev_norm(EdgePowerModel(fichera, 0, 1, 0.6), fichera,
                                  ResolutionOfUnity(fichera), spec, **FAST)
    want = weighted_sobolev_norm(EdgePowerModel(cube, 0, 1, 0.6), cube,
                                 ResolutionOfUnity(cube), spec, **FAST)
    assert np.isfinite(value) and value == pytest.approx(want, rel=1e-12)


def _nan_near_vertex_0(surface):
    v = surface.vertices[0]
    return AnalyticModel(
        surface,
        lambda pts: np.where(np.linalg.norm(pts - v, axis=-1) < 0.1, np.nan, 0.0),
        lambda pts: np.zeros((len(pts), 3)))


def test_a_nan_in_a_sector_is_a_value_error(cube, rou):
    patch = cube.cone_faces(0)[0].patch
    with pytest.raises(ValueError, match=f"not finite at vertex 0, face patch "
                                         rf"{patch}, derivative term \(0, 0\)"):
        weighted_sobolev_norm(_nan_near_vertex_0(cube), cube, rou,
                              WeightedSpec(1, 0.5), **FAST)


# -- the hand-expanded derivative tables, kept as oracles ---------------------


def _point_distance_oracle(pts, e1, e2, center):
    w = pts - center
    d = np.linalg.norm(w, axis=-1)
    d1 = w @ e1 / d
    d2 = w @ e2 / d
    return d, (d1, d2), ((1.0 - d1 * d1) / d, (-d1 * d2) / d,
                         (1.0 - d2 * d2) / d)


def _vertex_plane_derivs_oracle(model, pts, e1, e2):
    d, (d1, d2), (d11, d12, d22) = _point_distance_oracle(pts, e1, e2,
                                                          model.center)
    g, gp, gpp = model._G(d)
    return {(0, 0): g, (1, 0): gp * d1, (0, 1): gp * d2,
            (2, 0): gpp * d1 * d1 + gp * d11,
            (1, 1): gpp * d1 * d2 + gp * d12,
            (0, 2): gpp * d2 * d2 + gp * d22}


def _edge_plane_derivs_oracle(model, pts, e1, e2):
    b, direction = model.beta, model.direction
    w = pts - model.a
    perp = w - (w @ direction)[:, None] * direction[None, :]
    dl = np.linalg.norm(perp, axis=-1)
    f1 = e1 - (e1 @ direction) * direction
    f2 = e2 - (e2 @ direction) * direction
    l1, l2 = perp @ f1 / dl, perp @ f2 / dl
    l11 = (f1 @ f1 - l1 * l1) / dl
    l12 = (f1 @ f2 - l1 * l2) / dl
    l22 = (f2 @ f2 - l2 * l2) / dl
    dv, (v1, v2), (v11, v12, v22) = _point_distance_oracle(pts, e1, e2,
                                                           model.a)
    g, gp, gpp = dl ** b, b * dl ** (b - 1.0), b * (b - 1.0) * dl ** (b - 2.0)
    A, A1, A2 = _window_derivs(dv, *model.band, model.width)
    return {(0, 0): g * A,
            (1, 0): gp * l1 * A + g * A1 * v1,
            (0, 1): gp * l2 * A + g * A1 * v2,
            (2, 0): (gpp * l1 * l1 + gp * l11) * A + 2 * gp * l1 * A1 * v1
            + g * (A2 * v1 * v1 + A1 * v11),
            (1, 1): (gpp * l1 * l2 + gp * l12) * A
            + gp * (l1 * v2 + l2 * v1) * A1 + g * (A2 * v1 * v2 + A1 * v12),
            (0, 2): (gpp * l2 * l2 + gp * l22) * A + 2 * gp * l2 * A1 * v2
            + g * (A2 * v2 * v2 + A1 * v22)}


def _partition_face_derivs_oracle(resolution, n, pts, e1, e2):
    surf = resolution.surface
    S = [np.zeros(len(pts)) for _ in range(6)]
    own = None
    for m in range(surf.n_vertices):
        w = pts - surf.vertices[m]
        d = np.linalg.norm(w, axis=-1)
        if not np.any(d < resolution.r1[m]) and m != n:
            continue
        width = resolution.r1[m] - resolution.r0[m]
        psi, v1, v2 = _smooth_step_derivs((resolution.r1[m] - d) / width)
        flat = d <= resolution.r0[m]
        psi1 = np.where(flat, 0.0, -v1 / width)
        psi2 = np.where(flat, 0.0, v2 / width ** 2)
        dsafe = np.maximum(d, 1e-300)
        d1 = w @ e1 / dsafe
        d2 = w @ e2 / dsafe
        b = (psi, psi1 * d1, psi1 * d2,
             psi2 * d1 * d1 + psi1 * ((1.0 - d1 * d1) / dsafe),
             psi2 * d1 * d2 + psi1 * (-d1 * d2 / dsafe),
             psi2 * d2 * d2 + psi1 * ((1.0 - d2 * d2) / dsafe))
        for acc, term in zip(S, b):
            acc += term
        if m == n:
            own = b
    (S0, S1, S2, S11, S12, S22), (b, b1, b2, b11, b12, b22) = S, own
    phi = b / S0
    p1 = (b1 - phi * S1) / S0
    p2 = (b2 - phi * S2) / S0
    return {(0, 0): phi, (1, 0): p1, (0, 1): p2,
            (2, 0): (b11 - 2.0 * p1 * S1 - phi * S11) / S0,
            (1, 1): (b12 - p1 * S2 - p2 * S1 - phi * S12) / S0,
            (0, 2): (b22 - 2.0 * p2 * S2 - phi * S22) / S0}


def _sector_faces(surface, resolution, depth=32, order=2):
    """(n, t, face, points) for every cone face's graded sector mesh."""
    for n in range(surface.n_vertices):
        for t, face in enumerate(surface.cone_faces(n)):
            (rn, _, _), (pn, _, _) = _sector_mesh(float(resolution.r1[n]),
                                                  face.gamma, depth, order)
            R, PHI = np.meshgrid(rn, pn, indexing="ij")
            y1, y2 = (R * np.cos(PHI)).ravel(), (R * np.sin(PHI)).ravel()
            yield n, t, face, (face.apex + y1[:, None] * face.e1
                               + y2[:, None] * face.e2)


def _same_bits(got, want):
    assert got.keys() == want.keys()
    for ab in want:
        assert np.array_equal(np.asarray(got[ab]).view(np.int64),
                              np.asarray(want[ab]).view(np.int64)), ab


@pytest.mark.parametrize("name", ["cube", "fichera", "moved_cube"])
def test_chain_rule_tables_match_the_hand_expanded_ones(name, cube, fichera):
    surface = {"cube": cube, "fichera": fichera,
               "moved_cube": _moved_cube()}[name]
    rou = ResolutionOfUnity(surface)
    h = surface.min_edge
    worst_edge = 0.0
    for n, t, face, pts in _sector_faces(surface, rou):
        e1, e2 = face.e1, face.e2
        _same_bits(partition_face_derivs(rou, n, t, pts, e1, e2),
                   _partition_face_derivs_oracle(rou, n, pts, e1, e2))
        model = VertexPowerModel(surface, n, 0.6)
        _same_bits(model.plane_derivs(pts, e1, e2),
                   _vertex_plane_derivs_oracle(model, pts, e1, e2))
        # the edge from the apex along the face's first ray
        others = [v for v in surface.patches[face.patch].corner_ids if v != n]
        ray = [(surface.vertices[v] - face.apex) @ e1
               / np.linalg.norm(surface.vertices[v] - face.apex) for v in others]
        edge = EdgePowerModel(surface, n, others[int(np.argmax(ray))], 0.6,
                              band=(0.2 * h, 0.6 * h), width=0.08 * h)
        got = edge.plane_derivs(pts, e1, e2)
        with np.errstate(divide="ignore", invalid="ignore"):
            want = _edge_plane_derivs_oracle(edge, pts, e1, e2)
        assert got.keys() == want.keys()
        for ab in want:
            # mesh points that round onto the edge line are 0/0 in the
            # oracle; they lie in the annulus's hole, where u is +0.0
            finite = np.isfinite(want[ab])
            assert (got[ab][~finite] == 0.0).all(), (n, t, ab)
            err = float(np.abs(got[ab] - want[ab])[finite].max())
            scale = float(np.abs(want[ab])[finite].max())
            assert err <= 1e-13 * scale, (n, t, ab)
            worst_edge = max(worst_edge, err / scale if scale else 0.0)
    assert worst_edge <= 1e-13


def _shrunk_faces(surface, rou, radius, lift=0.0):
    """_sector_faces pulled toward the apex to `radius(n)` and moved `lift`
    along the face normal."""
    for n, t, face, pts in _sector_faces(surface, rou):
        normal = np.cross(face.e1, face.e2)
        scale = radius(n) / float(rou.r1[n])
        yield n, t, face, face.apex + (pts - face.apex) * scale + lift * normal


@pytest.mark.parametrize("name", ["cube", "fichera"])
def test_partition_on_the_own_plateau(name, cube, fichera):
    surface = {"cube": cube, "fichera": fichera}[name]
    rou = ResolutionOfUnity(surface)
    signed = 0
    for n in range(surface.n_vertices):
        # a whole disc in each cone face's plane, apex included, so that
        # d1 and d2 take both signs
        R, PHI = np.meshgrid(np.linspace(0.0, rou.r0[n], 9),
                             np.linspace(0.0, 2 * np.pi, 64, endpoint=False))
        for t, face in enumerate(surface.cone_faces(n)):
            pts = face.apex + ((R * np.cos(PHI)).reshape(-1, 1) * face.e1
                               + (R * np.sin(PHI)).reshape(-1, 1) * face.e2)
            got = partition_face_derivs(rou, n, t, pts, face.e1, face.e2)
            _same_bits(got, _partition_face_derivs_oracle(rou, n, pts,
                                                          face.e1, face.e2))
            assert (got[(0, 0)] == 1.0).all()
            assert all((got[ab] == 0.0).all() for ab in _TERMS[1:])
            signed += int(np.signbit(got[(1, 0)]).sum())
    assert signed > 0           # the -0.0 of a flat bump times d1 < 0


@pytest.mark.parametrize("name", ["cube", "fichera"])
def test_partition_with_no_other_bump_in_reach(name, cube, fichera):
    surface = {"cube": cube, "fichera": fichera}[name]
    rou = ResolutionOfUnity(surface)
    for n, t, face, pts in _shrunk_faces(surface, rou,
                                         lambda n: 0.3 * rou.r1[n]):
        d = np.linalg.norm(pts[:, None, :] - surface.vertices[None], axis=-1)
        others = np.delete(d - rou.r1, n, axis=1)
        assert (others > 0).all() and (d[:, n] > rou.r0[n]).any()
        _same_bits(partition_face_derivs(rou, n, t, pts, face.e1, face.e2),
                   _partition_face_derivs_oracle(rou, n, pts, face.e1,
                                                 face.e2))


@pytest.mark.parametrize("lift", [-0.4, 0.4])
def test_partition_off_the_face_plane(cube, rou, lift):
    # bumps of vertices above or below the face reach lifted points
    for n, t, face, pts in _shrunk_faces(cube, rou, lambda n: 0.5 * rou.r1[n],
                                         lift):
        _same_bits(partition_face_derivs(rou, n, t, pts, face.e1, face.e2),
                   _partition_face_derivs_oracle(rou, n, pts, face.e1,
                                                 face.e2))


# -- every model's table against central differences of its values -----------

_FD_MODELS = {
    "vertex": lambda surface: VertexPowerModel(surface, 0, 0.6),
    "edge": lambda surface: EdgePowerModel(surface, 0, 1, 0.6),
    "constant": lambda surface: ConstantModel(surface, 1.5),
}


@settings(max_examples=300)
@given(kind=st.sampled_from(sorted(_FD_MODELS)), n=st.integers(0, 7),
       t=st.integers(0, 2), r=st.floats(0.02, 0.75),
       frac=st.floats(0.02, 0.98))
def test_plane_derivs_match_central_differences(cube, kind, n, t, r, frac):
    model = _FD_MODELS[kind](cube)
    face = cube.cone_faces(n)[t]
    x = face.apex + r * (np.cos(frac * face.gamma) * face.e1
                         + np.sin(frac * face.gamma) * face.e2)
    # away from the singular set: vertex 0, and the line through edge (0, 1)
    w = x - cube.vertices[0]
    if kind == "vertex":
        assume(np.linalg.norm(w) > 0.05)
    if kind == "edge":
        assume(np.linalg.norm(w - (w @ model.direction) * model.direction)
               > 0.05)
    e1, e2, h = face.e1, face.e2, 1e-5

    def f(a, b):
        return float(model(x + h * a * e1 + h * b * e2)[0])

    fd = {(0, 0): f(0, 0),
          (1, 0): (f(1, 0) - f(-1, 0)) / (2 * h),
          (0, 1): (f(0, 1) - f(0, -1)) / (2 * h),
          (2, 0): (f(1, 0) - 2 * f(0, 0) + f(-1, 0)) / h ** 2,
          (1, 1): (f(1, 1) - f(1, -1) - f(-1, 1) + f(-1, -1)) / (4 * h ** 2),
          (0, 2): (f(0, 1) - 2 * f(0, 0) + f(0, -1)) / h ** 2}
    table = model.plane_derivs(x[None, :], e1, e2)
    assert table.keys() == fd.keys()
    for ab, approx in fd.items():
        exact = float(np.ravel(table[ab])[0])
        # truncation and rounding of the differences stay below 4e-5 here
        assert abs(approx - exact) <= 1e-3 * (1.0 + abs(exact)), ab
