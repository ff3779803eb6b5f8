import json

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from patchwave import (
    SurfaceError,
    fichera_corner,
    load_surface,
    partition_face_derivs,
    quasi_random_points,
    surface_text,
    unit_cube,
)
from patchwave.surface import (ResolutionOfUnity, _smooth_step, points_quad_distance,
                               quad_edge_distance)
from test_bem import _frustum, _moved_cube, _rotation, point_quad_distance


def _volume(surface):
    # divergence theorem with F = x: 3V = sum over flat patches of (c . n) |F|
    total = 0.0
    for p in surface.patches:
        c = p.chart(0.5, 0.5)
        total += float(np.dot(c, p.normal)) * p.area
    return total / 3.0


def test_cube_layout(cube):
    assert cube.n_patches == 6
    assert cube.n_vertices == 8
    assert sum(p.area for p in cube.patches) == pytest.approx(6.0, abs=1e-12)
    for p in cube.patches:
        # faces are planar unit squares: no bilinear term, unit jacobian
        assert np.allclose(p.coeff_d, 0.0)
        assert p.jacobian_det(np.array(0.3), np.array(0.7)) == pytest.approx(1.0)
    assert _volume(cube) == pytest.approx(1.0, abs=1e-12)


def test_fichera_layout(fichera):
    assert fichera.n_patches == 24
    assert _volume(fichera) == pytest.approx(7.0, abs=1e-12)


def test_outward_normals(cube):
    center = np.array([0.5, 0.5, 0.5])
    for p in cube.patches:
        assert np.dot(p.chart(0.5, 0.5) - center, p.normal) > 0.49
        assert np.linalg.norm(p.normal) == pytest.approx(1.0)


def test_chart_corner_order_and_inverse(cube, rng):
    for p in cube.patches:
        for (s, t), corner in zip(((0, 0), (1, 0), (1, 1), (0, 1)), p.corners):
            assert np.allclose(p.chart(float(s), float(t)), corner)
        s, t = rng.uniform(0.05, 0.95, 2)
        s2, t2 = p.chart_inverse(p.chart(s, t))
        assert abs(s - s2) < 1e-12 and abs(t - t2) < 1e-12


def test_load_rejects_flipped_patch():
    desc = unit_cube()
    bad = dict(desc)
    bad["patches"] = [list(q) for q in desc["patches"]]
    bad["patches"][0] = bad["patches"][0][::-1]
    with pytest.raises(SurfaceError):
        load_surface(bad)


def test_load_rejects_open_surface():
    desc = unit_cube()
    bad = {"vertices": desc["vertices"], "patches": desc["patches"][:-1]}
    with pytest.raises(SurfaceError):
        load_surface(bad)


def test_load_rejects_nonconvex_quad():
    # a chevron: vertex 2 pulled inside the hull of the others
    desc = {
        "vertices": [[0, 0, 0], [1, 0, 0], [0.4, 0.4, 0], [0, 1, 0],
                     [0, 0, 1], [1, 0, 1], [0.4, 0.4, 1], [0, 1, 1]],
        "patches": [[0, 3, 2, 1], [4, 5, 6, 7], [0, 1, 5, 4],
                    [1, 2, 6, 5], [2, 3, 7, 6], [3, 0, 4, 7]],
    }
    with pytest.raises(SurfaceError):
        load_surface(desc)


def test_text_roundtrip(cube):
    again = load_surface(surface_text(cube))
    assert again.content_hash() == cube.content_hash()
    assert again.n_patches == cube.n_patches


def test_cone_structure(cube):
    for n in range(cube.n_vertices):
        faces = cube.cone_faces(n)
        assert len(faces) == 3
        # every cube corner opens three right-angle sectors
        assert np.allclose([f.gamma for f in faces], np.pi / 2)
        for f in faces:
            # (e1, e2) is an orthonormal frame of the face plane
            assert np.dot(f.e1, f.e2) == pytest.approx(0.0, abs=1e-12)
            assert np.linalg.norm(f.e1) == pytest.approx(1.0, abs=1e-12)
            assert np.linalg.norm(f.e2) == pytest.approx(1.0, abs=1e-12)


def _phi(rou, patch, pts):
    """Every phi_n at points of one patch: (n_vertices, N), from the
    partition the weighted norm evaluates, in the frame of one of the
    patch's cone faces."""
    surface = rou.surface
    face = next(f for n in patch.corner_ids for f in surface.cone_faces(n)
                if f.patch == patch.index)
    pts = np.atleast_2d(pts)
    return np.array([partition_face_derivs(rou, n, pts, face.e1, face.e2)[(0, 0)]
                     for n in range(surface.n_vertices)])


def test_partition_examples(cube, rou):
    patch = cube.patches[0]
    assert {0, 1} <= set(patch.corner_ids)
    # at a vertex the owning weight is 1, all others 0
    phi = _phi(rou, patch, cube.vertices[0])[:, 0]
    assert phi == pytest.approx(np.eye(cube.n_vertices)[0], abs=1e-12)
    # midpoint of an edge splits evenly between the endpoints
    mid = 0.5 * (cube.vertices[0] + cube.vertices[1])
    phi = _phi(rou, patch, mid)[:, 0]
    assert phi[0] == pytest.approx(0.5, abs=1e-12)
    assert phi[1] == pytest.approx(0.5, abs=1e-12)
    # at a face barycenter the four face corners contribute equally and the
    # opposite-face vertices (distance sqrt(1.5) > r1) not at all
    phi = _phi(rou, patch, patch.chart(0.5, 0.5))[:, 0]
    for n in range(cube.n_vertices):
        if n in patch.corner_ids:
            assert phi[n] == pytest.approx(0.25, abs=1e-12)
        else:
            assert phi[n] == 0.0


@pytest.mark.parametrize("query", [
    lambda cube: cube.cone_faces(99),
    lambda cube: cube.cone_faces(1.5),
    lambda cube: cube.cone_faces(True),
], ids=["cone-faces-99", "cone-faces-1.5", "cone-faces-true"])
def test_vertex_queries_reject_bad_ids(cube, query):
    # these used to raise a raw KeyError, or to read 1.5 and True as vertex 1
    with pytest.raises(ValueError, match="vertex must be a vertex id in"):
        query(cube)
    assert cube.cone_faces(np.int64(3)) == cube.cone_faces(3)


def test_partition_sums_to_one(cube, rou):
    ids, _, pts = quasi_random_points(cube, 200)
    for patch in cube.patches:
        total = _phi(rou, patch, pts[ids == patch.index]).sum(axis=0)
        assert np.allclose(total, 1.0, atol=1e-12)


def test_partition_profile_shape(rou):
    r = np.linspace(0.0, 2.0, 50)
    vals = np.array([rou.profile(0, x) for x in r])
    assert vals[0] == 1.0
    assert np.all(vals <= 1.0) and np.all(vals >= 0.0)
    assert np.all(np.diff(vals) <= 1e-15)


def _smooth_step_oracle(t):
    """The smooth step by boolean gather and scatter: exp(-1/t) on the
    entries with t > 1e-9, exp(-1/(1-t)) on those with 1 - t > 1e-9."""
    t = np.asarray(t, dtype=float)
    a = np.zeros_like(t)
    b = np.zeros_like(t)
    pos = t > 1e-9
    neg = (1.0 - t) > 1e-9
    with np.errstate(under="ignore"):
        a[pos] = np.exp(-1.0 / t[pos])
        b[neg] = np.exp(-1.0 / (1.0 - t[neg]))
    return a / (a + b + (a + b == 0.0))


_STEP_EDGES = [-1.0, 0.0, np.nextafter(1e-9, 0.0), 1e-9, np.nextafter(1e-9, 1.0),
               0.5, 1.0 - 1e-9, 1.0, 2.0]


@pytest.mark.parametrize("t", _STEP_EDGES)
def test_smooth_step_is_the_masked_formula_at_its_edges(t):
    want = _smooth_step_oracle(t)
    for got in (_smooth_step(t), _smooth_step(np.array([t]))[0]):
        assert np.float64(got).view(np.int64) == np.float64(want).view(np.int64)


def test_smooth_step_is_the_masked_formula_on_any_array():
    rng = np.random.default_rng(11)
    for n in (1, 7, 64, 1001):
        for lo, hi in ((-1.0, 2.0), (-1e-8, 1e-8), (1.0 - 1e-8, 1.0 + 1e-8)):
            t = rng.uniform(lo, hi, n)
            t[rng.random(n) < 0.3] = rng.choice(_STEP_EDGES)
            for arg in (t, t[::3], t.reshape(-1, 1)):
                want = _smooth_step_oracle(arg)
                assert np.array_equal(_smooth_step(arg).view(np.int64),
                                      want.view(np.int64))


@pytest.mark.parametrize("count", [0, 1, 7, 64, 2048, 2049])
def test_quasi_random_points_are_scipy_halton(cube, count):
    # the package's own Halton; only this test imports scipy.stats
    from scipy.stats import qmc
    halton = qmc.Halton(d=2, scramble=False)
    halton.fast_forward(1)
    want = halton.random(count)
    _, params, _ = quasi_random_points(cube, count)
    assert params.shape == want.shape
    assert np.array_equal(params.view(np.int64), want.view(np.int64))


def test_quasi_random_points_deterministic(cube):
    ids1, params1, pts1 = quasi_random_points(cube, 64)
    ids2, params2, pts2 = quasi_random_points(cube, 64)
    assert np.array_equal(ids1, ids2)
    assert np.array_equal(pts1, pts2)
    assert params1.shape == (64, 2)
    assert params1.min() >= 0.0 and params1.max() <= 1.0
    # every returned point sits on its owning patch
    for pid, (s, t), x in zip(ids1, params1, pts1):
        assert np.allclose(cube.patches[pid].chart(s, t), x)


@pytest.mark.parametrize("coord", [np.nan, np.inf, -np.inf])
def test_load_rejects_nonfinite_vertex(coord):
    desc = unit_cube()
    desc["vertices"][6] = [1.0, coord, 1.0]
    with pytest.raises(SurfaceError, match="finite"):
        load_surface(desc)


@pytest.mark.parametrize("vid", [-1, 8, 100])
def test_load_rejects_out_of_range_vertex_id(vid):
    desc = unit_cube()
    desc["patches"][1] = [4, 5, vid, 7]
    with pytest.raises(SurfaceError, match=f"patch 1: vertex id {vid}"):
        load_surface(desc)


def test_deeply_nested_json_is_a_surface_error(tmp_path):
    # json.loads raises RecursionError here, which used to escape
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000, encoding="utf-8")
    for source in (str(path), '{"vertices": ' + "[" * 100_000):
        with pytest.raises(SurfaceError, match="not valid JSON: nested too deeply"):
            load_surface(source)


def _patched(**fields):
    return {**unit_cube(), **fields}


def _patch0(*ids):
    return _patched(patches=[list(ids)] + unit_cube()["patches"][1:])


@pytest.mark.parametrize("desc, message", [
    (_patched(vertices=[[0, 0, 0], [1, 0]]), "vertices must be an"),
    (_patched(vertices=[["a", 0, 0]]), "vertices must be an"),
    (_patched(vertices=[[0, 0, 1e200]] * 8), "vertex coordinates must be"),
    (_patched(patches=None), "patches must be a non-empty list"),
    (_patched(patches=[]), "patches must be a non-empty list"),
    (_patched(patches=[5] + unit_cube()["patches"][1:]),
     "patch 0: vertex ids must be integers, got 5"),
    (_patched(constants=[1, 2]), "constants must map names to numbers"),
    (_patched(constants={"C1": "0.1"}), "constants must map names to numbers"),
    (_patch0(0, 3, 2, "x"), "patch 0: .* got \\[0, 3, 2, 'x'\\]"),
    (_patch0(0, 3, 2, 1.5), "patch 0: .* got \\[0, 3, 2, 1.5\\]"),
    (_patch0(0, 3, 2, True), "patch 0: .* got \\[0, 3, 2, True\\]"),
    # an integer past the float range loaded, and an OverflowError escaped
    # from content_hash and ResolutionOfUnity
    (_patched(constants={"C1": 10 ** 400}), "constants must lie in the float range"),
])
def test_load_rejects_malformed_fields(desc, message):
    # these used to raise a raw ValueError or TypeError, or (1.5, true) to
    # be read as vertex 1
    with pytest.raises(SurfaceError, match=message):
        load_surface(desc)


_JUNK = st.one_of(st.none(), st.booleans(), st.integers(-3, 30), st.floats(),
                  st.text(max_size=2), st.lists(st.integers(-1, 9), max_size=4),
                  st.dictionaries(st.text(max_size=2), st.floats(), max_size=2))


@settings(max_examples=200)
@given(name=st.sampled_from(["cube", "fichera"]), data=st.data())
def test_fuzzed_descriptions_raise_only_surface_errors(name, data):
    desc = unit_cube() if name == "cube" else fichera_corner()
    for _ in range(data.draw(st.integers(1, 3))):
        # replace a whole field, one of its rows, or one entry of a row
        parent = desc
        key = data.draw(st.sampled_from(["vertices", "patches", "constants"]))
        for _ in range(data.draw(st.integers(0, 2))):
            child = parent.get(key) if isinstance(parent, dict) else parent[key]
            if not isinstance(child, list) or not child:
                break
            parent, key = child, data.draw(st.integers(0, len(child) - 1))
        parent[key] = data.draw(_JUNK)
    try:
        load_surface(desc)
    except SurfaceError:
        pass


# -- distance to a patch ------------------------------------------------------

_SQUARE = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [1.0, 1.0, 0.0], [0.0, 1.0, 0.0]])
_TRAPEZOID = np.array([[0.0, 0.0, 0.0], [2.0, 0.0, 0.0], [1.5, 0.5, 1.0], [0.5, 0.5, 1.0]])


def _surface(name):
    return {"cube": lambda: load_surface(unit_cube()),
            "fichera": lambda: load_surface(fichera_corner()),
            "moved_cube": _moved_cube, "frustum": _frustum}[name]()


def test_inside_test_is_in_patch_units():
    # 0.5% of an edge outside a side and 0.1% of one above the plane: at
    # scale 1e-6 an absolute tolerance took the point as inside and returned
    # its height, 0.196 of the distance
    for s in (1e-6, 1.0, 1e6):
        d = points_quad_distance(np.array([[1.005, 0.5, 0.001]]) * s, _SQUARE * s)
        assert d[0] == pytest.approx(np.hypot(0.005, 0.001) * s, rel=1e-9)


@settings(max_examples=300)
@given(quad=st.sampled_from([_SQUARE, _TRAPEZOID]), log_s=st.floats(-6.0, 6.0),
       q=st.lists(st.floats(-1.0, 1.0), min_size=4, max_size=4),
       uv=st.lists(st.floats(-0.5, 1.5), min_size=2, max_size=2),
       height=st.floats(1e-3, 1.0), side=st.sampled_from([-1.0, 1.0]))
@example(quad=_SQUARE, log_s=-6.0, q=[1.0, 0.0, 0.0, 0.0], uv=[1.005, 0.5],
         height=1e-3, side=1.0)
def test_quad_distance_scales_and_turns_with_the_quad(quad, log_s, q, uv, height, side):
    assume(np.linalg.norm(q) > 0.1)
    c = quad
    n = np.cross(c[1] - c[0], c[3] - c[0])
    n /= np.linalg.norm(n)
    foot = c[0] + uv[0] * (c[1] - c[0]) + uv[1] * (c[3] - c[0])
    # at least 1e-9 edge lengths off every edge line
    for k in range(4):
        ab = c[(k + 1) % 4] - c[k]
        assume(np.linalg.norm(np.cross(ab, foot - c[k])) >= 1e-9 * (ab @ ab))
    P = (foot + side * height * n)[None]
    s, R = 10.0 ** log_s, _rotation(q)
    want = points_quad_distance(P, c)[0]
    got = points_quad_distance(s * P @ R.T, s * c @ R.T)[0] / s
    assert abs(got - want) <= 1e-12 * want


@pytest.mark.parametrize("name", ["cube", "frustum", "moved_cube"])
def test_quad_edge_distance_of_one_point_is_its_array_value(name):
    surface = _surface(name)
    lo, hi = surface.vertices.min(axis=0), surface.vertices.max(axis=0)
    P = np.random.default_rng(1312).uniform(lo - 0.25 * (hi - lo), hi + 0.25 * (hi - lo),
                                            (6, 5, 3))
    P[0, 0] = surface.vertices[0]
    P[0, 1] = 0.5 * (surface.vertices[0] + surface.vertices[1])
    for patch in surface.patches:
        grid = quad_edge_distance(P, patch.corners)
        assert grid.shape == (6, 5)
        rows = quad_edge_distance(P.reshape(-1, 3), patch.corners)
        one = np.array([quad_edge_distance(p, patch.corners) for p in P.reshape(-1, 3)])
        for other in (rows, one):
            assert np.array_equal(other.view(np.int64), grid.ravel().view(np.int64))


@pytest.mark.parametrize("name", ["cube", "fichera", "moved_cube"])
def test_resolution_radii_equal_the_scalar_clearances(name):
    surface = _surface(name)
    clear = np.array([min(point_quad_distance(v, p.corners) for p in surface.patches
                          if n not in p.corner_ids)
                      for n, v in enumerate(surface.vertices)])
    rou = ResolutionOfUnity(surface)
    r1 = clear - 2.0 * rou.C1
    r0 = np.minimum(rou.C1, 0.5 * r1)
    assert np.array_equal(rou.r1.view(np.int64), r1.view(np.int64))
    assert np.array_equal(rou.r0.view(np.int64), r0.view(np.int64))


def _posed(name, q, s, offset, constants=None):
    """Surface `name` (one of `_surface`'s) turned by the quaternion q,
    scaled by s and moved by s * offset."""
    surface = _surface(name)
    desc = {"vertices": ((surface.vertices @ _rotation(q).T + offset) * s).tolist(),
            "patches": [list(p.corner_ids) for p in surface.patches]}
    if constants is not None:
        desc["constants"] = constants
    return load_surface(desc)


@pytest.mark.parametrize("s", [1e-6, 1.0, 1e6])
@settings(max_examples=25, deadline=None)
@given(name=st.sampled_from(["cube", "fichera"]),
       q=st.lists(st.floats(-1.0, 1.0), min_size=4, max_size=4),
       offset=st.lists(st.floats(-3.0, 3.0), min_size=3, max_size=3),
       share=st.floats(1 / 64, 1 / 4))
@example(name="cube", q=[1.0, 0.0, 0.0, 0.0], offset=[0.0, 0.0, 0.0], share=1 / 8)
def test_resolution_tolerance_is_in_surface_units(s, name, q, offset, share):
    # r1 = clearance - 2 C1, so every support keeps clearance C1 from the
    # patches not containing its vertex, within 1e-12 edge lengths at every
    # scale
    assume(np.linalg.norm(q) > 0.1)
    surface = _posed(name, q, s, offset)
    C1 = share * surface.min_edge
    surface = _posed(name, q, s, offset, {"C1": C1})
    try:
        rou = ResolutionOfUnity(surface)
    except SurfaceError as exc:
        # a large C1 leaves r1 <= 0 or part of the surface uncovered
        assert "must be positive" in str(exc) or "uncovered" in str(exc)
        return
    assert rou.C1 == C1
    assert np.all(rou.r1 + C1 <= rou._clearances() + 1e-12 * surface.min_edge)
    assert np.all((0 < rou.r0) & (rou.r0 <= C1) & (rou.r0 < rou.r1))


def _cube_with(C1):
    desc = unit_cube()
    desc["constants"] = {"C1": C1}
    return load_surface(desc)


def _nan_c1():
    # json.loads reads the NaN literal that json.dumps writes
    desc = unit_cube()
    desc["constants"] = {"C1": float("nan")}
    return load_surface(json.dumps(desc))


@pytest.mark.parametrize("build, match", [
    (_nan_c1, "C1 must be finite and positive, got nan"),
    (lambda: _cube_with(float("inf")), "C1 must be finite and positive, got inf"),
    (lambda: _cube_with(0), "C1 must be finite and positive, got 0"),
    # r1 = 1 - 2 C1 on the unit cube
    (lambda: ResolutionOfUnity(_cube_with(0.625)),
     r"resolution radius r1\[0\]=-0.25 must be positive"),
], ids=["C1-nan-in-json", "C1-inf", "C1-zero", "r1-negative"])
def test_resolution_radii_name_the_bad_value(build, match):
    # a NaN C1 was reported as radii that leave the surface uncovered
    with pytest.raises(SurfaceError, match=match):
        build()


def test_resolution_refuses_radii_that_leave_the_surface_uncovered():
    # a 10 x 1 x 1 box: r1 = 1 - 2 C1 = 0.75 reaches no point of the long
    # faces' middle
    desc = unit_cube()
    desc["vertices"] = (np.array(desc["vertices"]) * [10.0, 1.0, 1.0]).tolist()
    with pytest.raises(SurfaceError, match="uncovered"):
        ResolutionOfUnity(load_surface(desc))
