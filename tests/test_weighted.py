import numpy as np
import pytest

from patchwave import (
    AnalyticModel,
    ConstantModel,
    EdgePowerModel,
    FiniteDifferenceHandle,
    VertexPowerModel,
    WeightedNormDivergence,
    WeightedSpec,
    delta_weighted_norm,
    sector_q,
    weighted_sobolev_norm,
)

FAST = dict(depth=16, quad_order=4)


def test_weighted_spec():
    spec = WeightedSpec(k=2, rho=0.7)
    assert spec.mu == spec.rho
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
    value, report = weighted_sobolev_norm(handle, cube, rou,
                                          WeightedSpec(1, 0.5),
                                          return_report=True, **FAST)
    assert value > 0.0
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
