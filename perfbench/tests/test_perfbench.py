"""Tests of the benchmark itself: its counters, its spans and its exit rules.

    python3 -m pytest perfbench/tests -q

The studies run here at small sizes; the counts they check do not depend
on size, only on the formulas the benchmark's wrappers implement.
"""
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import patchwave as pw  # noqa: E402
import studies  # noqa: E402
import tracing  # noqa: E402

COUNTS = ("bem.potential_quads", "bem.matrix_mb", "wavelets.samples",
          "wavelets.moment_checks", "weighted.face_deriv_points",
          "approx.plan_indices", "trace.spans")


@pytest.fixture
def tracer():
    tr = tracing.Tracer()
    tr.install()
    yield tr
    tr.uninstall()


def _study_spans(tracer, study_id):
    return [sp for sp in tracer.spans if sp.study == study_id]


def _census(basis, J, n_patches, min_cell_level=0):
    """Points `analyze` hands its sampler: one dtype probe, then every
    composite Gauss node of the coarse block and of each detail level."""
    q = basis.quad_order
    total = 1
    blocks = [(basis.j_star, 0)] + [(j, 1) for j in range(basis.j_star, J + 1)]
    for lev, wavelet in blocks:
        sub = 1 << max(0, max(lev + wavelet, min_cell_level) - lev)
        total += n_patches * ((1 << lev) * q * sub) ** 2
    return total


@pytest.mark.parametrize("basis", [pw.haar_basis(), pw.multiwavelet_basis()],
                         ids=["haar", "alpert2"])
def test_samples_equal_census(tracer, basis):
    cube = pw.load_surface(pw.unit_cube())
    model = pw.VertexPowerModel(cube, 0, 0.6)
    with tracer.study("s"):
        pw.analyze(cube, model, basis, 4, workers=2)
    m = tracing.study_layer_metrics(_study_spans(tracer, "s"))
    assert m["wavelets.samples"] == _census(basis, 4, cube.n_patches)


@pytest.fixture(scope="module")
def small_cube_runs():
    """Two traced studies of a small cube pipeline (L=3, J=3, 5 points)."""
    workload = studies.CubeBemStudy(L=3, J=3, points=5)
    tr = tracing.Tracer()
    tr.install()
    try:
        inputs = workload.setup(7)
        outs = []
        for sid in ("a", "b"):
            with tr.study(sid):
                outs.append(workload.run(inputs))
    finally:
        tr.uninstall()
    return workload, tr, outs


def test_potential_quads_equal_cells_times_points(small_cube_runs):
    workload, tr, _ = small_cube_runs
    m = tracing.study_layer_metrics(_study_spans(tr, "a"))
    cells = 6 * (1 << workload.L) ** 2
    assert m["bem.potential_quads"] == cells * workload.points
    # the cellwise density is analysed on its own grid
    assert m["wavelets.samples"] == _census(pw.haar_basis(), workload.J, 6,
                                            min_cell_level=workload.L)


def test_counts_repeat_across_runs(small_cube_runs):
    _, tr, outs = small_cube_runs
    a = tracing.study_layer_metrics(_study_spans(tr, "a"))
    b = tracing.study_layer_metrics(_study_spans(tr, "b"))
    assert {k: a[k] for k in COUNTS} == {k: b[k] for k in COUNTS}
    assert outs[0] == outs[1]


def test_vertex_counts_repeat_across_runs(tracer):
    workload = studies.VertexStudy(J=4, moment_level=3,
                                   n_exponents=range(4, 9))
    inputs = workload.setup(3)
    metrics, outs = [], []
    for sid in ("a", "b"):
        with tracer.study(sid):
            outs.append(workload.run(inputs))
        metrics.append(tracing.study_layer_metrics(_study_spans(tracer, sid)))
    assert metrics[0]["weighted.face_deriv_points"] > 0
    assert metrics[0]["wavelets.moment_checks"] == outs[0]["moment_checks"]
    assert ({k: metrics[0][k] for k in COUNTS}
            == {k: metrics[1][k] for k in COUNTS})
    assert outs[0] == outs[1]


def test_spans_nest_under_their_study(small_cube_runs):
    _, tr, _ = small_cube_runs
    for sid in ("a", "b"):
        spans = _study_spans(tr, sid)
        by_id = {sp.id: sp for sp in spans}
        (root,) = [sp for sp in spans if sp.name == "study"]
        assert root.parent is None
        assert len(spans) > 5
        for sp in spans:
            if sp is root:
                continue
            parent = by_id[sp.parent]        # the parent is in the same study
            assert parent.start <= sp.start <= sp.end <= parent.end
            while parent is not root:
                parent = by_id[parent.parent]


def test_uninstall_restores_library():
    original = pw.assemble
    tr = tracing.Tracer()
    tr.install()
    assert pw.assemble is not original and pw.bem.assemble is not original
    tr.uninstall()
    assert pw.assemble is original and pw.bem.assemble is original


def test_reference_comparison():
    ref = {"ratio": 1.5, "digest": "ab"}
    tol = {"ratio": 1e-6}
    assert studies.compare_reference({"ratio": 1.5 + 1e-7, "digest": "ab"},
                                     ref, tol) == []
    fails = studies.compare_reference({"ratio": 1.6, "digest": "ac"}, ref, tol)
    assert len(fails) == 2


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / BENCH.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{BENCH.name}/run.py", "--workload", "vertex-study",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    for line in proc.stdout.splitlines():
        with pytest.raises(json.JSONDecodeError):
            json.loads(line)


def test_traced_pairs_alternate_order():
    import run

    class Idle:
        min_studies = 1

        def __init__(self, tracer):
            self.tracer, self.order = tracer, []

        def run(self, inputs):
            self.order.append("traced" if self.tracer._stack else "plain")
            time.sleep(0.01)
            return {}

        def check(self, out, first):
            return []

    firsts = []
    for seed in (0, 1):
        tr = tracing.Tracer()
        workload = Idle(tr)
        run._measure(studies, workload, None, 1.0, tr, None, seed)
        pairs = [workload.order[i:i + 2]
                 for i in range(0, len(workload.order) - 1, 2)]
        assert len(pairs) >= 2
        assert all(sorted(p) == ["plain", "traced"] for p in pairs)
        assert all(a != b for a, b in zip(pairs, pairs[1:]))
        firsts.append(pairs[0][0])
    assert firsts[0] != firsts[1]
