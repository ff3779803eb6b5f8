"""Acceptance suite: one test per numbered release criterion.

Each test prints a single ``[PASS]``/``[FAIL] criterion NN: ...`` line with
the measured quantities before asserting, so a verbose run doubles as the
sign-off record.  Everything is deterministic: fixed seeds, fixed geometry,
and tolerances spelled out inline.
"""

import itertools
import json
import math
import time

import numpy as np
import pytest

from patchwave import (
    BesovSpec,
    CoefficientField,
    EdgePowerModel,
    HarmonicProbe,
    VertexPowerModel,
    WaveletIndex,
    WeightedNormDivergence,
    WeightedSpec,
    adaptivity_tau,
    analyze,
    analyze_solution,
    assemble,
    assess_growth,
    best_n_term,
    besov_norm,
    boundary_tail_check,
    classify_level,
    cli,
    critical_line_spec,
    cumulative_tail,
    empty_field,
    fit_rate,
    gauss_check,
    interior_dirichlet_density,
    interior_tail_check,
    level_size,
    level_tail_sums,
    moment_check,
    n_term_plan,
    potential_eval,
    solve,
    synth_field,
    weighted_sobolev_norm,
    whitney_check,
)


def _report(num: int, ok: bool, detail: str) -> bool:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num:02d}: {detail}")
    return ok


@pytest.fixture(scope="module")
def vertex_handle(cube):
    return VertexPowerModel(cube, 0, 0.6)


@pytest.fixture(scope="module")
def vertex_field_fine(cube, haar, vertex_handle):
    # deep single-scale expansion of the corner singularity; shared by the
    # interior-tail criterion (stability needs the last levels to flatten)
    return analyze(cube, vertex_handle, haar, 9)


@pytest.fixture(scope="module")
def vertex_field_multi(cube, alpert2, vertex_handle):
    return analyze(cube, vertex_handle, alpert2, 8)


# -- criterion 1: greedy n-term selection is exactly optimal -------------------

def test_criterion_01_nterm_matches_exhaustive_oracle(cube, haar):
    rng = np.random.default_rng(41)
    layout = empty_field(haar, cube.n_patches, 3, cube)
    sizes = {j: layout.level(j).size for j in layout.level_range()}
    census = sum(sizes.values())
    ps = (1.0, 4.0 / 3.0, 2.0)
    mismatches = 0
    checked = 0
    for trial in range(200):
        p = ps[trial % 3]
        spec = BesovSpec(1.0, p, p)
        nnz = int(rng.integers(1, 17))
        pos = rng.choice(census, size=nnz, replace=False)
        vals = rng.uniform(0.1, 2.0, nnz) * rng.choice([-1.0, 1.0], nnz)
        levels = {j: np.zeros_like(layout.level(j))
                  for j in layout.level_range()}
        for g, v in zip(pos, vals):
            g = int(g)
            for j in sorted(sizes):
                if g < sizes[j]:
                    levels[j].ravel()[g] = v
                    break
                g -= sizes[j]
        field = CoefficientField(haar, 3, cube.n_patches,
                                 np.zeros_like(layout.coarse), levels, cube)
        plan = n_term_plan(field, spec)
        wp = plan.weight_p
        assert np.count_nonzero(wp) == nnz and np.all(wp[nnz:] == 0.0)
        nz = [float(x) for x in wp[:nnz]]

        # subset sums of the nonzero weight powers, bit t <-> element t
        sums = np.zeros(1)
        counts = np.zeros(1, dtype=np.int64)
        for b in nz:
            sums = np.concatenate([sums, sums + b])
            counts = np.concatenate([counts, counts + 1])

        for n in range(nnz + 1):
            mask = counts == nnz - n
            best = float(sums[mask].min())
            near = np.nonzero(mask & (sums <= best + 1e-9 * max(1.0, best)))[0]
            exact = min(
                math.fsum(nz[t] for t in range(nnz) if (int(c) >> t) & 1)
                for c in near)
            _, err = best_n_term(field, spec, n)
            checked += 1
            if err != exact ** (1.0 / p):
                mismatches += 1
        # beyond the support both the oracle and the plan are exactly zero
        for n in (nnz, nnz + 3, (nnz + census) // 2, census, census + 7):
            checked += 1
            if plan.error_at(n) != 0.0:
                mismatches += 1
    ok = mismatches == 0
    assert _report(1, ok, f"{checked} oracle comparisons over 200 fields, "
                          f"p in (1, 4/3, 2), {mismatches} mismatches")


# -- criterion 2: n-term error follows the planted rate ------------------------

def test_criterion_02_rate_law(cube, haar):
    t0 = time.perf_counter()
    target = BesovSpec(0.0, 2.0, 2.0)
    ns = [2 ** m for m in range(4, 15)]
    decays = []
    ok = True
    for gamma in (0.5, 1.0, 2.0):
        f = synth_field(cube, haar, "suffix_saturator", 9,
                        gamma=gamma, spec=target)
        plan = n_term_plan(f, target)
        rep = fit_rate([(n, plan.error_at(n)) for n in ns],
                       predicted=gamma / 2.0)
        decays.append(rep.decay)
        ok &= abs(rep.decay - gamma / 2.0) <= 0.10 * (gamma / 2.0)
        ok &= rep.verdict == "consistent"
    flat = synth_field(cube, haar, "extremal_a_star", 9, level=9, alpha=0.0)
    fplan = n_term_plan(flat, target)
    frep = fit_rate([(n, fplan.error_at(n)) for n in ns])
    ok &= abs(frep.slope) <= 0.05
    elapsed = time.perf_counter() - t0
    ok &= elapsed <= 30.0
    assert _report(2, ok, "fitted decays "
                   + "/".join(f"{d:.4f}" for d in decays)
                   + f" for gamma/2 = 0.25/0.5/1.0; flat slope "
                     f"{frep.slope:+.5f}; {elapsed:.1f}s")


# -- criterion 3: vanishing moments and coefficient decay ----------------------

def test_criterion_03_moments_and_analytic_decay(cube, haar, alpert2):
    worst = 0.0
    n_duals = 0
    for basis in (haar, alpert2):
        if basis.dt == 1:
            polys = [[[1.0]]]
        else:
            polys = [[[1.0]], [[0.0], [1.0]], [[0.0, 1.0]],
                     [[1.0, -3.0], [2.0, 0.0]]]
        for j in (3, 4):
            mask = classify_level(cube, basis, j)
            for i in range(cube.n_patches):
                for k1, k2 in np.argwhere(mask[i]):
                    for e in (1, 2, 3):
                        for m1 in range(basis.d):
                            for m2 in range(basis.d):
                                idx = WaveletIndex(j, i, e, int(k1), int(k2),
                                                   m1, m2)
                                for P in polys:
                                    worst = max(worst, moment_check(
                                        cube, basis, idx, P))
                        n_duals += basis.d * basis.d
    moments_ok = worst <= 1e-10

    def g(pts):
        return np.exp(0.3 * pts[:, 0] + 0.4 * pts[:, 1] - 0.2 * pts[:, 2])

    exponents = {}
    for basis, J in ((haar, 6), (alpert2, 8)):
        f = analyze(cube, g, basis, J)
        js, tops = [], []
        for j in f.level_range():
            if j > basis.j_star + 6:
                continue
            mask = classify_level(cube, basis, j)
            if not mask.any():
                continue
            per_cell = np.abs(f.level(j)).max(axis=(1, 4, 5))
            js.append(j)
            tops.append(float(per_cell[mask].max()))
        slope = float(np.polyfit(js, np.log2(tops), 1)[0])
        exponents[basis.dt] = -slope - 1.0
    decay_ok = all(exponents[dt] >= dt - 0.1 for dt in exponents)

    ok = moments_ok and decay_ok
    assert _report(3, ok, f"worst interior moment {worst:.2e} over {n_duals} "
                          f"duals; decay exponents {exponents[1]:.3f} (dt=1), "
                          f"{exponents[2]:.3f} (dt=2)")


# -- criterion 4: weighted-norm convergence thresholds -------------------------

def test_criterion_04_weighted_norm_thresholds(cube, rou, vertex_handle):
    def outcome(handle, rho):
        try:
            val = weighted_sobolev_norm(handle, cube, rou, WeightedSpec(1, rho))
            return True, val
        except WeightedNormDivergence:
            return False, math.inf

    r_fin, r_val = outcome(vertex_handle, 1.2)     # threshold beta + 1 = 1.6
    r_div, _ = outcome(vertex_handle, 1.8)
    angular = EdgePowerModel(cube, 0, 1, 0.6)      # threshold beta + 1/2 = 1.1
    a_fin, a_val = outcome(angular, 1.0)
    a_div, _ = outcome(angular, 1.2)
    ok = r_fin and not r_div and a_fin and not a_div
    assert _report(4, ok, f"radial rho=1.2 -> {r_val:.3f}, rho=1.8 -> "
                          f"divergent={not r_div}; angular rho=1.0 -> "
                          f"{a_val:.3f}, rho=1.2 -> divergent={not a_div}")


# -- criterion 5: critical-line tails of a classified singularity --------------

def test_criterion_05_critical_tail_stability(cube, rou, alpert2,
                                              vertex_field_multi):
    # model class (s, k, rho) = (1.0, 2, 1.0) puts alpha* at 1.0
    alpha_cap = 2.0 * 1.0
    stable = {}
    for alpha in (0.5, 0.75, 1.0, 1.25):
        tau = adaptivity_tau(alpha)
        rep = assess_growth(cumulative_tail(
            level_tail_sums(vertex_field_multi, tau)))
        stable[alpha] = rep.stable
    probe_alpha = alpha_cap * 1.2
    probe = assess_growth(cumulative_tail(
        level_tail_sums(vertex_field_multi, adaptivity_tau(probe_alpha))))
    ok = all(stable.values()) and probe.growing

    ratios = []
    for beta in (0.6, 0.7, 0.8, 0.9, 1.1):
        handle = VertexPowerModel(cube, 0, beta)
        f = analyze(cube, handle, alpert2, 6)
        num = besov_norm(f, critical_line_spec(1.0))
        den = max(besov_norm(f, BesovSpec(1.0, 2.0, 2.0)),
                  weighted_sobolev_norm(handle, cube, rou, WeightedSpec(2, 1.0),
                                        depth=20, quad_order=6))
        ratios.append(num / den)
    ok &= max(ratios) <= 0.05
    assert _report(5, ok, f"stable at alpha<{alpha_cap:.0f}: "
                          f"{sorted(stable)}; probe alpha={probe_alpha:.1f} "
                          f"growing={probe.growing}; norm ratios "
                          f"max {max(ratios):.4f} <= 0.05 across 5 models")


# -- criterion 6: boundary/interior tail ranges and census ----------------------

def test_criterion_06_tail_ranges_and_boundary_census(cube, rou, haar,
                                                      vertex_handle,
                                                      vertex_field_fine):
    s_b, p = 0.78, 2.0
    edge_handle = EdgePowerModel(cube, 0, 1, 0.3)
    fb = analyze(cube, edge_handle, haar, 7)

    tau_in_range = 1.25                       # 1/tau = 0.8 < 1 - 1/p + s_b
    b_rep = assess_growth(cumulative_tail(
        level_tail_sums(fb, tau_in_range, kinds="boundary")))
    b_lhs, _, b_ratio = boundary_tail_check(fb, s_b, p, tau_in_range)
    b_ok = b_rep.stable and math.isfinite(b_lhs) and b_ratio < 1.0

    tau_probe = 0.625                         # 1/tau = 1.6 beyond the range
    bp_rep = assess_growth(cumulative_tail(
        level_tail_sums(fb, tau_probe, kinds="boundary")))
    with pytest.raises(ValueError):
        boundary_tail_check(fb, s_b, p, tau_probe)
    b_ok &= bp_rep.growing

    wspec = WeightedSpec(1, 0.5)              # interior window 1/tau in [.5, 1)
    tau_i = 2.0
    i_rep = assess_growth(cumulative_tail(
        level_tail_sums(vertex_field_fine, tau_i, kinds="interior")))
    wnorm = weighted_sobolev_norm(vertex_handle, cube, rou, wspec,
                                  depth=20, quad_order=6)
    i_lhs, _, i_ratio = interior_tail_check(vertex_field_fine, wnorm, wspec,
                                            tau_i)
    i_ok = i_rep.stable and math.isfinite(i_lhs) and i_ratio < 1.0

    tau_i_probe = 0.95                        # 1/tau just above the window
    ip_rep = assess_growth(cumulative_tail(
        level_tail_sums(vertex_field_fine, tau_i_probe, kinds="interior")))
    with pytest.raises(ValueError):
        interior_tail_check(vertex_field_fine, wnorm, wspec, tau_i_probe)
    i_ok &= ip_rep.growing

    js = list(range(3, 9))
    counts = []
    for j in js:
        interior_cells = int(classify_level(cube, haar, j).sum())
        counts.append(level_size(haar, j, cube.n_patches)
                      - 3 * interior_cells)
    census_slope = float(np.polyfit(js, np.log2(counts), 1)[0])
    census_ok = abs(census_slope - 1.0) <= 0.15

    ok = b_ok and i_ok and census_ok
    assert _report(6, ok, f"boundary tau={tau_in_range} stable ratio "
                          f"{b_ratio:.3f}, probe growing={bp_rep.growing}; "
                          f"interior tau={tau_i} stable ratio {i_ratio:.4f}, "
                          f"probe growing={ip_rep.growing}; census slope "
                          f"{census_slope:.3f}")


# -- criterion 7: double-layer identities, conditioning, reproduction ----------

def test_criterion_07_double_layer_basics(cube, systems, rng):
    inside = gauss_check(cube, np.array([0.42, 0.57, 0.50]), L=4)
    on_face = gauss_check(cube, cube.patches[2].chart(0.35, 0.6), patch=2, L=4)
    outside = gauss_check(cube, np.array([1.7, 0.3, -0.2]), L=4)
    triple_ok = (abs(inside + 1.0) <= 1e-4 and abs(on_face + 0.5) <= 1e-4
                 and abs(outside) <= 1e-6)

    ones = lambda pts: np.ones(len(pts))
    rep3 = solve(systems[3], ones)
    off_edge_dev = float(np.abs(rep3.density[:, 2:6, 2:6] - 1.0).max())
    constant_ok = off_edge_dev <= 1e-2

    residual_max = 0.0
    cond_max = 0.0
    for L, system in systems.items():
        r = solve(system, ones)
        residual_max = max(residual_max, r.residual)
        cond_max = max(cond_max, r.cond)
    lu_ok = residual_max <= 1e-10
    cond_ok = cond_max <= 50.0

    pts = rng.uniform(0.32, 0.68, size=(5, 3))
    orders = []
    for probe in (HarmonicProbe.linear(0), HarmonicProbe.linear(2),
                  HarmonicProbe.point_source((2.5, 1.7, 3.1))):
        errs = []
        for L in (2, 3, 4):
            r = interior_dirichlet_density(systems[L], probe)
            u = potential_eval(cube, r.density, pts)
            errs.append(float(np.abs(u - probe(pts)).max()))
        orders.append(-float(np.polyfit([2, 3, 4], np.log2(errs), 1)[0]))
    orders_ok = min(orders) >= 0.8

    ok = triple_ok and constant_ok and lu_ok and cond_ok and orders_ok
    assert _report(7, ok, f"gauss triple ({inside:.6f}, {on_face:.6f}, "
                          f"{outside:.1e}); off-edge dev {off_edge_dev:.1e}; "
                          f"max residual {residual_max:.1e}; max cond "
                          f"{cond_max:.1f}; reproduction orders "
                          + "/".join(f"{o:.2f}" for o in orders))


# -- criterion 8: adaptive beats uniform on an edge-singular solve -------------

def _edge_skeleton_distance(pts):
    corners = np.array(list(itertools.product((0.0, 1.0), repeat=3)))
    best = np.full(len(pts), np.inf)
    for a, b in itertools.combinations(range(8), 2):
        if np.sum(np.abs(corners[a] - corners[b])) != 1.0:
            continue
        pa, d = corners[a], corners[b] - corners[a]
        t = np.clip((pts - pa) @ d / (d @ d), 0.0, 1.0)
        best = np.minimum(best, np.linalg.norm(pts - (pa + t[:, None] * d),
                                               axis=1))
    return best


def test_criterion_08_adaptive_vs_uniform_pipeline(cube, haar):
    t0 = time.perf_counter()
    system = assemble(cube, 5)
    rhs = lambda pts: _edge_skeleton_distance(pts) ** 0.1
    rep = solve(system, rhs, use_gmres=True)
    sol = analyze_solution(cube, rep.density, haar, 5, WeightedSpec(1, 0.5),
                           s=0.75)
    elapsed = time.perf_counter() - t0
    ratio = sol.exponent_ratio
    ok = (sol.adaptive is not None and sol.uniform is not None
          and sol.adaptive.decay > 0 and ratio >= 1.4
          and not sol.noise_floor and elapsed <= 300.0)
    assert _report(8, ok, f"adaptive decay {sol.adaptive.decay:.3f} vs "
                          f"uniform {sol.uniform.decay:.3f}, ratio "
                          f"{ratio:.2f} >= 1.4; L=5/J=5 in {elapsed:.0f}s")


# -- criterion 9: local polynomial-approximation ratio plateaus ----------------

def test_criterion_09_whitney_plateaus():
    fns = {
        "exp": lambda X, Y: np.exp(X + 0.5 * Y),
        "sin": lambda X, Y: np.sin(2.0 * X + Y),
        "rational": lambda X, Y: 1.0 / (1.0 + X + Y),
    }
    edges = [2.0 ** (-m) for m in range(3, 9)]
    spreads = {}
    for k in (1, 2):
        for name, f in fns.items():
            vals = [whitney_check(f, (0.3, 0.4, e), k) for e in edges]
            spreads[(k, name)] = max(vals) / min(vals)
    plateau_ok = max(spreads.values()) <= 1.2

    poly_vals = (
        whitney_check(lambda X, Y: 3.7 + 0.0 * X, (0.3, 0.4, 0.25), 1),
        whitney_check(lambda X, Y: 1.0 + 2.0 * X - 3.0 * Y, (0.3, 0.4, 0.25), 2),
    )
    poly_ok = poly_vals == (0.0, 0.0)

    ok = plateau_ok and poly_ok
    worst = max(spreads, key=spreads.get)
    assert _report(9, ok, f"worst plateau spread {spreads[worst]:.3f} "
                          f"(k={worst[0]}, {worst[1]}) over 6 dyadic shrinks; "
                          f"polynomials give exactly {poly_vals}")


# -- criterion 10: byte-identical reports across reruns and worker counts ------

_DETERMINISM_DOCS = {
    "norms": {
        "kind": "norms", "surface": "cube", "basis": "haar", "J": 3,
        "seed": 11, "spaces": [[1.0, 2.0, 2.0], [0.75, 2.0, 2.0]],
        "params": {"synth": {"kind": "random_besov", "spec": [1.0, 2.0, 2.0]}},
    },
    "nterm": {
        "kind": "nterm", "basis": "haar", "J": 6,
        "spaces": [[0.0, 2.0, 2.0]],
        "params": {"synth": {"kind": "suffix_saturator", "gamma": 1.0,
                             "spec": [0.0, 2.0, 2.0]},
                   "n_lo": 16, "n_hi": 1024, "predicted": 0.5},
    },
    "embed-check": {
        "kind": "embed-check", "surface": "cube", "basis": "haar", "J": 5,
        "spaces": [[1.0, 2.0, 2.0], [1.5, 1.0, 1.0], [0.8, 2.0, 1.0]],
        "params": {"model": {"kind": "vertex", "beta": 0.6},
                   "taus": [1.6, 2.0], "k": 1, "rho": 0.5,
                   "s": 0.75, "p": 2.0},
    },
    "bem-solve": {
        "kind": "bem-solve", "surface": "cube", "basis": "haar",
        "L": 3, "J": 3,
        "params": {"rhs": ["harmonic:linear", 1], "k": 1, "rho": 0.5,
                   "s": 0.75},
    },
    "whitney": {
        "kind": "whitney",
        "params": {"k": 2, "count": 6, "edge": 0.125, "corner": [0.3, 0.4]},
    },
    "synth": {
        "kind": "synth", "basis": "haar", "J": 4, "seed": 3,
        "params": {"synth": {"kind": "random_besov", "spec": [1.0, 2.0, 2.0]}},
    },
}


def test_criterion_10_byte_identical_reports(tmp_path):
    mismatches = []
    n_compared = 0
    for name, doc in _DETERMINISM_DOCS.items():
        outs = []
        for label, workers in (("a", 1), ("b", 1), ("c", 4)):
            out = tmp_path / name / label
            config = cli.config_from_dict(
                {**doc, "workers": workers, "output_dir": str(out)})
            assert cli.run(config) == 0
            outs.append(out)
        manifest = json.loads((outs[0] / "manifest.json").read_text())
        names = [f for f in manifest["artifacts"] if f.endswith(".csv")]
        names.append("manifest.json")
        for fname in names:
            ref = (outs[0] / fname).read_bytes()
            n_compared += 1
            for other in outs[1:]:
                if (other / fname).read_bytes() != ref:
                    mismatches.append(f"{name}/{fname}")
    ok = not mismatches
    assert _report(10, ok, f"{n_compared} report files x 3 runs (workers 1/4) "
                           f"across {len(_DETERMINISM_DOCS)} suites; "
                           f"mismatches: {mismatches or 'none'}")
