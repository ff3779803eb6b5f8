import gc
import math
import tracemalloc
from dataclasses import astuple, fields

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from patchwave import (
    BesovSpec,
    CoefficientField,
    WeightedSpec,
    alpha_star,
    assess_growth,
    besov_norm,
    best_n_term,
    boundary_tail_check,
    classify_level,
    coarse_lp_norm,
    cumulative_tail,
    empty_field,
    fit_rate,
    gamma_star,
    haar_basis,
    interior_tail_check,
    level_size,
    level_tail_sums,
    multiwavelet_basis,
    n_term_plan,
    predicted_rate,
    seq_norm,
    synth_field,
    uniform_approx,
    whitney_check,
)

L2 = BesovSpec(1.0, 2.0, 2.0)


def _random_field(cube, haar, seed, J=3):
    return synth_field(cube, haar, "random_besov", J, spec=L2, seed=seed)


def test_plan_orders_by_weight(cube, haar):
    field = _random_field(cube, haar, seed=31)
    plan = n_term_plan(field, L2)
    assert np.all(np.diff(plan.weights) <= 0.0)
    assert plan.n_indices == sum(level_size(haar, j, field.n_patches)
                                 for j in field.level_range())
    # plan errors are nonincreasing and hit zero once everything is kept
    errs = [plan.error_at(n) for n in (0, 1, 10, 100, plan.n_indices)]
    assert all(a >= b for a, b in zip(errs, errs[1:]))
    assert errs[-1] == 0.0


def _lexsort_plan(field, target):
    """The plan arrays as a three-key lexsort orders them: weight descending,
    then level, then flat position."""
    e, p = target.weight_exponent(), target.p
    lev_ids, flats, weights = [], [], []
    for j in field.level_range():
        w = (2.0 ** (j * e)) * np.abs(field.level(j)).ravel()
        weights.append(w)
        lev_ids.append(np.full(w.size, j, dtype=np.int16))
        flats.append(np.arange(w.size, dtype=np.int64))
    w, lev, flat = (np.concatenate(a) for a in (weights, lev_ids, flats))
    order = np.lexsort((flat, lev, -w))
    w = w[order]
    wp = w ** p
    tail = np.zeros(len(w) + 1)
    tail[:-1] = np.cumsum(wp[::-1])[::-1]
    return lev[order], flat[order], w, wp, tail


@settings(max_examples=60)
@given(order=st.sampled_from([1, 2]), n_patches=st.integers(1, 3),
       extra=st.integers(0, 2),
       target=st.sampled_from([BesovSpec(0.0, 2.0, 2.0), L2,
                               BesovSpec(1.0, 1.0, 1.0)]),
       moduli=st.lists(st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, 2.0, 0.25]),
                       min_size=1, max_size=4),
       seed=st.integers(0, 2 ** 16))
def test_plan_order_is_the_three_key_lexsort(order, n_patches, extra, target,
                                             moduli, seed):
    # a few moduli, zeros of both signs: most weights tie, within a level
    # and, at weight exponent 0, across levels
    basis = haar_basis() if order == 1 else multiwavelet_basis()
    shape = empty_field(basis, n_patches, basis.j_star + extra)
    rng = np.random.default_rng(seed)
    field = CoefficientField(
        basis=basis, J=shape.J, n_patches=n_patches, coarse=shape.coarse,
        levels={j: rng.choice(moduli, size=a.shape)
                for j, a in shape.levels.items()})
    plan = n_term_plan(field, target)
    level, flat, *floats = _lexsort_plan(field, target)
    kept = plan.retained(plan.n_indices)
    assert all(type(v) is int for idx in kept for v in astuple(idx))
    assert [(idx.level, int(np.ravel_multi_index(
                (idx.patch, idx.etype - 1, idx.k1, idx.k2, idx.m1, idx.m2),
                field.level(idx.level).shape))) for idx in kept] == list(
        zip(level.tolist(), flat.tolist()))
    for got, want in zip((plan.weights, plan.weight_p, plan.tail_p), floats):
        assert np.array_equal(got.view(np.int64), want.view(np.int64))


def test_plan_keeps_only_its_weights_and_tail(cube, haar):
    # the plan holds the sorted weights (8N bytes) and the tail table
    # (8N + 8); no per-index level or position array is built or kept
    shape = empty_field(haar, cube.n_patches, 7)
    rng = np.random.default_rng(7)
    field = CoefficientField(
        basis=haar, J=7, n_patches=cube.n_patches, coarse=shape.coarse,
        levels={j: rng.standard_normal(a.shape) for j, a in shape.levels.items()})
    n = sum(a.size for a in field.levels.values())
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        plan = n_term_plan(field, L2)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert [f.name for f in fields(plan)] == ["target", "field", "weights", "tail_p"]
    assert plan.weights.nbytes + plan.tail_p.nbytes == 2 * 8 * n + 8
    # the weights are sorted in place: w, then the tail table, is the peak
    # (2.0 * 8n measured; 4.0 * 8n with an argsort and a gathered copy)
    assert peak - base < 2.1 * 8 * n
    # 4 KiB for the plan object and other small Python objects
    assert kept - base <= 2 * 8 * n + 8 + 4096


# each reduction of a coefficient field, with its level sums
_REDUCTIONS = {
    "error_at": lambda f: n_term_plan(f, L2).error_at(10),
    "best_n_term": lambda f: best_n_term(f, L2, 10),
    "uniform_approx": lambda f: uniform_approx(f, L2, 2),
    "level_tail_sums": lambda f: level_tail_sums(f, 1.25, kinds="interior"),
    "besov_norm": lambda f: besov_norm(f, L2),
    "seq_norm": lambda f: seq_norm(f, L2),
}


def _with_nan(field, level, at):
    """`field` with one NaN coefficient, in `level` or (None) the generator block."""
    coarse = field.coarse.copy()
    levels = {j: a.copy() for j, a in field.levels.items()}
    (coarse if level is None else levels[level])[at] = np.nan
    return CoefficientField(basis=field.basis, J=field.J, n_patches=field.n_patches,
                            coarse=coarse, levels=levels, surface=field.surface)


@pytest.mark.parametrize("call", list(_REDUCTIONS))
def test_a_nan_coefficient_is_a_value_error_naming_its_level(cube, haar, call):
    # each of these returned nan
    field = _with_nan(synth_field(cube, haar, "random_besov", 4, spec=L2, seed=3),
                      3, (1, 2, 3, 4, 0, 0))
    with pytest.raises(ValueError, match="sum over level 3 is not finite"):
        _REDUCTIONS[call](field)


@pytest.mark.parametrize("reduce", [_REDUCTIONS["besov_norm"], _REDUCTIONS["seq_norm"],
                                    lambda f: coarse_lp_norm(f, math.inf)],
                         ids=["besov_norm", "seq_norm", "coarse_lp_norm-inf"])
def test_a_nan_generator_coefficient_is_a_value_error(cube, haar, reduce):
    # at p = inf, Python's max(best, nan) dropped the nan of patch 2
    field = _with_nan(synth_field(cube, haar, "random_besov", 4, spec=L2, seed=3),
                      None, (2, 0, 0, 0, 0))
    with pytest.raises(ValueError, match="sum over the generator block is not finite"):
        reduce(field)


@pytest.mark.parametrize("call", ["uniform_approx", "level_tail_sums", "besov_norm"])
def test_level_sums_hold_one_level_sized_temporary(cube, haar, call):
    # |c| is formed once per level, then scaled and raised in place; the
    # binary operators held two or three level-sized arrays at once
    field = synth_field(cube, haar, "random_besov", 7, spec=L2, seed=5)
    largest = max(a.nbytes for a in field.levels.values())
    _REDUCTIONS[call](field)      # the level masks are cached
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        _REDUCTIONS[call](field)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - base <= 1.25 * largest


@settings(max_examples=40)
@given(seed=st.integers(0, 2 ** 16), alpha=st.floats(0.0, 3.0),
       n=st.integers(0, 1600))
def test_error_is_the_norm_of_the_dropped_terms(cube, haar, seed, alpha, n):
    # the retained indices outweigh every dropped one, and error_at(n) is the
    # weighted l2 norm of exactly the dropped coefficients
    field = _random_field(cube, haar, seed=seed)
    target = BesovSpec(alpha, 2.0, 2.0)
    plan = n_term_plan(field, target)
    e = target.weight_exponent()
    weight = {j: (2.0 ** (j * e)) * np.abs(field.level(j))
              for j in field.level_range()}
    dropped = {j: np.ones(w.shape, dtype=bool) for j, w in weight.items()}
    for idx in plan.retained(n):
        dropped[idx.level][idx.patch, idx.etype - 1,
                           idx.k1, idx.k2, idx.m1, idx.m2] = False
    kept_w = [w[~dropped[j]] for j, w in weight.items()]
    dropped_w = [w[dropped[j]] for j, w in weight.items()]
    assert (min(w.min(initial=np.inf) for w in kept_w)
            >= max(w.max(initial=0.0) for w in dropped_w))
    total = sum(float((w ** 2).sum()) for w in dropped_w)
    assert plan.error_at(n) == pytest.approx(math.sqrt(total), rel=1e-12)


def test_best_n_term_returns_heaviest(cube, haar):
    field = _random_field(cube, haar, seed=8)
    target = BesovSpec(1.2, 2.0, 2.0)
    indices, err = best_n_term(field, target, 5)
    assert len(indices) == 5
    e = target.weight_exponent()
    weights = sorted(
        (2.0 ** (j * e) * abs(v)
         for j in field.level_range()
         for v in field.level(j).ravel()),
        reverse=True)
    got = sorted((2.0 ** (i.level * e) * abs(field.level(i.level)[
        i.patch, i.etype - 1, i.k1, i.k2, i.m1, i.m2]) for i in indices),
                 reverse=True)
    assert got == pytest.approx(weights[:5], rel=1e-13)
    assert err <= n_term_plan(field, target).error_at(4)


def test_uniform_approx_census(cube, haar):
    field = _random_field(cube, haar, seed=2)
    full = uniform_approx(field, L2, field.J)
    assert full.error == 0.0
    assert full.n_effective == sum(level_size(haar, j, 6)
                                   for j in field.level_range())
    nothing = uniform_approx(field, L2, -1)
    assert nothing.n_effective == 0
    assert nothing.error == pytest.approx(n_term_plan(field, L2).error_at(0))
    partial = uniform_approx(field, L2, 1)
    assert partial.n_effective == sum(level_size(haar, j, 6) for j in (0, 1))


_POWER_LAW = [(16, 1.0), (32, 0.5), (64, 0.25), (128, 0.125)]


@pytest.mark.parametrize("call", [
    lambda field: BesovSpec(math.nan, 2.0, 2.0),
    lambda field: fit_rate([(16, math.nan)] + _POWER_LAW[1:]),
    lambda field: fit_rate([(16, math.inf)] + _POWER_LAW[1:]),
    lambda field: fit_rate(_POWER_LAW[:3] + [(math.inf, 0.1)]),
    lambda field: level_tail_sums(field, math.nan),
    lambda field: level_tail_sums(field, -1.0),
    lambda field: whitney_check(lambda x, y: np.exp(x + y), (0, 0, math.nan), 2),
    lambda field: whitney_check(lambda x, y: np.exp(x + y), (math.inf, 0, 0.5), 2),
], ids=["alpha-nan", "fit-error-nan", "fit-error-inf", "fit-n-inf",
        "tau-nan", "tau-negative", "edge-nan", "corner-inf"])
def test_nonfinite_input_is_a_value_error(cube, haar, call):
    # these used to return nan or inf, or to fail inside numpy's SVD
    with pytest.raises(ValueError, match="finite"):
        call(_random_field(cube, haar, seed=3, J=1))


def test_fit_rate_recovers_exact_power_law():
    ns = [2 ** m for m in range(4, 12)]
    samples = [(n, 3.0 * n ** -0.75) for n in ns]
    report = fit_rate(samples, predicted=0.75)
    assert report.slope == pytest.approx(-0.75, abs=1e-12)
    assert report.decay == pytest.approx(0.75, abs=1e-12)
    assert report.r_squared == pytest.approx(1.0, abs=1e-12)
    assert report.verdict == "consistent"
    # with seven or more samples the ends are trimmed before fitting
    assert report.fit_lo == 2 and report.fit_hi == len(ns) - 1


def test_fit_rate_trims_polluted_ends():
    ns = [2 ** m for m in range(4, 13)]
    errors = [8.0 * n ** -0.5 for n in ns]
    errors[1] *= 0.9   # bend the head (stays monotone)
    errors[-1] *= 0.9  # truncation dip at the tail
    report = fit_rate(list(zip(ns, errors)))
    assert report.slope == pytest.approx(-0.5, abs=1e-12)


def test_fit_rate_verdict_tolerance():
    ns = [2 ** m for m in range(4, 10)]
    samples = [(n, n ** -0.6) for n in ns]
    assert fit_rate(samples, predicted=0.646).verdict == "consistent"
    assert fit_rate(samples, predicted=0.71).verdict == "inconsistent"
    # below the default band, and either side of its absolute floor
    assert fit_rate(samples, predicted=0.53).verdict == "inconsistent"
    flat = [(n, n ** -0.2) for n in ns]
    assert fit_rate(flat, predicted=0.24).verdict == "consistent"
    assert fit_rate(flat, predicted=0.26).verdict == "inconsistent"


def test_fit_rate_input_validation():
    with pytest.raises(ValueError):
        fit_rate([(16, 1.0), (32, 0.5), (64, 0.25)])
    with pytest.raises(ValueError):
        fit_rate([(16, 1.0), (8, 0.5), (64, 0.25), (128, 0.1)])
    with pytest.raises(ValueError):
        fit_rate([(16, 1.0), (32, 1.5), (64, 0.25), (128, 0.1)])
    with pytest.raises(ValueError):
        fit_rate([(16, 1.0), (32, 0.5), (64, -0.2), (128, 0.1)])


def test_predicted_rate_cases():
    dst = BesovSpec(0.0, 2.0, 2.0)
    # gamma equals the integrability payment: the q-gap caps the rate
    limiting = BesovSpec(1.0, 1.0, 1.0)
    assert predicted_rate(limiting, dst) == pytest.approx(0.5)
    # strict smoothness surplus: the full gamma / 2
    assert predicted_rate(BesovSpec(2.5, 1.0, 1.0), dst) == pytest.approx(1.25)
    with pytest.raises(ValueError):
        predicted_rate(BesovSpec(0.5, 2.0, 2.0), BesovSpec(1.0, 2.0, 2.0))


def test_alpha_gamma_star():
    assert alpha_star(1.0, 2, 1.0, 2.0) == pytest.approx(1.0)
    assert alpha_star(0.5, 1, 0.75, 2.0) == pytest.approx(0.5)
    assert alpha_star(1.8, 2, 2.0, 2.0) == pytest.approx(0.2)
    # s' = 0 resolves to theta = 1: the full doubled-adaptivity gap
    assert gamma_star(0.75, 0.0, 2.0, 0.5) == pytest.approx(1.0)
    assert gamma_star(1.0, 0.5, 2.0, 1.0) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        gamma_star(0.75, 1.6, 2.0, 0.5)


def test_synth_suffix_saturator_is_exact(cube, haar):
    gamma = 1.0
    field = synth_field(cube, haar, "suffix_saturator", 4, gamma=gamma, spec=L2)
    plan = n_term_plan(field, L2)
    M = plan.n_indices
    a = gamma * L2.p / 2.0
    for n in (0, 1, 16, 200, 4000):
        want = ((n + 1.0) ** -a - (M + 1.0) ** -a) ** (1.0 / L2.p)
        assert plan.error_at(n) == pytest.approx(want, rel=1e-10)


def test_synth_reproducible(cube, haar):
    f1 = synth_field(cube, haar, "random_besov", 3, spec=L2, seed=42)
    f2 = synth_field(cube, haar, "random_besov", 3, spec=L2, seed=42)
    f3 = synth_field(cube, haar, "random_besov", 3, spec=L2, seed=43)
    for j in f1.level_range():
        assert np.array_equal(f1.level(j), f2.level(j))
    assert not np.array_equal(f1.level(3), f3.level(3))


def test_synth_extremal_and_lacunary(cube, haar):
    ext = synth_field(cube, haar, "extremal_a_star", 3, level=2, alpha=1.0)
    assert np.all(ext.level(2) == 2.0 ** (-2 * 2.0))
    assert np.all(ext.level(1) == 0.0) and np.all(ext.level(3) == 0.0)
    lac = synth_field(cube, haar, "lacunary", 3, alpha=0.5)
    for j in lac.level_range():
        lev = lac.level(j)
        assert np.count_nonzero(lev) == 1
        assert lev[0, 0, 0, 0, 0, 0] == 2.0 ** (-j * 1.5)


def test_level_tail_sums_split(cube, haar):
    field = _random_field(cube, haar, seed=77)
    tau = 1.0
    full = level_tail_sums(field, tau)
    interior = level_tail_sums(field, tau, kinds="interior")
    boundary = level_tail_sums(field, tau, kinds="boundary")
    for j in field.level_range():
        assert full[j] == pytest.approx(interior[j] + boundary[j], rel=1e-12)
    with pytest.raises(ValueError):
        level_tail_sums(field, tau, kinds="everything")


def test_boundary_census_growth(cube, haar):
    js = np.arange(2, 7)
    counts = [float((~classify_level(cube, haar, j)).sum() * 3) for j in js]
    # one boundary layer of cells: the census grows like 2^j
    slope = np.polyfit(js * np.log(2.0), np.log(counts), 1)[0]
    assert 0.8 <= slope <= 1.35


def test_assess_growth_windows():
    stable = assess_growth([1.0, 1.5, 1.7, 1.75, 1.76, 1.762])
    assert stable.stable and not stable.growing
    growing = assess_growth([1.0, 1.1, 1.3, 1.7, 2.4, 3.6])
    assert growing.growing and not growing.stable
    mixed = assess_growth([1.0, 1.2, 1.21, 1.5, 1.51, 1.9])
    assert not mixed.stable and not mixed.growing
    with pytest.raises(ValueError):
        assess_growth([1.0, 1.1, 1.2])


def test_cumulative_tail_orders_levels():
    sums = {3: 1.0, 1: 2.0, 2: 0.5}
    assert np.allclose(cumulative_tail(sums), [2.0, 2.5, 3.5])


def test_tail_check_ranges(cube, haar):
    field = _random_field(cube, haar, seed=13)
    lhs, rhs, ratio = boundary_tail_check(field, 0.75, 2.0, 1.25)
    assert lhs > 0 and rhs > 0 and ratio == pytest.approx(lhs / rhs)
    with pytest.raises(ValueError):
        boundary_tail_check(field, 0.75, 2.0, 0.4)
    with pytest.raises(ValueError):
        interior_tail_check(field, 1.0, WeightedSpec(1, 0.5), 0.95)


def test_interior_tail_check_raises_the_given_norm_to_tau(cube, haar):
    field = _random_field(cube, haar, seed=13)
    lhs, rhs, ratio = interior_tail_check(field, 3.0, WeightedSpec(1, 0.5), 1.6)
    assert lhs == math.fsum(level_tail_sums(field, 1.6,
                                            kinds="interior").values())
    assert rhs == 3.0 ** 1.6 and ratio == lhs / rhs


@pytest.mark.parametrize("tau", [0, 0.0, -1.25, math.inf, math.nan])
def test_tail_checks_reject_tau_that_is_not_positive_and_finite(cube, haar,
                                                                 tau):
    field = _random_field(cube, haar, seed=13)
    with pytest.raises(ValueError, match="tau must be a positive finite"):
        boundary_tail_check(field, 0.75, 2.0, tau)
    with pytest.raises(ValueError, match="tau must be a positive finite"):
        interior_tail_check(field, 1.0, WeightedSpec(1, 0.5), tau)


def test_whitney_polynomial_reproduction():
    # anything of total degree < k is matched exactly: the ratio is 0.0
    assert whitney_check(lambda x, y: 1.0 + 2 * x - y, (0.3, 0.4, 0.25), 2) == 0.0
    assert whitney_check(lambda x, y: x * x - y + 0.2 * x * y,
                         (0.1, 0.2, 0.5), 3) == 0.0
    # degree k is no longer free
    assert whitney_check(lambda x, y: x * x, (0.3, 0.4, 0.25), 2) > 0.0


def test_whitney_scale_invariance_of_smooth_ratio():
    func = lambda x, y: np.exp(x + y)  # noqa: E731
    vals = [whitney_check(func, (0.3, 0.4, 0.25 * 0.5 ** i), 2)
            for i in range(4)]
    assert all(v > 0 for v in vals)
    spread = max(vals) / min(vals)
    assert spread < 1.2


def test_whitney_validation():
    with pytest.raises(ValueError):
        whitney_check(lambda x, y: x, (0.0, 0.0, -1.0), 2)
    with pytest.raises(ValueError):
        whitney_check(lambda x, y: x, (0.0, 0.0, 1.0), 0)
