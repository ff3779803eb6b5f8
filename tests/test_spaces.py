import dataclasses
import math

import numpy as np
import pytest

from patchwave import (
    BesovSpec,
    admissible,
    adaptivity_tau,
    besov_level_terms,
    besov_norm,
    coarse_lp_norm,
    critical_line_spec,
    embedding_predicate,
    on_critical_line,
    seq_norm,
    synth_field,
)


def _reference_admissible(alpha, p, q):
    ip = 1.0 / p
    line = alpha / 2.0 + 0.5
    if not (0.5 - 1e-12 <= ip <= line + 1e-12):
        return False
    if abs(ip - line) <= 1e-12 and q > 2.0 + 1e-12:
        return False
    return True


@pytest.mark.parametrize("alpha", [0.2, 0.5, 1.0, 1.5, 2.0, 3.0])
@pytest.mark.parametrize("inv_p", [0.3, 0.5, 0.75, 1.0, 1.25, 1.6])
@pytest.mark.parametrize("q", [1.0, 2.0, 3.0])
def test_admissible_window(alpha, inv_p, q):
    spec = BesovSpec(alpha, 1.0 / inv_p, q)
    assert admissible(spec) == _reference_admissible(alpha, 1.0 / inv_p, q)


def test_critical_line_edges():
    # on the line q decides; 1e-12 is the published tolerance
    assert admissible(BesovSpec(1.0, 1.0, 2.0))
    assert not admissible(BesovSpec(1.0, 1.0, 2.0 + 1e-9))
    assert admissible(BesovSpec(1.0, 1.0, 1.0))
    # strictly inside the window q is unconstrained
    assert admissible(BesovSpec(1.2, 1.0, 5.0))
    assert on_critical_line(BesovSpec(1.0, 1.0, 2.0))
    assert not on_critical_line(BesovSpec(1.2, 1.0, 2.0))


@pytest.mark.parametrize("make", [adaptivity_tau, critical_line_spec])
@pytest.mark.parametrize("alpha", [-1.0, -2.5, math.nan, math.inf])
def test_the_critical_line_needs_a_finite_alpha_above_minus_one(make, alpha):
    with pytest.raises(ValueError, match="alpha must be finite and > -1"):
        make(alpha)


def test_adaptivity_scale():
    for alpha in (0.5, 1.0, 2.0):
        tau = adaptivity_tau(alpha)
        assert 1.0 / tau == pytest.approx(alpha / 2.0 + 0.5, abs=1e-15)
        spec = critical_line_spec(alpha)
        assert spec.alpha == alpha
        assert spec.p == pytest.approx(tau)
        assert on_critical_line(spec)
        assert admissible(spec)


def test_weight_exponent():
    assert BesovSpec(1.0, 2.0, 2.0).weight_exponent() == pytest.approx(1.0)
    assert BesovSpec(1.0, 1.0, 1.0).weight_exponent() == pytest.approx(0.0)
    assert BesovSpec(2.0, 2.0, 2.0).weight_exponent() == pytest.approx(2.0)
    # e = alpha + 2 (1/2 - 1/p)
    spec = BesovSpec(0.8, 4.0 / 3.0, 2.0)
    assert spec.weight_exponent() == pytest.approx(0.8 + 2 * (0.5 - 0.75))


def test_lacunary_norm_by_hand(cube, haar):
    alpha0 = 1.0
    field = synth_field(cube, haar, "lacunary", 5, alpha=alpha0)
    spec = BesovSpec(0.75, 2.0, 2.0)
    e = spec.weight_exponent()
    terms = besov_level_terms(field, spec)
    for j in field.level_range():
        expect = 2.0 ** (j * e) * 2.0 ** (-j * (alpha0 + 1.0))
        assert terms[j] == pytest.approx(expect, rel=1e-13)
    want = math.fsum(t ** 2 for t in terms.values()) ** 0.5
    assert seq_norm(field, spec) == pytest.approx(
        (want ** 2) ** 0.5, rel=1e-13)  # coarse block is empty here
    assert besov_norm(field, spec) == pytest.approx(want, rel=1e-13)


def test_seq_norm_includes_generator_block(cube, haar):
    without_field = synth_field(cube, haar, "lacunary", 3, alpha=1.0)
    coarse = without_field.coarse.copy()
    coarse[0, 0, 0, 0, 0] = 2.0
    with_field = dataclasses.replace(without_field, coarse=coarse)
    spec = BesovSpec(1.0, 2.0, 2.0)
    with_gen = seq_norm(with_field, spec)
    without = seq_norm(without_field, spec)
    assert with_gen == pytest.approx((without ** 2 + 4.0) ** 0.5, rel=1e-12)


def test_coarse_lp_norm_of_constant(cube, haar):
    from patchwave import analyze

    field = analyze(cube, lambda pts: np.ones(len(pts)), haar, 1)
    # the function 1 on a surface of area 6
    assert coarse_lp_norm(field, 2.0) == pytest.approx(math.sqrt(6.0), rel=1e-12)
    assert coarse_lp_norm(field, 1.0) == pytest.approx(6.0, rel=1e-12)
    assert coarse_lp_norm(field, math.inf) == pytest.approx(1.0, rel=1e-9)


def test_sobolev_norm_weighting(cube, haar):
    # on the Hilbert line p = q = 2 the scale is the Sobolev scale H^s
    field = synth_field(cube, haar, "random_besov", 3,
                        spec=BesovSpec(1.0, 2.0, 2.0), seed=9)
    coarse_part = coarse_lp_norm(field, 2.0)
    for s in (0.0, 0.25):
        detail = math.fsum(4.0 ** (s * j) * float((field.level(j) ** 2).sum())
                           for j in field.level_range())
        assert besov_norm(field, BesovSpec(s, 2.0, 2.0)) == pytest.approx(
            coarse_part + math.sqrt(detail), rel=1e-12)


def test_norm_rejects_inadmissible(cube, haar):
    field = synth_field(cube, haar, "lacunary", 3, alpha=1.0)
    with pytest.raises(ValueError):
        besov_norm(field, BesovSpec(0.5, 1.0, 2.0))


def test_embedding_predicate():
    # smoothness pays for integrability at rate 2 (two-dimensional boundary)
    assert embedding_predicate(BesovSpec(2.0, 1.0, 1.0), BesovSpec(1.0, 2.0, 2.0))
    assert not embedding_predicate(BesovSpec(1.5, 1.0, 1.0), BesovSpec(0.9, 2.0, 2.0))
    assert embedding_predicate(BesovSpec(1.5, 2.0, 2.0), BesovSpec(1.0, 2.0, 2.0))
    assert not embedding_predicate(BesovSpec(1.0, 2.0, 2.0), BesovSpec(1.5, 2.0, 2.0))
