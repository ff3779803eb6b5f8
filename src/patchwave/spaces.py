"""Smoothness-space norms computed from wavelet coefficient fields.

Scales are parameterized by (alpha, p, q): alpha is the smoothness order in
the L2-referenced scale, p the integrability of the level blocks, q the
across-level summability. The admissible window for the two-dimensional
surface setting is 1/2 <= 1/p <= alpha/2 + 1/2, with q <= 2 required exactly
on the upper (critical) line. Along the critical line 1/p = alpha/2 + 1/2 all
level weights collapse to one, which is what makes greedy coefficient
thresholding work in that regime.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._gauss import unit_rule
from .wavelets import CoefficientField, family_for

__all__ = [
    "BesovSpec",
    "admissible",
    "on_critical_line",
    "critical_line_spec",
    "adaptivity_tau",
    "besov_norm",
    "besov_level_terms",
    "seq_norm",
    "coarse_lp_norm",
    "embedding_predicate",
]

_TOL = 1e-12


@dataclass(frozen=True)
class BesovSpec:
    """Scale parameters (alpha, p, q); p or q may be math.inf."""

    alpha: float
    p: float
    q: float

    def __post_init__(self):
        if not math.isfinite(self.alpha):
            raise ValueError(f"alpha must be finite, got {self.alpha!r}")
        if not (self.p > 0):
            raise ValueError(f"p must be positive (math.inf allowed), "
                             f"got {self.p!r}")
        if not (self.q > 0):
            raise ValueError(f"q must be positive (math.inf allowed), "
                             f"got {self.q!r}")

    @property
    def inv_p(self) -> float:
        return 0.0 if math.isinf(self.p) else 1.0 / self.p

    @property
    def inv_q(self) -> float:
        return 0.0 if math.isinf(self.q) else 1.0 / self.q

    def weight_exponent(self) -> float:
        """Per-level weight is 2**(level * weight_exponent())."""
        return self.alpha + 2.0 * (0.5 - self.inv_p)


def adaptivity_tau(alpha: float) -> float:
    """Integrability on the critical line at a finite alpha > -1: 1/tau = alpha/2 + 1/2."""
    if not (math.isfinite(alpha) and alpha > -1.0):
        raise ValueError(f"alpha must be finite and > -1, got {alpha!r}")
    return 2.0 / (alpha + 1.0)


def critical_line_spec(alpha: float) -> BesovSpec:
    """The spec on the critical line with p = q = tau(alpha)."""
    tau = adaptivity_tau(alpha)
    return BesovSpec(alpha=alpha, p=tau, q=tau)


def on_critical_line(spec: BesovSpec) -> bool:
    return abs(spec.inv_p - (spec.alpha / 2.0 + 0.5)) <= _TOL


def admissible(spec: BesovSpec) -> bool:
    """1/2 <= 1/p <= alpha/2 + 1/2, with q <= 2 required on the critical line."""
    lo, hi = 0.5, spec.alpha / 2.0 + 0.5
    if spec.inv_p < lo - _TOL or spec.inv_p > hi + _TOL:
        return False
    if on_critical_line(spec) and spec.q > 2.0 + _TOL:
        return False
    return True


def _finite_sum(total: float, block: str) -> float:
    """`total`, a sum over the coefficients of `block`, or ValueError if it
    is not finite."""
    if not math.isfinite(total):
        raise ValueError(f"the sum over {block} is not finite: a coefficient "
                         "there is NaN or infinite, or the sum overflows")
    return total


def _lp(a, p: float, block: str) -> float:
    """l^p norm of the absolute values of the coefficient array `a` of
    `block`, or ValueError if it is not finite."""
    if math.isinf(p):
        return _finite_sum(float(np.abs(a).max()) if a.size else 0.0, block)
    w = np.abs(a)
    w **= p
    return _finite_sum(float(w.sum()), block) ** (1.0 / p)


def _lq_combine(terms, q: float) -> float:
    terms = np.asarray(terms, dtype=float)
    if math.isinf(q):
        return float(terms.max()) if terms.size else 0.0
    return float((terms ** q).sum() ** (1.0 / q))


def coarse_lp_norm(field: CoefficientField, p: float) -> float:
    """Geometric L_p(surface) norm of the generator-block part of the expansion.

    For finite p, an 8-point Gauss rule per coarse cell and direction. For
    p = inf the generator part is a product of per-direction polynomials of
    degree < 2 on each coarse cell, so the max over cell corners is exact.
    """
    if field.surface is None:
        raise ValueError("field has no surface attached")
    basis = field.basis
    fam = family_for(basis)
    j0 = basis.j_star
    cells = 1 << j0
    r = basis.d

    if math.isinf(p):
        eps = 1e-9
        edge = np.concatenate([[eps], np.linspace(0.25, 0.75, 3), [1 - eps]])
        x = ((np.arange(cells)[:, None] + edge[None, :]) / cells).ravel()
    else:
        xg, wg = unit_rule(8)
        x = ((np.arange(cells)[:, None] + xg[None, :]) / cells).ravel()
        w = np.tile(wg / cells, cells)

    k = np.minimum((x * cells).astype(int), cells - 1)
    loc = x * cells - k
    sval = np.stack([fam.scaling(m, loc) for m in range(r)])   # (r, N)

    best = 0.0
    total = 0.0
    for patch in field.surface.patches:
        C = field.coarse[patch.index]                          # (K, K, r, r)
        Cg = C[np.ix_(k, k)]                                   # (N, N, r, r)
        vals = (1 << j0) * np.einsum("abmn,ma,nb->ab", Cg, sval, sval)
        if math.isinf(p):
            # checked per patch: max(best, nan) would drop the nan
            best = max(best, _finite_sum(float(np.abs(vals).max()),
                                         "the generator block"))
        else:
            S, T = np.meshgrid(x, x, indexing="ij")
            jac = patch.jacobian_det(S.ravel(), T.ravel()).reshape(S.shape)
            total += float(np.sum(np.outer(w, w) * np.abs(vals) ** p * jac))
    if math.isinf(p):
        return best
    return _finite_sum(total, "the generator block") ** (1.0 / p)


def besov_level_terms(field: CoefficientField, spec: BesovSpec) -> dict[int, float]:
    """Weighted per-level contributions 2^{j e} (sum_xi |c_xi|^p)^{1/p}."""
    e = spec.weight_exponent()
    return {j: 2.0 ** (j * e) * _lp(field.levels[j], spec.p, f"level {j}")
            for j in field.level_range()}


def besov_norm(field: CoefficientField, spec: BesovSpec) -> float:
    """Coarse L_p part plus weighted level aggregate; errors on inadmissible specs."""
    if not admissible(spec):
        raise ValueError(
            f"(alpha={spec.alpha}, p={spec.p}, q={spec.q}) lies outside the "
            "admissible window 1/2 <= 1/p <= alpha/2 + 1/2 (q <= 2 on the line)")
    terms = besov_level_terms(field, spec)
    tail = _lq_combine(list(terms.values()), spec.q)
    return coarse_lp_norm(field, spec.p) + tail


def seq_norm(field: CoefficientField, spec: BesovSpec) -> float:
    """Pure coefficient-space version: the generator block enters as a level-j*
    term (weight 2^{j* e}, l^p over its coefficients); no surface quadrature."""
    e = spec.weight_exponent()
    terms = [2.0 ** (field.basis.j_star * e)
             * _lp(field.coarse, spec.p, "the generator block")]
    terms.extend(besov_level_terms(field, spec).values())
    return _lq_combine(terms, spec.q)


def embedding_predicate(src: BesovSpec, dst: BesovSpec) -> bool:
    """Continuous embedding of the src scale into the dst scale.

    Holds when the smoothness gap gamma = alpha0 - alpha1 strictly exceeds
    2 max{0, 1/p0 - 1/p1}, and in the limiting equal-gap case exactly when
    q0 <= q1.
    """
    gamma = src.alpha - dst.alpha
    need = 2.0 * max(0.0, src.inv_p - dst.inv_p)
    if gamma > need + _TOL:
        return True
    if abs(gamma - need) <= _TOL:
        return src.q <= dst.q + _TOL
    return False

