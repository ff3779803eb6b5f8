"""Best n-term approximation, rate fitting, and tail-sum diagnostics.

Everything here lives on the sequence side of a wavelet expansion: a
coefficient field is reduced to weighted moduli, sorted once into an
approximation plan, and the plan answers error queries for every n.  The
rest of the module turns decay measurements into fitted exponents and
checks classified tail sums against norm bounds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from ._gauss import unit_rule
from .spaces import (BesovSpec, _finite_sum, admissible, besov_norm,
                     embedding_predicate)
from .surface import PolyhedralSurface
from .wavelets import (BasisSpec, CoefficientField, WaveletIndex, _zero_arrays,
                       classify_level, level_size)
from .weighted import WeightedSpec

_TOL = 1e-12
# Below this many stored weights, tail sums use math.fsum (exactly rounded);
# above it, the precomputed cumulative table.
_EXACT_SUM_CUTOFF = 4096


def _require_sequence_target(target: BesovSpec) -> None:
    if math.isinf(target.p) or target.p != target.q:
        raise ValueError("n-term targets need p = q < inf")
    if not admissible(target):
        raise ValueError(f"target {target} is not admissible")


# -- the approximation plan ------------------------------------------------------


def _index_weights(field: CoefficientField, target: BesovSpec):
    """Weights 2**(j e) |c| in level, then flat order, and the level offsets."""
    e = target.weight_exponent()
    js = field.level_range()
    offsets = np.cumsum([0] + [field.level(j).size for j in js], dtype=np.int64)
    w = np.empty(offsets[-1])
    for j, lo, hi in zip(js, offsets, offsets[1:]):
        np.multiply(2.0 ** (j * e), np.abs(field.level(j)).ravel(), out=w[lo:hi])
    return w, offsets


@dataclass(frozen=True)
class NTermPlan:
    """Every wavelet index of a field, ordered by decreasing weighted modulus.

    The weight of index (j, xi) is 2**(j * e) * |c| with e the target's
    weight exponent; ties are broken by the lexicographic index order
    (level, patch, type, cell, component).  The generator block is always
    retained and never counts against n.  ``tail_p[n]`` holds
    sum_{m >= n} weight_m ** p, so errors for all n come from one table.
    The plan stores no index positions: ``retained`` sorts ``field`` again.
    """

    target: BesovSpec
    field: CoefficientField
    weights: np.ndarray
    tail_p: np.ndarray

    @property
    def n_indices(self) -> int:
        return len(self.weights)

    @property
    def weight_p(self) -> np.ndarray:
        """weight_m ** p for every index, computed on each access."""
        return self.weights ** self.target.p

    def error_at(self, n: int) -> float:
        """Sequence-norm error after keeping the n heaviest wavelet terms."""
        if n < 0:
            raise ValueError("n must be nonnegative")
        n = min(n, self.n_indices)
        p = self.target.p
        if self.n_indices <= _EXACT_SUM_CUTOFF:
            total = math.fsum(self.weight_p[n:].tolist())
        else:
            total = float(self.tail_p[n])
        return total ** (1.0 / p)

    def retained(self, n: int) -> tuple[WaveletIndex, ...]:
        """The first n indices of the plan as WaveletIndex tuples."""
        w, offsets = _index_weights(self.field, self.target)
        order = np.argsort(-w, kind="stable")[:max(n, 0)]
        which = np.searchsorted(offsets, order, side="right") - 1
        js, r = self.field.level_range(), self.field.basis.d
        out = []
        for lev, flat in zip(which, order - offsets[which]):
            cells = 1 << js[lev]
            i, e, k1, k2, m1, m2 = np.unravel_index(
                int(flat), (self.field.n_patches, 3, cells, cells, r, r))
            out.append(WaveletIndex(js[lev], int(i), int(e) + 1,
                                    int(k1), int(k2), int(m1), int(m2)))
        return tuple(out)


def n_term_plan(field: CoefficientField, target: BesovSpec) -> NTermPlan:
    """Sort all wavelet coefficients of ``field`` by target-weighted modulus.

    ValueError, naming the level, if a weight or the sum of their p-th
    powers is not finite.
    """
    _require_sequence_target(target)
    w, _ = _index_weights(field, target)
    # primary: weight descending; ties: level, then flat position ascending,
    # which is the order of w, so a stable sort of -w keeps it. Negation is
    # exact: the sorted values are those of w[argsort(-w, kind="stable")]
    np.negative(w, out=w)
    w.sort(kind="stable")
    np.negative(w, out=w)
    tail = np.zeros(len(w) + 1)
    wp = tail[:-1]
    wp[...] = w
    wp **= target.p
    rev = tail[-2::-1]
    np.cumsum(rev, out=rev)
    if not math.isfinite(tail[0]):
        # name the first level whose own sum is not finite
        e = target.weight_exponent()
        for j in field.level_range():
            _level_sum(field, j, 2.0 ** (j * e), target.p)
        _finite_sum(float(tail[0]), "all levels")
    return NTermPlan(target=target, field=field, weights=w, tail_p=tail)


def best_n_term(field: CoefficientField, target: BesovSpec,
                n: int) -> tuple[tuple[WaveletIndex, ...], float]:
    """Keep the n heaviest wavelet terms; return them and the tail error.

    Exactly optimal among coefficient-subset approximations in the target
    sequence norm, and deterministic under the tie rule.  The generator
    block is free: it is always kept and n counts wavelet terms only.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    plan = n_term_plan(field, target)
    return plan.retained(n), plan.error_at(n)


class UniformApprox(NamedTuple):
    error: float
    n_effective: int


def uniform_approx(field: CoefficientField, target: BesovSpec,
                   J_keep: int) -> UniformApprox:
    """Error of dropping every level above J_keep, in the target sequence norm.

    n_effective counts all indices of the kept levels (a level-truncation
    scheme stores the full census whether or not entries vanish).
    """
    _require_sequence_target(target)
    e = target.weight_exponent()
    p = target.p
    total = 0.0
    n_eff = 0
    for j in field.level_range():
        if j <= J_keep:
            n_eff += level_size(field.basis, j, field.n_patches)
        else:
            total += _level_sum(field, j, 2.0 ** (j * e), p)
    return UniformApprox(total ** (1.0 / p), n_eff)


def _level_sum(field: CoefficientField, j: int, scale: float,
               p: float) -> float:
    """sum (scale |c|)^p over level j, or ValueError if it is not finite."""
    w = np.abs(field.level(j)).ravel()
    w *= scale
    w **= p
    return _finite_sum(float(w.sum()), f"level {j}")


# -- predicted exponents ---------------------------------------------------------


def predicted_rate(spec0: BesovSpec, spec1: BesovSpec) -> float:
    """Decay exponent of sigma_n for approximating spec0 functions in spec1.

    gamma/2 when the smoothness gap strictly exceeds the integrability gap;
    min(gamma/2, 1/q0 - 1/q1) in the equality case.
    """
    if not embedding_predicate(spec0, spec1):
        raise ValueError("no embedding from source into target")
    gamma = spec0.alpha - spec1.alpha
    threshold = 2.0 * max(0.0, spec0.inv_p - spec1.inv_p)
    if gamma > threshold + _TOL:
        return gamma / 2.0
    return min(gamma / 2.0, spec0.inv_q - spec1.inv_q)


def alpha_star(rho: float, k: int, s: float, p: float) -> float:
    """Critical adaptivity smoothness from weighted-norm order k, weight rho,
    and a base space (s, p, p)."""
    inv_p = 0.0 if math.isinf(p) else 1.0 / p
    return min(rho, k - rho, s - (inv_p - 0.5))


def gamma_star(s: float, s_prime: float, p: float, alpha_star: float) -> float:
    """Convergence-gap exponent for an interpolated target scale.

    theta interpolates between the base space (s_prime = 0, theta = 1) and
    the target smoothness; the 0/0 corner at s_prime = 0 resolves to
    theta = 1. On a Lipschitz boundary s_prime < min(3/2, 1) = 1.
    """
    inv_p = 0.0 if math.isinf(p) else 1.0 / p
    gap = 2.0 * (inv_p - 0.5)
    if s - s_prime < gap - _TOL:
        raise ValueError("need s - s_prime >= 2(1/p - 1/2)")
    if not (0.0 <= s_prime < 1.0):
        raise ValueError("need 0 <= s_prime < 1 = min(3/2, boundary smoothness)")
    denom = s - gap
    frac = 0.0 if s_prime == 0.0 else s_prime / denom
    theta = 1.0 - frac
    return (s - s_prime) + theta * (2.0 * alpha_star - s)


# -- classified tail sums --------------------------------------------------------


def _level_class_sum(field: CoefficientField, j: int, tau: float,
                     kinds: str) -> float:
    """sum |c|^tau over the wavelet indices of one level, filtered by class."""
    if kinds == "all":
        sel = np.abs(field.level(j))
    else:
        # the mask before |c|: building it (once per level) is the larger
        # transient
        interior = classify_level(field.surface, field.basis, j)
        mask = interior if kinds == "interior" else ~interior
        sel = np.abs(field.level(j))
        # broadcast the per-cell mask over type and component axes
        sel *= mask[:, None, :, :, None, None]
    sel **= tau
    return _finite_sum(float(sel.sum()), f"level {j}")


def level_tail_sums(field: CoefficientField, tau: float,
                    kinds: str = "all") -> dict[int, float]:
    """Per-level sums of |c|^tau over indices of the requested class.

    kinds: "all", "interior", or "boundary" (cell classification against the
    patch boundary).
    """
    if kinds not in ("all", "interior", "boundary"):
        raise ValueError(f"unknown index class {kinds!r}")
    if kinds != "all" and field.surface is None:
        raise ValueError("classified tail sums need the field's surface")
    _inverse_tau(tau)
    return {j: _level_class_sum(field, j, tau, kinds)
            for j in field.level_range()}


_GROWTH_TOL = 0.05
_GROWTH_WINDOW = 3


@dataclass(frozen=True)
class GrowthReport:
    """Per-step growth of a cumulative quantity, judged over a final window."""

    values: np.ndarray
    growths: np.ndarray

    @property
    def stable(self) -> bool:
        """No growth step in the final window exceeds the tolerance."""
        tail = self.growths[-_GROWTH_WINDOW:]
        return bool(len(tail) >= 1 and np.all(tail <= _GROWTH_TOL))

    @property
    def growing(self) -> bool:
        """Every growth step in the final window exceeds the tolerance."""
        tail = self.growths[-_GROWTH_WINDOW:]
        return bool(len(tail) >= 1 and np.all(tail > _GROWTH_TOL))


def assess_growth(values) -> GrowthReport:
    """Relative step-to-step growth of a cumulative sequence.

    A probe quantity "grows" when every one of its last 3 steps increases
    by more than 5%; it is "stable" when none does. Needs at least 4 values.
    """
    v = np.asarray(list(values), dtype=float)
    if len(v) < _GROWTH_WINDOW + 1:
        raise ValueError(f"need at least {_GROWTH_WINDOW + 1} values")
    prev = v[:-1]
    with np.errstate(divide="ignore", invalid="ignore"):
        g = np.where(prev > 0.0, v[1:] / prev - 1.0,
                     np.where(v[1:] > 0.0, np.inf, 0.0))
    return GrowthReport(values=v, growths=g)


def cumulative_tail(level_sums: dict[int, float]) -> np.ndarray:
    """Running totals of per-level tail sums, in increasing level order."""
    return np.cumsum([level_sums[j] for j in sorted(level_sums)])


def _inverse_tau(tau: float) -> float:
    """1/tau for a positive finite tau, else ValueError."""
    if not (math.isfinite(tau) and tau > 0):
        raise ValueError(f"tau must be a positive finite number, got {tau!r}")
    return 1.0 / tau


def _boundary_window(s: float, p: float, tau: float) -> BesovSpec:
    """(s, p, p), or ValueError unless boundary_tail_check admits it and tau."""
    spec = BesovSpec(s, p, p)
    if not admissible(spec):
        raise ValueError(f"(s, p, p) = {spec} is not admissible")
    it, ip = _inverse_tau(tau), spec.inv_p
    if not (0.5 - _TOL <= it <= ip + _TOL or ip < it < 1.0 - ip + s):
        raise ValueError(f"1/tau = {it} outside the admitted range")
    return spec


def _interior_window(weighted: WeightedSpec, tau: float) -> None:
    """ValueError unless interior_tail_check admits tau at `weighted`."""
    it = _inverse_tau(tau)
    bound = 0.5 + min(weighted.rho, weighted.k - weighted.rho)
    if not (0.5 - _TOL <= it < bound - _TOL):
        raise ValueError(f"1/tau = {it} outside [1/2, {bound})")


def boundary_tail_check(field: CoefficientField, s: float, p: float,
                        tau: float) -> tuple[float, float, float]:
    """Compare the boundary-index tail sum against a Besov norm bound.

    lhs = sum over boundary-classified wavelet indices of |c|^tau,
    rhs = besov_norm(field, (s, p, p))^tau; returns (lhs, rhs, lhs/rhs).
    tau must satisfy 1/2 <= 1/tau <= 1/p or 1/p < 1/tau < 1 - 1/p + s.
    """
    spec = _boundary_window(s, p, tau)
    lhs = math.fsum(level_tail_sums(field, tau, kinds="boundary").values())
    rhs = besov_norm(field, spec) ** tau
    ratio = 0.0 if lhs == 0.0 else lhs / rhs
    return lhs, rhs, ratio


def interior_tail_check(field: CoefficientField, norm: float,
                        weighted: WeightedSpec,
                        tau: float) -> tuple[float, float, float]:
    """Compare the interior-index tail sum against a weighted norm bound.

    lhs = sum over interior-classified wavelet indices of |c|^tau,
    rhs = norm^tau, where `norm` is the caller's weighted_sobolev_norm of the
    analyzed function at `weighted` (one value serves every tau); returns
    (lhs, rhs, lhs/rhs). Requires 1/2 <= 1/tau < 1/2 + min(rho, k - rho) and
    a basis whose dual order covers the derivative order k.
    """
    _interior_window(weighted, tau)
    if field.basis.dt < weighted.k:
        raise ValueError("basis dual order is below the derivative order")
    if field.surface is None:
        raise ValueError("interior tail check needs the field's surface")
    lhs = math.fsum(level_tail_sums(field, tau, kinds="interior").values())
    rhs = norm ** tau
    ratio = 0.0 if lhs == 0.0 else lhs / rhs
    return lhs, rhs, ratio


# -- local polynomial approximation ----------------------------------------------


def _fd_partial(f: Callable, X, Y, bx: int, by: int, h: float):
    """Central finite-difference partial derivative of a bivariate callable."""
    if bx > 0:
        return (_fd_partial(f, X + h, Y, bx - 1, by, h)
                - _fd_partial(f, X - h, Y, bx - 1, by, h)) / (2.0 * h)
    if by > 0:
        return (_fd_partial(f, X, Y + h, bx, by - 1, h)
                - _fd_partial(f, X, Y - h, bx, by - 1, h)) / (2.0 * h)
    return f(X, Y)


def whitney_check(f: Callable, Q: tuple[float, float, float], k: int) -> float:
    """Ratio of the best polynomial-fit error on a square to its scaled
    k-th seminorm.

    Q = (x0, y0, edge) is an axis-aligned square; the fit runs over total
    degree < k; both norms use a 12-point Gauss rule per direction, and the
    seminorm takes the order-k partials by central finite differences of
    step edge/1000.  Returns
    ||f - P||_{L2(Q)} / (|Q|^{k/2} |f|_{W^k(L2(Q))}), or exactly 0.0 when
    the numerator is at roundoff level (polynomial reproduction).
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    x0, y0, edge = Q
    if not all(map(math.isfinite, Q)):
        raise ValueError(f"square (x0, y0, edge) must be finite, got {Q!r}")
    if edge <= 0:
        raise ValueError("square edge must be positive")
    nodes, wts = unit_rule(12)
    X, Y = np.meshgrid(x0 + edge * nodes, y0 + edge * nodes, indexing="ij")
    W = np.outer(wts, wts).ravel() * edge * edge
    fv = np.asarray(f(X, Y), dtype=float).ravel()

    # reference coordinates in [-1, 1] for a conditioned Legendre design
    U = (2.0 * (X.ravel() - x0) / edge) - 1.0
    V = (2.0 * (Y.ravel() - y0) / edge) - 1.0
    cols = []
    for a in range(k):
        for b in range(k - a):
            pa = np.polynomial.legendre.legval(U, [0.0] * a + [1.0])
            pb = np.polynomial.legendre.legval(V, [0.0] * b + [1.0])
            cols.append(pa * pb)
    A = np.stack(cols, axis=1) * np.sqrt(W)[:, None]
    rhs = fv * np.sqrt(W)
    coeff, *_ = np.linalg.lstsq(A, rhs, rcond=None)
    resid = rhs - A @ coeff
    numerator = float(np.sqrt((resid ** 2).sum()))

    scale = float(np.sqrt((W * fv ** 2).sum()))
    if numerator <= 1e-11 * max(scale, 1e-300):
        return 0.0

    semi_sq = 0.0
    h_fd = edge * 1e-3
    for bx in range(k + 1):
        by = k - bx
        dv = np.asarray(_fd_partial(f, X, Y, bx, by, h_fd), dtype=float).ravel()
        semi_sq += float((W * dv ** 2).sum())
    seminorm = math.sqrt(semi_sq)
    denom = (edge * edge) ** (k / 2.0) * seminorm
    if denom <= numerator * 1e-12:
        raise RuntimeError("vanishing seminorm with a nonzero fit residual; "
                           "the quadrature or finite differences are inconsistent")
    return numerator / denom


# -- rate fitting ----------------------------------------------------------------


@dataclass(frozen=True)
class RateReport:
    """Least-squares power-law fit of an error sequence on log-log axes."""

    n: np.ndarray
    error: np.ndarray
    slope: float
    intercept: float
    r_squared: float
    fit_lo: int
    fit_hi: int
    predicted: float | None = None
    verdict: str = "unchecked"

    @property
    def decay(self) -> float:
        """Positive decay exponent (negated slope)."""
        return -self.slope


# fit_rate's verdict band; the nterm report header records both
_RATE_REL_TOL = 0.10
_RATE_ABS_TOL = 0.05


def fit_rate(samples, predicted: float | None = None) -> RateReport:
    """Fit error ~ C * n^slope by least squares on log-log axes.

    With at least seven samples the two smallest and the single largest n
    are dropped before fitting (transient and truncation ends pollute the
    asymptotic slope).  ``predicted`` is a positive decay exponent; the
    verdict compares it against -slope within
    max(_RATE_REL_TOL * |predicted|, _RATE_ABS_TOL).
    """
    pairs = np.asarray([(float(n), float(e)) for n, e in samples])
    if len(pairs) < 4:
        raise ValueError("need at least 4 samples")
    n, err = pairs[:, 0], pairs[:, 1]
    if not np.all(np.isfinite(pairs)):
        raise ValueError("samples must be finite")
    if np.any(np.diff(n) <= 0):
        raise ValueError("sample sizes must be strictly increasing")
    if np.any(err <= 0):
        raise ValueError("errors must be positive")
    if np.any(err[1:] > err[:-1] * (1.0 + 1e-9)):
        raise ValueError("errors must be nonincreasing")
    lo, hi = (2, len(n) - 1) if len(n) >= 7 else (0, len(n))
    ln, le = np.log(n[lo:hi]), np.log(err[lo:hi])
    slope, intercept = np.polyfit(ln, le, 1)
    fitted = slope * ln + intercept
    ss_res = float(((le - fitted) ** 2).sum())
    ss_tot = float(((le - le.mean()) ** 2).sum())
    r2 = 1.0 if ss_tot == 0.0 and ss_res <= 1e-24 else \
        (0.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot)
    verdict = "unchecked"
    if predicted is not None:
        tol = max(_RATE_REL_TOL * abs(predicted), _RATE_ABS_TOL)
        verdict = "consistent" if abs(-slope - predicted) <= tol else "inconsistent"
    return RateReport(n=n, error=err, slope=float(slope),
                      intercept=float(intercept), r_squared=float(r2),
                      fit_lo=lo, fit_hi=hi, predicted=predicted, verdict=verdict)


# -- synthetic coefficient fields ------------------------------------------------


def synth_field(surface: PolyhedralSurface | None, basis: BasisSpec,
                kind: str, J: int, **params) -> CoefficientField:
    """Deterministic coefficient-field generators for approximation studies.

    kinds:
      - "extremal_a_star": level=j0, alpha  -> every entry of level j0 equals
        2**(-j0 * (alpha + 1)); other levels vanish.
      - "lacunary": alpha -> one entry per level, scaled 2**(-j * (alpha + 1)).
      - "random_besov": spec, seed -> Gaussian draws rescaled per level so the
        level terms of the seq norm decay geometrically (norm finite for
        every q); reproducible bit-exact from the seed.
      - "suffix_saturator": gamma, spec (p = q) -> weights chosen so the
        n-term error in the given target is (n+1)**(-gamma/2) up to the
        finite-census truncation; fills levels from coarse to fine.
    """
    n_patches = surface.n_patches if surface is not None else params.pop("n_patches")
    if J < basis.j_star:
        raise ValueError("J must be at least the generator level")
    coarse, levels = _zero_arrays(basis, n_patches, J)

    if kind == "extremal_a_star":
        j0 = int(params["level"])
        alpha = float(params["alpha"])
        if not (basis.j_star <= j0 <= J):
            raise ValueError("extremal level outside the stored range")
        levels[j0][...] = 2.0 ** (-j0 * (alpha + 1.0))
    elif kind == "lacunary":
        alpha = float(params["alpha"])
        for j in levels:
            levels[j][0, 0, 0, 0, 0, 0] = 2.0 ** (-j * (alpha + 1.0))
    elif kind == "random_besov":
        spec: BesovSpec = params["spec"]
        rng = np.random.default_rng(params["seed"])
        e = spec.weight_exponent()
        coarse[...] = rng.standard_normal(coarse.shape)
        for j in sorted(levels):
            g = rng.standard_normal(levels[j].shape)
            if math.isinf(spec.p):
                lp = float(np.abs(g).max())
            else:
                lp = float((np.abs(g) ** spec.p).sum() ** (1.0 / spec.p))
            target_lp = 2.0 ** (-float(j)) / (2.0 ** (j * e))
            levels[j][...] = g * (target_lp / lp)
    elif kind == "suffix_saturator":
        gamma = float(params["gamma"])
        spec = params["spec"]
        _require_sequence_target(spec)
        if gamma <= 0:
            raise ValueError("gamma must be positive")
        a = gamma * spec.p / 2.0
        e = spec.weight_exponent()
        start = 0
        for j in sorted(levels):
            size = levels[j].size
            m = np.arange(start, start + size, dtype=float)
            wp = (m + 1.0) ** (-a) - (m + 2.0) ** (-a)
            w = wp ** (1.0 / spec.p)
            levels[j][...] = (w / 2.0 ** (j * e)).reshape(levels[j].shape)
            start += size
    else:
        raise ValueError(f"unknown synthetic field kind {kind!r}")

    return CoefficientField(basis, J, n_patches, coarse, levels, surface)
