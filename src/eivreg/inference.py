"""Pivotal statistics and large-sample confidence intervals for the slope
and intercept of the errors-in-variables model.

All pivots here are Studentized or self-normalized, so they are free of
unknown nuisance parameters beyond the error moments already assumed
known.  Writing a_i for the case-specific per-observation quantities

    case 1:  a_i = (s_{i,yy} - lambda_theta) - b*(s_{i,xy} - mu),
    case 2:  a_i = (s_{i,xy} - mu)           - b*(s_{i,xx} - theta),

with normalizer U = S_xy - mu (case 1) or S_xx - theta (case 2), the slope
pivots at a hypothesized slope b are

    studentized:             sqrt(n)*U*(beta_hat - b) / sqrt(sum (a_i - a_bar)^2 / (n-1)),
    self-normalized:         n*U*(beta_hat - b) / sqrt(sum a_i^2),
    self-normalized plug-in: n*U*(beta_hat - b) / sqrt(sum a_i(beta_hat)^2),

where the numerator is computed through the exact algebraic identity
U*(beta_hat - b) = a_bar(b).  Intercept pivots divide sqrt(n)*(alpha_hat -
alpha) by the centered standard deviation of the residuals

    v_i = (y_i - alpha0) - b*x_i - (x_bar / U) * a_i,

with (b, alpha0) either the true values or the plug-in estimate with
alpha0 = 0; the constant alpha0 cancels from every centered sum, which is
what makes the plug-in variant fully data-based.

Three interval families are provided: the plug-in slope interval and the
intercept interval (symmetric around the estimate), and the quadratic
slope intervals obtained by inverting the known-slope pivots in closed
form for case 1.  A grid/bisection inversion of the same pivots serves as
an independent oracle for the closed-form endpoints.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .errors import ZeroNormalizer
from .estimators import SideInfo, estimate_from_moments
from .moments import MomentSet, fsum, moment_set
from .normal import norm_cdf, z_for_gamma

__all__ = [
    "SlopeResiduals",
    "InterceptResiduals",
    "IntervalEstimate",
    "GridSpec",
    "GridInversion",
    "slope_residuals",
    "intercept_residuals",
    "slope_statistic",
    "intercept_statistic",
    "quadratic_pivot",
    "ci_slope_plugin",
    "ci_intercept",
    "ci_slope_quadratic",
    "grid_invert_ci",
    "SLOPE_VARIANTS",
    "INTERCEPT_VARIANTS",
]

SLOPE_VARIANTS = ("studentized", "self_normalized", "self_normalized_plugin")
INTERCEPT_VARIANTS = ("known_slope", "plugin")

DEGENERACY_NONE = "none"
DEGENERACY_DISCRIMINANT = "negative_discriminant"
DEGENERACY_LEADING = "nonpositive_leading_coeff"


def _resolve_z(gamma: Optional[float], z: Optional[float]) -> Tuple[float, float]:
    """Critical value and confidence level from gamma or an explicit z."""
    if (gamma is None) == (z is None):
        raise ValueError("exactly one of gamma and z must be given")
    if gamma is not None:
        return z_for_gamma(gamma), 1.0 - gamma
    if z < 0:
        raise ValueError(f"z must be nonnegative, got {z!r}")
    return float(z), 2.0 * norm_cdf(z) - 1.0


def check_k(k) -> None:
    """Raise ValueError unless ``k`` names a quadratic pivot (1 or 2)."""
    if k not in (1, 2):
        raise ValueError(f"k must be 1 or 2, got {k!r}")


def check_quadratic(side: SideInfo, k) -> None:
    """Raise ValueError unless quadratic pivot ``k`` is defined under ``side``."""
    if side.case != 1:
        raise ValueError("quadratic slope pivots require case 1 side info")
    check_k(k)


def check_intercept_model(side: SideInfo) -> None:
    """Raise ValueError unless ``side`` models an unknown intercept (c = 1)."""
    if side.c != 1:
        raise ValueError("intercept inference requires the unknown-intercept model (c = 1)")


def _pivot_terms(ms: MomentSet, side: SideInfo,
                 k: Optional[int] = None) -> Tuple[float, np.ndarray, np.ndarray]:
    """Normalizer U and arrays (ay, ax) whose pivot terms at slope b are ay - b*ax.

    Without ``k`` these are the case-specific slope terms a_i.  The
    quadratic variants exist for case 1 only: k = 2 keeps its raw terms,
    k = 1 centers each array at its sample mean.
    """
    if side.case == 2:
        return ms.S_xx - side.theta, ms.s_xy - side.mu, ms.s_xx - side.theta
    U = ms.S_xy - side.mu
    if k == 1:
        return U, ms.s_yy - ms.S_yy, ms.s_xy - ms.S_xy
    return U, ms.s_yy - side.lambda_theta, ms.s_xy - side.mu


def _pivot_scales(n: int, k: int) -> Tuple[float, float, int]:
    """Numerator factor and denominator scale of quadratic pivot ``k``, and
    the factor f of its inversion quadratic: k = 1 Studentizes (degrees of
    freedom n - 1, f = n*(n-1)), k = 2 self-normalizes (f = n^2)."""
    if k == 1:
        return math.sqrt(n), 1.0 / math.sqrt(n - 1), n * (n - 1)
    return float(n), 1.0, n * n


def _moments(data, side: SideInfo) -> MomentSet:
    ms = moment_set(data.y, data.x, side.c)
    if ms.n < 2:
        raise ValueError(f"need at least 2 observations, got {ms.n}")
    return ms


def _plugin_half_width(ms: MomentSet, side: SideInfo, z: float) -> Tuple[float, float]:
    """The estimate and z * sqrt(sum a_i(beta_hat)^2) / (n*|U|)."""
    U, ay, ax = _pivot_terms(ms, side)
    b = estimate_from_moments(ms, side).beta_hat
    return b, z * math.sqrt(fsum((ay - b * ax) ** 2)) / (ms.n * abs(U))


@dataclass(frozen=True)
class SlopeResiduals:
    """Per-observation slope residual terms a_i and their normalizer."""

    j: int
    kind: str  # "known_beta" or "plugin"
    beta_used: float
    U: float
    terms: np.ndarray
    term_mean: float


def slope_residuals(data, side: SideInfo, *, beta: Optional[float] = None) -> SlopeResiduals:
    """Slope residual terms; pass ``beta`` for the known-slope version,
    omit it to plug in the estimate (propagates its guard checks)."""
    ms = _moments(data, side)
    U, ay, ax = _pivot_terms(ms, side)
    if beta is None:
        b, kind = estimate_from_moments(ms, side).beta_hat, "plugin"
    else:
        b, kind = float(beta), "known_beta"
    terms = ay - b * ax
    return SlopeResiduals(j=side.case, kind=kind, beta_used=b, U=U,
                          terms=terms, term_mean=fsum(terms) / ms.n)


@dataclass(frozen=True)
class InterceptResiduals:
    """Per-observation intercept residual terms (up to an additive constant)."""

    j: int
    kind: str
    terms: np.ndarray
    term_mean: float


def _intercept_terms(data, ms: MomentSet, side: SideInfo, beta: Optional[float],
                     alpha: Optional[float], est=None) -> np.ndarray:
    """Intercept residual terms at the known (beta, alpha), or at the
    estimate ``est`` (computed when not given) when ``beta`` is None."""
    if beta is None:
        est = estimate_from_moments(ms, side) if est is None else est
        b, alpha0 = est.beta_hat, 0.0
    else:
        b, alpha0 = float(beta), float(alpha)
    U, ay, ax = _pivot_terms(ms, side)
    return (data.y - alpha0) - b * data.x - (ms.x_bar / U) * (ay - b * ax)


def intercept_residuals(data, side: SideInfo, *, beta: Optional[float] = None,
                        alpha: Optional[float] = None) -> InterceptResiduals:
    """Intercept residual terms.

    Only centered sums of these terms enter any statistic, so the plug-in
    version sets the unknown intercept to 0; the constant cancels.
    """
    check_intercept_model(side)
    ms = _moments(data, side)
    if (beta is None) != (alpha is None):
        raise ValueError("pass both beta and alpha for known values, or neither to plug in")
    terms = _intercept_terms(data, ms, side, beta, alpha)
    return InterceptResiduals(j=side.case, kind="plugin" if beta is None else "known_beta",
                              terms=terms, term_mean=fsum(terms) / ms.n)


def _intercept_studentization(data, side: SideInfo, beta: Optional[float] = None,
                              alpha: Optional[float] = None) -> Tuple[int, float, float]:
    """n, the intercept estimate and the centered sum of squares of the
    intercept residual terms (plug-in when ``beta`` is None)."""
    ms = _moments(data, side)
    est = estimate_from_moments(ms, side)
    terms = _intercept_terms(data, ms, side, beta, alpha, est)
    return ms.n, est.alpha_hat, fsum((terms - fsum(terms) / ms.n) ** 2)


def slope_statistic(data, side: SideInfo, beta: float, variant: str) -> float:
    """Value of a slope pivot at the hypothesized slope ``beta``.

    Raises ZeroNormalizer when the normalizing sum of squares vanishes
    (for example on exact-line data).
    """
    if variant not in SLOPE_VARIANTS:
        raise ValueError(f"unknown slope variant {variant!r}")
    ms = _moments(data, side)
    _, ay, ax = _pivot_terms(ms, side)
    terms = ay - float(beta) * ax
    n = ms.n
    # Exact identity: U * (beta_hat - beta) equals the mean of the
    # known-slope terms, so the numerator never goes through beta_hat.
    term_mean = fsum(terms) / n
    if variant == "studentized":
        ss = fsum((terms - term_mean) ** 2)
        if ss == 0.0:
            raise ZeroNormalizer("centered slope residuals are all zero")
        return math.sqrt(n) * term_mean / math.sqrt(ss / (n - 1))
    if variant == "self_normalized":
        ss = fsum(terms ** 2)
        if ss == 0.0:
            raise ZeroNormalizer("slope residuals are all zero")
    else:
        b = estimate_from_moments(ms, side).beta_hat
        ss = fsum((ay - b * ax) ** 2)
        if ss == 0.0:
            raise ZeroNormalizer("plug-in slope residuals are all zero")
    return n * term_mean / math.sqrt(ss)


def intercept_statistic(data, side: SideInfo, alpha: float, *, beta: Optional[float] = None,
                        variant: str = "plugin") -> float:
    """Value of an intercept pivot at the hypothesized intercept ``alpha``.

    ``known_slope`` Studentizes with residuals at the true (beta, alpha);
    ``plugin`` uses the fully data-based residuals.  Both numerators are
    sqrt(n) * (alpha_hat - alpha).
    """
    if variant not in INTERCEPT_VARIANTS:
        raise ValueError(f"unknown intercept variant {variant!r}")
    check_intercept_model(side)
    if variant == "plugin":
        beta = None
    elif beta is None:
        raise ValueError("known_slope variant requires beta")
    n, alpha_hat, ss = _intercept_studentization(data, side, beta, alpha)
    if ss == 0.0:
        raise ZeroNormalizer("centered intercept residuals are all zero")
    return math.sqrt(n) * (alpha_hat - alpha) / math.sqrt(ss / (n - 1))


@dataclass(frozen=True)
class IntervalEstimate:
    """A confidence interval with its degeneracy status.

    For the quadratic family the endpoints are unset when the inversion
    degenerates (the acceptance region is not a bounded interval); the
    ``degeneracy`` field names which of the two finite-sample events
    failed.  Degeneracy is reported, never silently widened to the whole
    line.
    """

    center: float
    lower: Optional[float]
    upper: Optional[float]
    level: float
    family: str
    j: int
    k: Optional[int] = None
    degeneracy: str = DEGENERACY_NONE


def ci_slope_plugin(data, side: SideInfo, gamma: Optional[float] = None, *,
                    z: Optional[float] = None) -> IntervalEstimate:
    """Symmetric slope interval from the self-normalized plug-in pivot:
    beta_hat -+ z * sqrt(sum a_i(beta_hat)^2) / (n*|U|)."""
    z, level = _resolve_z(gamma, z)
    b, half = _plugin_half_width(_moments(data, side), side, z)
    return IntervalEstimate(center=b, lower=b - half, upper=b + half, level=level,
                            family="slope_plugin", j=side.case)


def ci_intercept(data, side: SideInfo, gamma: Optional[float] = None, *,
                 z: Optional[float] = None) -> IntervalEstimate:
    """Symmetric intercept interval:
    alpha_hat -+ z * sqrt(sum (v_i - v_bar)^2) / sqrt(n*(n-1))."""
    z, level = _resolve_z(gamma, z)
    check_intercept_model(side)
    n, alpha_hat, ss = _intercept_studentization(data, side)
    half = z * math.sqrt(ss) / math.sqrt(n * (n - 1))
    return IntervalEstimate(center=alpha_hat, lower=alpha_hat - half,
                            upper=alpha_hat + half, level=level,
                            family="intercept", j=side.case)


def _quadratic_coefficients(ms: MomentSet, side: SideInfo, k: int, z: float, beta1: float):
    """Coefficients of the inversion quadratic A*b^2 - 2*N*b + C <= 0 of
    quadratic pivot ``k``."""
    U, ay, ax = _pivot_terms(ms, side, k)
    f = _pivot_scales(ms.n, k)[2]
    syy2 = fsum(ay * ay)
    sxy2 = fsum(ax * ax)
    cross = fsum(ay * ax)
    z2 = z * z
    fu2 = f * U ** 2
    A = fu2 - z2 * sxy2
    N = fu2 * beta1 - z2 * cross
    C = fu2 * beta1 ** 2 - z2 * syy2
    # Quarter discriminant N^2 - A*C, written as the explicit difference of
    # a squared-residual term and a Gram determinant so the cancellation is
    # controlled.
    resid2 = fsum((ay - beta1 * ax) ** 2)
    d4 = z2 * fu2 * resid2 - z2 * z2 * (syy2 * sxy2 - cross * cross)
    return A, N, C, d4


def ci_slope_quadratic(data, side: SideInfo, k: int = 1, gamma: Optional[float] = None, *,
                       z: Optional[float] = None) -> IntervalEstimate:
    """Closed-form slope interval from inverting a known-slope pivot (case 1).

    The acceptance region {b : |pivot(b)| <= z} is a quadratic inequality
    in b; when its leading coefficient is positive and its discriminant
    nonnegative the region is the interval between the two roots.
    Otherwise the result carries the degeneracy kind and no endpoints.
    """
    check_quadratic(side, k)
    z, level = _resolve_z(gamma, z)
    ms = _moments(data, side)
    est = estimate_from_moments(ms, side)
    beta1 = est.beta_hat
    A, N, C, d4 = _quadratic_coefficients(ms, side, k, z, beta1)
    if A <= 0.0:
        return IntervalEstimate(center=beta1, lower=None, upper=None, level=level,
                                family="slope_quadratic", j=1, k=k,
                                degeneracy=DEGENERACY_LEADING)
    if d4 < 0.0:
        return IntervalEstimate(center=beta1, lower=None, upper=None, level=level,
                                family="slope_quadratic", j=1, k=k,
                                degeneracy=DEGENERACY_DISCRIMINANT)
    sd = math.sqrt(d4)
    # Roots (N -+ sd)/A, taking the subtraction-free expression for the
    # root that would otherwise cancel (root product is C/A).
    if N > 0.0:
        upper = (N + sd) / A
        lower = C / (N + sd)
    elif N < 0.0:
        lower = (N - sd) / A
        upper = C / (N - sd)
    else:
        upper = sd / A
        lower = -upper
    return IntervalEstimate(center=beta1, lower=lower, upper=upper, level=level,
                            family="slope_quadratic", j=1, k=k)


def quadratic_pivot(data, side: SideInfo, k: int, beta: float) -> float:
    """|pivot| the quadratic interval of variant ``k`` inverts, at slope ``beta``.

    k = 1 is the Studentized pivot, k = 2 the self-normalized one.
    """
    check_quadratic(side, k)
    return abs(slope_statistic(data, side, beta, "studentized" if k == 1 else "self_normalized"))


@dataclass(frozen=True)
class GridSpec:
    """Explicit search bracket and step for the grid inversion."""

    lo: float
    hi: float
    step: float

    def __post_init__(self):
        if not self.lo < self.hi:
            raise ValueError("grid needs lo < hi")
        if not 0 < self.step <= (self.hi - self.lo):
            raise ValueError("grid step must be positive and at most the bracket width")


@dataclass(frozen=True)
class GridInversion:
    """Acceptance set of a pivot inversion located on a grid.

    ``intervals`` lists the connected components (normally exactly one),
    with finite boundaries sharpened by bisection on the raw pivot.
    ``unbounded`` is set when the set still touches the bracket edge after
    all expansions, meaning it is not a bounded interval.
    """

    intervals: tuple
    z: float
    step: float
    expansions: int
    unbounded: bool


_GRID_POINTS = 20001
_CHUNK_ELEMENTS = 2_000_000


def _acceptance_mask(grid: np.ndarray, ay: np.ndarray, ax: np.ndarray,
                     num_factor: float, den_scale: float,
                     U: float, beta1: float, z: float) -> np.ndarray:
    """Membership num(b) <= z*den(b) evaluated directly from the terms."""
    n_terms = ay.size
    mask = np.empty(grid.size, dtype=bool)
    block = max(1, _CHUNK_ELEMENTS // n_terms)
    for start in range(0, grid.size, block):
        b = grid[start:start + block]
        t = ay[None, :] - b[:, None] * ax[None, :]
        ss = np.einsum("ij,ij->i", t, t)
        den = np.sqrt(ss) * den_scale
        num = num_factor * abs(U) * np.abs(beta1 - b)
        mask[start:start + block] = num <= z * den
    return mask


def _bisect_boundary(b_in: float, b_out: float, ay, ax, num_factor, den_scale,
                     U, beta1, z, iterations: int = 80) -> float:
    """Boundary of the acceptance set between an inside and an outside point."""

    def g(b):
        t = ay - b * ax
        den = math.sqrt(float(np.dot(t, t))) * den_scale
        return num_factor * abs(U) * abs(beta1 - b) - z * den

    for _ in range(iterations):
        mid = 0.5 * (b_in + b_out)
        if mid == b_in or mid == b_out:
            break
        if g(mid) <= 0.0:
            b_in = mid
        else:
            b_out = mid
    return b_in


def grid_invert_ci(data, side: SideInfo, k: int = 1, gamma: Optional[float] = None, *,
                   z: Optional[float] = None, grid: Optional[GridSpec] = None,
                   max_expansions: int = 40) -> GridInversion:
    """Locate {b : |pivot(b)| <= z} by direct evaluation over a grid.

    Serves as an oracle for the closed-form quadratic intervals: it never
    touches the quadratic algebra, evaluating the raw pivot at every grid
    point instead.  The default bracket is the plug-in slope interval
    inflated tenfold with a grid of 10^-4 of its width, doubled (around
    the estimate) whenever the acceptance set touches its edge.  Finite
    component boundaries are then refined by bisection, so the returned
    endpoints are far more accurate than the grid step.
    """
    check_quadratic(side, k)
    z, _level = _resolve_z(gamma, z)
    ms = _moments(data, side)
    beta1 = estimate_from_moments(ms, side).beta_hat

    if z == 0.0:
        # |pivot| <= 0 only at the estimate itself.
        return GridInversion(intervals=((beta1, beta1),), z=0.0, step=0.0,
                             expansions=0, unbounded=False)

    U, ay, ax = _pivot_terms(ms, side, k)
    num_factor, den_scale, _ = _pivot_scales(ms.n, k)

    if grid is not None:
        lo, hi, step = grid.lo, grid.hi, grid.step
    else:
        half = _plugin_half_width(ms, side, z)[1]
        if half == 0.0:
            half = 1e-8 * max(1.0, abs(beta1))
        half *= 10.0
        lo, hi = beta1 - half, beta1 + half
        step = (hi - lo) / (_GRID_POINTS - 1)

    expansions = 0
    while True:
        npts = int(round((hi - lo) / step)) + 1
        pts = np.linspace(lo, hi, npts)
        mask = _acceptance_mask(pts, ay, ax, num_factor, den_scale, U, beta1, z)
        touches = (mask.size and (mask[0] or mask[-1]))
        if not touches or grid is not None or expansions >= max_expansions:
            break
        expansions += 1
        width = hi - lo
        lo -= width / 2
        hi += width / 2
        step = (hi - lo) / (_GRID_POINTS - 1)

    idx = np.flatnonzero(mask)
    intervals = []
    unbounded = False
    if idx.size:
        breaks = np.flatnonzero(np.diff(idx) > 1)
        starts = np.concatenate(([0], breaks + 1))
        ends = np.concatenate((breaks, [idx.size - 1]))
        for s, e in zip(starts, ends):
            i_lo, i_hi = idx[s], idx[e]
            left = pts[i_lo]
            right = pts[i_hi]
            if i_lo > 0:
                left = _bisect_boundary(pts[i_lo], pts[i_lo - 1], ay, ax,
                                        num_factor, den_scale, U, beta1, z)
            else:
                unbounded = True
            if i_hi < pts.size - 1:
                right = _bisect_boundary(pts[i_hi], pts[i_hi + 1], ay, ax,
                                         num_factor, den_scale, U, beta1, z)
            else:
                unbounded = True
            intervals.append((left, right))
    return GridInversion(intervals=tuple(intervals), z=z, step=step,
                         expansions=expansions, unbounded=unbounded)
