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
form for case 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .errors import ZeroNormalizer
from .estimators import SideInfo, check_side, estimate_from_moments
from .moments import (MomentSet, Rows, RowStatus, _range_error, as_rows, check_finite_number,
                      check_integer, checked_fsum, moment_set, one_value, quiet_overflow)
from .normal import norm_cdf, z_for_gamma

__all__ = [
    "IntervalEstimate",
    "slope_statistic",
    "intercept_statistic",
    "ci_slope_plugin",
    "ci_intercept",
    "ci_slope_quadratic",
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
        return z_for_gamma(gamma), 1.0 - float(gamma)
    z = check_finite_number("z", z)
    if z < 0:
        raise ValueError(f"z must be nonnegative, got {z!r}")
    return z, 2.0 * norm_cdf(z) - 1.0


def check_k(k) -> None:
    """Raise ValueError unless ``k`` names a quadratic pivot (1 or 2)."""
    if check_integer("k", k) not in (1, 2):
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


def _moments(rows: Rows, side: SideInfo) -> MomentSet:
    ms = moment_set(rows.y, rows.x, side.c, rows.status)
    if ms.n < 2:
        raise ValueError(f"need at least 2 observations, got {ms.n}")
    return ms


def _slope_terms(ms: MomentSet, side: SideInfo, b) -> Tuple[np.ndarray, np.ndarray]:
    """Normalizer U and the slope terms a_i = ay - b*ax at slope ``b``, a
    number or a column."""
    U, ay, ax = _pivot_terms(ms, side)
    return U, ay - b * ax


def _plugin_sum(ms: MomentSet, side: SideInfo) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Normalizer U, the estimate beta_hat and sum a_i(beta_hat)^2, as
    columns.  Its callers run under ``quiet_overflow``."""
    b = estimate_from_moments(ms, side).beta_hat
    U, terms = _slope_terms(ms, side, b)
    return U, b, ms.status.normalizer("a_i(beta_hat)^2", terms)


def _intercept_studentization(rows: Rows, side: SideInfo, beta: Optional[float] = None,
                              alpha: Optional[float] = None):
    """n, the intercept estimate and the centered sum of squares of the
    intercept residual terms v_i, as columns: at the known (beta, alpha), or
    at the estimate with alpha0 = 0 when ``beta`` is None."""
    ms = _moments(rows, side)
    est = estimate_from_moments(ms, side)
    b, alpha0 = (est.beta_hat, 0.0) if beta is None else (float(beta), float(alpha))
    U, slope_terms = _slope_terms(ms, side, b)
    terms = (rows.y - alpha0) - b * rows.x - (ms.x_bar / U) * slope_terms
    v_bar = checked_fsum("v_i", terms, ms.status) / ms.n
    return ms.n, est.alpha_hat, ms.status.normalizer("(v_i - v_bar)^2", terms - v_bar)


@quiet_overflow
def slope_statistic(data, side: SideInfo, beta: float, variant: str):
    """Value of a slope pivot at the hypothesized slope ``beta``; on a block
    of ``Rows``, the (B, 1) column of the rows' values.

    Raises ZeroNormalizer when the normalizing sum of squares vanishes
    (for example on exact-line data), and ValueError when it underflows
    though its terms do not; a row of a block fails with either.
    """
    check_side(side)
    if variant not in SLOPE_VARIANTS:
        raise ValueError(f"unknown slope variant {variant!r}")
    check_finite_number("beta", beta)
    ms = _moments(as_rows(data), side)
    status, n = ms.status, ms.n
    terms = _slope_terms(ms, side, float(beta))[1]
    # Exact identity: U * (beta_hat - beta) equals the mean of the
    # known-slope terms, so the numerator never goes through beta_hat.
    term_mean = checked_fsum("a_i", terms, status) / n
    if variant == "studentized":
        ss = status.normalizer("(a_i - a_bar)^2", terms - term_mean)
        residuals = "centered slope"
    elif variant == "self_normalized":
        ss, residuals = status.normalizer("a_i^2", terms), "slope"
    else:
        ss, residuals = _plugin_sum(ms, side)[2], "plug-in slope"
    status.fail(ss == 0.0, lambda i: ZeroNormalizer(f"{residuals} residuals are all zero"))
    value = (math.sqrt(n) * term_mean / np.sqrt(ss / (n - 1)) if variant == "studentized"
             else n * term_mean / np.sqrt(ss))
    return one_value(value) if status.raising else value


@quiet_overflow
def intercept_statistic(data, side: SideInfo, alpha: float, *, beta: Optional[float] = None,
                        variant: str = "plugin"):
    """Value of an intercept pivot at the hypothesized intercept ``alpha``;
    on a block of ``Rows``, the (B, 1) column of the rows' values.

    ``known_slope`` Studentizes with residuals at the true (beta, alpha)
    and needs ``beta``; ``plugin`` uses the fully data-based residuals and
    takes no ``beta``.  Both numerators are
    sqrt(n) * (alpha_hat - alpha).
    """
    check_side(side)
    if variant not in INTERCEPT_VARIANTS:
        raise ValueError(f"unknown intercept variant {variant!r}")
    check_intercept_model(side)
    check_finite_number("alpha", alpha)
    if variant == "plugin":
        if beta is not None:
            raise ValueError(f"beta is given only with the known_slope variant, got {beta!r}")
    elif beta is None:
        raise ValueError("known_slope variant requires beta")
    else:
        check_finite_number("beta", beta)
    rows = as_rows(data)
    n, alpha_hat, ss = _intercept_studentization(rows, side, beta, alpha)
    rows.status.fail(ss == 0.0, lambda i: ZeroNormalizer("centered intercept residuals are all zero"))
    value = rows.status.finite("the intercept statistic",
                               math.sqrt(n) * (alpha_hat - alpha) / np.sqrt(ss / (n - 1)))
    return one_value(value) if rows.status.raising else value


@dataclass(frozen=True)
class IntervalEstimate:
    """A confidence interval with its degeneracy status.

    For the quadratic family the endpoints are unset when the inversion
    degenerates (the acceptance region is not a bounded interval); the
    ``degeneracy`` field names which of the two finite-sample events
    failed.  Degeneracy is reported, never silently widened to the whole
    line.  The intervals of a block of ``Rows`` hold (B, 1) columns, and a
    row's ends mean something only where its degeneracy is ``none``: a
    degenerate row's ends may be NaN or finite.
    """

    center: float
    lower: Optional[float]
    upper: Optional[float]
    level: float
    family: str
    j: int
    k: Optional[int] = None
    degeneracy: str = DEGENERACY_NONE


def _interval(status: RowStatus, center, lower, upper, level: float, family: str, j: int,
              k: Optional[int] = None, degeneracy=DEGENERACY_NONE) -> IntervalEstimate:
    """The interval of the block of ``status``: a row whose bounded interval
    has an end that leaves the float range fails.  The center is an
    estimate that ``estimate_from_moments`` has checked."""
    bounded = degeneracy == DEGENERACY_NONE
    for part, value in (("lower end", lower), ("upper end", upper)):
        status.finite(f"the {part} of the {family} interval", value, bounded)
    if not status.raising:
        return IntervalEstimate(center, lower, upper, level, family, j, k, degeneracy)
    kind = one_value(degeneracy)
    ends = map(one_value, (lower, upper)) if kind == DEGENERACY_NONE else (None, None)
    return IntervalEstimate(one_value(center), *ends, level, family, j, k, kind)


@quiet_overflow
def ci_slope_plugin(data, side: SideInfo, gamma: Optional[float] = None, *,
                    z: Optional[float] = None) -> IntervalEstimate:
    """Symmetric slope interval from the self-normalized plug-in pivot:
    beta_hat -+ z * sqrt(sum a_i(beta_hat)^2) / (n*|U|)."""
    check_side(side)
    z, level = _resolve_z(gamma, z)
    ms = _moments(as_rows(data), side)
    U, b, ss = _plugin_sum(ms, side)
    half = z * np.sqrt(ss) / (ms.n * np.abs(U))
    return _interval(ms.status, b, b - half, b + half, level, "slope_plugin", side.case)


@quiet_overflow
def ci_intercept(data, side: SideInfo, gamma: Optional[float] = None, *,
                 z: Optional[float] = None) -> IntervalEstimate:
    """Symmetric intercept interval:
    alpha_hat -+ z * sqrt(sum (v_i - v_bar)^2) / sqrt(n*(n-1))."""
    check_side(side)
    z, level = _resolve_z(gamma, z)
    check_intercept_model(side)
    rows = as_rows(data)
    n, alpha_hat, ss = _intercept_studentization(rows, side)
    half = z * np.sqrt(ss) / math.sqrt(n * (n - 1))
    return _interval(rows.status, alpha_hat, alpha_hat - half, alpha_hat + half, level,
                     "intercept", side.case)


def _quadratic_coefficients(ms: MomentSet, side: SideInfo, k: int, z: float, beta1):
    """Coefficients of the inversion quadratic A*b^2 - 2*N*b + C <= 0 of
    quadratic pivot ``k`` and its quarter discriminant d4, as columns; a
    coefficient whose products overflow is infinite or NaN.  The factor f
    of f*U^2 is n*(n-1) where k = 1 Studentizes (n - 1 degrees of freedom)
    and n^2 where k = 2 self-normalizes."""
    U, ay, ax = _pivot_terms(ms, side, k)
    f = ms.n * (ms.n - 1) if k == 1 else ms.n * ms.n
    status = ms.status
    syy2, sxy2, cross, resid2 = (
        checked_fsum("ay^2", ay * ay, status), checked_fsum("ax^2", ax * ax, status),
        checked_fsum("ay*ax", ay * ax, status),
        checked_fsum("(ay - b*ax)^2", (ay - beta1 * ax) ** 2, status))
    z2 = z * z
    fu2, beta1_sq = f * (U * U), beta1 * beta1
    A = fu2 - z2 * sxy2
    N = fu2 * beta1 - z2 * cross
    C = fu2 * beta1_sq - z2 * syy2
    # Quarter discriminant N^2 - A*C, written as the explicit difference of
    # a squared-residual term and a Gram determinant so the cancellation is
    # controlled.
    d4 = z2 * fu2 * resid2 - z2 * z2 * (syy2 * sxy2 - cross * cross)
    return A, N, C, d4


@quiet_overflow
def ci_slope_quadratic(data, side: SideInfo, k: int = 1, gamma: Optional[float] = None, *,
                       z: Optional[float] = None) -> IntervalEstimate:
    """Closed-form slope interval from inverting a known-slope pivot (case 1).

    The acceptance region {b : |pivot(b)| <= z} is a quadratic inequality
    in b; when its leading coefficient is positive and its discriminant
    nonnegative the region is the interval between the two roots.
    Otherwise the result carries the degeneracy kind and no endpoints.
    """
    check_side(side)
    check_quadratic(side, k)
    z, level = _resolve_z(gamma, z)
    ms = _moments(as_rows(data), side)
    beta1 = estimate_from_moments(ms, side).beta_hat
    A, N, C, d4 = _quadratic_coefficients(ms, side, k, z, beta1)
    status = ms.status
    status.finite("the leading coefficient of the inversion quadratic", A)
    leading = A <= 0.0
    status.fail(~leading & ~(np.isfinite(N) & np.isfinite(C) & np.isfinite(d4)),
                lambda i: _range_error("the inversion quadratic"))
    discriminant = ~leading & (d4 < 0.0)
    degeneracy = np.where(leading, DEGENERACY_LEADING,
                          np.where(discriminant, DEGENERACY_DISCRIMINANT, DEGENERACY_NONE))
    # Roots (N -+ sd)/A, taking the subtraction-free expression for the
    # root that would otherwise cancel (root product is C/A).
    sd = np.sqrt(d4)
    plus, minus = N + sd, N - sd
    upper = np.where(N > 0.0, plus / A, np.where(N < 0.0, C / minus, sd / A))
    lower = np.where(N > 0.0, C / plus, np.where(N < 0.0, minus / A, -(sd / A)))
    return _interval(status, beta1, lower, upper, level, "slope_quadratic", 1, k, degeneracy)

