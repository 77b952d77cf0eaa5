"""Pivotal statistics and large-sample confidence intervals for the slope
and intercept of the errors-in-variables model.

Every pivot is one form in the hypothesized parameter t,

    pivot(t) = sqrt(f) * U * (center - t) / sqrt(Q(t)),

Studentized (f = n*(n-1), Q a centered sum of squares) or self-normalized
(f = n^2), and free of unknown nuisance parameters beyond the error
moments already assumed known.  With the case-specific slope terms

    case 1:  a_i(b) = (s_{i,yy} - lambda_theta) - b*(s_{i,xy} - mu),
    case 2:  a_i(b) = (s_{i,xy} - mu)           - b*(s_{i,xx} - theta),

U = S_xy - mu (case 1) or S_xx - theta (case 2), and the intercept
residuals v_i = (y_i - alpha0) - b*x_i - (x_bar / U) * a_i(b), they are

    slope, studentized:      center beta_hat,  Q(b) = sum (a_i(b) - a_bar(b))^2,
    slope, self-normalized:  center beta_hat,  Q(b) = sum a_i(b)^2,
    slope, plug-in:          center beta_hat,  Q = sum a_i(beta_hat)^2,
    intercept, studentized:  center alpha_hat, U = 1, Q = sum (v_i - v_bar)^2.

A slope numerator is a_bar(t), by the exact identity U*(beta_hat - t) =
a_bar(t), so it never goes through beta_hat.  The intercept residuals are
at the true (b, alpha0) = (beta, alpha) or at the plug-in (beta_hat, 0);
alpha0 cancels from every centered sum, which makes the plug-in variant
fully data-based.  Every interval is {t : |pivot(t)| <= z}: where Q is
constant, center -+ z*sqrt(Q)/(sqrt(f)*|U|); for the known-slope pivots of
case 1, whose Q is quadratic in b, the closed-form quadratic intervals.
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


@dataclass(frozen=True)
class _Form:
    """One pivot's form on each row of a block: U and the center (None
    where nothing is estimated), a slope pivot's terms ay - t*ax, Q as
    ``ss`` where it is constant (else None), and f and the divisor d of Q,
    d = n - 1 if ``studentized`` else 1: the value is sqrt(f/d)*L/sqrt(Q/d)."""

    status: RowStatus
    n: int
    name: str
    studentized: bool
    f: int
    d: int
    U: np.ndarray
    center: Optional[np.ndarray]
    ay: np.ndarray
    ax: np.ndarray
    ss: Optional[np.ndarray]


def _form(rows: Rows, side: SideInfo, pivot, beta: Optional[float] = None,
          alpha: float = 0.0) -> _Form:
    """The form of ``pivot``, a ``montecarlo.PIVOTS`` name or quadratic pivot
    k, on each row of ``rows``.  Intercept residuals are at the known
    (``beta``, ``alpha``), or at (beta_hat, 0) where ``beta`` is None."""
    ms = moment_set(rows.y, rows.x, side.c, rows.status)
    status, n = ms.status, ms.n
    if n < 2:
        raise ValueError(f"need at least 2 observations, got {n}")
    name = "intercept" if str(pivot).startswith("intercept") else "slope"
    studentized = pivot in (1, "slope_studentized") or name == "intercept"
    f, d = (n * (n - 1), n - 1) if studentized else (n * n, 1)
    U, ay, ax = _pivot_terms(ms, side, pivot if pivot in (1, 2) else None)
    center = ss = None
    if pivot not in ("slope_studentized", "slope_self_normalized"):
        est = estimate_from_moments(ms, side)
        center = est.alpha_hat if name == "intercept" else est.beta_hat
    if pivot == "slope_self_normalized_plugin":
        ss = status.normalizer("a_i(beta_hat)^2", ay - center * ax)
    elif name == "intercept":
        b, alpha0 = (est.beta_hat, 0.0) if beta is None else (beta, alpha)
        terms = (rows.y - alpha0) - b * rows.x - (ms.x_bar / U) * (ay - b * ax)
        v_bar = checked_fsum("v_i", terms, status) / n
        U, ss = 1.0, status.normalizer("(v_i - v_bar)^2", terms - v_bar)
    return _Form(status, n, name, studentized, f, d, U, center, ay, ax, ss)


def _value(form: _Form, t: float):
    """The pivot of ``form`` at ``t``: the value a statistic returns.  A
    row fails where Q is zero or the value leaves the float range."""
    status, ss = form.status, form.ss
    if form.name == "slope":
        # Exact identity: U * (beta_hat - t) equals the mean of the
        # known-slope terms, so the numerator never goes through beta_hat.
        terms = form.ay - t * form.ax
        L = checked_fsum("a_i", terms, status) / form.n
        if ss is None:
            ss = (status.normalizer("(a_i - a_bar)^2", terms - L) if form.studentized
                  else status.normalizer("a_i^2", terms))
    else:
        L = form.center - t
    kind = "centered " if form.studentized else "plug-in " if form.ss is not None else ""
    status.fail(ss == 0.0, lambda i: ZeroNormalizer(f"{kind}{form.name} residuals are all zero"))
    value = status.finite(f"the {form.name} statistic",
                          math.sqrt(form.f / form.d) * L / np.sqrt(ss / form.d))
    return one_value(value) if status.raising else value


@quiet_overflow
def slope_statistic(data, side: SideInfo, beta: float, variant: str):
    """Value of a slope pivot at the hypothesized slope ``beta``; on a block
    of ``Rows``, the (B, 1) column of the rows' values.

    Raises ZeroNormalizer when the normalizing sum of squares vanishes
    (for example on exact-line data), and ValueError when it underflows
    though its terms do not, or when the value overflows; a row of a block
    fails with either.
    """
    check_side(side)
    if variant not in SLOPE_VARIANTS:
        raise ValueError(f"unknown slope variant {variant!r}")
    beta = check_finite_number("beta", beta)
    return _value(_form(as_rows(data), side, f"slope_{variant}"), beta)


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
    alpha = check_finite_number("alpha", alpha)
    if variant == "plugin":
        if beta is not None:
            raise ValueError(f"beta is given only with the known_slope variant, got {beta!r}")
    elif beta is None:
        raise ValueError("known_slope variant requires beta")
    else:
        beta = check_finite_number("beta", beta)
    return _value(_form(as_rows(data), side, f"intercept_{variant}", beta, alpha), alpha)


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


def _symmetric(form: _Form, z: float, level: float, family: str, j: int) -> IntervalEstimate:
    """{t : |pivot(t)| <= z} of a form whose Q is constant:
    center -+ z * sqrt(Q) / (sqrt(f) * |U|)."""
    c, half = form.center, z * np.sqrt(form.ss) / (math.sqrt(form.f) * np.abs(form.U))
    return _interval(form.status, c, c - half, c + half, level, family, j)


@quiet_overflow
def ci_slope_plugin(data, side: SideInfo, gamma: Optional[float] = None, *,
                    z: Optional[float] = None) -> IntervalEstimate:
    """Symmetric slope interval from the self-normalized plug-in pivot:
    beta_hat -+ z * sqrt(sum a_i(beta_hat)^2) / (n*|U|)."""
    check_side(side)
    z, level = _resolve_z(gamma, z)
    form = _form(as_rows(data), side, "slope_self_normalized_plugin")
    return _symmetric(form, z, level, "slope_plugin", side.case)


@quiet_overflow
def ci_intercept(data, side: SideInfo, gamma: Optional[float] = None, *,
                 z: Optional[float] = None) -> IntervalEstimate:
    """Symmetric intercept interval:
    alpha_hat -+ z * sqrt(sum (v_i - v_bar)^2) / sqrt(n*(n-1))."""
    check_side(side)
    z, level = _resolve_z(gamma, z)
    check_intercept_model(side)
    return _symmetric(_form(as_rows(data), side, "intercept_plugin"), z, level, "intercept",
                      side.case)


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
    form = _form(as_rows(data), side, k)
    status, U, ay, ax, beta1 = form.status, form.U, form.ay, form.ax, form.center
    syy2, sxy2, cross, resid2 = (
        checked_fsum("ay^2", ay * ay, status), checked_fsum("ax^2", ax * ax, status),
        checked_fsum("ay*ax", ay * ax, status),
        checked_fsum("(ay - b*ax)^2", (ay - beta1 * ax) ** 2, status))
    # The inversion quadratic A*b^2 - 2*N*b + C <= 0; a coefficient whose
    # products overflow is infinite or NaN.
    z2 = z * z
    fu2, beta1_sq = form.f * (U * U), beta1 * beta1
    A = fu2 - z2 * sxy2
    N = fu2 * beta1 - z2 * cross
    C = fu2 * beta1_sq - z2 * syy2
    # Quarter discriminant d4 = N^2 - A*C, written as the explicit
    # difference of a squared-residual term and a Gram determinant so the
    # cancellation is controlled.
    d4 = z2 * fu2 * resid2 - z2 * z2 * (syy2 * sxy2 - cross * cross)
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

