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
from typing import Callable, Optional, Tuple

import numpy as np

from .errors import ZeroNormalizer
from .estimators import SideInfo, estimate_from_moments
from .moments import (MomentSet, Rows, RowStatus, as_rows, check_finite_number, checked_fsum,
                      moment_set, quiet_overflow)
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
    check_finite_number("z", z)
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


def _moments(rows: Rows, side: SideInfo) -> MomentSet:
    ms = moment_set(rows.y, rows.x, side.c, rows.status)
    if ms.n < 2:
        raise ValueError(f"need at least 2 observations, got {ms.n}")
    return ms


def _one(data, column):
    """``column`` for a block of ``Rows``; its one value for a dataset."""
    return column if isinstance(data, Rows) else column.item()


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
    return U, b, checked_fsum("a_i(beta_hat)^2", terms ** 2, ms.status)


@quiet_overflow
def _plugin_half_width(ms: MomentSet, side: SideInfo, z: float) -> Tuple[np.ndarray, np.ndarray]:
    """The estimate and z * sqrt(sum a_i(beta_hat)^2) / (n*|U|), as columns."""
    U, b, ss = _plugin_sum(ms, side)
    return b, z * np.sqrt(ss) / (ms.n * np.abs(U))


@dataclass(frozen=True)
class SlopeResiduals:
    """Per-observation slope residual terms a_i and their normalizer."""

    j: int
    kind: str  # "known_beta" or "plugin"
    beta_used: float
    U: float
    terms: np.ndarray
    term_mean: float


@quiet_overflow
def slope_residuals(data, side: SideInfo, *, beta: Optional[float] = None) -> SlopeResiduals:
    """Slope residual terms; pass ``beta`` for the known-slope version,
    omit it to plug in the estimate (propagates its guard checks)."""
    ms = _moments(as_rows(data), side)
    if beta is None:
        b, kind = estimate_from_moments(ms, side).beta_hat, "plugin"
    else:
        check_finite_number("beta", beta)
        b, kind = np.full((1, 1), float(beta)), "known_beta"
    U, terms = _slope_terms(ms, side, b)
    return SlopeResiduals(j=side.case, kind=kind, beta_used=b.item(), U=U.item(), terms=terms[0],
                          term_mean=(checked_fsum("a_i", terms, ms.status) / ms.n).item())


@dataclass(frozen=True)
class InterceptResiduals:
    """Per-observation intercept residual terms (up to an additive constant)."""

    j: int
    kind: str
    terms: np.ndarray
    term_mean: float


def _intercept_terms(rows: Rows, ms: MomentSet, side: SideInfo, beta: Optional[float],
                     alpha: Optional[float], est=None) -> np.ndarray:
    """Intercept residual terms v_i at the known (beta, alpha), or at the
    estimate ``est`` (computed when not given) when ``beta`` is None."""
    if beta is None:
        est = estimate_from_moments(ms, side) if est is None else est
        b, alpha0 = est.beta_hat, 0.0
    else:
        check_finite_number("beta", beta)
        check_finite_number("alpha", alpha)
        b, alpha0 = float(beta), float(alpha)
    U, terms = _slope_terms(ms, side, b)
    return (rows.y - alpha0) - b * rows.x - (ms.x_bar / U) * terms


@quiet_overflow
def intercept_residuals(data, side: SideInfo, *, beta: Optional[float] = None,
                        alpha: Optional[float] = None) -> InterceptResiduals:
    """Intercept residual terms.

    Only centered sums of these terms enter any statistic, so the plug-in
    version sets the unknown intercept to 0; the constant cancels.
    """
    check_intercept_model(side)
    rows = as_rows(data)
    ms = _moments(rows, side)
    if (beta is None) != (alpha is None):
        raise ValueError("pass both beta and alpha for known values, or neither to plug in")
    terms = _intercept_terms(rows, ms, side, beta, alpha)
    return InterceptResiduals(j=side.case, kind="plugin" if beta is None else "known_beta",
                              terms=terms[0],
                              term_mean=(checked_fsum("v_i", terms, ms.status) / ms.n).item())


def _intercept_studentization(rows: Rows, side: SideInfo, beta: Optional[float] = None,
                              alpha: Optional[float] = None):
    """n, the intercept estimate and the centered sum of squares of the
    intercept residual terms (plug-in when ``beta`` is None), as columns."""
    ms = _moments(rows, side)
    est = estimate_from_moments(ms, side)
    terms = _intercept_terms(rows, ms, side, beta, alpha, est)
    v_bar = checked_fsum("v_i", terms, ms.status) / ms.n
    return ms.n, est.alpha_hat, checked_fsum("(v_i - v_bar)^2", (terms - v_bar) ** 2, ms.status)


@quiet_overflow
def slope_statistic(data, side: SideInfo, beta: float, variant: str):
    """Value of a slope pivot at the hypothesized slope ``beta``; on a block
    of ``Rows``, the (B, 1) column of the rows' values.

    Raises ZeroNormalizer when the normalizing sum of squares vanishes
    (for example on exact-line data); a row of a block fails with it.
    """
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
        ss = checked_fsum("(a_i - a_bar)^2", (terms - term_mean) ** 2, status)
        residuals = "centered slope"
    elif variant == "self_normalized":
        ss, residuals = checked_fsum("a_i^2", terms ** 2, status), "slope"
    else:
        ss, residuals = _plugin_sum(ms, side)[2], "plug-in slope"
    status.fail(ss == 0.0, lambda i: ZeroNormalizer(f"{residuals} residuals are all zero"))
    if variant == "studentized":
        return _one(data, math.sqrt(n) * term_mean / np.sqrt(ss / (n - 1)))
    return _one(data, n * term_mean / np.sqrt(ss))


@quiet_overflow
def intercept_statistic(data, side: SideInfo, alpha: float, *, beta: Optional[float] = None,
                        variant: str = "plugin"):
    """Value of an intercept pivot at the hypothesized intercept ``alpha``;
    on a block of ``Rows``, the (B, 1) column of the rows' values.

    ``known_slope`` Studentizes with residuals at the true (beta, alpha);
    ``plugin`` uses the fully data-based residuals.  Both numerators are
    sqrt(n) * (alpha_hat - alpha).
    """
    if variant not in INTERCEPT_VARIANTS:
        raise ValueError(f"unknown intercept variant {variant!r}")
    check_intercept_model(side)
    check_finite_number("alpha", alpha)
    if variant == "plugin":
        beta = None
    elif beta is None:
        raise ValueError("known_slope variant requires beta")
    rows = as_rows(data)
    n, alpha_hat, ss = _intercept_studentization(rows, side, beta, alpha)
    rows.status.fail(ss == 0.0, lambda i: ZeroNormalizer("centered intercept residuals are all zero"))
    return _one(data, rows.status.finite(
        "the intercept statistic", math.sqrt(n) * (alpha_hat - alpha) / np.sqrt(ss / (n - 1))))


@dataclass(frozen=True)
class IntervalEstimate:
    """A confidence interval with its degeneracy status.

    For the quadratic family the endpoints are unset when the inversion
    degenerates (the acceptance region is not a bounded interval); the
    ``degeneracy`` field names which of the two finite-sample events
    failed.  Degeneracy is reported, never silently widened to the whole
    line.  The intervals of a block of ``Rows`` hold (B, 1) columns, with
    NaN ends where a row degenerates.
    """

    center: float
    lower: Optional[float]
    upper: Optional[float]
    level: float
    family: str
    j: int
    k: Optional[int] = None
    degeneracy: str = DEGENERACY_NONE


def _interval(data, status: RowStatus, center, lower, upper, level: float, family: str, j: int,
              k: Optional[int] = None, degeneracy=DEGENERACY_NONE) -> IntervalEstimate:
    """The interval of ``data``: a row whose center, or an end of its bounded
    interval, leaves the float range fails."""
    bounded = degeneracy == DEGENERACY_NONE
    for part, value, where in (("center", center, True), ("lower end", lower, bounded),
                               ("upper end", upper, bounded)):
        status.finite(f"the {part} of the {family} interval", value, where)
    if isinstance(data, Rows):
        return IntervalEstimate(center, lower, upper, level, family, j, k, degeneracy)
    kind = degeneracy if isinstance(degeneracy, str) else degeneracy.item()
    ends = (lower.item(), upper.item()) if kind == DEGENERACY_NONE else (None, None)
    return IntervalEstimate(center.item(), *ends, level, family, j, k, kind)


@quiet_overflow
def ci_slope_plugin(data, side: SideInfo, gamma: Optional[float] = None, *,
                    z: Optional[float] = None) -> IntervalEstimate:
    """Symmetric slope interval from the self-normalized plug-in pivot:
    beta_hat -+ z * sqrt(sum a_i(beta_hat)^2) / (n*|U|)."""
    z, level = _resolve_z(gamma, z)
    rows = as_rows(data)
    b, half = _plugin_half_width(_moments(rows, side), side, z)
    return _interval(data, rows.status, b, b - half, b + half, level, "slope_plugin", side.case)


@quiet_overflow
def ci_intercept(data, side: SideInfo, gamma: Optional[float] = None, *,
                 z: Optional[float] = None) -> IntervalEstimate:
    """Symmetric intercept interval:
    alpha_hat -+ z * sqrt(sum (v_i - v_bar)^2) / sqrt(n*(n-1))."""
    z, level = _resolve_z(gamma, z)
    check_intercept_model(side)
    rows = as_rows(data)
    n, alpha_hat, ss = _intercept_studentization(rows, side)
    half = z * np.sqrt(ss) / math.sqrt(n * (n - 1))
    return _interval(data, rows.status, alpha_hat, alpha_hat - half, alpha_hat + half, level,
                     "intercept", side.case)


def _squares(f: int, U: np.ndarray, beta1: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Columns f*U**2 and beta1**2, by Python's float power row by row: its
    C pow differs from U*U in the last bit on some inputs, and where either
    square overflows both are inf."""
    fu2, beta1_sq = [], []
    for u, b in zip(U.ravel().tolist(), beta1.ravel().tolist()):
        try:
            pair = f * u ** 2, b ** 2
        except OverflowError:
            pair = math.inf, math.inf
        fu2.append(pair[0])
        beta1_sq.append(pair[1])
    return np.array(fu2)[:, None], np.array(beta1_sq)[:, None]


def _quadratic_coefficients(ms: MomentSet, side: SideInfo, k: int, z: float, beta1):
    """Coefficients of the inversion quadratic A*b^2 - 2*N*b + C <= 0 of
    quadratic pivot ``k`` and its quarter discriminant d4, as columns; a
    coefficient whose products overflow is infinite or NaN."""
    U, ay, ax = _pivot_terms(ms, side, k)
    f = _pivot_scales(ms.n, k)[2]
    status = ms.status
    syy2, sxy2, cross, resid2 = (
        checked_fsum("ay^2", ay * ay, status), checked_fsum("ax^2", ax * ax, status),
        checked_fsum("ay*ax", ay * ax, status),
        checked_fsum("(ay - b*ax)^2", (ay - beta1 * ax) ** 2, status))
    z2 = z * z
    fu2, beta1_sq = _squares(f, U, beta1)
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
    check_quadratic(side, k)
    z, level = _resolve_z(gamma, z)
    rows = as_rows(data)
    ms = _moments(rows, side)
    beta1 = estimate_from_moments(ms, side).beta_hat
    A, N, C, d4 = _quadratic_coefficients(ms, side, k, z, beta1)
    status = ms.status
    status.finite("the leading coefficient of the inversion quadratic", A)
    leading = A <= 0.0
    status.fail_range("the inversion quadratic",
                      ~leading & ~(np.isfinite(N) & np.isfinite(C) & np.isfinite(d4)))
    discriminant = ~leading & (d4 < 0.0)
    degeneracy = np.where(leading, DEGENERACY_LEADING,
                          np.where(discriminant, DEGENERACY_DISCRIMINANT, DEGENERACY_NONE))
    # Roots (N -+ sd)/A, taking the subtraction-free expression for the
    # root that would otherwise cancel (root product is C/A).
    sd = np.sqrt(d4)
    plus, minus = N + sd, N - sd
    upper = np.where(N > 0.0, plus / A, np.where(N < 0.0, C / minus, sd / A))
    lower = np.where(N > 0.0, C / plus, np.where(N < 0.0, minus / A, -(sd / A)))
    return _interval(data, status, beta1, lower, upper, level, "slope_quadratic", 1, k,
                     degeneracy)


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
        for name in ("lo", "hi", "step"):
            check_finite_number(name, getattr(self, name))
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
_BISECT_ITERATIONS = 80


def _acceptance(ms: MomentSet, side: SideInfo, k: int, z: float,
                beta1: float) -> Callable[[np.ndarray], np.ndarray]:
    """The membership test of quadratic pivot ``k``: maps grid points b to
    num(b) <= z*den(b), evaluated directly from the terms."""
    U, ay, ax = _pivot_terms(ms, side, k)
    U, ay, ax = U.item(), ay[0], ax[0]
    num_factor, den_scale, _ = _pivot_scales(ms.n, k)
    block = max(1, _CHUNK_ELEMENTS // ay.size)

    def accept(grid: np.ndarray) -> np.ndarray:
        mask = np.empty(grid.size, dtype=bool)
        for start in range(0, grid.size, block):
            b = grid[start:start + block]
            t = ay[None, :] - b[:, None] * ax[None, :]
            den = np.sqrt(np.einsum("ij,ij->i", t, t)) * den_scale
            num = num_factor * abs(U) * np.abs(beta1 - b)
            mask[start:start + block] = num <= z * den
        return mask

    return accept


def _bisect_boundary(accept, b_in: float, b_out: float) -> float:
    """Boundary of the acceptance set between an inside and an outside point."""
    for _ in range(_BISECT_ITERATIONS):
        mid = 0.5 * (b_in + b_out)
        if mid == b_in or mid == b_out:
            break
        if accept(np.array([mid]))[0]:
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
    ms = _moments(as_rows(data), side)
    beta1 = estimate_from_moments(ms, side).beta_hat.item()

    if z == 0.0:
        # |pivot| <= 0 only at the estimate itself.
        return GridInversion(intervals=((beta1, beta1),), z=0.0, step=0.0,
                             expansions=0, unbounded=False)

    accept = _acceptance(ms, side, k, z, beta1)
    if grid is not None:
        lo, hi, step = grid.lo, grid.hi, grid.step
    else:
        half = _plugin_half_width(ms, side, z)[1].item()
        if half == 0.0:
            half = 1e-8 * max(1.0, abs(beta1))
        half *= 10.0
        lo, hi = beta1 - half, beta1 + half
        step = (hi - lo) / (_GRID_POINTS - 1)

    expansions = 0
    while True:
        npts = int(round((hi - lo) / step)) + 1
        pts = np.linspace(lo, hi, npts)
        mask = accept(pts)
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
                left = _bisect_boundary(accept, pts[i_lo], pts[i_lo - 1])
            else:
                unbounded = True
            if i_hi < pts.size - 1:
                right = _bisect_boundary(accept, pts[i_hi], pts[i_hi + 1])
            else:
                unbounded = True
            intervals.append((left, right))
    return GridInversion(intervals=tuple(intervals), z=z, step=step,
                         expansions=expansions, unbounded=unbounded)
