"""Point estimators for the slope and intercept of a linear structural
errors-in-variables model.

Observed pairs (y_i, x_i) follow

    y_i = beta*xi_i + alpha + delta_i,      x_i = xi_i + epsilon_i,

with latent xi_i and mean-zero error pairs (delta_i, epsilon_i).  Slope and
intercept are identified through side knowledge about the error moments,
in one of two forms:

* case 1: Var(delta) = lambda_theta and cov(delta, epsilon) = mu known;
* case 2: Var(epsilon) = theta and cov(delta, epsilon) = mu known.

The corresponding modified least squares estimators are

    beta_1 = (S_yy - lambda_theta) / (S_xy - mu)   if S_xy - mu != 0 and
                                                      S_yy - lambda_theta > 0,
    beta_2 = (S_xy - mu) / (S_xx - theta)          if S_xx - theta > 0,

with alpha_j = y_bar - x_bar * beta_j when the intercept is unknown.  The
side conditions above are the finite-sample "guards"; when one fails the
estimate is meaningless and a GuardViolation is raised (exact sign tests,
no tolerance).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import GuardViolation
from .moments import (MomentSet, RowStatus, _in_range, as_rows, check_finite_number,
                      check_integer, check_intercept_flag, moment_set, quiet_overflow)

__all__ = [
    "SideInfo",
    "PointEstimate",
    "NaiveEstimates",
    "estimate",
    "naive_ratio_estimates",
    "reliability_ratio",
]

GUARD_SXY_MINUS_MU = "s_xy_minus_mu"
GUARD_SYY_MINUS_LAMBDA_THETA = "s_yy_minus_lambda_theta"
GUARD_SXX_MINUS_THETA = "s_xx_minus_theta"


@dataclass(frozen=True)
class SideInfo:
    """Identifiability side knowledge about the error moments.

    ``case`` selects which moments are treated as known: case 1 carries
    (lambda_theta, mu), case 2 carries (theta, mu).  ``c`` is the intercept
    flag: 0 when the intercept is known to be zero, 1 when it is unknown.
    """

    case: int
    mu: float
    lambda_theta: Optional[float] = None
    theta: Optional[float] = None
    c: int = 1

    def __post_init__(self):
        case = check_integer("case", self.case)
        if case not in (1, 2):
            raise ValueError(f"case must be 1 or 2, got {self.case!r}")
        object.__setattr__(self, "case", case)
        object.__setattr__(self, "c", check_intercept_flag(self.c))
        for name in ("mu", "lambda_theta", "theta"):
            value = getattr(self, name)
            if value is not None:
                object.__setattr__(self, name, check_finite_number(name, value))
        if self.case == 1:
            if self.lambda_theta is None:
                raise ValueError("case 1 requires lambda_theta (Var delta)")
            if self.lambda_theta < 0:
                raise ValueError("lambda_theta must be nonnegative")
        else:
            if self.theta is None:
                raise ValueError("case 2 requires theta (Var epsilon)")
            if self.theta < 0:
                raise ValueError("theta must be nonnegative")

    @classmethod
    def case1(cls, lambda_theta: float, mu: float, c: int = 1) -> "SideInfo":
        return cls(case=1, mu=mu, lambda_theta=lambda_theta, c=c)

    @classmethod
    def case2(cls, theta: float, mu: float, c: int = 1) -> "SideInfo":
        return cls(case=2, mu=mu, theta=theta, c=c)


def check_side(side) -> None:
    """Raise ValueError unless ``side`` is a SideInfo."""
    if not isinstance(side, SideInfo):
        raise ValueError(f"side must be a SideInfo, got {side!r}")


@dataclass(frozen=True)
class PointEstimate:
    """A slope/intercept fit together with its evaluated guard quantities.
    The estimate of a block of samples holds (B, 1) columns."""

    beta_hat: float
    alpha_hat: Optional[float]
    j: int
    guards: dict

    def first(self) -> "PointEstimate":
        """The one-sample estimate of the block's first row."""
        return PointEstimate(self.beta_hat.item(), _item(self.alpha_hat), self.j,
                             {name: value.item() for name, value in self.guards.items()})


def _item(column) -> Optional[float]:
    return None if column is None else column.item()


@quiet_overflow
def estimate_from_moments(ms: MomentSet, side: SideInfo) -> PointEstimate:
    """The estimate under ``side`` of the block moment set ``ms`` together
    with the guard values it was checked against.  Each row's guard
    violation, or guard value or estimate that leaves the float range,
    fails in its status."""
    if ms.n < 2:
        raise ValueError(f"need at least 2 observations, got {ms.n}")
    if ms.c != side.c:
        raise ValueError("moment set and side info disagree on the intercept flag")
    status = ms.status
    # S_yy - lambda_theta and S_xx - theta cannot overflow: both terms are
    # nonnegative.  S_xy - mu can.
    s_xy = status.finite(GUARD_SXY_MINUS_MU, ms.S_xy - side.mu)
    if side.case == 1:
        num = ms.S_yy - side.lambda_theta
        guards = {GUARD_SXY_MINUS_MU: s_xy, GUARD_SYY_MINUS_LAMBDA_THETA: num}
        _guard(status, GUARD_SXY_MINUS_MU, s_xy, s_xy == 0.0)
        _guard(status, GUARD_SYY_MINUS_LAMBDA_THETA, num, num <= 0.0)
        beta_hat = num / s_xy
    else:
        den = ms.S_xx - side.theta
        guards = {GUARD_SXX_MINUS_THETA: den}
        _guard(status, GUARD_SXX_MINUS_THETA, den, den <= 0.0)
        beta_hat = s_xy / den
    beta_hat = status.finite("beta_hat", beta_hat)
    alpha_hat = status.finite("alpha_hat", ms.y_bar - ms.x_bar * beta_hat) \
        if side.c == 1 else None
    return PointEstimate(beta_hat=beta_hat, alpha_hat=alpha_hat, j=side.case, guards=guards)


def _guard(status: RowStatus, guard: str, values: np.ndarray, failed: np.ndarray) -> None:
    status.fail(failed, lambda i: GuardViolation(guard, values.item(i)))


def estimate(data, side: SideInfo) -> PointEstimate:
    """Modified least squares estimate of (slope, intercept) on a dataset,
    or on each row of a block of ``Rows``.

    Raises GuardViolation when the side-specific finite-sample conditions
    fail; the exception names the failed guard.
    """
    check_side(side)
    rows = as_rows(data)
    est = estimate_from_moments(moment_set(rows.y, rows.x, side.c, rows.status), side)
    return est.first() if rows.status.raising else est


@dataclass(frozen=True)
class NaiveEstimates:
    """Ratio estimators that ignore the error moments altogether.

    beta_a = S_yy / S_xy and beta_b = S_xy / S_xx are the modified least
    squares estimators of case 1 and case 2 with every error moment set to
    zero, guards included.  Both are consistent when the latent explanatory
    variable has infinite variance; with finite variance beta_b is the
    ordinary least squares slope and suffers the usual attenuation toward
    zero.
    """

    beta_a: float
    beta_b: float
    alpha_a: Optional[float]
    alpha_b: Optional[float]


def naive_ratio_estimates(data, c: int = 1) -> NaiveEstimates:
    rows = as_rows(data)
    ms = moment_set(rows.y, rows.x, c, rows.status)
    a = estimate_from_moments(ms, SideInfo.case1(0.0, 0.0, c))
    b = estimate_from_moments(ms, SideInfo.case2(0.0, 0.0, c))
    naive = (a.beta_hat, b.beta_hat, a.alpha_hat, b.alpha_hat)
    return NaiveEstimates(*(map(_item, naive) if rows.status.raising else naive))


def reliability_ratio(xi, var_epsilon: float, c: int = 1) -> float:
    """Signal-to-total variance ratio of the observed explanatory variable.

    For a latent variable with finite variance this is

        (E xi^2 - c (E xi)^2) / (E xi^2 - c (E xi)^2 + Var epsilon),

    assuming uncorrelated error components.  When Var(xi) is infinite the
    errors are negligible in comparison and the ratio is defined to be
    exactly 1.  A population-level quantity: ``xi`` is a distribution
    description, not a sample.
    """
    from .samplers import XiDistribution  # here, so estimate and ci load no samplers
    if not isinstance(xi, XiDistribution):
        raise ValueError(f"xi must be an XiDistribution, got {xi!r}")
    c = check_intercept_flag(c)
    var_epsilon = check_finite_number("var_epsilon", var_epsilon)
    if var_epsilon < 0:
        raise ValueError("var_epsilon must be nonnegative")
    if not xi.var_finite:
        return 1.0
    signal = xi.second_moment - c * xi.mean ** 2
    if signal == 0.0:
        raise ValueError("degenerate latent variable: zero signal variance")
    return signal / _in_range("the variance of x", lambda: signal + var_epsilon)
