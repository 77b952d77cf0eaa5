"""Sample means and centered or uncentered cross-product summaries.

Every estimator and pivotal statistic in the package is built from the
quantities computed here: for two series u, v and an intercept flag c in
{0, 1},

    s_{i,uv} = (u_i - c*u_bar)(v_i - c*v_bar),    S_uv = mean_i s_{i,uv}.

With c = 0 the products are raw; with c = 1 they are centered at the
sample means.  All scalar reductions use exactly rounded (compensated)
summation so results are bit-reproducible and keep relative error far
below 1e-12 even for heavy-tailed magnitudes at n up to 1e7.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = ["MomentSet", "moment_set", "fsum"]


def fsum(values) -> float:
    """Exactly rounded float sum (Shewchuk compensated summation)."""
    if isinstance(values, np.ndarray):
        values = values.tolist()
    return math.fsum(values)


def as_series(name: str, seq) -> np.ndarray:
    arr = np.asarray(seq, dtype=float)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be one-dimensional, got shape {arr.shape}")
    if arr.size == 0:
        raise ValueError(f"{name} must not be empty")
    return arr


def check_finite(name: str, arr: np.ndarray) -> np.ndarray:
    """``arr`` itself; raises ValueError naming its first non-finite entry."""
    bad = np.flatnonzero(~np.isfinite(arr))
    if bad.size:
        raise ValueError(f"{name}[{bad[0]}] is not finite: {float(arr[bad[0]])!r}")
    return arr


def check_intercept_flag(c) -> int:
    if c not in (0, 1):
        raise ValueError(f"intercept flag c must be 0 or 1, got {c!r}")
    return int(c)


@dataclass(frozen=True)
class MomentSet:
    """The full second-moment machinery of an observed (y, x) sample.

    Bundles the three cross-product summaries a fit needs so the means are
    computed once per dataset.
    """

    n: int
    c: int
    y_bar: float
    x_bar: float
    s_yy: np.ndarray
    s_xy: np.ndarray
    s_xx: np.ndarray
    S_yy: float
    S_xy: float
    S_xx: float


def moment_set(y, x, c: int = 1) -> MomentSet:
    """Means and the yy/xy/xx cross-product summaries of a sample.

    Raises ValueError on empty input, length mismatch or a bad intercept
    flag.  With c = 1 and n = 1 every centered sum is 0; downstream guards
    reject that instead.
    """
    y = as_series("y", y)
    x = as_series("x", x)
    if y.size != x.size:
        raise ValueError(f"series length mismatch: y has {y.size}, x has {x.size}")
    c = check_intercept_flag(c)
    n = y.size
    y_bar = fsum(y) / n
    x_bar = fsum(x) / n
    if c == 1:
        dy = y - y_bar
        dx = x - x_bar
    else:
        dy = y
        dx = x
    s_yy = dy * dy
    s_xy = dx * dy
    s_xx = dx * dx
    return MomentSet(
        n=n, c=c, y_bar=y_bar, x_bar=x_bar,
        s_yy=s_yy, s_xy=s_xy, s_xx=s_xx,
        S_yy=fsum(s_yy) / n, S_xy=fsum(s_xy) / n, S_xx=fsum(s_xx) / n,
    )
