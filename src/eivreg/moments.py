"""Sample means and centered or uncentered cross-product summaries.

Every estimator and pivotal statistic in the package is built from the
quantities computed here: for two series u, v and an intercept flag c in
{0, 1},

    s_{i,uv} = (u_i - c*u_bar)(v_i - c*v_bar),    S_uv = mean_i s_{i,uv}.

With c = 0 the products are raw; with c = 1 they are centered at the
sample means.  Every scalar reduction goes through ``fsum``, which returns
the exactly rounded sum (the bits of ``math.fsum``), so results are
bit-reproducible and carry one rounding at most, even for heavy-tailed
magnitudes at n up to 1e7.  Short inputs go to ``math.fsum`` itself; long
float64 arrays are summed exactly in NumPy by error-free extraction
(Rump, Ogita and Oishi, "Accurate floating-point summation part I",
SIAM J. Sci. Comput. 31(1), 2008), see ``fsum``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

__all__ = ["MomentSet", "moment_set", "fsum"]


# Below this length NumPy's fixed per-call cost loses to math.fsum.
_EXACT_MIN = 1024


def fsum(values) -> float:
    """The exactly rounded sum of ``values``: the bits of ``math.fsum``.

    A finite float64 array of at least ``_EXACT_MIN`` entries is summed in
    NumPy by error-free extraction (Rump, Ogita and Oishi, 2008).  Let
    L = (n + 1).bit_length(), so 2**L >= n + 2, and take each level at
    sigma = 2**(e + L), where max|r| < 2**e for the remainder r (the data at
    the first level).  Then

    - q = (sigma + r) - sigma is exact (Sterbenz), and so is r - q, the
      rounding error of sigma + r;
    - every q_i is a multiple of 2**-53 * sigma with |q_i| <= 2**e, so every
      partial sum of the q_i, in any order, is such a multiple below sigma
      in magnitude and hence a float: q.sum() is exact;
    - the new remainder r - q is at most 2**-53 * sigma in magnitude, so e
      falls by at least 52 - L per level until r is all zero.

    The level sums then add up to the exact total, and ``math.fsum`` of them
    rounds it correctly, as ``math.fsum`` of the data would.  Everything
    else (lists, other dtypes, short arrays, arrays holding a NaN or an
    infinity, all-zero arrays and magnitudes of 2**(1020 - L) or more,
    where sigma could overflow) goes to ``math.fsum`` itself, which keeps
    its NaN, infinity and overflow behaviour.
    """
    if isinstance(values, np.ndarray):
        if values.size >= _EXACT_MIN and values.dtype == np.float64 and values.ndim == 1:
            total = _extracted_sum(values)
            if total is not None:
                return total
        values = values.tolist()
    return math.fsum(values)


def _extracted_sum(values: np.ndarray) -> Optional[float]:
    """The exactly rounded sum of ``values`` by level extraction (see
    ``fsum``), or None when ``values`` is outside its domain."""
    L = (values.size + 1).bit_length()
    q = np.abs(values)
    m = np.maximum.reduce(q)
    if not 0.0 < m < math.ldexp(1.0, 1020 - L):  # also False for NaN
        return None
    r, rest = values, np.empty_like(q)
    level_sums = []
    while m:
        sigma = math.ldexp(1.0, math.frexp(m)[1] + L)
        np.add(r, sigma, out=q)
        q -= sigma
        level_sums.append(float(np.add.reduce(q)))
        r = np.subtract(r, q, out=rest)
        m = np.maximum.reduce(np.abs(r, out=q))
    return math.fsum(level_sums)


def as_series(name: str, seq) -> np.ndarray:
    arr = np.asarray(seq, dtype=float)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be one-dimensional, got shape {arr.shape}")
    if arr.size == 0:
        raise ValueError(f"{name} must not be empty")
    return arr


def as_sample(y, x) -> Tuple[np.ndarray, np.ndarray]:
    """``y`` and ``x`` as float arrays; raises ValueError unless both are
    one-dimensional, non-empty and of equal length."""
    y = as_series("y", y)
    x = as_series("x", x)
    if y.size != x.size:
        raise ValueError(f"series length mismatch: y has {y.size}, x has {x.size}")
    return y, x


def check_finite(name: str, arr: np.ndarray) -> np.ndarray:
    """``arr`` itself; raises ValueError naming its first non-finite entry."""
    bad = np.flatnonzero(~np.isfinite(arr))
    if bad.size:
        raise ValueError(f"{name}[{bad[0]}] is not finite: {float(arr[bad[0]])!r}")
    return arr


def check_finite_number(name: str, value: float) -> None:
    """Raise ValueError unless ``value`` is finite.  Sign and order checks
    compare False with NaN, so they cannot catch it themselves."""
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value!r}")


# Decorates the functions that form products for ``checked_fsum``, so an
# overflowed term is an infinity, not a warning.  Decorated calls nest.
quiet_overflow = np.errstate(over="ignore", invalid="ignore")


def checked_float(name: str, value: float) -> float:
    """``value``; raises ValueError naming it unless it is finite.  Callers
    pass results of finite inputs, so a non-finite one has overflowed."""
    if not math.isfinite(value):
        raise ValueError(f"{name} overflows the float range")
    return value


def checked_fsum(name: str, values) -> float:
    """fsum(values); raises ValueError naming the sum if it leaves the float
    range."""
    try:
        total = fsum(values)
    except (OverflowError, ValueError):  # partial sums overflow; -inf + inf
        total = math.inf
    return checked_float(f"sum of {name}", total)


def series_mean(name: str, values: np.ndarray) -> float:
    """The mean of an input series.  Only a sum that is not finite costs a
    scan, which names the first non-finite entry before the overflow."""
    try:
        return checked_fsum(name, values) / values.size
    except ValueError:
        check_finite(name, values)
        raise


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


@quiet_overflow
def moment_set(y, x, c: int = 1) -> MomentSet:
    """Means and the yy/xy/xx cross-product summaries of a sample.

    Raises ValueError on empty input, length mismatch, a bad intercept
    flag, a non-finite entry or a sum that overflows the float range.  With
    c = 1 and n = 1 every centered sum is 0; downstream guards reject that
    instead.
    """
    y, x = as_sample(y, x)
    c = check_intercept_flag(c)
    n = y.size
    y_bar = series_mean("y", y)
    x_bar = series_mean("x", x)
    dy, dx = (y - y_bar, x - x_bar) if c == 1 else (y, x)
    s_yy = dy * dy
    s_xy = dx * dy
    s_xx = dx * dx
    # The squares are summed first because a cross product can overflow
    # only when one of its two squares does.
    S_yy = checked_fsum("s_yy", s_yy) / n
    S_xx = checked_fsum("s_xx", s_xx) / n
    return MomentSet(
        n=n, c=c, y_bar=y_bar, x_bar=x_bar,
        s_yy=s_yy, s_xy=s_xy, s_xx=s_xx,
        S_yy=S_yy, S_xy=checked_fsum("s_xy", s_xy) / n, S_xx=S_xx,
    )
