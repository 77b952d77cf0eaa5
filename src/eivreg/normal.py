"""Standard normal CDF and quantile function.

The CDF goes through ``math.erfc`` and is accurate to machine precision.
The quantile is the standard library's ``statistics.NormalDist().inv_cdf``,
Wichura's algorithm AS 241 (Applied Statistics 37(3), 1988), accurate to
about 1e-16 relative.
"""

import math
from statistics import NormalDist

from .moments import check_finite_number

__all__ = ["norm_cdf", "norm_ppf", "z_for_gamma"]

_SQRT2 = math.sqrt(2.0)
_STANDARD = NormalDist()


def norm_cdf(x: float) -> float:
    """P(Z <= x) for a standard normal Z."""
    return 0.5 * math.erfc(-x / _SQRT2)


def norm_ppf(p: float) -> float:
    """Quantile of the standard normal distribution, p in (0, 1)."""
    p = check_finite_number("p", p)
    if not 0.0 < p < 1.0:
        raise ValueError(f"p must lie strictly between 0 and 1, got {p!r}")
    return _STANDARD.inv_cdf(p)


def z_for_gamma(gamma: float) -> float:
    """Two-sided critical value: the upper gamma/2 standard normal quantile."""
    gamma = check_finite_number("gamma", gamma)
    if not 0.0 < gamma < 1.0:
        raise ValueError(f"gamma must lie strictly between 0 and 1, got {gamma!r}")
    p = 1.0 - gamma / 2.0
    if p == 1.0:
        raise ValueError(f"gamma must exceed 2**-53, below which 1 - gamma/2 rounds to 1, "
                         f"got {gamma!r}")
    return norm_ppf(p)
