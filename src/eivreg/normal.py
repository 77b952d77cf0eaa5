"""Standard normal CDF and quantile function.

The CDF goes through ``math.erfc`` and is accurate to machine precision.
The quantile uses Acklam's rational approximation followed by one Newton
step against the erfc-based CDF, which pushes the absolute error from
about 1e-9 down to the order of 1e-15.
"""

import math

from .moments import check_finite_number

__all__ = ["norm_cdf", "norm_sf", "norm_pdf", "norm_ppf", "z_for_gamma"]

_SQRT2 = math.sqrt(2.0)
_SQRT2PI = math.sqrt(2.0 * math.pi)

# Acklam's coefficients for the rational approximations of the inverse CDF.
_A = (-3.969683028665376e+01, 2.209460984245205e+02, -2.759285104469687e+02,
      1.383577518672690e+02, -3.066479806614716e+01, 2.506628277459239e+00)
_B = (-5.447609879822406e+01, 1.615858368580409e+02, -1.556989798598866e+02,
      6.680131188771972e+01, -1.328068155288572e+01)
_C = (-7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e+00,
      -2.549732539343734e+00, 4.374664141464968e+00, 2.938163982698783e+00)
_D = (7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e+00,
      3.754408661907416e+00)

_P_LOW = 0.02425
_P_HIGH = 1.0 - _P_LOW


def norm_cdf(x: float) -> float:
    """P(Z <= x) for a standard normal Z."""
    return 0.5 * math.erfc(-x / _SQRT2)


def norm_sf(x: float) -> float:
    """P(Z > x); relatively accurate even far in the upper tail."""
    return 0.5 * math.erfc(x / _SQRT2)


def norm_pdf(x: float) -> float:
    """Standard normal density at x."""
    return math.exp(-0.5 * x * x) / _SQRT2PI


def _acklam(p: float) -> float:
    if p < _P_LOW:
        q = math.sqrt(-2.0 * math.log(p))
        return ((((((_C[0] * q + _C[1]) * q + _C[2]) * q + _C[3]) * q + _C[4]) * q + _C[5])
                / ((((_D[0] * q + _D[1]) * q + _D[2]) * q + _D[3]) * q + 1.0))
    if p <= _P_HIGH:
        q = p - 0.5
        r = q * q
        return ((((((_A[0] * r + _A[1]) * r + _A[2]) * r + _A[3]) * r + _A[4]) * r + _A[5]) * q
                / (((((_B[0] * r + _B[1]) * r + _B[2]) * r + _B[3]) * r + _B[4]) * r + 1.0))
    q = math.sqrt(-2.0 * math.log(1.0 - p))
    return -((((((_C[0] * q + _C[1]) * q + _C[2]) * q + _C[3]) * q + _C[4]) * q + _C[5])
             / ((((_D[0] * q + _D[1]) * q + _D[2]) * q + _D[3]) * q + 1.0))


def norm_ppf(p: float) -> float:
    """Quantile of the standard normal distribution, p in (0, 1)."""
    p = check_finite_number("p", p)
    if not 0.0 < p < 1.0:
        raise ValueError(f"p must lie strictly between 0 and 1, got {p!r}")
    x = _acklam(p)
    # One Newton refinement; skipped in the far tails where the density
    # underflows (Acklam alone is already accurate there).  Above the
    # median the residual is formed against the survival function, where
    # both 1 - p (exact by Sterbenz) and erfc keep full relative accuracy.
    d = norm_pdf(x)
    if d > 1e-300:
        if p < 0.5:
            x -= (norm_cdf(x) - p) / d
        else:
            x += (norm_sf(x) - (1.0 - p)) / d
    return x


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
