"""Empirical diagnostics for membership in the domain of attraction of
the normal law, plus the distance-to-normal gauge the Monte Carlo harness
uses.

The max-over-sum ratio goes to 0 in probability exactly for that class;
the empirical normalizer sqrt(sum (z_i - z_bar)^2) is the plug-in version
of the sequence that standardizes partial sums, and the self-normalized
sum is the statistic whose asymptotic standard normality characterizes
the class.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ZeroNormalizer
from .moments import (RowStatus, as_series, check_finite, check_finite_number, fsum,
                      one_value, quiet_overflow, series_mean)
from .normal import norm_cdf

__all__ = [
    "DiagnosticReport",
    "obrien_ratio",
    "empirical_bn",
    "selfnorm_sum",
    "ks_distance_to_normal",
]

# Pivots whose normal CDF ks_distance_to_normal takes at a time, so its
# memory does not grow with the sample.
_KS_BLOCK = 1 << 12


@quiet_overflow
def obrien_ratio(z) -> float:
    """max_i z_i^2 / sum_i z_i^2; raises ZeroNormalizer on an all-zero series
    and ValueError where the sum of squares overflows, or underflows though
    a value is not zero (``RowStatus.normalizer``)."""
    z = check_finite("z", as_series("z", z))[None, :]
    status = RowStatus(1, raising=True)
    total = status.normalizer("z^2", z)
    status.fail(total == 0.0, lambda i: ZeroNormalizer("ratio undefined: all values are zero"))
    return one_value(np.max(z * z, axis=1, keepdims=True) / total)


@quiet_overflow
def empirical_bn(z, status: Optional[RowStatus] = None):
    """Plug-in normalizer sqrt(sum (z_i - z_bar)^2); needs n >= 2.  With a
    ``status``, ``z`` is a (B, n) block and the result the (B, 1) column of
    its rows' normalizers.  A row whose sum of squares overflows, or
    underflows though a term is not zero (``RowStatus.normalizer``), fails
    in ``status``; a one-sample call raises ValueError."""
    one = status is None
    if one:
        z, status = as_series("z", z)[None, :], RowStatus(1, raising=True)
    if z.shape[1] < 2:
        raise ValueError(f"need at least 2 observations, got {z.shape[1]}")
    bn = np.sqrt(status.normalizer("(z - z_bar)^2", z - series_mean("z", z, status)))
    return one_value(bn) if one else bn


@quiet_overflow
def selfnorm_sum(z, a: float) -> float:
    """sum (z_i - a) / sqrt(sum (z_i - a)^2); raises ZeroNormalizer when all
    z_i equal a, and ValueError where the sum of squares overflows, or
    underflows though a difference is not zero (``RowStatus.normalizer``)."""
    z = check_finite("z", as_series("z", z))
    check_finite_number("a", a)
    d = z - a
    status = RowStatus(1, raising=True)
    ss = status.normalizer("(z - a)^2", d[None, :])
    status.fail(ss == 0.0, lambda i: ZeroNormalizer(
        "self-normalized sum undefined: all values equal the center"))
    # A finite sum of squares bounds the plain sum: |sum d| <= sqrt(n * ss).
    return fsum(d) / math.sqrt(one_value(ss))


def ks_distance_to_normal(samples) -> float:
    """sup_t |F_n(t) - Phi(t)| against the standard normal CDF.

    Computed exactly at the jump points of the empirical CDF (both the
    left and right limits), with Phi accurate to machine precision.  No
    p-value: replication studies use the raw distance as a convergence
    gauge, not a hypothesis test.  Raises ValueError on a non-finite sample.
    """
    s = np.sort(check_finite("samples", as_series("samples", samples)))
    n = s.size
    d = 0.0
    for start in range(0, n, _KS_BLOCK):
        phi = np.fromiter(map(norm_cdf, s[start:start + _KS_BLOCK].tolist()), float)
        i = np.arange(start, start + phi.size)
        d = max(d, np.max((i + 1) / n - phi), np.max(phi - i / n))
    return float(d)


@dataclass(frozen=True)
class DiagnosticReport:
    """Bundle of the diagnostics computed for one series."""

    n: int
    obrien_ratio: float
    empirical_bn: Optional[float]
    selfnorm_stat: Optional[float] = None
    ks_distance: Optional[float] = None
