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
from .moments import (as_series, check_finite, check_finite_number, checked_fsum, fsum,
                      quiet_overflow, series_mean)
from .normal import norm_cdf

__all__ = [
    "DiagnosticReport",
    "obrien_ratio",
    "empirical_bn",
    "selfnorm_sum",
    "ks_distance_to_normal",
]


@quiet_overflow
def obrien_ratio(z) -> float:
    """max_i z_i^2 / sum_i z_i^2; raises ZeroNormalizer on an all-zero series."""
    z = check_finite("z", as_series("z", z))
    sq = z * z
    total = checked_fsum("z^2", sq)
    if total == 0.0:
        raise ZeroNormalizer("ratio undefined: all values are zero")
    return float(np.max(sq)) / total


@quiet_overflow
def empirical_bn(z) -> float:
    """Plug-in normalizer sqrt(sum (z_i - z_bar)^2); needs n >= 2."""
    z = as_series("z", z)
    if z.size < 2:
        raise ValueError(f"need at least 2 observations, got {z.size}")
    z_bar = series_mean("z", z)
    return math.sqrt(checked_fsum("(z - z_bar)^2", (z - z_bar) ** 2))


@quiet_overflow
def selfnorm_sum(z, a: float) -> float:
    """sum (z_i - a) / sqrt(sum (z_i - a)^2); raises ZeroNormalizer when all
    z_i equal a."""
    z = check_finite("z", as_series("z", z))
    check_finite_number("a", a)
    d = z - a
    ss = checked_fsum("(z - a)^2", d * d)
    if ss == 0.0:
        raise ZeroNormalizer("self-normalized sum undefined: all values equal the center")
    # A finite sum of squares bounds the plain sum: |sum d| <= sqrt(n * ss).
    return fsum(d) / math.sqrt(ss)


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
    for i in range(n):
        phi = norm_cdf(float(s[i]))
        d = max(d, (i + 1) / n - phi, phi - i / n)
    return d


@dataclass(frozen=True)
class DiagnosticReport:
    """Bundle of the diagnostics computed for one series."""

    n: int
    obrien_ratio: float
    empirical_bn: Optional[float]
    selfnorm_stat: Optional[float] = None
    ks_distance: Optional[float] = None
