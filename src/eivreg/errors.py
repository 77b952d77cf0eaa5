"""Exception types shared across the package."""

__all__ = ["EivregError", "GuardViolation", "ZeroNormalizer", "ConfigError"]


class EivregError(Exception):
    """Base class for domain errors raised by this package."""


class GuardViolation(EivregError):
    """A finite-sample guard condition of an estimator failed.

    The modified least squares estimators are only defined when certain
    sample quantities have the right sign (or are nonzero).  Ties count as
    violations: a denominator that is exactly zero makes the estimate
    meaningless, so no tolerance is applied.
    """

    def __init__(self, guard: str, value: float):
        super().__init__(f"guard violation: {guard} = {value!r}")
        self.guard = guard
        self.value = value


class ZeroNormalizer(EivregError, ValueError):
    """The normalizing sum of squares of a statistic is zero, so the
    statistic is undefined on this data.  Also a ValueError: the data, not
    the program, are unsuitable."""


class ConfigError(EivregError, ValueError):
    """A flag, input file or configuration document is unusable."""
