"""Data generators: latent explanatory variables, correlated error pairs
and full model simulation.

The latent-variable menu covers both regimes the large-sample theory
distinguishes: finite-variance families (normal, uniform, centered
exponential) and two infinite-variance families with tail exponent exactly
2 (Student t with 2 degrees of freedom, symmetric Pareto with index 2).
The latter still lie in the domain of attraction of the normal law, with a
slowly varying normalizer growing to infinity; heavier tails would leave
that class and are deliberately not offered.

Randomness is counter-based and splittable: every stream is derived from
(seed, path) through ``numpy``'s SeedSequence/Philox machinery, so
parallel replications can never perturb each other and identical inputs
reproduce bit-identical draws.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Tuple, Union

import numpy as np

from .moments import check_finite, check_intercept_flag

__all__ = [
    "XI_FAMILIES",
    "XiDistribution",
    "ErrorSpec",
    "ModelSpec",
    "Latent",
    "Dataset",
    "substream",
    "sample_xi",
    "sample_errors",
    "simulate_dataset",
    "ROLE_XI",
    "ROLE_ERRORS",
]

# Sub-stream roles within one simulated dataset.  The latent draws depend
# on the xi role only, so changing the error specification leaves them
# bit-identical.
ROLE_XI = 0
ROLE_ERRORS = 1

SeedLike = Union[int, Sequence[int]]


def _sample_student_t2(params, n, rng):
    scale, shift = params
    # t with 2 degrees of freedom: normal over sqrt(chi-square_2 / 2).
    z = rng.standard_normal(n)
    w = rng.chisquare(2.0, n)
    return shift + scale * z / np.sqrt(w / 2.0)


def _sample_symmetric_pareto2(params, n, rng):
    scale, shift = params
    # P(|xi - shift| > t) = (scale/t)^2 for t >= scale, symmetric sign.
    u = 1.0 - rng.random(n)  # uniform on (0, 1]
    magnitude = scale / np.sqrt(u)
    sign = 2.0 * rng.integers(0, 2, n).astype(float) - 1.0
    return shift + sign * magnitude


@dataclass(frozen=True)
class XiFamily:
    """A latent-variable family: parameter names, when a parameter tuple is
    invalid, the sampler and the population mean and variance (None when
    infinite)."""

    params: Tuple[str, ...]
    invalid: Callable[[tuple], bool]
    invalid_message: str
    sample: Callable[[tuple, int, np.random.Generator], np.ndarray]
    mean: Callable[[tuple], float]
    variance: Optional[Callable[[tuple], float]] = None

    @property
    def var_finite(self) -> bool:
        return self.variance is not None


XI_FAMILIES = {
    "normal": XiFamily(
        ("mean", "sd"), lambda p: p[1] <= 0, "normal sd must be positive",
        lambda p, n, rng: p[0] + p[1] * rng.standard_normal(n),
        mean=lambda p: p[0], variance=lambda p: p[1] ** 2),
    "uniform": XiFamily(
        ("a", "b"), lambda p: p[1] <= p[0], "uniform needs a < b",
        lambda p, n, rng: rng.uniform(p[0], p[1], n), mean=lambda p: 0.5 * (p[0] + p[1]),
        variance=lambda p: (p[1] - p[0]) ** 2 / 12.0),
    "centered_exponential": XiFamily(
        ("rate",), lambda p: p[0] <= 0, "exponential rate must be positive",
        lambda p, n, rng: rng.exponential(1.0 / p[0], n) - 1.0 / p[0], mean=lambda p: 0.0,
        variance=lambda p: 1.0 / p[0] ** 2),
    # Both heavy-tailed families are symmetric about their shift.
    "student_t2": XiFamily(
        ("scale", "shift"), lambda p: p[0] <= 0, "scale must be positive",
        _sample_student_t2, mean=lambda p: p[1]),
    "symmetric_pareto2": XiFamily(
        ("scale", "shift"), lambda p: p[0] <= 0, "scale must be positive",
        _sample_symmetric_pareto2, mean=lambda p: p[1]),
}


@dataclass(frozen=True)
class XiDistribution:
    """Distribution of the latent explanatory variable.

    All families are nondegenerate (positive spread) and have a finite
    first absolute moment.  ``var_finite`` is derived from the family.
    """

    family: str
    params: tuple

    def __post_init__(self):
        if self.family not in XI_FAMILIES:
            raise ValueError(f"unknown xi family {self.family!r}")
        fam = XI_FAMILIES[self.family]
        if len(self.params) != len(fam.params):
            raise ValueError(
                f"{self.family} takes parameters {fam.params}, got {self.params!r}")
        object.__setattr__(self, "params", tuple(float(p) for p in self.params))
        if fam.invalid(self.params):
            raise ValueError(fam.invalid_message)

    @classmethod
    def normal(cls, mean: float, sd: float) -> "XiDistribution":
        return cls("normal", (mean, sd))

    @classmethod
    def uniform(cls, a: float, b: float) -> "XiDistribution":
        return cls("uniform", (a, b))

    @classmethod
    def centered_exponential(cls, rate: float) -> "XiDistribution":
        return cls("centered_exponential", (rate,))

    @classmethod
    def student_t2(cls, scale: float = 1.0, shift: float = 0.0) -> "XiDistribution":
        return cls("student_t2", (scale, shift))

    @classmethod
    def symmetric_pareto2(cls, scale: float = 1.0, shift: float = 0.0) -> "XiDistribution":
        return cls("symmetric_pareto2", (scale, shift))

    @property
    def var_finite(self) -> bool:
        return XI_FAMILIES[self.family].var_finite

    @property
    def mean(self) -> float:
        return XI_FAMILIES[self.family].mean(self.params)

    @property
    def variance(self) -> Optional[float]:
        """Population variance; None for the infinite-variance families."""
        variance = XI_FAMILIES[self.family].variance
        return None if variance is None else variance(self.params)

    @property
    def second_moment(self) -> Optional[float]:
        var = self.variance
        if var is None:
            return None
        return var + self.mean ** 2


@dataclass(frozen=True)
class ErrorSpec:
    """Joint distribution of the mean-zero error pair (delta, epsilon).

    The covariance matrix [[lambda_theta, mu], [mu, theta]] must be
    positive definite.  ``base`` selects the standardized shape the
    triangular factor is applied to; both choices have finite fourth
    moments.
    """

    lambda_theta: float
    theta: float
    mu: float
    base: str = "gaussian"

    def __post_init__(self):
        if self.base not in ("gaussian", "scaled_uniform"):
            raise ValueError(f"unknown error base {self.base!r}")
        if self.lambda_theta <= 0 or self.theta <= 0:
            raise ValueError("error variances must be positive")
        if self.lambda_theta * self.theta - self.mu ** 2 <= 0:
            raise ValueError(
                "error covariance matrix is not positive definite: "
                f"lambda_theta*theta - mu^2 = "
                f"{self.lambda_theta * self.theta - self.mu ** 2!r}")

    def cholesky(self) -> tuple:
        """Entries (l11, l21, l22) of the lower-triangular factor."""
        l11 = math.sqrt(self.lambda_theta)
        l21 = self.mu / l11
        l22 = math.sqrt(self.theta - self.mu ** 2 / self.lambda_theta)
        return l11, l21, l22


@dataclass(frozen=True)
class ModelSpec:
    """Ground-truth description of a simulated model."""

    beta: float
    alpha: float
    c: int
    xi: XiDistribution
    err: ErrorSpec

    def __post_init__(self):
        check_intercept_flag(self.c)
        if self.c == 0 and self.alpha != 0.0:
            raise ValueError("alpha must be 0 when the intercept is known to be zero")


@dataclass(frozen=True)
class Latent:
    """Simulation truth carried alongside a dataset.

    ``delta`` and ``epsilon`` are stored as the exact float residuals of
    the generated series (delta = y - beta*xi - alpha, epsilon = x - xi,
    evaluated in that order), so those identities reproduce them bitwise.
    They differ from the raw noise draws by at most a rounding ulp.
    """

    xi: np.ndarray
    delta: np.ndarray
    epsilon: np.ndarray


@dataclass(frozen=True)
class Dataset:
    """Observed pairs, optionally carrying the latent simulation truth."""

    y: np.ndarray
    x: np.ndarray
    latent: Optional[Latent] = None

    def __post_init__(self):
        y = np.asarray(self.y, dtype=float)
        x = np.asarray(self.x, dtype=float)
        if y.ndim != 1 or x.ndim != 1:
            raise ValueError("y and x must be one-dimensional")
        if y.size != x.size:
            raise ValueError(f"length mismatch: y has {y.size}, x has {x.size}")
        if y.size == 0:
            raise ValueError("dataset must not be empty")
        check_finite("y", y)
        check_finite("x", x)
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "x", x)

    @property
    def n(self) -> int:
        return self.y.size


def substream(seed: SeedLike, *path: int) -> np.random.Generator:
    """Deterministic child stream of ``seed`` at ``path``.

    Distinct paths give statistically independent streams; the mapping is
    pure, so concurrent callers with distinct paths are safe.
    """
    entropy = seed if isinstance(seed, int) else list(seed)
    ss = np.random.SeedSequence(entropy, spawn_key=tuple(path))
    return np.random.Generator(np.random.Philox(ss))


def sample_xi(dist: XiDistribution, n: int, rng: np.random.Generator) -> np.ndarray:
    """n independent draws of the latent explanatory variable."""
    if n < 1:
        raise ValueError(f"n must be at least 1, got {n}")
    return XI_FAMILIES[dist.family].sample(dist.params, n, rng)


def sample_errors(err: ErrorSpec, n: int, rng: np.random.Generator) -> tuple:
    """n i.i.d. mean-zero (delta, epsilon) pairs with the prescribed covariance."""
    if n < 1:
        raise ValueError(f"n must be at least 1, got {n}")
    l11, l21, l22 = err.cholesky()
    if err.base == "gaussian":
        w1 = rng.standard_normal(n)
        w2 = rng.standard_normal(n)
    else:
        half = math.sqrt(3.0)  # uniform on [-sqrt(3), sqrt(3)] has unit variance
        w1 = rng.uniform(-half, half, n)
        w2 = rng.uniform(-half, half, n)
    delta = l11 * w1
    epsilon = l21 * w1 + l22 * w2
    return delta, epsilon


def simulate_dataset(spec: ModelSpec, n: int, seed: SeedLike) -> Dataset:
    """Simulate n observations from ``spec``, carrying the latent truth.

    The xi draws consume the (seed, ROLE_XI) sub-stream only and the error
    draws the (seed, ROLE_ERRORS) sub-stream, so the two are independent
    and the latent series is unaffected by the error specification.
    """
    xi = sample_xi(spec.xi, n, substream(seed, ROLE_XI))
    delta, epsilon = sample_errors(spec.err, n, substream(seed, ROLE_ERRORS))
    y = spec.beta * xi + spec.alpha + delta
    x = xi + epsilon
    return Dataset(y=y, x=x, latent=Latent(
        xi=xi,
        delta=y - spec.beta * xi - spec.alpha,
        epsilon=x - xi,
    ))
