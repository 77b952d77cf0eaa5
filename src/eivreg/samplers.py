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
reproduce bit-identical draws.  ``substream`` is the reference definition
of a stream.  The Monte Carlo harness derives the Philox keys of a whole
block of replications at once with ``philox_keys``, bitwise the keys
SeedSequence would give, and resets one reused generator per role to
each replication's key, so its draws are those of ``substream``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Tuple, Union

import numpy as np

from .moments import as_sample, check_finite, check_finite_number, check_intercept_flag

__all__ = [
    "XI_FAMILIES",
    "XiDistribution",
    "ErrorSpec",
    "ModelSpec",
    "Latent",
    "Dataset",
    "substream",
    "philox_keys",
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
        for name, value in zip(fam.params, self.params):
            check_finite_number(name, value)
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
        for name in ("lambda_theta", "theta", "mu"):
            check_finite_number(name, getattr(self, name))
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
        check_finite_number("beta", self.beta)
        check_finite_number("alpha", self.alpha)
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
        y, x = as_sample(self.y, self.x)
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
    pure, so concurrent callers with distinct paths are safe.  This is the
    reference definition of every stream: ``philox_keys`` reproduces its
    Philox keys bitwise, and tests hold it to that.
    """
    entropy = seed if isinstance(seed, int) else list(seed)
    ss = np.random.SeedSequence(entropy, spawn_key=tuple(path))
    return np.random.Generator(np.random.Philox(ss))


# O'Neill's seed_seq hash as numpy's SeedSequence implements it: a pool of
# four uint32 words, mixed from the entropy words with multipliers that
# depend only on word position.
_MASK32 = 0xFFFFFFFF
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715


def _words(name: str, value: int) -> list:
    """The little-endian uint32 words SeedSequence splits ``value`` into."""
    if value < 0:
        raise ValueError(f"{name} must be nonnegative, got {value!r}")
    words = [value & _MASK32]
    value >>= 32
    while value:
        words.append(value & _MASK32)
        value >>= 32
    return words


def _seed_seq_keys(entropy: list) -> np.ndarray:
    """Philox keys ``SeedSequence(...).generate_state(2, np.uint64)`` of the
    rows whose entropy words are the uint32 columns ``entropy``."""
    hash_const = _INIT_A

    def hashmix(value):
        nonlocal hash_const
        value = value ^ hash_const
        hash_const = (hash_const * _MULT_A) & _MASK32
        value = value * hash_const
        return value ^ (value >> 16)

    def mix(x, y):
        result = x * _MIX_L - y * _MIX_R
        return result ^ (result >> 16)

    pool = [hashmix(word) for word in entropy[:_POOL_SIZE]]
    for i_src in range(_POOL_SIZE):
        for i_dst in range(_POOL_SIZE):
            if i_src != i_dst:
                pool[i_dst] = mix(pool[i_dst], hashmix(pool[i_src]))
    for word in entropy[_POOL_SIZE:]:
        for i_dst in range(_POOL_SIZE):
            pool[i_dst] = mix(pool[i_dst], hashmix(word))
    hash_const = _INIT_B
    state = []
    for value in pool:
        value = value ^ hash_const
        hash_const = (hash_const * _MULT_B) & _MASK32
        value = value * hash_const
        state.append((value ^ (value >> 16)).astype(np.uint64))
    return np.stack([state[0] | (state[1] << 32), state[2] | (state[3] << 32)], axis=1)


def philox_keys(seed: int, n: int, reps, role) -> np.ndarray:
    """The (len(reps), 2) uint64 Philox keys of ``substream((seed, n, rep), role)``.

    Row i is bitwise ``SeedSequence((seed, n, reps[i]), spawn_key=(role,))
    .generate_state(2, np.uint64)``, the key ``substream`` gives its
    Philox, derived for all rows at once.  For a sequence of roles the
    result is (len(role), len(reps), 2), every role's keys derived in the
    same pass, with the spawn word a column like the rep's.  The hash runs
    word position by word position, so rows are grouped by how many 32-bit
    words their rep and their role take; replication indices must lie in
    [0, 2**64).
    """
    roles = [role] if np.ndim(role) == 0 else list(role)
    spawns = [_words("role", r) for r in roles]
    reps = np.asarray(reps, dtype=np.uint64)
    prefix = _words("seed", seed) + _words("n", n)
    keys = np.empty((len(roles), reps.size, 2), dtype=np.uint64)
    wide = reps > _MASK32
    for spawn_width in sorted({len(spawn) for spawn in spawns}):
        picked = [i for i, spawn in enumerate(spawns) if len(spawn) == spawn_width]
        spawn_words = np.array([spawns[i] for i in picked], dtype=np.uint32)
        for rows, width in ((~wide, 1), (wide, 2)):
            group = reps[rows]
            if not group.size:
                continue
            run = ([np.full(group.size, w, dtype=np.uint32) for w in prefix]
                   + [(group >> (32 * j)).astype(np.uint32) for j in range(width)])
            # SeedSequence pads the run entropy with zeros to the pool size
            # before it appends a spawn key.
            run += [np.zeros(group.size, dtype=np.uint32)] * (_POOL_SIZE - len(run))
            entropy = ([np.tile(word, len(picked)) for word in run]
                       + [np.repeat(column, group.size) for column in spawn_words.T])
            keys[np.ix_(picked, np.flatnonzero(rows))] = _seed_seq_keys(entropy).reshape(
                len(picked), group.size, 2)
    return keys[0] if np.ndim(role) == 0 else keys


_ZERO_WORDS = (0, 0, 0, 0)


def _philox_generator() -> np.random.Generator:
    """A Philox generator for ``_reset``; its own seed is never drawn from."""
    return np.random.Generator(np.random.Philox(0))


def _reset(rng: np.random.Generator, key) -> np.random.Generator:
    """``rng`` set to the start of the Philox stream with ``key``, a row of
    ``philox_keys``: zero counter and an empty buffer, the state
    ``Philox(ss)`` starts in, so the draws that follow are those of the
    matching ``substream``."""
    rng.bit_generator.state = {
        "bit_generator": "Philox",
        "state": {"counter": _ZERO_WORDS, "key": key},
        # buffer_pos 4 marks the four-word output buffer as used up.
        "buffer": _ZERO_WORDS, "buffer_pos": 4,
        "has_uint32": 0, "uinteger": 0,
    }
    return rng


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
    return _simulate(spec, n, substream(seed, ROLE_XI), substream(seed, ROLE_ERRORS))


def _simulate(spec: ModelSpec, n: int, rng_xi: np.random.Generator,
              rng_err: np.random.Generator) -> Dataset:
    """n observations from ``spec`` with xi drawn from ``rng_xi`` and the
    errors from ``rng_err``."""
    xi = sample_xi(spec.xi, n, rng_xi)
    delta, epsilon = sample_errors(spec.err, n, rng_err)
    y, x = _observe(spec, xi, delta, epsilon)
    return Dataset(y=y, x=x, latent=Latent(
        xi=xi,
        delta=y - spec.beta * xi - spec.alpha,
        epsilon=x - xi,
    ))


def _observe(spec: ModelSpec, xi: np.ndarray, delta: np.ndarray, epsilon: np.ndarray,
             y: Optional[np.ndarray] = None, x: Optional[np.ndarray] = None) -> tuple:
    """The observations y = beta*xi + alpha + delta and x = xi + epsilon,
    written into ``y`` and ``x`` when given."""
    y = np.multiply(spec.beta, xi, out=y)
    y += spec.alpha
    y += delta
    return y, np.add(xi, epsilon, out=x)
