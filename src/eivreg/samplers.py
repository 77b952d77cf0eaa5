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
of a stream.  The Monte Carlo harness derives the Philox keys of a
block's replication range, both roles at once, with
``philox_keys(seed, n, start, stop)``, bitwise the keys SeedSequence
would give, and resets one reused generator per role to each
replication's key, so its draws are those of ``substream``.
``philox_keys`` serves that one caller and is not package API.

Drawing is split in two.  Per replication, only the generator calls run:
each xi family and each error base writes its raw variates (standard
normals, uniforms, standard exponentials, fair bits) into that
replication's rows of a block.  Everything after them is elementwise and
runs once per block of B replications: the family transform, the
Cholesky mix of the error pair and the observations y and x, each in the
operation order of the sized NumPy calls it replaces, so every row holds
the bits its own call would.  ``sample_xi``, ``sample_errors`` and
``simulate_dataset`` are the one-row case of this path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Tuple, Union

import numpy as np

from .moments import (Dataset, Latent, _in_range, check_finite_number, check_integer,
                      check_intercept_flag)

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


def _draw_student_t2(rng, out):
    # t with 2 degrees of freedom: normal over sqrt(chi-square_2 / 2).
    # rng.chisquare(2.0, n) is bitwise 2.0 * standard_exponential(n), with
    # the same end state, so chi-square_2 / 2 is the standard exponential.
    rng.standard_normal(out=out[0])
    rng.standard_exponential(out=out[1])


def _draw_symmetric_pareto2(rng, out):
    # P(|xi - shift| > t) = (scale/t)^2 for t >= scale: scale / sqrt(1 - u)
    # with 1 - u uniform on (0, 1], and a fair sign bit.  The bits are those
    # of rng.integers(0, 2, n), read from one raw call: integers takes bit
    # 31 of each 32-bit half of a word, low half first.  At odd n the last
    # bit is drawn by integers itself, which keeps the word's high half for
    # the next 32-bit draw as the sized call does.  The generator must hold
    # no such half on entry, as after _reset or in a fresh substream.
    rng.random(out=out[0])
    n = out.shape[1]
    words = rng.bit_generator.random_raw(n // 2)
    out[1, :n - n % 2] = words.astype("<u8", copy=False).view("<u4") >> 31
    if n % 2:
        out[1, -1] = rng.integers(0, 2)


@dataclass(frozen=True)
class XiFamily:
    """A latent-variable family: parameter names, when a parameter tuple is
    invalid, how its variates are made, and the population mean and
    variance (None when infinite).

    A replication's variates are ``series`` raw series of n generator
    outputs: ``draw(rng, out)`` writes them into its (series, n) rows with
    one generator call per series.  ``transform(params, raw)`` turns the
    (B, series, n) raw block of B replications into their (B, n) xi at
    once; it is elementwise, so each row gets the bits its own call would.
    """

    params: Tuple[str, ...]
    invalid: Callable[[tuple], bool]
    invalid_message: str
    series: int
    draw: Callable[[np.random.Generator, np.ndarray], object]
    transform: Callable[[tuple, np.ndarray], np.ndarray]
    mean: Callable[[tuple], float]
    variance: Optional[Callable[[tuple], float]] = None


# rng.uniform(a, b) is a + (b - a) * rng.random() and rng.exponential(s) is
# s * rng.standard_exponential(), bit for bit.
XI_FAMILIES = {
    "normal": XiFamily(
        ("mean", "sd"), lambda p: p[1] <= 0, "normal sd must be positive",
        1, lambda rng, out: rng.standard_normal(out=out),
        lambda p, raw: p[0] + p[1] * raw[:, 0],
        mean=lambda p: p[0], variance=lambda p: p[1] ** 2),
    "uniform": XiFamily(
        ("a", "b"), lambda p: not (p[0] < p[1] and math.isfinite(p[1] - p[0])),
        "uniform needs a < b and a finite b - a",
        1, lambda rng, out: rng.random(out=out),
        lambda p, raw: p[0] + (p[1] - p[0]) * raw[:, 0],
        mean=lambda p: 0.5 * (p[0] + p[1]), variance=lambda p: (p[1] - p[0]) ** 2 / 12.0),
    "centered_exponential": XiFamily(
        ("rate",), lambda p: p[0] <= 0, "exponential rate must be positive",
        1, lambda rng, out: rng.standard_exponential(out=out),
        lambda p, raw: (1.0 / p[0]) * raw[:, 0] - 1.0 / p[0],
        mean=lambda p: 0.0, variance=lambda p: 1.0 / p[0] ** 2),
    # Both heavy-tailed families are symmetric about their shift.
    "student_t2": XiFamily(
        ("scale", "shift"), lambda p: p[0] <= 0, "scale must be positive",
        2, _draw_student_t2, lambda p, raw: p[1] + p[0] * raw[:, 0] / np.sqrt(raw[:, 1]),
        mean=lambda p: p[1]),
    "symmetric_pareto2": XiFamily(
        ("scale", "shift"), lambda p: p[0] <= 0, "scale must be positive",
        2, _draw_symmetric_pareto2,
        lambda p, raw: p[1] + (2.0 * raw[:, 1] - 1.0) * (p[0] / np.sqrt(1.0 - raw[:, 0])),
        mean=lambda p: p[1]),
}


def _xi_family(family) -> XiFamily:
    """The entry of ``XI_FAMILIES`` named ``family``: the one family rule."""
    if not isinstance(family, str) or family not in XI_FAMILIES:
        raise ValueError(f"unknown xi family {family!r}")
    return XI_FAMILIES[family]


@dataclass(frozen=True)
class _ErrorBase:
    """A standardized error shape: ``draw(rng, out)`` writes the raw
    variates of both series of one replication into its (2, n) rows in one
    generator call, and ``standardize(raw)`` makes the (B, 2, n) raw block
    zero-mean, unit-variance pairs of independent series."""

    draw: Callable[[np.random.Generator, np.ndarray], object]
    standardize: Callable[[np.ndarray], np.ndarray]


# Uniform on [-sqrt(3), sqrt(3)] has unit variance.
_HALF = math.sqrt(3.0)

# One generator call fills both series with the bits of two calls of n.
_ERROR_BASES = {
    "gaussian": _ErrorBase(lambda rng, out: rng.standard_normal(out=out), lambda raw: raw),
    "scaled_uniform": _ErrorBase(lambda rng, out: rng.random(out=out),
                                 lambda raw: -_HALF + (_HALF - -_HALF) * raw),
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
        fam = _xi_family(self.family)
        try:
            count = len(self.params)
        except TypeError:  # not a sequence
            count = None
        if count != len(fam.params):
            raise ValueError(
                f"{self.family} takes parameters {fam.params}, got {self.params!r}")
        object.__setattr__(self, "params", tuple(
            check_finite_number(name, value) for name, value in zip(fam.params, self.params)))
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
        return XI_FAMILIES[self.family].variance is not None

    @property
    def mean(self) -> float:
        return XI_FAMILIES[self.family].mean(self.params)

    @property
    def variance(self) -> Optional[float]:
        """Population variance; None for the infinite-variance families.
        Raises ValueError where it leaves the float range."""
        variance = XI_FAMILIES[self.family].variance
        return None if variance is None else _in_range(
            "the variance of xi", lambda: variance(self.params))

    @property
    def second_moment(self) -> Optional[float]:
        var = self.variance
        if var is None:
            return None
        return _in_range("the second moment of xi", lambda: var + self.mean ** 2)


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
        if not isinstance(self.base, str) or self.base not in _ERROR_BASES:
            raise ValueError(f"unknown error base {self.base!r}")
        for name in ("lambda_theta", "theta", "mu"):
            object.__setattr__(self, name, check_finite_number(name, getattr(self, name)))
        if self.lambda_theta <= 0 or self.theta <= 0:
            raise ValueError("error variances must be positive")
        # mu ** 2 is the float power cholesky() takes too: it raises
        # OverflowError where the product would be inf.
        _in_range("mu^2", lambda: self.mu ** 2)
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
        if not isinstance(self.xi, XiDistribution):
            raise ValueError(f"xi must be an XiDistribution, got {self.xi!r}")
        if not isinstance(self.err, ErrorSpec):
            raise ValueError(f"err must be an ErrorSpec, got {self.err!r}")
        object.__setattr__(self, "c", check_intercept_flag(self.c))
        for name in ("beta", "alpha"):
            object.__setattr__(self, name, check_finite_number(name, getattr(self, name)))
        if self.c == 0 and self.alpha != 0.0:
            raise ValueError("alpha must be 0 when the intercept is known to be zero")


def substream(seed: SeedLike, *path: int) -> np.random.Generator:
    """Deterministic child stream of ``seed`` at ``path``.

    Distinct paths give statistically independent streams; the mapping is
    pure, so concurrent callers with distinct paths are safe.  This is the
    reference definition of every stream: ``philox_keys`` reproduces its
    Philox keys bitwise, and tests hold it to that.
    """
    if np.ndim(seed) == 0:
        entropy = check_integer("seed", seed)
    else:
        entropy = [check_integer("seed", word) for word in seed]
    ss = np.random.SeedSequence(entropy, spawn_key=tuple(check_integer("path", p) for p in path))
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
    """The little-endian uint32 words SeedSequence splits ``value`` into;
    raises ValueError naming ``name`` unless it is a nonnegative integer."""
    value = check_integer(name, value)
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


def philox_keys(seed: int, n: int, start: int, stop: int) -> np.ndarray:
    """The (2, stop - start, 2) uint64 Philox keys of replications
    start..stop-1, for ROLE_XI then ROLE_ERRORS, all derived in one pass.

    Key [role, i] is bitwise ``SeedSequence((seed, n, start + i),
    spawn_key=(role,)).generate_state(2, np.uint64)``, the key
    ``substream((seed, n, start + i), role)`` gives its Philox.  The hash
    runs word position by word position, so replications whose index
    takes one 32-bit word are hashed apart from those whose index takes two.
    """
    prefix = _words("seed", seed) + _words("n", n)
    reps = np.arange(start, stop, dtype=np.uint64)
    keys = np.empty((2, reps.size, 2), dtype=np.uint64)
    split = int(np.searchsorted(reps, 2 ** 32))
    for rows, width in ((slice(0, split), 1), (slice(split, None), 2)):
        group = reps[rows]
        if not group.size:
            continue
        run = ([np.full(group.size, w, dtype=np.uint32) for w in prefix]
               + [(group >> (32 * j)).astype(np.uint32) for j in range(width)])
        # SeedSequence pads the run entropy with zeros to the pool size
        # before it appends a spawn key.
        run += [np.zeros(group.size, dtype=np.uint32)] * (_POOL_SIZE - len(run))
        spawn = np.repeat(np.array([ROLE_XI, ROLE_ERRORS], dtype=np.uint32), group.size)
        keys[:, rows] = _seed_seq_keys([np.tile(word, 2) for word in run] + [spawn]).reshape(
            2, group.size, 2)
    return keys


_ZERO_WORDS = (0, 0, 0, 0)


def _philox_generator() -> np.random.Generator:
    """A Philox generator for ``_reset``; its own seed is never drawn from."""
    return np.random.Generator(np.random.Philox(0))


def _reset(rng: np.random.Generator, key) -> np.random.Generator:
    """``rng`` set to the start of the Philox stream with ``key``, one key
    of ``philox_keys``: zero counter and an empty buffer, the state
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


def _raw_blocks(n: int, count: int, *series: int) -> list:
    """Room for the raw variates of ``count`` replications of size ``n``:
    one (count, k, n) array for each number of series k, replication i's
    rows the contiguous block [i].  Raises ValueError naming n unless it is
    an integer of at least 1 within NumPy's largest dimension, and
    MemoryError naming n where no allocation can meet it."""
    n = check_integer("n", n)
    if n < 1:
        raise ValueError(f"n must be at least 1, got {n}")
    cannot = "cannot allocate the variates of a sample of size n"
    try:
        return [np.empty((count, k, n)) for k in series]
    except ValueError as exc:  # beyond NumPy's largest dimension
        raise ValueError(f"{cannot}: {exc}") from None
    except MemoryError as exc:  # NumPy's own subclass takes no message
        raise MemoryError(f"{cannot}: {exc}") from None


def _error_rows(err: ErrorSpec, raw: np.ndarray) -> tuple:
    """The (B, n) delta and epsilon of a (B, 2, n) raw error block."""
    w = _ERROR_BASES[err.base].standardize(raw)
    l11, l21, l22 = err.cholesky()
    w1, w2 = w[:, 0], w[:, 1]
    return l11 * w1, l21 * w1 + l22 * w2


def _simulate_rows(spec: ModelSpec, xi_raw: np.ndarray, err_raw: np.ndarray) -> tuple:
    """The (B, n) y, x and xi of B replications from their raw blocks:
    y = beta*xi + alpha + delta and x = xi + epsilon, evaluated in that
    order."""
    xi = XI_FAMILIES[spec.xi.family].transform(spec.xi.params, xi_raw)
    delta, epsilon = _error_rows(spec.err, err_raw)
    y = np.multiply(spec.beta, xi)
    y += spec.alpha
    y += delta
    return y, xi + epsilon, xi


def sample_xi(dist: XiDistribution, n: int, rng: np.random.Generator) -> np.ndarray:
    """n independent draws of the latent explanatory variable."""
    family = XI_FAMILIES[dist.family]
    raw, = _raw_blocks(n, 1, family.series)
    family.draw(rng, raw[0])
    return family.transform(dist.params, raw)[0]


def sample_errors(err: ErrorSpec, n: int, rng: np.random.Generator) -> tuple:
    """n i.i.d. mean-zero (delta, epsilon) pairs with the prescribed covariance."""
    raw, = _raw_blocks(n, 1, 2)
    _ERROR_BASES[err.base].draw(rng, raw[0])
    (delta,), (epsilon,) = _error_rows(err, raw)
    return delta, epsilon


def simulate_dataset(spec: ModelSpec, n: int, seed: SeedLike) -> Dataset:
    """Simulate n observations from ``spec``, carrying the latent truth.

    The xi draws consume the (seed, ROLE_XI) sub-stream only and the error
    draws the (seed, ROLE_ERRORS) sub-stream, so the two are independent
    and the latent series is unaffected by the error specification.
    """
    family = XI_FAMILIES[spec.xi.family]
    xi_raw, err_raw = _raw_blocks(n, 1, family.series, 2)
    family.draw(substream(seed, ROLE_XI), xi_raw[0])
    _ERROR_BASES[spec.err.base].draw(substream(seed, ROLE_ERRORS), err_raw[0])
    (y,), (x,), (xi,) = _simulate_rows(spec, xi_raw, err_raw)
    return Dataset(y=y, x=x, latent=Latent(
        xi=xi,
        delta=y - spec.beta * xi - spec.alpha,
        epsilon=x - xi,
    ))
