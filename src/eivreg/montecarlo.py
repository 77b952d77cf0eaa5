"""Deterministic replication engine for the asymptotic claims.

Experiments:

* ``coverage14`` / ``coverage15`` / ``coverage16``: empirical coverage of
  the plug-in slope interval, the intercept interval and the quadratic
  slope interval.
* ``normality``: Kolmogorov-Smirnov distance of a chosen pivot, evaluated
  at the true parameter, to the standard normal.
* ``rate``: medians of the raw and normalizer-scaled estimation errors,
  for checking convergence rates across sample sizes.
* ``naive_consistency``: error medians of the moment-ratio estimators that
  ignore the error variances, next to the modified estimator's.
* ``degeneracy``: how often the quadratic interval inversion degenerates.

Every replication draws from the sub-streams keyed by (seed, n,
replication index), so adding sample sizes or replications never perturbs
existing draws and any worker count produces bit-identical reports.
``_fill`` runs replications in blocks: each block derives the Philox keys
of both roles in one vectorised call and resets one reused generator per
role to each replication's keys, which gives the draws of
``samplers.substream``.  A sub-block holds the rows ``_sub_block_rows``
gives.  Per replication, ``_replicate`` only resets the generators and
writes the raw variates into the replication's rows; the sub-block is then
transformed into its (B, n) y, x and xi at once, evaluated at once by the
library functions on ``moments.Rows``, and written straight into the run's
outcome columns.  The one-sample functions are the one-row case of the
same code, so each row gets the draws and the outcome its own call would
give.  A replication's outcome is an int8 code, its index in
``OUTCOMES`` (scored, a degenerate inversion, a zero normalizer or a
guard violation: counted, never raised), and a row of values, such as an
interval's hit and width, read only when scored.  The outcome columns of
a run are allocated before any replication runs, and serve every n.  Any
other failure stops the run with the error of the first replication that
meets it.  Coverage is computed over the scored replications with the
failure rate reported alongside, so covered + missed + failed always
equals the replication count.

A run uses W processes: ``EIVREG_WORKERS`` (default: every core this
process may run on), at most those cores and the replications, and splits
each n's replications into W contiguous shares, each filled by ``_fill``.
On more than one worker each share is filled in a child forked once per
run (``workers.Worker``), which sends one message per n, and this process
reads the children in share order, so the run raises the error of its
first failing replication whatever W is.  One worker fills the one share
here, as does every run where ``os.fork`` is missing.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Callable, Optional, Tuple

import numpy as np

from .diagnostics import empirical_bn, ks_distance_to_normal
from .errors import GuardViolation, ZeroNormalizer
from .estimators import (GUARD_SXX_MINUS_THETA, GUARD_SXY_MINUS_MU, GUARD_SYY_MINUS_LAMBDA_THETA,
                         SideInfo, check_side, estimate, naive_ratio_estimates)
from .inference import (DEGENERACY_DISCRIMINANT, DEGENERACY_LEADING, DEGENERACY_NONE,
                        INTERCEPT_VARIANTS, SLOPE_VARIANTS, check_intercept_model, check_k,
                        check_quadratic, ci_intercept, ci_slope_plugin, ci_slope_quadratic,
                        intercept_statistic, slope_statistic)
from .moments import Rows, check_integer, fsum, quiet_overflow
from .normal import z_for_gamma
from .samplers import (_ERROR_BASES, XI_FAMILIES, ModelSpec, _philox_generator, _raw_blocks,
                       _reset, _simulate_rows, philox_keys)

__all__ = ["ExperimentConfig", "ExperimentReport", "run_experiment",
           "EXPERIMENTS", "OUTCOMES", "PIVOTS", "WORKERS_ENV"]

PIVOTS = (tuple(f"slope_{v}" for v in SLOPE_VARIANTS)
          + tuple(f"intercept_{v}" for v in INTERCEPT_VARIANTS))

ZERO_NORMALIZER = "zero_normalizer"
# A replication's outcome code is its index here: scored, the degenerate
# inversions (_DEGENERATE), then the failures (_FAILED).
OUTCOMES = (DEGENERACY_NONE, DEGENERACY_LEADING, DEGENERACY_DISCRIMINANT, ZERO_NORMALIZER,
            GUARD_SXY_MINUS_MU, GUARD_SYY_MINUS_LAMBDA_THETA, GUARD_SXX_MINUS_THETA)
_SCORED, _DEGENERATE, _FAILED, _UNSCORED = 0, slice(1, 3), slice(3, None), slice(1, None)

# Worker-count override; the result must not (and does not) depend on it.
WORKERS_ENV = "EIVREG_WORKERS"

# The most replications one block runs.  A block holds its keys, so their
# memory does not grow with the replication count; a child holds its
# share's outcome rows at every block size.
_MAX_BLOCK = 1024

# A sub-block is evaluated at once as (B, n) arrays, and its fixed cost of
# about 100 NumPy calls on (B, 1) columns and 6 to 9 fsum calls is shared
# by its B rows.  It holds at most _BLOCK_ELEMENTS draws per series (163
# rows at n = 50, 81 at n = 100), or _MIN_ROWS rows while they stay within
# 4 * _BLOCK_ELEMENTS draws (16 at n = 2000, 8 at n = 4096), which bounds
# the memory of the arrays and their temporaries at every n.
_BLOCK_ELEMENTS = 8192
_MIN_ROWS = 16


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment: a generating model, side info, and the run plan.

    In a well-posed experiment the known moments in ``side`` equal the
    true moments of ``spec.err``; this is deliberately not enforced so
    that misspecification runs (for example forcing every guard to fail)
    remain expressible.
    """

    spec: ModelSpec
    side: SideInfo
    experiment: str
    n_values: Tuple[int, ...]
    replications: int
    gamma: float
    seed: int
    k: int = 1
    pivot: str = "slope_self_normalized_plugin"

    def __post_init__(self):
        if not isinstance(self.spec, ModelSpec):
            raise ValueError(f"spec must be a ModelSpec, got {self.spec!r}")
        check_side(self.side)
        if not isinstance(self.experiment, str) or self.experiment not in EXPERIMENTS:
            raise ValueError(f"unknown experiment {self.experiment!r}")
        try:
            n_values = tuple(self.n_values)
        except TypeError:
            raise ValueError(f"n_values must be a sequence of integers, "
                             f"got {self.n_values!r}") from None
        object.__setattr__(self, "n_values", tuple(check_integer("every n", n) for n in n_values))
        for name in ("replications", "seed", "k"):
            object.__setattr__(self, name, check_integer(name, getattr(self, name)))
        if not self.n_values:
            raise ValueError("n_values must not be empty")
        if any(n < 2 for n in self.n_values):
            raise ValueError("every n must be at least 2")
        if self.replications < 1:
            raise ValueError("replications must be at least 1")
        z_for_gamma(self.gamma)  # the number rule and the range of gamma
        object.__setattr__(self, "gamma", float(self.gamma))
        if self.seed < 0:
            raise ValueError("seed must be nonnegative")
        check_k(self.k)
        if self.pivot not in PIVOTS:
            raise ValueError(f"unknown pivot {self.pivot!r}")
        if self.spec.c != self.side.c:
            raise ValueError("spec and side disagree on the intercept flag")
        EXPERIMENTS[self.experiment].rule(self)


@dataclass(frozen=True)
class ExperimentReport:
    """Per-n summaries plus echoes of the seed and configuration."""

    experiment: str
    seed: int
    config: dict
    per_n: Tuple[dict, ...]

    def to_dict(self) -> dict:
        return {
            "experiment": self.experiment,
            "seed": self.seed,
            "config": self.config,
            "per_n": list(self.per_n),
        }


def _replicate(draws: tuple, rngs: tuple, keys: tuple, xi_raw: np.ndarray,
               err_raw: np.ndarray) -> None:
    """Draw one replication's raw variates into its rows ``xi_raw`` and
    ``err_raw`` of a block with the (xi, errors) raw draws ``draws``, from
    the reused generators ``rngs``, each first reset to its Philox key in
    ``keys``."""
    draws[0](_reset(rngs[0], keys[0]), xi_raw)
    draws[1](_reset(rngs[1], keys[1]), err_raw)


def _row_code(error: Optional[Exception], kind: str) -> int:
    """A row's outcome code: the guard or zero normalizer it failed, else its
    degeneracy kind; any other failure stops the run with the row's error."""
    if error is None:
        return OUTCOMES.index(kind)
    if isinstance(error, GuardViolation):
        return OUTCOMES.index(error.guard)
    if isinstance(error, ZeroNormalizer):
        return OUTCOMES.index(ZERO_NORMALIZER)
    raise error


def _sub_block_rows(n: int) -> int:
    """The rows of a full sub-block of replications of size ``n``."""
    return max(1, _BLOCK_ELEMENTS // n, min(_MIN_ROWS, 4 * _BLOCK_ELEMENTS // n))


@quiet_overflow
def _evaluate(config: ExperimentConfig, rows: Rows) -> tuple:
    """(codes, values) of a sub-block, under one floating-point error state."""
    kinds, values = EXPERIMENTS[config.experiment].outcome(config, rows)
    kinds = np.broadcast_to(kinds, (len(values), 1)).ravel().tolist()
    return np.fromiter(map(_row_code, rows.status.errors, kinds), np.int8, len(kinds)), values


def _worker_count(replications: int) -> int:
    """The processes that run ``replications`` replications: EIVREG_WORKERS
    (default: every core this process may run on), but no more than those
    cores or the replications, and one where ``os.fork`` is missing."""
    if hasattr(os, "sched_getaffinity"):
        cores = len(os.sched_getaffinity(0))
    else:
        cores = os.cpu_count() or 1
    raw = os.environ.get(WORKERS_ENV, str(cores))
    try:
        count = int(raw)
    except ValueError:
        count = 0
    if count < 1:
        raise ValueError(f"{WORKERS_ENV} must be a positive integer, got {raw!r}")
    return min(count, cores, replications) if hasattr(os, "fork") else 1


def _outcome_columns(config: ExperimentConfig) -> tuple:
    """Room for the codes and values of a run's replications at one n.  A
    count no allocation can meet raises MemoryError naming replications."""
    columns = EXPERIMENTS[config.experiment].columns(config)
    try:
        return np.empty(config.replications, np.int8), np.empty((config.replications, columns))
    except (MemoryError, ValueError) as exc:  # ValueError: beyond NumPy's largest dimension
        raise MemoryError(f"cannot allocate the outcomes of the replications: {exc}") from None


def _fill(config: ExperimentConfig, n: int, start: int, stop: int, columns: tuple) -> tuple:
    """Run replications start..stop-1 at n into their rows of ``columns``,
    the outcome columns of the run; the share's rows (codes, values).
    Replication r draws from the streams ``substream((seed, n, r), role)``,
    whatever block it runs in.  A block derives the Philox keys of at most
    ``_MAX_BLOCK`` replications at once, and runs them in sub-blocks of
    ``_sub_block_rows(n)`` rows: each replication's raw variates are drawn
    into a row, then the sub-block is simulated and evaluated as (B, n)
    arrays, and its codes and values written into its rows."""
    spec = config.spec
    rngs = (_philox_generator(), _philox_generator())
    family = XI_FAMILIES[spec.xi.family]
    draws = (family.draw, _ERROR_BASES[spec.err.base].draw)
    size = _sub_block_rows(n)
    codes, values = columns
    for block in range(start, stop, _MAX_BLOCK):
        keys = philox_keys(config.seed, n, block, min(block + _MAX_BLOCK, stop))
        for lo in range(0, keys.shape[1], size):
            count = min(size, keys.shape[1] - lo)
            xi_raw, err_raw = _raw_blocks(n, count, family.series, 2)
            for i, rep_keys in enumerate(zip(keys[0, lo:lo + count], keys[1, lo:lo + count])):
                _replicate(draws, rngs, rep_keys, xi_raw[i], err_raw[i])
            rows = Rows(*_simulate_rows(spec, xi_raw, err_raw))
            # Free the raw variates before evaluating.  Kept alive, they lift a
            # sub-block's heap peak at n = 2000 past glibc's trim threshold, and
            # the freed top was returned to the system and faulted back in every
            # sub-block (about 25 minor faults a replication).
            del xi_raw, err_raw
            rep = block + lo
            codes[rep:rep + count], values[rep:rep + count] = _evaluate(config, rows)
    return codes[start:stop], values[start:stop]


def _scored(ci, truth: float) -> tuple:
    covered = (ci.lower <= truth) & (truth <= ci.upper)
    return ci.degeneracy, np.hstack((covered, ci.upper - ci.lower))


def _coverage14(config: ExperimentConfig, rows: Rows) -> tuple:
    return _scored(ci_slope_plugin(rows, config.side, config.gamma), config.spec.beta)


def _coverage15(config: ExperimentConfig, rows: Rows) -> tuple:
    return _scored(ci_intercept(rows, config.side, config.gamma), config.spec.alpha)


def _coverage16(config: ExperimentConfig, rows: Rows) -> tuple:
    return _scored(ci_slope_quadratic(rows, config.side, config.k, config.gamma), config.spec.beta)


def _normality(config: ExperimentConfig, rows: Rows) -> tuple:
    spec, side, pivot = config.spec, config.side, config.pivot
    if pivot.startswith("slope_"):
        values = slope_statistic(rows, side, spec.beta, pivot.removeprefix("slope_"))
    else:
        variant = pivot.removeprefix("intercept_")
        values = intercept_statistic(rows, side, spec.alpha, variant=variant,
                                     beta=spec.beta if variant == "known_slope" else None)
    return DEGENERACY_NONE, values


def _rate(config: ExperimentConfig, rows: Rows) -> tuple:
    # Columns |beta error|, b_n |beta error| and, with an intercept, |alpha error|.
    spec, side = config.spec, config.side
    est = estimate(rows, side)
    abs_beta = np.abs(est.beta_hat - spec.beta)
    columns = (abs_beta, empirical_bn(rows.xi, rows.status) * abs_beta)
    if side.c == 1:
        columns += (np.abs(est.alpha_hat - spec.alpha),)
    return DEGENERACY_NONE, np.hstack(columns)


def _naive(config: ExperimentConfig, rows: Rows) -> tuple:
    beta = config.spec.beta
    naive = naive_ratio_estimates(rows, config.side.c)
    est = estimate(rows, config.side)
    return DEGENERACY_NONE, np.abs(np.hstack((naive.beta_a, naive.beta_b, est.beta_hat)) - beta)


def _median(values: np.ndarray) -> Optional[float]:
    return float(np.median(values)) if values.size else None


def _count(codes: np.ndarray, outcomes: slice) -> int:
    """How many replications have an outcome code in ``outcomes``."""
    return int(np.bincount(codes, minlength=len(OUTCOMES))[outcomes].sum())


def _base_record(n: int, config: ExperimentConfig, failures: int) -> dict:
    return {
        "n": n,
        "replications": config.replications,
        "failure_count": failures,
        "failure_rate": failures / config.replications,
    }


def _aggregate_coverage(n: int, config: ExperimentConfig, codes, values) -> dict:
    # Degenerate inversions cannot be scored for coverage; they count as
    # failures but are also reported on their own.
    record = _base_record(n, config, _count(codes, _UNSCORED))
    record["degenerate_count"] = _count(codes, _DEGENERATE)
    hits, widths = values[codes == _SCORED].T
    covered = int(np.count_nonzero(hits))
    record["covered_count"] = covered
    record["miss_count"] = hits.size - covered
    record["coverage"] = covered / hits.size if hits.size else None
    record["mean_width"] = fsum(widths) / widths.size if widths.size else None
    return record


def _aggregate_normality(n: int, config: ExperimentConfig, codes, values) -> dict:
    record = _base_record(n, config, _count(codes, _FAILED))
    pivots = values[codes == _SCORED, 0]
    record["pivot_count"] = pivots.size
    record["ks"] = ks_distance_to_normal(pivots) if pivots.size else None
    return record


def _aggregate_rate(n: int, config: ExperimentConfig, codes, values) -> dict:
    record = _base_record(n, config, _count(codes, _FAILED))
    scored = values[codes == _SCORED]
    record["median_abs_error"] = _median(scored[:, 0])
    # Empty, hence None, without an intercept column.
    record["median_abs_error_intercept"] = _median(scored[:, 2:])
    record["scaled_error_median"] = _median(scored[:, 1])
    return record


def _aggregate_naive(n: int, config: ExperimentConfig, codes, values) -> dict:
    record = _base_record(n, config, _count(codes, _FAILED))
    naive_a, naive_b, modified = values[codes == _SCORED].T
    record["median_abs_error_naive_a"] = _median(naive_a)
    record["median_abs_error_naive_b"] = _median(naive_b)
    record["median_abs_error_modified"] = _median(modified)
    # The ratio S_xy/S_xx is the headline naive estimator.
    record["median_abs_error"] = record["median_abs_error_naive_b"]
    return record


def _aggregate_degeneracy(n: int, config: ExperimentConfig, codes, values) -> dict:
    record = _base_record(n, config, _count(codes, _FAILED))
    record["degenerate_count"] = _count(codes, _DEGENERATE)
    record["degeneracy_fraction"] = record["degenerate_count"] / config.replications
    return record


@dataclass(frozen=True)
class _Experiment:
    """Everything particular to one experiment."""

    # (config, block of B Rows) -> (the degeneracy kind of each row or of
    # all rows, the (B, k) values of the rows); the caller codes failed rows.
    outcome: Callable
    # (n, config, int8 codes, float value rows) -> the per-n record.
    aggregate: Callable
    # config -> k, the number of values outcome gives each row.
    columns: Callable
    # Config fields echoed in the report besides the common ones.
    echo: Tuple[str, ...] = ()
    # config -> None; raises ValueError when the config does not suit it.
    rule: Callable = lambda config: None


def _quadratic_rule(config: ExperimentConfig) -> None:
    check_quadratic(config.side, config.k)


def _normality_rule(config: ExperimentConfig) -> None:
    if config.pivot.startswith("intercept_"):
        check_intercept_model(config.side)


EXPERIMENTS = {
    "coverage14": _Experiment(_coverage14, _aggregate_coverage, lambda config: 2),
    "coverage15": _Experiment(_coverage15, _aggregate_coverage, lambda config: 2,
                              rule=lambda config: check_intercept_model(config.side)),
    "coverage16": _Experiment(_coverage16, _aggregate_coverage, lambda config: 2, ("k",),
                              _quadratic_rule),
    "normality": _Experiment(_normality, _aggregate_normality, lambda config: 1, ("pivot",),
                             _normality_rule),
    "rate": _Experiment(_rate, _aggregate_rate, lambda config: 2 + config.side.c),
    "naive_consistency": _Experiment(_naive, _aggregate_naive, lambda config: 3),
    # Only the degeneracy codes of quadratic-interval outcomes are counted.
    "degeneracy": _Experiment(_coverage16, _aggregate_degeneracy, lambda config: 2, ("k",),
                              _quadratic_rule),
}

# Plain dict values, unlike record fields, are rebound by instrumentation
# such as bench/tracer.py.
_AGGREGATE = {name: exp.aggregate for name, exp in EXPERIMENTS.items()}


def _config_echo(config: ExperimentConfig) -> dict:
    spec, side = config.spec, config.side
    echo = {
        "experiment": config.experiment,
        "model": {
            "beta": spec.beta,
            "alpha": spec.alpha,
            "intercept_unknown": spec.c == 1,
            "xi": {"family": spec.xi.family,
                   "params": dict(zip(XI_FAMILIES[spec.xi.family].params, spec.xi.params))},
            "errors": {"lambda_theta": spec.err.lambda_theta, "theta": spec.err.theta,
                       "mu": spec.err.mu, "base": spec.err.base},
        },
        "side": {"case": side.case, "lambda_theta": side.lambda_theta,
                 "mu": side.mu, "theta": side.theta},
        "n_values": list(config.n_values),
        "replications": config.replications,
        "gamma": config.gamma,
        "seed": config.seed,
    }
    for name in EXPERIMENTS[config.experiment].echo:
        echo[name] = getattr(config, name)
    return echo


def run_experiment(config: ExperimentConfig) -> ExperimentReport:
    """Run all replications for every n and aggregate per-n summaries."""
    aggregate = _AGGREGATE[config.experiment]
    total = config.replications
    workers = _worker_count(total)
    # One set of outcome columns serves every n: each aggregate copies what
    # it keeps.  They are allocated before any process starts.
    columns = _outcome_columns(config)
    bounds = [total * j // workers for j in range(workers + 1)]
    shares = list(zip(bounds, bounds[1:]))
    # On more than one worker, each share runs in a child forked once for
    # the whole run, on its copy of the columns, and this process only
    # reads and aggregates.  It draws nothing, so it never imports
    # numpy.random: on the mc_small_n_pool benchmark at 2 workers it peaked
    # at 31.2-31.5 MB of RSS and each child at 32.2-32.6 MB.  Filling the
    # first share here, with one child fewer, raised its peak to 37.3-37.6
    # MB for wall and CPU times within the noise (-2.1%, +2.0%; 12 pairs).
    children = []
    try:
        if workers > 1:
            from .workers import Worker

            # Only the child advances its generator, so it reads start and
            # stop as they are at its fork.
            for start, stop in shares:
                children.append(Worker(_fill(config, n, start, stop, columns)
                                       for n in config.n_values))
        codes, values = columns
        per_n = []
        for n in config.n_values:
            for (start, stop), child in zip(shares, children):
                child.receive(codes[start:stop], values[start:stop])
            if not children:
                _fill(config, n, 0, total, columns)
            per_n.append(aggregate(n, config, codes, values))
    except BaseException:
        for child in children:
            child.reap(kill=True)
        raise
    finally:
        for child in children:
            child.reap()
    return ExperimentReport(experiment=config.experiment, seed=config.seed,
                            config=_config_echo(config), per_n=tuple(per_n))
