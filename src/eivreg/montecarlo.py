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
Replications run in blocks: each block derives the Philox keys of both
roles in one vectorised call and resets one reused generator per role to
each replication's keys, which gives the draws of ``samplers.substream``.
Replication r of a block is drawn into row r of (B, n) arrays, and each
sub-block of at most ``_BLOCK_ELEMENTS`` draws per series is evaluated at
once by the library functions on ``moments.Rows``: the one-sample
functions are the one-row case of the same code, so each row gets the
outcome its own call would give.  Guard violations, zero normalizers and
degenerate inversions are counted per replication, never raised; any
other failure stops the run with the error of the first replication that
meets it.  Coverage is computed over the non-failed replications with
the failure rate reported alongside, so covered + missed + failed always
equals the replication count.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from itertools import chain, repeat
from typing import Callable, Optional, Tuple

import numpy as np

from .diagnostics import empirical_bn, ks_distance_to_normal
from .errors import GuardViolation, ZeroNormalizer
from .estimators import SideInfo, estimate, naive_ratio_estimates
from .inference import (
    DEGENERACY_NONE,
    INTERCEPT_VARIANTS,
    SLOPE_VARIANTS,
    check_intercept_model,
    check_k,
    check_quadratic,
    ci_intercept,
    ci_slope_plugin,
    ci_slope_quadratic,
    intercept_statistic,
    slope_statistic,
)
from .moments import Rows, fsum, quiet_overflow
from .samplers import (ROLE_ERRORS, ROLE_XI, XI_FAMILIES, ModelSpec, _observe,
                       _philox_generator, _reset, philox_keys, sample_errors, sample_xi)

__all__ = ["ExperimentConfig", "ExperimentReport", "run_experiment",
           "EXPERIMENTS", "PIVOTS", "WORKERS_ENV"]

PIVOTS = (tuple(f"slope_{v}" for v in SLOPE_VARIANTS)
          + tuple(f"intercept_{v}" for v in INTERCEPT_VARIANTS))

# Worker-count override; the result must not (and does not) depend on it.
WORKERS_ENV = "EIVREG_WORKERS"

# The most replications one block runs.  A block holds its keys and
# outcomes, so its memory does not grow with the replication count.
_MAX_BLOCK = 1024

# The most draws per series one sub-block evaluates at once, as (B, n)
# arrays: 163 rows at n = 50, 81 at n = 100, 4 at n = 2000.  This bounds
# the memory of the arrays and their temporaries.
_BLOCK_ELEMENTS = 8192


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
        if self.experiment not in EXPERIMENTS:
            raise ValueError(f"unknown experiment {self.experiment!r}")
        object.__setattr__(self, "n_values", tuple(int(n) for n in self.n_values))
        if not self.n_values:
            raise ValueError("n_values must not be empty")
        if any(n < 2 for n in self.n_values):
            raise ValueError("every n must be at least 2")
        if self.replications < 1:
            raise ValueError("replications must be at least 1")
        if not 0.0 < self.gamma < 1.0:
            raise ValueError(f"gamma must lie strictly between 0 and 1, got {self.gamma!r}")
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


def _replicate(config: ExperimentConfig, rngs: tuple, keys: tuple, y: np.ndarray,
               x: np.ndarray, xi: np.ndarray) -> None:
    """Draw one replication into the rows ``y``, ``x`` and ``xi`` of a block,
    from the reused (xi, errors) generators ``rngs``, each first reset to
    its Philox key in ``keys``."""
    spec = config.spec
    xi[:] = sample_xi(spec.xi, xi.size, _reset(rngs[0], keys[0]))
    _observe(spec, xi, *sample_errors(spec.err, xi.size, _reset(rngs[1], keys[1])), y, x)


def _tagged(error: Optional[Exception], outcome: tuple) -> tuple:
    """A row's outcome: its own, or the tag of the guard or zero normalizer
    it failed; any other failure stops the run with the row's error."""
    if error is None:
        return outcome
    if isinstance(error, GuardViolation):
        return ("guard", error.guard)
    if isinstance(error, ZeroNormalizer):
        return ("zero", None)
    raise error


def _replicate_block(config: ExperimentConfig, n: int, start: int, stop: int) -> list:
    """Outcomes of replications start..stop-1, in order.  Replication r
    draws from the streams ``substream((seed, n, r), role)``, whatever
    block it runs in.  The block is evaluated in sub-blocks of at most
    ``_BLOCK_ELEMENTS`` draws per series, each as (B, n) arrays."""
    keys = philox_keys(config.seed, n, range(start, stop), (ROLE_XI, ROLE_ERRORS))
    rngs = (_philox_generator(), _philox_generator())
    size = max(1, _BLOCK_ELEMENTS // n)
    outcomes = []
    for lo in range(0, stop - start, size):
        count = min(size, stop - start - lo)
        y, x, xi = np.empty((3, count, n))
        for i, rep_keys in enumerate(zip(keys[0, lo:lo + count], keys[1, lo:lo + count])):
            _replicate(config, rngs, rep_keys, y[i], x[i], xi[i])
        rows = Rows(y, x, xi)
        values = _evaluate(config, rows)
        outcomes += map(_tagged, rows.status.errors, values)
    return outcomes


@quiet_overflow
def _evaluate(config: ExperimentConfig, rows: Rows) -> list:
    """The outcomes of a sub-block, under one floating-point error state."""
    return EXPERIMENTS[config.experiment].outcome(config, rows)


def _worker_count() -> int:
    raw = os.environ.get(WORKERS_ENV)
    if raw is None:
        return os.cpu_count() or 1
    try:
        count = int(raw)
    except ValueError:
        count = 0
    if count < 1:
        raise ValueError(f"{WORKERS_ENV} must be a positive integer, got {raw!r}")
    return count


def _map_replications(config: ExperimentConfig, n: int) -> list:
    """Outcomes for replications 0..M-1, in replication order.

    Replications are independent and run in blocks; with several workers
    the blocks run in a process pool, and the ordered collection makes the
    aggregate independent of scheduling.
    """
    total = config.replications
    workers = _worker_count()
    serial = workers == 1 or total < 4
    block = _MAX_BLOCK if serial else min(_MAX_BLOCK, max(1, total // (workers * 8)))
    starts = range(0, total, block)
    stops = [min(start + block, total) for start in starts]
    if serial:
        return list(chain.from_iterable(
            map(_replicate_block, repeat(config), repeat(n), starts, stops)))
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(chain.from_iterable(
            pool.map(_replicate_block, repeat(config), repeat(n), starts, stops)))


def _scored(ci, truth: float) -> list:
    covered = ((ci.lower <= truth) & (truth <= ci.upper)).ravel().tolist()
    widths = (ci.upper - ci.lower).ravel().tolist()
    kinds = (repeat(ci.degeneracy) if isinstance(ci.degeneracy, str)
             else ci.degeneracy.ravel().tolist())
    return [("ok", hit, width) if kind == DEGENERACY_NONE else ("degenerate", kind)
            for hit, width, kind in zip(covered, widths, kinds)]


def _coverage14(config: ExperimentConfig, rows: Rows) -> list:
    return _scored(ci_slope_plugin(rows, config.side, config.gamma), config.spec.beta)


def _coverage15(config: ExperimentConfig, rows: Rows) -> list:
    return _scored(ci_intercept(rows, config.side, config.gamma), config.spec.alpha)


def _coverage16(config: ExperimentConfig, rows: Rows) -> list:
    return _scored(ci_slope_quadratic(rows, config.side, config.k, config.gamma), config.spec.beta)


def _normality(config: ExperimentConfig, rows: Rows) -> list:
    spec, side, pivot = config.spec, config.side, config.pivot
    if pivot.startswith("slope_"):
        values = slope_statistic(rows, side, spec.beta, pivot.removeprefix("slope_"))
    else:
        values = intercept_statistic(rows, side, spec.alpha, beta=spec.beta,
                                     variant=pivot.removeprefix("intercept_"))
    return [("ok", value) for value in values.ravel().tolist()]


def _ok(*columns) -> list:
    """("ok", ...) outcomes whose fields are the rows of ``columns``."""
    return [("ok", *fields) for fields in zip(*(
        repeat(None) if column is None else column.ravel().tolist() for column in columns))]


def _rate(config: ExperimentConfig, rows: Rows) -> list:
    spec, side = config.spec, config.side
    est = estimate(rows, side)
    bn = empirical_bn(rows.xi, rows.status)
    abs_beta = np.abs(est.beta_hat - spec.beta)
    abs_alpha = np.abs(est.alpha_hat - spec.alpha) if side.c == 1 else None
    return _ok(abs_beta, abs_alpha, bn * abs_beta)


def _naive(config: ExperimentConfig, rows: Rows) -> list:
    beta = config.spec.beta
    naive = naive_ratio_estimates(rows, config.side.c)
    est = estimate(rows, config.side)
    return _ok(np.abs(naive.beta_a - beta), np.abs(naive.beta_b - beta),
               np.abs(est.beta_hat - beta))


def _median(values: list) -> Optional[float]:
    if not values:
        return None
    return float(np.median(np.asarray(values, dtype=float)))


def _base_record(n: int, config: ExperimentConfig, outcomes: list,
                 failed: Tuple[str, ...] = ("guard", "zero")) -> dict:
    failures = sum(1 for o in outcomes if o[0] in failed)
    return {
        "n": n,
        "replications": config.replications,
        "failure_count": failures,
        "failure_rate": failures / config.replications,
    }


def _aggregate_coverage(n: int, config: ExperimentConfig, outcomes: list) -> dict:
    # Degenerate inversions cannot be scored for coverage; they count as
    # failures but are also reported on their own.
    record = _base_record(n, config, outcomes, ("guard", "zero", "degenerate"))
    record["degenerate_count"] = sum(1 for o in outcomes if o[0] == "degenerate")
    covered = sum(1 for o in outcomes if o[0] == "ok" and o[1])
    missed = sum(1 for o in outcomes if o[0] == "ok" and not o[1])
    widths = [o[2] for o in outcomes if o[0] == "ok"]
    record["covered_count"] = covered
    record["miss_count"] = missed
    record["coverage"] = covered / (covered + missed) if covered + missed else None
    record["mean_width"] = fsum(widths) / len(widths) if widths else None
    return record


def _aggregate_normality(n: int, config: ExperimentConfig, outcomes: list) -> dict:
    record = _base_record(n, config, outcomes)
    values = [o[1] for o in outcomes if o[0] == "ok"]
    record["pivot_count"] = len(values)
    record["ks"] = ks_distance_to_normal(values) if values else None
    return record


def _aggregate_rate(n: int, config: ExperimentConfig, outcomes: list) -> dict:
    record = _base_record(n, config, outcomes)
    ok = [o for o in outcomes if o[0] == "ok"]
    record["median_abs_error"] = _median([o[1] for o in ok])
    alphas = [o[2] for o in ok if o[2] is not None]
    record["median_abs_error_intercept"] = _median(alphas)
    record["scaled_error_median"] = _median([o[3] for o in ok])
    return record


def _aggregate_naive(n: int, config: ExperimentConfig, outcomes: list) -> dict:
    record = _base_record(n, config, outcomes)
    ok = [o for o in outcomes if o[0] == "ok"]
    record["median_abs_error_naive_a"] = _median([o[1] for o in ok])
    record["median_abs_error_naive_b"] = _median([o[2] for o in ok])
    record["median_abs_error_modified"] = _median([o[3] for o in ok])
    # The ratio S_xy/S_xx is the headline naive estimator.
    record["median_abs_error"] = record["median_abs_error_naive_b"]
    return record


def _aggregate_degeneracy(n: int, config: ExperimentConfig, outcomes: list) -> dict:
    record = _base_record(n, config, outcomes)
    degenerate = sum(1 for o in outcomes if o[0] == "degenerate")
    record["degenerate_count"] = degenerate
    record["degeneracy_fraction"] = degenerate / config.replications
    return record


@dataclass(frozen=True)
class _Experiment:
    """Everything particular to one experiment."""

    # (config, block of Rows) -> the tagged outcome tuple of each row; the
    # caller replaces those of failed rows.
    outcome: Callable
    # (n, config, outcomes) -> the per-n record.
    aggregate: Callable
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
    "coverage14": _Experiment(_coverage14, _aggregate_coverage),
    "coverage15": _Experiment(_coverage15, _aggregate_coverage,
                              rule=lambda config: check_intercept_model(config.side)),
    "coverage16": _Experiment(_coverage16, _aggregate_coverage, ("k",), _quadratic_rule),
    "normality": _Experiment(_normality, _aggregate_normality, ("pivot",), _normality_rule),
    "rate": _Experiment(_rate, _aggregate_rate),
    "naive_consistency": _Experiment(_naive, _aggregate_naive),
    # Only the degeneracy tag of a quadratic-interval outcome is counted.
    "degeneracy": _Experiment(_coverage16, _aggregate_degeneracy, ("k",), _quadratic_rule),
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
    per_n = []
    for n in config.n_values:
        outcomes = _map_replications(config, n)
        per_n.append(aggregate(n, config, outcomes))
    return ExperimentReport(experiment=config.experiment, seed=config.seed,
                            config=_config_echo(config), per_n=tuple(per_n))
