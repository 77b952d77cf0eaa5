import itertools
import json
import math
import os
import pickle
import re
import time

import numpy as np
import pytest

from conftest import M0_SPEC, SIDE1_M0, SIDE2_M0, T2_SPEC, assert_no_child_left
from eivreg import (Dataset, ErrorSpec, ExperimentConfig, GuardViolation, ModelSpec, SideInfo,
                    XiDistribution, ZeroNormalizer, ci_intercept, ci_slope_plugin,
                    ci_slope_quadratic, empirical_bn, estimate, intercept_statistic,
                    naive_ratio_estimates, run_experiment, simulate_dataset, slope_statistic)
from eivreg import errors, estimators, inference, montecarlo, workers
from eivreg.config import parse_experiment_config
from eivreg.inference import check_k
from eivreg.jsonout import dumps
from eivreg.moments import Rows
from eivreg.montecarlo import (EXPERIMENTS, OUTCOMES, PIVOTS, ZERO_NORMALIZER, _evaluate,
                               _replicate_block, _row_code)
from eivreg.normal import z_for_gamma
from eivreg.samplers import Latent
from eivreg.workers import Worker
from test_samplers import BASES, XI_CASES, XI_IDS


def cfg(**kw):
    base = dict(spec=M0_SPEC, side=SIDE2_M0, experiment="coverage14",
                n_values=(100,), replications=50, gamma=0.05, seed=1)
    base.update(kw)
    return ExperimentConfig(**base)


# Arguments for one instance of each error class.
ERROR_ARGS = {"EivregError": ("a domain error",),
              "GuardViolation": ("s_xy_minus_mu", -0.0),
              "ZeroNormalizer": ("centered slope residuals are all zero",),
              "ConfigError": ("data.csv: no data rows",)}


def test_every_error_survives_pickling():
    # A forked worker sends the exception that stops it pickled.
    assert set(ERROR_ARGS) == set(errors.__all__)
    for name, args in ERROR_ARGS.items():
        error = getattr(errors, name)(*args)
        copy = pickle.loads(pickle.dumps(error))
        assert type(copy) is type(error)
        assert (str(copy), copy.args, vars(copy)) == (str(error), error.args, vars(error))


class TestConfigValidation:
    def test_zero_replications(self):
        with pytest.raises(ValueError):
            cfg(replications=0)

    def test_bad_gamma(self):
        for gamma in (0.0, 1.0, -0.1, 2.0):
            with pytest.raises(ValueError):
                cfg(gamma=gamma)

    def test_unknown_experiment(self):
        with pytest.raises(ValueError):
            cfg(experiment="bootstrap")

    @pytest.mark.parametrize("field, value, kind", [
        ("spec", "x", "ModelSpec"), ("spec", SIDE2_M0, "ModelSpec"),
        ("side", None, "SideInfo"), ("side", M0_SPEC, "SideInfo")])
    def test_spec_and_side_types_named(self, field, value, kind):
        with pytest.raises(ValueError, match=f"^{field} must be a {kind}, got "):
            cfg(**{field: value})

    def test_small_n(self):
        with pytest.raises(ValueError):
            cfg(n_values=(1,))
        with pytest.raises(ValueError):
            cfg(n_values=())

    def test_negative_seed(self):
        with pytest.raises(ValueError):
            cfg(seed=-1)

    def test_quadratic_needs_case1(self):
        with pytest.raises(ValueError):
            cfg(experiment="coverage16")
        with pytest.raises(ValueError):
            cfg(experiment="degeneracy")
        cfg(experiment="coverage16", side=SIDE1_M0)

    def test_bad_pivot(self):
        with pytest.raises(ValueError):
            cfg(experiment="normality", pivot="median")

    @pytest.mark.parametrize("field, value", [
        ("n_values", (2.7,)), ("n_values", ("3",)), ("n_values", (True,)),
        ("replications", 5.5), ("replications", True), ("seed", 1.5), ("seed", True),
        ("k", True), ("k", 1.0)])
    def test_integer_fields_reject_non_integers(self, field, value):
        name = "every n" if field == "n_values" else field
        extra = {"experiment": "coverage16", "side": SIDE1_M0} if field == "k" else {}
        with pytest.raises(ValueError, match=f"^{name} must be an integer, got "):
            cfg(**{field: value}, **extra)

    @pytest.mark.parametrize("field, value, message", [
        ("n_values", 5, "n_values must be a sequence of integers, got 5"),
        ("gamma", "0.05", "gamma must be a number, got '0.05'"),
        ("gamma", True, "gamma must be a number, got True"),
        ("experiment", ["x"], r"unknown experiment \['x'\]")])
    def test_malformed_fields_are_named(self, field, value, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            cfg(**{field: value})

    @pytest.mark.parametrize("gamma", [0.0, 1.0, -0.1, math.nan, 2.0 ** -54, 1e-300, 10 ** 400])
    def test_gamma_range_is_z_for_gamma(self, gamma):
        # One owner: the config rejects each gamma with z_for_gamma's own
        # error, an integer beyond the float range included.
        with pytest.raises(ValueError) as owner:
            z_for_gamma(gamma)
        with pytest.raises(ValueError, match=f"^{re.escape(str(owner.value))}$"):
            cfg(gamma=gamma)

    def test_numpy_scalars_echo_as_json_numbers(self):
        # A side of case np.int64(2) and c True runs as case 2 with c = 1,
        # a model of c np.int64(1) with c = 1, gamma np.float32(0.25) as
        # 0.25, and float32 beta, mu and theta as the floats they hold.
        mu, theta = np.float32(0.05), np.float32(0.25)
        spec = ModelSpec(np.float32(2.0), 1.0, np.int64(1), M0_SPEC.xi, ErrorSpec(0.25, theta, mu))
        side = SideInfo(case=np.int64(2), mu=mu, theta=theta, c=True)
        report = run_experiment(cfg(spec=spec, side=side, gamma=np.float32(0.25), replications=3))
        plain = cfg(spec=ModelSpec(2.0, 1.0, 1, M0_SPEC.xi, ErrorSpec(0.25, 0.25, float(mu))),
                    side=SideInfo.case2(0.25, float(mu)), gamma=0.25, replications=3)
        assert dumps(report.to_dict()) == dumps(run_experiment(plain).to_dict())
        assert all(type(value) is float for value in (
            spec.beta, spec.err.mu, spec.err.theta, side.mu, side.theta))

    def test_integer_fields_accept_numpy_integers(self):
        config = cfg(experiment="coverage16", side=SIDE1_M0, n_values=(np.int64(8),),
                     replications=np.int32(3), seed=np.uint8(4), k=np.int64(2))
        fields = (*config.n_values, config.replications, config.seed, config.k)
        assert fields == (8, 3, 4, 2) and all(type(f) is int for f in fields)
        report = run_experiment(config)
        assert '"seed": 4' in dumps(report.to_dict())

    def test_check_k_rejects_bool(self):
        with pytest.raises(ValueError, match="k must be an integer, got True"):
            check_k(True)
        check_k(np.int64(2))

    def test_intercept_flag_mismatch(self):
        with pytest.raises(ValueError):
            cfg(side=SideInfo.case2(0.25, 0.05, c=0))



@pytest.mark.parametrize("base", BASES)
@pytest.mark.parametrize("dist", XI_CASES, ids=XI_IDS)
@pytest.mark.parametrize("experiment", EXPERIMENTS)
def test_report_config_parses_to_its_config(experiment, dist, base):
    # A report's config echo is a config document: parsed, it is the config.
    echoed = {name: value for name, value in (("k", 2), ("pivot", "intercept_plugin"))
              if name in EXPERIMENTS[experiment].echo}
    spec = ModelSpec(beta=-1.5, alpha=0.75, c=1, xi=dist,
                     err=ErrorSpec(lambda_theta=0.5, theta=2.0, mu=-0.6, base=base))
    config = ExperimentConfig(spec=spec, side=SideInfo.case1(0.5, -0.6), experiment=experiment,
                              n_values=(5, 3), replications=2, gamma=0.1, seed=2 ** 40 + 3,
                              **echoed)
    assert parse_experiment_config(run_experiment(config).config) == config


class TestCoverage:
    def test_single_replication_is_zero_or_one(self):
        report = run_experiment(cfg(replications=1))
        record = report.per_n[0]
        assert record["coverage"] in (0.0, 1.0)

    def test_accounting_balances(self):
        for experiment, side in (("coverage14", SIDE2_M0), ("coverage15", SIDE2_M0),
                                 ("coverage16", SIDE1_M0)):
            report = run_experiment(cfg(experiment=experiment, side=side,
                                        n_values=(8, 60), replications=200))
            for record in report.per_n:
                total = (record["covered_count"] + record["miss_count"]
                         + record["failure_count"])
                assert total == record["replications"] == 200

    def test_width_monotone_in_gamma(self):
        wide = run_experiment(cfg(gamma=0.01, replications=200))
        narrow = run_experiment(cfg(gamma=0.10, replications=200))
        assert wide.per_n[0]["mean_width"] >= narrow.per_n[0]["mean_width"]

    def test_seeded_coverage_near_level(self):
        report = run_experiment(cfg(n_values=(500,), replications=400))
        assert 0.90 <= report.per_n[0]["coverage"] <= 0.99


class TestNormality:
    def test_all_guard_failures_reported(self):
        # A known error variance far above anything achievable forces the
        # case 2 guard to fail in every replication.
        side = SideInfo.case2(theta=1e9, mu=0.05, c=1)
        report = run_experiment(cfg(experiment="normality", side=side,
                                    n_values=(20,), replications=30))
        record = report.per_n[0]
        assert record["failure_rate"] == 1.0
        assert record["ks"] is None
        assert record["pivot_count"] == 0

    def test_seeded_pivot_distance_small(self):
        report = run_experiment(cfg(experiment="normality", n_values=(300,),
                                    replications=300, seed=3))
        assert report.per_n[0]["ks"] <= 0.10

    @pytest.mark.parametrize("pivot", ["slope_studentized", "slope_self_normalized",
                                       "intercept_known_slope", "intercept_plugin"])
    def test_other_pivots_run(self, pivot):
        report = run_experiment(cfg(experiment="normality", pivot=pivot,
                                    n_values=(50,), replications=40))
        assert report.per_n[0]["pivot_count"] == 40


class TestRate:
    def test_fields_and_scaling(self):
        report = run_experiment(cfg(experiment="rate", n_values=(50, 200),
                                    replications=120))
        for record in report.per_n:
            assert record["median_abs_error"] > 0
            assert record["median_abs_error_intercept"] > 0
            assert record["scaled_error_median"] > 0
        # Error shrinks with n.
        assert report.per_n[1]["median_abs_error"] < report.per_n[0]["median_abs_error"]


class TestNaive:
    def test_single_replication_echoes_value(self):
        report = run_experiment(cfg(experiment="naive_consistency", replications=1))
        record = report.per_n[0]
        assert record["median_abs_error"] == record["median_abs_error_naive_b"]
        assert record["median_abs_error"] is not None

    def test_attenuation_under_finite_variance(self):
        report = run_experiment(cfg(experiment="naive_consistency",
                                    n_values=(800,), replications=200))
        record = report.per_n[0]
        # k_xi = 1/1.25, so the ordinary slope aims at 1.64, not 2.
        assert record["median_abs_error_naive_b"] > 0.2
        assert record["median_abs_error_modified"] < 0.2


class TestDegeneracy:
    def test_fraction_bounds_and_tiny_sample_contrast(self):
        small = run_experiment(cfg(experiment="degeneracy", side=SIDE1_M0,
                                   n_values=(3,), replications=300, gamma=0.001))
        large = run_experiment(cfg(experiment="degeneracy", side=SIDE1_M0,
                                   n_values=(200,), replications=300, gamma=0.001))
        f_small = small.per_n[0]["degeneracy_fraction"]
        f_large = large.per_n[0]["degeneracy_fraction"]
        assert 0.0 <= f_large <= 1.0
        assert f_small > f_large + 0.3

    def test_single_replication(self):
        report = run_experiment(cfg(experiment="degeneracy", side=SIDE1_M0,
                                    replications=1))
        assert report.per_n[0]["degeneracy_fraction"] in (0.0, 1.0)


class TestDeterminism:
    def test_worker_count_does_not_change_report(self, monkeypatch):
        config = cfg(n_values=(40,), replications=200)
        monkeypatch.setenv("EIVREG_WORKERS", "1")
        serial = run_experiment(config)
        monkeypatch.setenv("EIVREG_WORKERS", "2")
        parallel = run_experiment(config)
        assert serial.to_dict() == parallel.to_dict()
        assert dumps(serial.to_dict()) == dumps(parallel.to_dict())

    @pytest.mark.parametrize("raw", ["0", "-2", "abc", ""])
    def test_invalid_worker_count_names_variable(self, monkeypatch, raw):
        monkeypatch.setenv("EIVREG_WORKERS", raw)
        with pytest.raises(ValueError, match="EIVREG_WORKERS must be a positive integer"):
            run_experiment(cfg(replications=4))

    def test_replication_streams_keyed_by_seed_n_rep(self):
        # Replication r's outcome depends on (seed, n, r) only: not on the
        # replication count, nor on where its block starts.
        config = cfg(replications=50)
        shorter = _as_tuples(config, _replicate_block(config, 100, 0, 50))
        longer = _as_tuples(config, _replicate_block(cfg(replications=200), 100, 0, 200))
        for rep in (0, 7, 49):
            alone = _as_tuples(config, _replicate_block(config, 100, rep, rep + 1))
            assert shorter[rep] == longer[rep] == alone[0]

    @pytest.mark.parametrize("replications", [3, 37, 1000])
    def test_reports_byte_identical_across_worker_counts(self, monkeypatch, replications):
        # 3 runs serially at any worker count; 37 runs in pool blocks of 2
        # (2 workers) and 1 (3 workers); 1000 is a multiple of neither of
        # its block sizes, 62 and 41.  Serially, 1000 replications at n = 12
        # fill one sub-block of 682 rows and a partial one of 318.  Every xi
        # family and error base is drawn and transformed.
        for xi, base in itertools.product(XI_CASES, ("gaussian", "scaled_uniform")):
            spec = ModelSpec(beta=2.0, alpha=1.0, c=1, xi=xi,
                             err=ErrorSpec(lambda_theta=0.25, theta=0.25, mu=0.05, base=base))
            config = cfg(spec=spec, n_values=(12,), replications=replications)
            reports = set()
            for workers in ("1", "2", "3"):
                monkeypatch.setenv("EIVREG_WORKERS", workers)
                reports.add(dumps(run_experiment(config).to_dict()))
            assert len(reports) == 1, (xi, base)

    def test_share_messages_that_outgrow_the_pipe(self, monkeypatch):
        # A 4096-byte pipe holds 240 replications of two values, so each
        # share, 500 replications on 2 workers and 333 or 334 on 3, is read
        # in several pieces while its child still writes, at both n.
        monkeypatch.setattr(workers, "_PIPE_BYTES", 4096)
        monkeypatch.setattr(montecarlo.os, "cpu_count", lambda: 3)
        config = cfg(n_values=(10, 20), replications=1000)
        monkeypatch.setenv("EIVREG_WORKERS", "1")
        serial = dumps(run_experiment(config).to_dict())
        for count in ("2", "3"):
            monkeypatch.setenv("EIVREG_WORKERS", count)
            assert dumps(run_experiment(config).to_dict()) == serial, count
        assert_no_child_left()

    def test_adding_n_values_preserves_existing_records(self):
        one = run_experiment(cfg(n_values=(40,), replications=100))
        two = run_experiment(cfg(n_values=(20, 40), replications=100))
        assert one.per_n[0] == two.per_n[1]

    @pytest.mark.parametrize("workers, forks", [("1", 0), ("2", 2), ("3", 3)])
    def test_one_fork_per_child_per_run(self, monkeypatch, workers, forks):
        # Each child is forked once and serves all three n values; one
        # worker runs in this process and forks none.
        fork, forked = os.fork, []

        def counting_fork():
            pid = fork()
            if pid:
                forked.append(pid)
            return pid

        monkeypatch.setattr(montecarlo.os, "fork", counting_fork)
        monkeypatch.setattr(montecarlo.os, "cpu_count", lambda: 3)
        monkeypatch.setenv("EIVREG_WORKERS", workers)
        report = run_experiment(cfg(n_values=(10, 20, 30), replications=40))
        assert len(report.per_n) == 3 and len(set(forked)) == forks
        assert_no_child_left()

    @pytest.mark.parametrize("workers, cores, replications, processes", [
        ("100000", 2, 40, 2), ("64", 128, 5, 5), ("3", 2, 37, 2), ("2", 8, 40, 2),
        ("4", None, 40, 1)])
    def test_pool_size_capped_by_cores_and_blocks(self, monkeypatch, workers, cores,
                                                  replications, processes):
        # The process count is fixed before any process starts: no more than
        # the cores or the replications.  Counting starts none.
        monkeypatch.setattr(montecarlo.os, "cpu_count", lambda: cores)
        monkeypatch.setenv("EIVREG_WORKERS", workers)
        assert montecarlo._worker_count(replications) == processes

    def test_one_process_without_fork(self, monkeypatch):
        config = cfg(n_values=(10, 20), replications=40)
        monkeypatch.setenv("EIVREG_WORKERS", "1")
        serial = dumps(run_experiment(config).to_dict())
        monkeypatch.delattr(montecarlo.os, "fork")
        monkeypatch.setenv("EIVREG_WORKERS", "2")
        assert montecarlo._worker_count(40) == 1
        assert dumps(run_experiment(config).to_dict()) == serial

    def test_pooled_run_raises_the_serial_runs_error(self, monkeypatch):
        # Every block fails, and the second share fails first in time: the
        # run still stops with the first block's error, as the serial run does.
        def failing_block(config, n, start, stop):
            if start == 0:
                time.sleep(0.2)
            raise ValueError(f"the block from {start} failed")

        monkeypatch.setattr(montecarlo, "_replicate_block", failing_block)
        monkeypatch.setattr(montecarlo.os, "cpu_count", lambda: 2)
        for workers in ("1", "2"):
            monkeypatch.setenv("EIVREG_WORKERS", workers)
            with pytest.raises(ValueError, match="^the block from 0 failed$"):
                run_experiment(cfg(n_values=(10,), replications=40))
        assert_no_child_left()

    def test_worker_raises_the_guard_violation_its_child_sent(self):
        def outcomes():
            raise GuardViolation("s_xy_minus_mu", 0.0)
            yield

        worker = Worker(outcomes())
        try:
            with pytest.raises(GuardViolation) as raised:
                worker.receive(np.zeros(1, np.int8), np.zeros(1))
        finally:
            assert worker.reap() == 0
        assert (raised.value.guard, raised.value.value) == ("s_xy_minus_mu", 0.0)
        assert str(raised.value) == "guard violation: s_xy_minus_mu = 0.0"
        assert_no_child_left()

    def test_interrupted_run_kills_its_children(self, monkeypatch):
        # The children are still on the second n when the first aggregate is
        # interrupted: they are killed and reaped, not waited for.
        replicate_block = montecarlo._replicate_block

        def slow_second_n(config, n, start, stop):
            if n == 20:
                time.sleep(60)
            return replicate_block(config, n, start, stop)

        def interrupted(*args):
            raise KeyboardInterrupt

        monkeypatch.setattr(montecarlo, "_replicate_block", slow_second_n)
        monkeypatch.setitem(montecarlo._AGGREGATE, "coverage14", interrupted)
        monkeypatch.setattr(montecarlo.os, "cpu_count", lambda: 2)
        monkeypatch.setenv("EIVREG_WORKERS", "2")
        started = time.perf_counter()
        with pytest.raises(KeyboardInterrupt):
            run_experiment(cfg(n_values=(10, 20), replications=40))
        assert time.perf_counter() - started < 30
        assert_no_child_left()

    def test_seed_echo(self):
        report = run_experiment(cfg(seed=99, replications=4))
        assert report.seed == 99
        assert report.config["seed"] == 99


class TestInfiniteVarianceSpec:
    def test_t2_experiment_runs(self):
        report = run_experiment(cfg(spec=T2_SPEC, n_values=(200,), replications=100))
        assert report.per_n[0]["coverage"] is not None


def _floats(obj) -> list:
    """Every float in a JSON-shaped object, in document order."""
    if isinstance(obj, dict):
        obj = list(obj.values())
    if isinstance(obj, (list, tuple)):
        return [x for item in obj for x in _floats(item)]
    return [obj] if type(obj) is float else []


def test_report_json_round_trip():
    # Every float the document holds reads back as a float with the same
    # bits: negative zero, integral values and the extremes included.
    edges = [-0.0, 2.0, 0.1, 5e-324, 1.7976931348623157e308]
    doc = {"report": run_experiment(cfg(replications=25)).to_dict(), "edges": edges}
    parsed = json.loads(dumps(doc))
    assert parsed["report"]["experiment"] == "coverage14"
    assert len(_floats(doc)) > len(edges)
    assert [x.hex() for x in _floats(parsed)] == [x.hex() for x in _floats(doc)]


def _scalar_outcome(config, data) -> tuple:
    """One replication's outcome from the one-sample library calls: the
    per-replication loop the block kernel replaced, as the oracle."""
    spec, side, name = config.spec, config.side, config.experiment
    try:
        if name in ("coverage14", "coverage15", "coverage16", "degeneracy"):
            if name == "coverage14":
                ci, truth = ci_slope_plugin(data, side, config.gamma), spec.beta
            elif name == "coverage15":
                ci, truth = ci_intercept(data, side, config.gamma), spec.alpha
            else:
                ci, truth = ci_slope_quadratic(data, side, config.k, config.gamma), spec.beta
            if ci.degeneracy != "none":
                return ("degenerate", ci.degeneracy)
            return ("ok", ci.lower <= truth <= ci.upper, ci.upper - ci.lower)
        if name == "normality":
            kind, variant = config.pivot.split("_", 1)
            if kind == "slope":
                return ("ok", slope_statistic(data, side, spec.beta, variant))
            return ("ok", intercept_statistic(
                data, side, spec.alpha, variant=variant,
                beta=spec.beta if variant == "known_slope" else None))
        if name == "rate":
            est = estimate(data, side)
            abs_beta = abs(est.beta_hat - spec.beta)
            abs_alpha = abs(est.alpha_hat - spec.alpha) if side.c == 1 else None
            return ("ok", abs_beta, abs_alpha, empirical_bn(data.latent.xi) * abs_beta)
        naive = naive_ratio_estimates(data, side.c)
        est = estimate(data, side)
        return ("ok", abs(naive.beta_a - spec.beta), abs(naive.beta_b - spec.beta),
                abs(est.beta_hat - spec.beta))
    except GuardViolation as exc:
        return ("guard", exc.guard)
    except ZeroNormalizer:
        return ("zero", None)


GUARDS = {value for name, value in vars(estimators).items() if name.startswith("GUARD_")}
DEGENERACIES = {value for name, value in vars(inference).items()
                if name.startswith("DEGENERACY_")}


def _as_tuples(config, outcomes) -> list:
    """A block's (codes, values) as the tagged tuples ``_scalar_outcome``
    gives: the outcome of each row with its fields."""
    tuples = []
    for code, row in zip(*(column.tolist() for column in outcomes)):
        name = OUTCOMES[code]
        if name in GUARDS:
            tuples.append(("guard", name))
        elif name == ZERO_NORMALIZER:
            tuples.append(("zero", None))
        elif name != inference.DEGENERACY_NONE:
            tuples.append(("degenerate", name))
        elif config.experiment in ("coverage14", "coverage15", "coverage16", "degeneracy"):
            tuples.append(("ok", bool(row[0]), row[1]))
        elif config.experiment == "rate":
            tuples.append(("ok", row[0], row[2] if config.side.c == 1 else None, row[1]))
        else:
            tuples.append(("ok", *row))
    return tuples


def test_outcomes_are_the_guards_degeneracies_and_zero_normalizer():
    # A new guard or degeneracy kind without an outcome code fails here.
    assert len(set(OUTCOMES)) == len(OUTCOMES)
    assert set(OUTCOMES) == GUARDS | DEGENERACIES | {ZERO_NORMALIZER}


def test_every_outcome_round_trips_through_its_row_code():
    # negative_discriminant is reachable only through rounding, since
    # b = beta1 always lies in the acceptance set; its code is checked here.
    for name in GUARDS:
        assert OUTCOMES[_row_code(GuardViolation(name, 0.0), inference.DEGENERACY_NONE)] == name
    assert OUTCOMES[_row_code(ZeroNormalizer("zero"), inference.DEGENERACY_LEADING)] == \
        ZERO_NORMALIZER
    for name in DEGENERACIES:
        assert OUTCOMES[_row_code(None, name)] == name
    with pytest.raises(ValueError, match="overflows"):
        _row_code(ValueError("sum of s_yy overflows the float range"), inference.DEGENERACY_NONE)


def _configs(spec_for_c, n, reps, gamma, known=0.25):
    """Every experiment, pivot, case, intercept flag and quadratic variant,
    with the known error variance ``known`` in both cases."""
    for name, c, case in itertools.product(EXPERIMENTS, (0, 1), (1, 2)):
        side = (SideInfo.case1(known, 0.05, c) if case == 1 else SideInfo.case2(known, 0.05, c))
        extras = [{}]
        if name in ("coverage16", "degeneracy"):
            extras = [{"k": 1}, {"k": 2}]
        elif name == "normality":
            extras = [{"pivot": p} for p in PIVOTS if c == 1 or p.startswith("slope_")]
        for extra in extras:
            try:
                yield cfg(spec=spec_for_c[c], side=side, experiment=name, n_values=(n,),
                          replications=reps, gamma=gamma, **extra)
            except ValueError:  # the experiment's rule rejects this combination
                pass


def _spec(xi, c):
    return ModelSpec(beta=2.0, alpha=float(c), c=c, xi=xi, err=M0_SPEC.err)


def _dataset(y, x, xi):
    return Dataset(y=y, x=x, latent=Latent(xi=xi, delta=0 * xi, epsilon=0 * xi))


def _mixed_rows(n=6):
    """(y, x, xi) rows of one size: ordinary draws and rows that fail a
    guard (tiny or constant), lie on an exact line (zero normalizers) or
    degenerate in the quadratic inversion."""
    rng = np.random.default_rng(5)
    rows = []
    for i in range(40):
        xi = rng.standard_normal(n) * (1.0 + 4 * (i % 3))
        x = xi + 0.5 * rng.standard_normal(n)
        y = 2.0 * xi + 1.0 + 0.5 * rng.standard_normal(n)
        rows.append((y, x, xi))
    line = np.arange(n, dtype=float)
    rows[3] = (2.0 * line + 1.0, line, line)
    rows[7] = (1e-3 * rows[7][0], 1e-3 * rows[7][1], rows[7][2])
    rows[11] = (np.full(n, 3.0), np.full(n, 1.0), line)
    rows[17] = (2.0 * line, line, line)
    return [tuple(map(np.array, row)) for row in rows]


def _block_outcomes(config, rows):
    y, x, xi = (np.stack(part) for part in zip(*rows))
    return _evaluate(config, Rows(y, x, xi))


def test_block_outcomes_equal_scalar_outcomes():
    # Hand-made rows: every row of a block gets the outcome the one-sample
    # library calls give it, bit for bit, whatever its neighbours do.
    rows = _mixed_rows()
    specs = {c: _spec(M0_SPEC.xi, c) for c in (0, 1)}
    reached = set()
    for config in _configs(specs, 6, len(rows), 0.01):
        codes, values = _block_outcomes(config, rows)
        # _outcome_columns allocates the run's values by this width.
        assert values.shape == (len(rows), EXPERIMENTS[config.experiment].columns(config))
        got = _as_tuples(config, (codes, values))
        want = [_scalar_outcome(config, _dataset(*row)) for row in rows]
        assert list(map(repr, got)) == list(map(repr, want)), config
        reached.update(OUTCOMES[code] for code in codes.tolist())
    # Every outcome but the rounding-only negative discriminant, each guard included.
    assert reached == set(OUTCOMES) - {inference.DEGENERACY_DISCRIMINANT}


@pytest.mark.parametrize("n, elements", [(7, 7 * 5), (12, 12 * 7), (30, 8192)])
def test_replicate_block_equals_scalar_replications(monkeypatch, n, elements):
    # Replication r of a run is the one-sample outcome on
    # simulate_dataset(spec, n, (seed, n, r)).  Sub-blocks of 5 and 7 rows
    # divide neither 23 replications nor the block's start, 3.  A known
    # error variance of 1.5 makes some replications fail their guard.
    monkeypatch.setattr(montecarlo, "_BLOCK_ELEMENTS", elements)
    monkeypatch.setattr(montecarlo, "_MIN_ROWS", 1)
    specs = {c: _spec(XiDistribution.symmetric_pareto2(0.7, 0.0), c) for c in (0, 1)}
    reached = set()
    for config in _configs(specs, n, 26, 0.02, known=1.5):
        codes, values = _replicate_block(config, n, 3, 26)
        got = _as_tuples(config, (codes, values))
        want = [_scalar_outcome(config, simulate_dataset(config.spec, n, (config.seed, n, r)))
                for r in range(3, 26)]
        assert list(map(repr, got)) == list(map(repr, want)), config
        reached.update(OUTCOMES[code] for code in codes.tolist())
    assert {inference.DEGENERACY_NONE, inference.DEGENERACY_LEADING,
            estimators.GUARD_SXX_MINUS_THETA} <= reached


@pytest.mark.parametrize("n, rows", [(30, 273), (100, 81), (2000, 16), (4096, 8), (10 ** 5, 1)])
def test_sub_block_plan(monkeypatch, n, rows):
    # A full sub-block holds at most _BLOCK_ELEMENTS = 8192 draws per
    # series, or 16 rows while they stay within 4 * 8192 draws.  One more
    # replication than a full sub-block starts a second one.
    sizes = []

    def keep(config, block):
        sizes.append(len(block.y))
        return np.zeros(len(block.y), np.int8), np.zeros((len(block.y), 2))

    monkeypatch.setattr(montecarlo, "_evaluate", keep)
    _replicate_block(cfg(n_values=(n,), replications=rows + 1), n, 0, rows + 1)
    assert sizes == [rows, 1]


def test_first_failing_row_stops_the_block_with_its_scalar_error():
    # Rows 9 and 13 overflow different sums; the block stops with row 9's
    # error, the one the one-sample call on it raises.
    rows = _mixed_rows()
    rows[9] = (1e200 * rows[9][0], rows[9][1], rows[9][2])
    rows[13] = (np.full(6, 1e308), rows[13][1], rows[13][2])
    specs = {c: _spec(M0_SPEC.xi, c) for c in (0, 1)}
    for config in _configs(specs, 6, len(rows), 0.01):
        with pytest.raises(ValueError) as scalar:
            _scalar_outcome(config, _dataset(*rows[9]))
        with pytest.raises(ValueError) as block:
            _block_outcomes(config, rows)
        assert type(block.value) is type(scalar.value)
        assert str(block.value) == str(scalar.value) == "sum of s_yy overflows the float range"


def test_overflowing_run_stops_with_scalar_error(monkeypatch):
    # Pareto-2 draws of scale 3e152 overflow the squares in some
    # replications: the run stops with the error of the first of them, on
    # one worker and on two.
    monkeypatch.setattr(montecarlo.os, "cpu_count", lambda: 2)
    monkeypatch.setattr(montecarlo, "_BLOCK_ELEMENTS", 12 * 5)
    monkeypatch.setattr(montecarlo, "_MIN_ROWS", 1)
    spec = _spec(XiDistribution.symmetric_pareto2(3e152, 0.0), 1)
    config = cfg(spec=spec, n_values=(12,), replications=40)
    first = None
    for r in range(40):
        try:
            _scalar_outcome(config, simulate_dataset(spec, 12, (config.seed, 12, r)))
        except ValueError as exc:
            first = exc
            break
    assert first is not None and r > 0
    for workers in ("1", "2"):
        monkeypatch.setenv("EIVREG_WORKERS", workers)
        with pytest.raises(ValueError) as run:
            run_experiment(config)
        assert str(run.value) == str(first)
    assert_no_child_left()
