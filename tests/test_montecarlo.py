import json

import numpy as np
import pytest

from conftest import M0_SPEC, SIDE1_M0, SIDE2_M0, T2_SPEC
from eivreg import ExperimentConfig, SideInfo, run_experiment
from eivreg.jsonout import dumps
from eivreg.montecarlo import _replicate_block


def cfg(**kw):
    base = dict(spec=M0_SPEC, side=SIDE2_M0, experiment="coverage14",
                n_values=(100,), replications=50, gamma=0.05, seed=1)
    base.update(kw)
    return ExperimentConfig(**base)


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

    def test_intercept_flag_mismatch(self):
        with pytest.raises(ValueError):
            cfg(side=SideInfo.case2(0.25, 0.05, c=0))


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
        shorter = _replicate_block(cfg(replications=50), 100, 0, 50)
        longer = _replicate_block(cfg(replications=200), 100, 0, 200)
        for rep in (0, 7, 49):
            alone = _replicate_block(cfg(replications=50), 100, rep, rep + 1)
            assert shorter[rep] == longer[rep] == alone[0]

    @pytest.mark.parametrize("replications", [3, 37, 1000])
    def test_reports_byte_identical_across_worker_counts(self, monkeypatch, replications):
        # 3 runs serially at any worker count; 37 runs in pool blocks of 2
        # (2 workers) and 1 (3 workers); 1000 is a multiple of neither of
        # its block sizes, 62 and 41.
        config = cfg(n_values=(12,), replications=replications)
        reports = set()
        for workers in ("1", "2", "3"):
            monkeypatch.setenv("EIVREG_WORKERS", workers)
            reports.add(dumps(run_experiment(config).to_dict()))
        assert len(reports) == 1

    def test_adding_n_values_preserves_existing_records(self):
        one = run_experiment(cfg(n_values=(40,), replications=100))
        two = run_experiment(cfg(n_values=(20, 40), replications=100))
        assert one.per_n[0] == two.per_n[1]

    def test_seed_echo(self):
        report = run_experiment(cfg(seed=99, replications=4))
        assert report.seed == 99
        assert report.config["seed"] == 99


class TestInfiniteVarianceSpec:
    def test_t2_experiment_runs(self):
        report = run_experiment(cfg(spec=T2_SPEC, n_values=(200,), replications=100))
        assert report.per_n[0]["coverage"] is not None


def test_report_json_round_trip():
    report = run_experiment(cfg(replications=25))
    text = dumps(report.to_dict())
    parsed = json.loads(text)
    assert parsed["experiment"] == "coverage14"
    assert parsed["per_n"][0]["coverage"] == report.per_n[0]["coverage"]
    # 17 significant digits round-trip binary64 exactly.
    assert float(format(report.per_n[0]["mean_width"], ".17g")) == \
        report.per_n[0]["mean_width"]
