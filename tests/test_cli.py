import json
import math
import os
import signal
import subprocess
import sys
import threading
import types
import warnings

import numpy as np
import pytest

from conftest import PROP_CASES, assert_no_child_left, usable_cpus
from eivreg import cli, montecarlo
from eivreg.cli import main
from eivreg.montecarlo import EXPERIMENTS

M0_CONFIG = {
    "model": {
        "beta": 2.0, "alpha": 1.0, "intercept_unknown": True,
        "xi": {"family": "normal", "params": {"mean": 0.0, "sd": 1.0}},
        "errors": {"lambda_theta": 0.25, "theta": 0.25, "mu": 0.05,
                   "base": "gaussian"},
    },
    "side": {"case": 2, "lambda_theta": None, "mu": 0.05, "theta": 0.25},
    "experiment": "coverage14",
    "n_values": [60],
    "replications": 40,
    "gamma": 0.05,
    "seed": 1,
}

LINE_CSV = "y,x\n1,0\n3,1\n5,2\n"
OFFLINE_CSV = "y,x\n1,0\n3,1\n6,2\n"
# Finite data and case-2 side info whose slope overflows: S_xx - theta is
# subnormal.
TINY_CSV = "y,x\n" + "".join(f"{1e-150 * a!r},{1e-150 * b!r}\n" for a, b in
                              zip((1.0, -0.5, 0.7, 1.2, 0.3), (1.1, -0.4, 0.9, 1.0, 0.1)))
TINY_SIDE = ("--case", "2", "--theta", "3.4639999999999653e-301", "--mu", "-1", "--intercept")


def run_cli(*args):
    return subprocess.run([sys.executable, "-m", "eivreg", *args],
                          capture_output=True, text=True)


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


class TestEstimate:
    def test_perfect_line(self, tmp_path):
        csv = write(tmp_path, "line.csv", LINE_CSV)
        proc = run_cli("estimate", csv, "--case", "2", "--theta", "0",
                       "--mu", "0", "--intercept")
        assert proc.returncode == 0, proc.stderr
        out = json.loads(proc.stdout)
        assert out["beta_hat"] == pytest.approx(2.0, rel=1e-10)
        assert out["alpha_hat"] == pytest.approx(1.0, rel=1e-10)
        assert out["n"] == 3

    def test_empty_body_exit_2(self, tmp_path):
        csv = write(tmp_path, "empty.csv", "y,x\n")
        proc = run_cli("estimate", csv, "--case", "2", "--theta", "0", "--mu", "0")
        assert proc.returncode == 2

    def test_constant_x_exit_3(self, tmp_path):
        csv = write(tmp_path, "const.csv", "y,x\n1,1\n2,1\n3,1\n")
        proc = run_cli("estimate", csv, "--case", "2", "--theta", "0", "--mu", "0",
                       "--intercept")
        assert proc.returncode == 3
        assert "s_xx_minus_theta" in proc.stderr

    def test_non_finite_cell_exit_2(self, tmp_path):
        csv = write(tmp_path, "nan.csv", "y,x\n1,0\nnan,1\n5,2\n")
        proc = run_cli("estimate", csv, "--case", "2", "--theta", "0", "--mu", "0")
        assert proc.returncode == 2
        assert "y[1] is not finite" in proc.stderr

    @pytest.mark.parametrize("scale, name", [(1e308, "sum of y"), (1e200, "sum of s_yy")])
    def test_overflow_exit_2(self, tmp_path, capsys, scale, name):
        rows = "".join(f"{scale * v!r},{0.9 * scale * v!r}\n" for v in (1.0, -0.5, 0.7, 1.2))
        csv = write(tmp_path, "big.csv", "y,x\n" + rows)
        assert main(["estimate", csv, "--case", "2", "--theta", "0", "--mu", "0",
                     "--intercept"]) == 2
        assert f"{name} overflows" in capsys.readouterr().err

    def test_overflowing_slope_exit_2(self, tmp_path, capsys):
        csv = write(tmp_path, "tiny.csv", TINY_CSV)
        assert main(["estimate", csv, *TINY_SIDE]) == 2
        assert capsys.readouterr().err == "eivreg: beta_hat overflows the float range\n"

    def test_missing_case_moment_exit_2(self, tmp_path):
        csv = write(tmp_path, "line.csv", LINE_CSV)
        proc = run_cli("estimate", csv, "--case", "1", "--mu", "0")
        assert proc.returncode == 2


class TestCi:
    def test_plugin_slope_endpoints(self, tmp_path):
        csv = write(tmp_path, "off.csv", OFFLINE_CSV)
        proc = run_cli("ci", csv, "--case", "2", "--theta", "0", "--mu", "0",
                       "--intercept", "--family", "plugin-slope", "--gamma", "0.05")
        assert proc.returncode == 0, proc.stderr
        out = json.loads(proc.stdout)
        assert out["lower"] == pytest.approx(2.2690160292750545, abs=1e-5)
        assert out["upper"] == pytest.approx(2.7309839707249464, abs=1e-5)
        assert out["degeneracy"] == "none"

    def test_invalid_gamma_exit_2(self, tmp_path):
        csv = write(tmp_path, "off.csv", OFFLINE_CSV)
        proc = run_cli("ci", csv, "--case", "2", "--theta", "0", "--mu", "0",
                       "--family", "plugin-slope", "--gamma", "1.5")
        assert proc.returncode == 2

    def test_quadratic_degenerate_exit_4(self, tmp_path):
        # gamma = 0.04 puts z above the leading-coefficient threshold on
        # this three-point dataset.
        csv = write(tmp_path, "off.csv", OFFLINE_CSV)
        proc = run_cli("ci", csv, "--case", "1", "--lambda-theta", "0",
                       "--mu", "0", "--intercept", "--family", "quadratic",
                       "--gamma", "0.04", "--k", "1")
        assert proc.returncode == 4
        out = json.loads(proc.stdout)
        assert out["degeneracy"] == "nonpositive_leading_coeff"
        assert out["lower"] is None and out["upper"] is None

    def test_quadratic_nondegenerate(self, tmp_path):
        csv = write(tmp_path, "off.csv", OFFLINE_CSV)
        proc = run_cli("ci", csv, "--case", "1", "--lambda-theta", "0",
                       "--mu", "0", "--intercept", "--family", "quadratic",
                       "--gamma", "0.10", "--k", "1")
        assert proc.returncode == 0, proc.stderr
        out = json.loads(proc.stdout)
        assert out["lower"] < out["center"] < out["upper"]

    def test_non_finite_side_flag_exit_2(self, tmp_path, capsys):
        csv = write(tmp_path, "off.csv", OFFLINE_CSV)
        assert main(["ci", csv, "--case", "2", "--theta", "nan", "--mu", "0",
                     "--family", "plugin-slope"]) == 2
        assert "theta must be finite" in capsys.readouterr().err

    # Values near 1e150 pass moment_set, but the pivot sums square terms that
    # are squares already.  The intercept terms stay near the scale of y
    # unless beta_hat * x is far larger, as with x near 1e100 and a spread
    # of 1e85.
    @pytest.mark.parametrize("flags, x", [
        (["--case", "2", "--theta", "0", "--family", "plugin-slope"], None),
        (["--case", "1", "--lambda-theta", "0", "--family", "quadratic", "--k", "1"], None),
        (["--case", "1", "--lambda-theta", "0", "--family", "quadratic", "--k", "2"], None),
        (["--case", "2", "--theta", "0", "--family", "intercept"],
         [1e100 + 1e85 * v for v in (1.1, -0.4, 0.9, 1.0, 0.1)]),
    ], ids=["plugin-slope", "quadratic-k1", "quadratic-k2", "intercept"])
    def test_overflow_exit_2(self, tmp_path, capsys, flags, x):
        y = [1e150 * v for v in (1.0, -0.5, 0.7, 1.2, 0.3)]
        if x is None:
            x = [1e150 * v for v in (0.99, -0.36, 0.81, 0.9, 0.09)]
        rows = "".join(f"{a!r},{b!r}\n" for a, b in zip(y, x))
        csv = write(tmp_path, "big.csv", "y,x\n" + rows)
        assert main(["ci", csv, "--mu", "0", "--intercept", "--gamma", "0.05", *flags]) == 2
        assert "overflows the float range" in capsys.readouterr().err

    @pytest.mark.parametrize("family", ["plugin-slope", "intercept"])
    def test_overflowing_slope_exit_2(self, tmp_path, capsys, family):
        csv = write(tmp_path, "tiny.csv", TINY_CSV)
        assert main(["ci", csv, *TINY_SIDE, "--family", family]) == 2
        assert capsys.readouterr().err == "eivreg: beta_hat overflows the float range\n"

    # The plug-in normalizer of these rows is a normal float at 1e-76 and
    # subnormal from 1e-77 on; at 1e-90 the interval had zero width.
    @pytest.mark.parametrize("scale", [1e-76, 1e-77, 1e-80, 1e-90])
    def test_underflow_exit_2(self, tmp_path, capsys, scale):
        rows = "".join(f"{scale * a!r},{0.9 * scale * b!r}\n" for a, b in
                       zip((1.0, -0.5, 0.7, 1.2, 0.3), (1.1, -0.4, 0.9, 1.0, 0.1)))
        csv = write(tmp_path, "small.csv", "y,x\n" + rows)
        code = main(["ci", csv, "--case", "2", "--theta", "0", "--mu", "0", "--intercept",
                     "--family", "plugin-slope"])
        out, err = capsys.readouterr()
        if scale == 1e-76:
            assert code == 0 and err == ""
            assert json.loads(out)["lower"] == 0.8543375353162495
            assert json.loads(out)["upper"] == 1.3293935398697905
        else:
            assert (code, out) == (2, "")
            assert err == "eivreg: sum of a_i(beta_hat)^2 underflows the float range\n"

    def test_intercept_family(self, tmp_path):
        csv = write(tmp_path, "off.csv", OFFLINE_CSV)
        proc = run_cli("ci", csv, "--case", "2", "--theta", "0", "--mu", "0",
                       "--intercept", "--family", "intercept", "--gamma", "0.05")
        assert proc.returncode == 0, proc.stderr
        out = json.loads(proc.stdout)
        assert out["lower"] <= out["center"] <= out["upper"]


class TestSimulate:
    def test_deterministic_output(self, tmp_path):
        config = write(tmp_path, "cfg.json", json.dumps({**M0_CONFIG, "n": 20}))
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        assert run_cli("simulate", "--config", config, "--out", str(out1)).returncode == 0
        assert run_cli("simulate", "--config", config, "--out", str(out2)).returncode == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_shape_and_latent(self, tmp_path):
        config = write(tmp_path, "cfg.json", json.dumps(M0_CONFIG))
        out = tmp_path / "data.csv"
        proc = run_cli("simulate", "--config", config, "--out", str(out),
                       "--latent", "--n", "5", "--seed", "9")
        assert proc.returncode == 0, proc.stderr
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "y,x"
        assert len(lines) == 6
        latent = (tmp_path / "data.latent.csv").read_text().strip().split("\n")
        assert latent[0] == "xi,delta,epsilon"
        assert len(latent) == 6
        # CSV floats round-trip, so the linear identities hold exactly.
        y = np.array([float(r.split(",")[0]) for r in lines[1:]])
        x = np.array([float(r.split(",")[1]) for r in lines[1:]])
        xi, delta, eps = (np.array(col) for col in zip(
            *[list(map(float, r.split(","))) for r in latent[1:]]))
        assert np.array_equal(y - 2.0 * xi - 1.0, delta)
        assert np.array_equal(x - xi, eps)

    def test_not_positive_definite_exit_2(self, tmp_path):
        bad = json.loads(json.dumps(M0_CONFIG))
        bad["model"]["errors"]["mu"] = 0.5
        config = write(tmp_path, "bad.json", json.dumps({**bad, "n": 5}))
        proc = run_cli("simulate", "--config", config, "--out",
                       str(tmp_path / "x.csv"))
        assert proc.returncode == 2
        assert "positive definite" in proc.stderr

    def test_missing_n_exit_2(self, tmp_path):
        config = write(tmp_path, "cfg.json", json.dumps(M0_CONFIG))
        proc = run_cli("simulate", "--config", config, "--out",
                       str(tmp_path / "x.csv"))
        assert proc.returncode == 2

    def test_flags_are_document_values(self, tmp_path):
        flagged = write(tmp_path, "a.json", json.dumps({**M0_CONFIG, "n": 3, "seed": 2}))
        plain = write(tmp_path, "b.json", json.dumps({**M0_CONFIG, "n": 7, "seed": 9}))
        assert main(["simulate", "--config", flagged, "--out", str(tmp_path / "a.csv"),
                     "--n", "7", "--seed", "9"]) == 0
        assert main(["simulate", "--config", plain, "--out", str(tmp_path / "b.csv")]) == 0
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


class TestExperiment:
    def test_coverage_report(self, tmp_path):
        config = write(tmp_path, "cfg.json", json.dumps(M0_CONFIG))
        out = tmp_path / "report.json"
        proc = run_cli("experiment", "--config", config, "--out", str(out))
        assert proc.returncode == 0, proc.stderr
        report = json.loads(out.read_text())
        assert report["experiment"] == "coverage14"
        assert len(report["per_n"]) == 1
        assert 0.0 <= report["per_n"][0]["coverage"] <= 1.0

    def test_unknown_experiment_exit_2(self, tmp_path):
        bad = {**M0_CONFIG, "experiment": "anova"}
        config = write(tmp_path, "bad.json", json.dumps(bad))
        proc = run_cli("experiment", "--config", config)
        assert proc.returncode == 2

    @pytest.mark.parametrize("path, value", [
        (("model", "xi", "params", "sd"), float("nan")),
        (("model", "errors", "mu"), float("inf")),
        (("model", "beta"), 10 ** 400),
        (("side", "theta"), float("nan")),
        (("gamma",), float("-inf")),
    ])
    def test_non_finite_number_names_field(self, tmp_path, capsys, path, value):
        doc = json.loads(json.dumps(M0_CONFIG))
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        parent[path[-1]] = value
        config = write(tmp_path, "cfg.json", json.dumps(doc))
        assert main(["experiment", "--config", config]) == 2
        assert f"{'.'.join(path)} must be finite" in capsys.readouterr().err

    @pytest.mark.parametrize("old, new, key", [
        ('"seed": 1}', '"seed": 1, "seed": 5}', "seed"),
        ('"sd": 1.0}', '"sd": 1.0, "sd": 2.0}', "sd"),
    ], ids=["top_level", "model.xi.params"])
    def test_duplicate_key_exit_2(self, tmp_path, capsys, old, new, key):
        text = json.dumps(M0_CONFIG)
        assert text.count(old) == 1
        config = write(tmp_path, "cfg.json", text.replace(old, new))
        assert main(["experiment", "--config", config, "--seed", "3"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"eivreg: cannot read config {config}: duplicate key {key!r}\n"

    @pytest.mark.parametrize("data, reason", [
        (b'{"model": \xff}', "'utf-8' codec can't decode byte 0xff"),
        (b'{"seed": ' + b"9" * 5000 + b"}", "Exceeds the limit (4300 digits)"),
    ], ids=["not_utf8", "integer_of_5000_digits"])
    def test_unreadable_document_names_its_path(self, tmp_path, capsys, data, reason):
        config = tmp_path / "cfg.json"
        config.write_bytes(data)
        assert main(["experiment", "--config", str(config)]) == 2
        assert capsys.readouterr().err.startswith(
            f"eivreg: cannot read config {config}: {reason}")

    def test_seed_override_changes_echo_only(self, tmp_path):
        config = write(tmp_path, "cfg.json", json.dumps(M0_CONFIG))
        base = run_cli("experiment", "--config", config)
        overridden = run_cli("experiment", "--config", config, "--seed", "5")
        rep0 = json.loads(base.stdout)
        rep1 = json.loads(overridden.stdout)
        assert rep0["seed"] == 1 and rep1["seed"] == 5
        assert rep1["config"]["seed"] == 5
        echo0 = {k: v for k, v in rep0["config"].items() if k != "seed"}
        echo1 = {k: v for k, v in rep1["config"].items() if k != "seed"}
        assert echo0 == echo1

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_gamma_flag_reads_like_document(self, tmp_path, capsys, value):
        config = write(tmp_path, "cfg.json", json.dumps(M0_CONFIG))
        assert main(["experiment", "--config", config, f"--gamma={value}"]) == 2
        assert capsys.readouterr().err == f"eivreg: gamma must be finite, got {float(value)!r}\n"

    @pytest.mark.parametrize("experiment", sorted(EXPERIMENTS))
    def test_tiny_gamma_rejected_before_any_replication(self, tmp_path, capsys, monkeypatch,
                                                         experiment):
        def replicate(*args):
            raise AssertionError("a replication ran")

        monkeypatch.setattr(montecarlo, "_fill", replicate)
        doc = {**M0_CONFIG, "experiment": experiment, "gamma": 1e-300,
               "side": {"case": 1, "lambda_theta": 0.25, "mu": 0.05, "theta": None}}
        config = write(tmp_path, "cfg.json", json.dumps(doc))
        assert main(["experiment", "--config", config]) == 2
        assert capsys.readouterr().err == ("eivreg: gamma must exceed 2**-53, below which "
                                           "1 - gamma/2 rounds to 1, got 1e-300\n")

    def test_unallocatable_n_in_workers_exit_2(self, tmp_path, capsys, monkeypatch):
        # 10**15 float64 values lie beyond a 47-bit address space, so each
        # worker's allocation is refused at once; its error reaches the
        # parent down the worker's pipe.
        monkeypatch.setenv("EIVREG_WORKERS", "2")
        doc = {**M0_CONFIG, "n_values": [10 ** 15], "replications": 8}
        config = write(tmp_path, "cfg.json", json.dumps(doc))
        assert main(["experiment", "--config", config]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(
            "eivreg: cannot allocate the variates of a sample of size n: ")
        assert captured.err.count("\n") == 1
        assert_no_child_left()

    @pytest.mark.parametrize("ending, how", [
        (lambda: os.kill(os.getpid(), signal.SIGKILL), f"killed by signal {signal.SIGKILL}"),
        (lambda: os._exit(3), "exit status 3")], ids=["sigkill", "exit_3"])
    def test_worker_ending_unreported_exit_2(self, tmp_path, capsys, monkeypatch, ending,
                                             how):
        # A worker that dies without sending its error ends the run with one
        # line, never a hang or a traceback, and leaves no process behind.
        parent = os.getpid()

        def replicate(*args):
            if os.getpid() == parent:
                raise AssertionError("a share ran in the parent")
            ending()

        monkeypatch.setattr(montecarlo, "_fill", replicate)
        usable_cpus(monkeypatch, 2)
        monkeypatch.setenv("EIVREG_WORKERS", "2")
        config = write(tmp_path, "cfg.json", json.dumps(M0_CONFIG))
        assert main(["experiment", "--config", config]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"eivreg: a worker process ended without its replications ({how})\n"
        assert_no_child_left()

    @pytest.mark.parametrize("replications", [10 ** 15, 10 ** 400])
    def test_unallocatable_replications_exit_2_before_any_replication(
            self, tmp_path, capsys, monkeypatch, replications):
        # The outcome columns are allocated in the parent before any worker
        # starts; the count is never iterated.
        def replicate(*args):
            raise AssertionError("a replication ran")

        monkeypatch.setattr(montecarlo, "_fill", replicate)
        monkeypatch.setenv("EIVREG_WORKERS", "2")
        doc = {**M0_CONFIG, "replications": replications}
        config = write(tmp_path, "cfg.json", json.dumps(doc))
        assert main(["experiment", "--config", config]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(
            "eivreg: cannot allocate the outcomes of the replications: ")
        assert captured.err.count("\n") == 1

    @pytest.mark.parametrize("out", [None, "report.json"])
    def test_non_finite_report_exit_2(self, tmp_path, capsys, monkeypatch, out):
        # JSON has no infinity: the run ends with one line and writes nothing.
        report = {"experiment": "coverage14", "per_n": [{"mean_width": math.inf}]}
        monkeypatch.setattr(montecarlo, "run_experiment",
                            lambda config: types.SimpleNamespace(to_dict=lambda: report))
        config = write(tmp_path, "cfg.json", json.dumps(M0_CONFIG))
        argv = ["experiment", "--config", config]
        if out is not None:
            argv += ["--out", str(tmp_path / out)]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("eivreg: ") and captured.err.count("\n") == 1
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]

    def test_byte_identical_reports(self, tmp_path):
        config = write(tmp_path, "cfg.json", json.dumps(M0_CONFIG))
        a = run_cli("experiment", "--config", config)
        b = run_cli("experiment", "--config", config)
        assert a.stdout == b.stdout


class TestDiagnose:
    def test_hand_column(self, tmp_path):
        csv = write(tmp_path, "z.csv", "z\n3\n4\n")
        proc = run_cli("diagnose", csv)
        assert proc.returncode == 0, proc.stderr
        out = json.loads(proc.stdout)
        assert out["obrien_ratio"] == pytest.approx(0.64, rel=1e-10)
        assert out["empirical_bn"] == pytest.approx(np.sqrt(0.5), rel=1e-10)

    def test_all_zero_exit_3(self, tmp_path):
        csv = write(tmp_path, "z.csv", "z\n0\n0\n")
        assert run_cli("diagnose", csv).returncode == 3

    def test_non_finite_cell_exit_2(self, tmp_path):
        # Rejected while reading (exit 2), not by the ratio (exit 3).
        csv = write(tmp_path, "z.csv", "z\n3\ninf\n")
        proc = run_cli("diagnose", csv)
        assert proc.returncode == 2
        assert "z[1] is not finite" in proc.stderr

    def test_overflow_exit_2(self, tmp_path):
        # An overflowing sum is an input error, not an undefined ratio.
        csv = write(tmp_path, "z.csv", "z\n1e200\n1\n")
        proc = run_cli("diagnose", csv)
        assert proc.returncode == 2
        assert proc.stderr == "eivreg: sum of z^2 overflows the float range\n"

    def test_underflow_exit_2(self, tmp_path):
        # Squares below the least normal float, though no value is zero.
        csv = write(tmp_path, "z.csv", "z\n9.9e-161\n-3.6e-161\n8.1e-161\n9e-161\n9e-162\n")
        proc = run_cli("diagnose", csv)
        assert proc.returncode == 2
        assert proc.stderr == "eivreg: sum of z^2 underflows the float range\n"

    def test_single_value(self, tmp_path):
        csv = write(tmp_path, "z.csv", "z\n7\n")
        proc = run_cli("diagnose", csv)
        out = json.loads(proc.stdout)
        assert out["obrien_ratio"] == 1.0
        assert out["empirical_bn"] is None

    def test_column_selection_and_extras(self, tmp_path):
        csv = write(tmp_path, "wide.csv", "a,b\n1,3\n2,4\n")
        proc = run_cli("diagnose", csv, "--column", "b", "--center", "3.5", "--ks")
        assert proc.returncode == 0, proc.stderr
        out = json.loads(proc.stdout)
        assert out["obrien_ratio"] == pytest.approx(0.64, rel=1e-10)
        assert out["selfnorm_stat"] == pytest.approx(0.0, abs=1e-12)
        assert out["ks_distance"] is not None
        missing = run_cli("diagnose", csv)
        assert missing.returncode == 2


SIDE2_FLAGS = ("--case", "2", "--theta", "0", "--mu", "0")
# Cell spellings float() reads, beside the repr of a random number.
SPELLINGS = ("+1.5", " 1.5 ", "1E5", ".5", "5.", "-0.0", "0", "-0", "nan", "-nan", "NaN",
             "inf", "-Infinity", "1e500", "-1e500", "1e-400", "5e-324", "7")


def _cell(rng: np.random.Generator) -> str:
    """A number spelled the way some CSV writer might."""
    if rng.random() < 0.4:
        return str(rng.choice(SPELLINGS))
    value = float(rng.standard_t(2) * 10.0 ** rng.integers(-300, 300))
    form = rng.integers(4)
    return (repr(value), f"{value:+}", f" {value!r} ", f"{value:E}")[form]


def _csv_file(rng: np.random.Generator) -> tuple:
    """The text of a CSV file with columns y and x, and the cells of each.
    Its header order, extra column, quotes, line ends, empty lines and
    byte-order mark vary."""
    names = list(rng.permutation(["y", "x", "note"] if rng.random() < 0.5 else ["y", "x"]))
    end = "\r\n" if rng.random() < 0.3 else "\n"
    cells = {"y": [], "x": []}
    lines = [",".join(names)]
    for _ in range(int(rng.integers(1, 12))):
        row = []
        for name in names:
            if name == "note":
                row.append(f'"a,b{rng.integers(9)}"')
                continue
            text = _cell(rng)
            cells[name].append(text)
            row.append(f'"{text}"' if rng.random() < 0.2 else text)
        lines.append(",".join(row))
        if rng.random() < 0.1:
            lines.append("")
    bom = "\ufeff" if rng.random() < 0.2 else ""
    return bom + end.join(lines) + end, cells


class TestCsvInput:
    def test_prop_reader_matches_float_per_cell(self, tmp_path):
        # The reference is the per-cell float() loop the reader replaced:
        # the arrays must match it bit for bit, sign of zero and NaN included.
        path = tmp_path / "data.csv"
        for seed in range(PROP_CASES):
            text, cells = _csv_file(np.random.default_rng([99, seed]))
            path.write_bytes(text.encode("utf-8"))
            columns = cli._read_columns(str(path), lambda header: ("y", "x"))
            for name in ("y", "x"):
                expected = np.array([float(c) for c in cells[name]])
                assert columns[name].flags.c_contiguous
                assert columns[name].tobytes() == expected.tobytes(), (text, name)

    @pytest.mark.parametrize("text, line, column, cell", [
        ("y,x\n1,0\nabc,1\n5,2\n", 3, "y", "abc"),
        ("y,x\n1,0\n3,1e\n5,2\n", 3, "x", "1e"),
        ("y,x\n1,0\n\n\n3,1\n5,--2\n", 6, "x", "--2"),
        ("x,y\r\n1,0\r\n\r\n2,1_0\r\n", 4, "y", "1_0"),
        ("y,x\n1,0\n\u0661,1\n", 3, "y", "\u0661"),
        ("y,x\n1,0\n2\n", 3, "x", ""),
        ('y,x,"a\nb"\n1,0,0\n\n3,x1,0\n', 5, "x", "x1"),
        ("\ufeffy,x\n\n1,0\n\n2,1e\n", 5, "x", "1e"),
    ])
    def test_bad_cell_names_line_column_and_text(self, tmp_path, capsys, text, line,
                                                 column, cell):
        csv = write(tmp_path, "bad.csv", text)
        assert main(["estimate", csv, *SIDE2_FLAGS]) == 2
        assert capsys.readouterr().err == (
            f"eivreg: {csv}: line {line}: column {column!r} holds {cell!r}, not a number\n")

    @pytest.mark.parametrize("count, bad, form", [
        (3000, 0, "plain"), (3000, 1023, "crlf"), (3000, 1024, "quoted"),
        (3000, 1500, "empty_lines"), (3000, 2999, "quoted"),
        (200_001, 200_000, "plain"), (200_001, 150_000, "empty_lines")])
    def test_bad_cell_found_in_large_file(self, tmp_path, capsys, count, bad, form):
        # One bad row among many: on the first line, at and across the edge
        # of the blocks of lines the error path parses at a time, and on
        # the last line of a large file.  Every tenth line is empty in
        # "empty_lines".
        rows = [f"{i}.5,{i}" for i in range(count)]
        rows[bad] = f'{bad}.5,"x{bad}"' if form == "quoted" else f"{bad}.5,x{bad}"
        lines = ["y,x"]
        for i, row in enumerate(rows):
            if form == "empty_lines" and i % 10 == 9:
                lines.append("")
            lines.append(row)
        line = lines.index(rows[bad]) + 1
        end = "\r\n" if form == "crlf" else "\n"
        csv = write(tmp_path, "big.csv", end.join(lines) + end)
        assert main(["estimate", csv, *SIDE2_FLAGS]) == 2
        assert capsys.readouterr().err == (
            f"eivreg: {csv}: line {line}: column 'x' holds 'x{bad}', not a number\n")

    @pytest.mark.parametrize("text", [
        'y,x,"a\nb"\n1,2,7\n3,4,8\n',
        'y,x,"a\r\nb"\r\n1,2,7\r\n3,4,8\r\n',
        "\ufeffy,x\n1,2\n3,4\n",
        "y,x\n\n1,2\n\n\n3,4\n\n",
    ], ids=["quoted_newline", "quoted_crlf", "bom", "blank_lines"])
    def test_rows_follow_any_header(self, tmp_path, text):
        # The rows start after every line the header takes, a quoted
        # newline's too; a byte-order mark and blank lines change nothing.
        path = write(tmp_path, "data.csv", text)
        columns = cli._read_columns(path, lambda header: ("y", "x"))
        assert {name: c.tolist() for name, c in columns.items()} == {"y": [1.0, 3.0],
                                                                     "x": [2.0, 4.0]}

    @pytest.mark.parametrize("header, argv, column", [
        ("y,x,y", ["estimate", "{csv}", *SIDE2_FLAGS], "y"),
        ("x,y, x", ["ci", "{csv}", *SIDE2_FLAGS, "--family", "plugin-slope"], "x"),
        ("z,y,z", ["diagnose", "{csv}", "--column", "z"], "z"),
    ], ids=["estimate_y", "ci_x", "diagnose_column"])
    def test_column_named_twice_exit_2(self, tmp_path, capsys, header, argv, column):
        # The header names a column the command reads twice, after
        # stripping: no column is picked silently.
        csv = write(tmp_path, "dup.csv", header + "\n1,2,3\n2,3,5\n4,5,1\n")
        assert main([arg.format(csv=csv) for arg in argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"eivreg: {csv}: header names column {column!r} more than once\n"

    def test_column_named_twice_but_not_read(self, tmp_path, capsys):
        csv = write(tmp_path, "dup.csv", "y,z,x,z\n1,0,2,0\n2,0,3,0\n4,0,5,0\n")
        assert main(["diagnose", csv, "--column", "x"]) == 0
        assert json.loads(capsys.readouterr().out)["n"] == 3

    def test_pipe_and_packed_name_read_as_a_file(self, tmp_path):
        # A pipe cannot be opened a second time, and NumPy would unpack a
        # file by its name: both are read from the one open handle.  The
        # rows span many read buffers.
        text = "y,x\n" + "".join(f"{i}.5,{i}\n" for i in range(20000))
        expected = cli._read_columns(write(tmp_path, "data.csv", text),
                                     lambda header: ("y", "x"))
        packed = write(tmp_path, "data.csv.gz", text)
        pipe = tmp_path / "pipe.csv"
        os.mkfifo(pipe)
        writer = threading.Thread(target=pipe.write_text, args=(text,), daemon=True)
        writer.start()
        for path in (packed, str(pipe)):
            columns = cli._read_columns(path, lambda header: ("y", "x"))
            assert all(columns[name].tobytes() == expected[name].tobytes()
                       for name in ("y", "x")), path
        writer.join(timeout=10)
        assert not writer.is_alive()

    def test_bad_cell_in_a_pipe_named_as_in_a_file(self, tmp_path, capsys):
        # The rescan that names a bad cell reads a pipe from memory, since
        # the pipe cannot be read again.
        text = "y,x\n1,0\n2,a\n3,1\n"
        pipe = tmp_path / "pipe.csv"
        os.mkfifo(pipe)
        writer = threading.Thread(target=pipe.write_text, args=(text,), daemon=True)
        writer.start()
        for path in (write(tmp_path, "data.csv", text), str(pipe)):
            assert main(["estimate", path, *SIDE2_FLAGS]) == 2
            assert capsys.readouterr().err == (
                f"eivreg: {path}: line 3: column 'x' holds 'a', not a number\n")
        writer.join(timeout=10)
        assert not writer.is_alive()

    def test_bad_cell_in_diagnose_column(self, tmp_path, capsys):
        csv = write(tmp_path, "wide.csv", "a,b\n1,2\n3,zz\n")
        assert main(["diagnose", csv, "--column", "b"]) == 2
        assert capsys.readouterr().err == (
            f"eivreg: {csv}: line 3: column 'b' holds 'zz', not a number\n")

    @pytest.mark.parametrize("argv, text", [
        (("estimate", "{}", *SIDE2_FLAGS), "y,x\n"),
        (("estimate", "{}", *SIDE2_FLAGS), "y,x\n\n\r\n"),
        (("diagnose", "{}"), "z\n"),
    ])
    def test_header_only_exit_2_without_warning(self, tmp_path, capsys, argv, text):
        csv = write(tmp_path, "empty.csv", text)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main([a.format(csv) for a in argv]) == 2
        assert capsys.readouterr().err == f"eivreg: {csv}: no data rows\n"

    @pytest.mark.parametrize("rows", (1, 5000))
    def test_not_utf8_names_path(self, tmp_path, capsys, rows):
        # 5000 rows put the bad byte past the block the header is decoded from.
        csv = tmp_path / "latin1.csv"
        csv.write_bytes(b"y,x\n" + b"1,2\n" * rows + b"\xe9,3\n")
        assert main(["estimate", str(csv), *SIDE2_FLAGS]) == 2
        assert capsys.readouterr().err == (
            f"eivreg: {csv}: not UTF-8 text: cannot decode byte 0xe9\n")

    @pytest.mark.parametrize("width", (2, 3))
    @pytest.mark.parametrize("rows", (1, cli._WRITE_BLOCK_ROWS - 1, cli._WRITE_BLOCK_ROWS,
                                      cli._WRITE_BLOCK_ROWS + 1))
    def test_write_csv_matches_single_join(self, tmp_path, rows, width):
        rng = np.random.default_rng([5, rows, width])
        columns = tuple(rng.standard_t(2, rows) * 10.0 ** rng.integers(-300, 300, rows)
                        for _ in range(width))
        columns[0][0] = -0.0
        header = ("y", "x", "z")[:width]
        path = tmp_path / "out.csv"
        cli._write_csv(path, header, columns)
        body = map(",".join, zip(*(map(repr, c.tolist()) for c in columns)))
        assert path.read_bytes() == ("\n".join([",".join(header), *body]) + "\n").encode()


def test_prop_simulate_estimate_round_trip(tmp_path):
    # Simulated data fed back through the estimator recovers the true
    # slope within the pipeline's own interval at roughly the configured
    # level.  In-process invocation keeps 200 seeds cheap.
    hits = 0
    for seed in range(PROP_CASES):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({**M0_CONFIG, "n": 250, "seed": seed}))
        data_csv = tmp_path / "data.csv"
        assert main(["simulate", "--config", str(config), "--out", str(data_csv)]) == 0
        ci_json = tmp_path / "ci.json"
        code = main(["ci", str(data_csv), "--case", "2", "--theta", "0.25",
                     "--mu", "0.05", "--intercept", "--family", "plugin-slope",
                     "--gamma", "0.05", "--out", str(ci_json)])
        assert code == 0
        out = json.loads(ci_json.read_text())
        if out["lower"] <= 2.0 <= out["upper"]:
            hits += 1
    # 0.95 coverage with binomial noise; 180/200 is a > 5 sigma floor.
    assert hits >= 180
