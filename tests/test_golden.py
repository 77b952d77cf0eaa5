"""Golden CLI corpus: the exact stdout and stderr bytes and exit code of a
fixed set of ``eivreg`` invocations, plus the bytes of every file
``simulate`` writes.

The corpus spans every experiment and pivot, every latent family, both
error bases, both identifiability cases, both intercept flags, both
quadratic variants, one and two workers, and the ``estimate``, ``ci``,
``simulate`` and ``diagnose`` subcommands, and one rejected input for each
rule the command line and its config documents enforce.  Every report
re-runs from its own config echo to the same bytes.  A refactor that
claims to change no behaviour must pass it unchanged.  Each case runs
``eivreg.cli.main`` in-process in its own working directory, with
``COLUMNS=80`` so that argparse wraps its usage lines the same way on
every terminal; sizes are kept tiny so the whole corpus takes a few
seconds.

After an intended change of output, recapture the expected files with

    PYTHONPATH=src python tests/test_golden.py --capture

It rewrites only the files whose bytes change, and prints one line for
each: for a JSON document, "same values, bit for bit", "same values; K
ints now floats" or the first path whose value differs; for any other
file, "bytes differ".
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
from dataclasses import dataclass, field
from pathlib import Path

import pytest

from eivreg.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"
EXIT_CODES = GOLDEN / "exit_codes.json"

XI_PARAMS = {
    "normal": {"mean": 0.5, "sd": 1.5},
    "uniform": {"a": -1.0, "b": 2.0},
    "centered_exponential": {"rate": 0.8},
    "student_t2": {"scale": 1.0, "shift": 0.3},
    "symmetric_pareto2": {"scale": 1.2, "shift": -0.2},
}


def model(family="normal", base="gaussian", c=1) -> dict:
    return {
        "beta": 2.0, "alpha": 1.0 if c else 0.0, "intercept_unknown": bool(c),
        "xi": {"family": family, "params": XI_PARAMS[family]},
        "errors": {"lambda_theta": 0.25, "theta": 0.25, "mu": 0.05, "base": base},
    }


def experiment(name, *, family="normal", base="gaussian", case=2, c=1,
               n_values=(12, 30), reps=24, seed=7, gamma=0.05, **extra) -> str:
    side = ({"case": 1, "lambda_theta": 0.25, "mu": 0.05, "theta": None} if case == 1
            else {"case": 2, "lambda_theta": None, "mu": 0.05, "theta": 0.25})
    side.update(extra.pop("side", {}))
    doc = {"model": model(family, base, c), "side": side, "experiment": name,
           "n_values": n_values, "replications": reps, "gamma": gamma,
           "seed": seed, **extra}
    return json.dumps(doc)


def _data_csv(n: int = 40) -> str:
    # Exact decimal arithmetic on integers: the same bytes on every platform.
    rows = ["y,x"]
    for i in range(n):
        x = ((i * 37) % 101) / 10.0 - 5.0
        noise = ((i * 53) % 29) / 29.0 - 0.5
        rows.append(f"{2.0 * x + 1.0 + noise!r},{x + ((i * 17) % 13) / 26.0 - 0.25!r}")
    return "\n".join(rows) + "\n"


DATA_CSV = _data_csv()
OFFLINE_CSV = "y,x\n1,0\n3,1\n6,2\n"
CONST_X_CSV = "y,x\n1,1\n2,1\n3,1\n"
COLUMN_CSV = "z\n" + "".join(f"{((i * 29) % 31) / 4.0 - 3.5!r}\n" for i in range(25))
# No value is zero, but every square is subnormal: the sum of z^2 underflows.
UNDERFLOW_CSV = "z\n9.9e-161\n-3.6e-161\n8.1e-161\n9e-161\n9e-162\n"


@dataclass(frozen=True)
class Case:
    name: str
    argv: tuple
    # Input files by name, as text (written as UTF-8) or as raw bytes.
    inputs: dict = field(default_factory=dict)
    workers: str = "1"
    # Files the command writes, compared byte for byte.
    writes: tuple = ()


def exp_case(case_name, workers="1", flags=(), **kw) -> Case:
    return Case(case_name, ("experiment", "--config", "cfg.json", *flags),
                {"cfg.json": experiment(**kw)}, workers)


def fit_case(name, *argv, csv=DATA_CSV) -> Case:
    return Case(name, (argv[0], "data.csv", *argv[1:]), {"data.csv": csv})


SIDE1 = ("--case", "1", "--lambda-theta", "0.25", "--mu", "0.05")
SIDE2 = ("--case", "2", "--theta", "0.25", "--mu", "0.05")

CASES = [
    # Every experiment, with the families, bases, cases, flags and workers spread over them.
    exp_case("exp_coverage14_case2_c1_normal_w1", name="coverage14"),
    exp_case("exp_coverage14_case1_c0_uniform_scaled_w2", "2", name="coverage14",
             family="uniform", base="scaled_uniform", case=1, c=0),
    exp_case("exp_coverage15_case2_t2_w2", "2", name="coverage15", family="student_t2"),
    exp_case("exp_coverage15_case1_exponential_scaled_w1", name="coverage15",
             family="centered_exponential", base="scaled_uniform", case=1),
    exp_case("exp_coverage16_k1_pareto_w2", "2", name="coverage16",
             family="symmetric_pareto2", case=1, k=1),
    exp_case("exp_coverage16_k2_c0_t2_w1", name="coverage16", family="student_t2",
             case=1, c=0, k=2),
    exp_case("exp_normality_slope_studentized_case1_w1", name="normality", case=1,
             pivot="slope_studentized"),
    exp_case("exp_normality_slope_self_normalized_case2_c0_w2", "2", name="normality",
             c=0, pivot="slope_self_normalized"),
    exp_case("exp_normality_default_pivot_t2_w1", name="normality", family="student_t2"),
    exp_case("exp_normality_slope_self_normalized_plugin_case1_w2", "2",
             name="normality", case=1, pivot="slope_self_normalized_plugin"),
    exp_case("exp_normality_intercept_known_slope_w2", "2", name="normality",
             family="uniform", pivot="intercept_known_slope"),
    exp_case("exp_normality_intercept_plugin_case1_w1", name="normality",
             family="symmetric_pareto2", case=1, pivot="intercept_plugin"),
    exp_case("exp_rate_c1_w1", name="rate", family="student_t2"),
    exp_case("exp_rate_c0_case1_w2", "2", name="rate", case=1, c=0),
    exp_case("exp_naive_c1_w2", "2", name="naive_consistency", family="centered_exponential"),
    exp_case("exp_naive_c0_w1", name="naive_consistency", c=0),
    exp_case("exp_degeneracy_k1_w1", name="degeneracy", case=1, k=1,
             n_values=(3, 10), gamma=0.001),
    exp_case("exp_degeneracy_k2_c0_w2", "2", name="degeneracy", case=1, c=0, k=2,
             n_values=(3, 10), gamma=0.001),
    exp_case("exp_guard_failures_w1", name="coverage14", side={"theta": 1e9}),
    # Every replication fails its guard: the null aggregates of each record.
    exp_case("exp_all_failed_normality_w1", name="normality", side={"theta": 1e9}),
    exp_case("exp_all_failed_rate_w1", name="rate", side={"theta": 1e9}),
    exp_case("exp_all_failed_naive_w1", name="naive_consistency", side={"theta": 1e9}),
    exp_case("exp_mixed_guards_coverage15_w1", name="coverage15", n_values=(3,),
             reps=40, side={"theta": 0.9}),
    exp_case("exp_seed_gamma_override_w2", "2", ("--seed", "3", "--gamma", "0.1"),
             name="coverage14", family="uniform"),
    # Replication counts of 1, 3 and 97 at sample sizes whose runs split
    # into blocks of different sizes, on one and two workers.
    *(exp_case(f"exp_blocks_{name}_r{reps}_w{workers}", workers, name=name, reps=reps,
               n_values=(50, 100, 170, 2000), **extra)
      for name, extra in (("coverage16", {"family": "symmetric_pareto2", "case": 1, "k": 1}),
                          ("normality", {"pivot": "slope_self_normalized_plugin"}))
      for reps in (1, 3, 97) for workers in ("1", "2")),
    # Configurations every experiment's validation rules reject.
    exp_case("exp_reject_coverage16_case2", name="coverage16"),
    exp_case("exp_reject_degeneracy_case2", name="degeneracy"),
    exp_case("exp_reject_coverage15_c0", name="coverage15", c=0),
    exp_case("exp_reject_intercept_pivot_c0", name="normality", c=0,
             pivot="intercept_plugin"),
    exp_case("exp_reject_unknown_pivot", name="normality", pivot="median"),
    exp_case("exp_reject_unknown_experiment", name="bootstrap"),
    exp_case("exp_reject_bad_k", name="coverage16", case=1, k=3),
    exp_case("exp_reject_bad_workers", "abc", name="coverage14"),
    exp_case("exp_reject_gamma_0", flags=("--gamma", "0"), name="coverage14"),
    # Documents the config layer rejects.
    exp_case("exp_reject_model_not_object", name="coverage14", model=5),
    exp_case("exp_reject_unknown_xi_family", name="coverage14",
             model={**model(), "xi": {"family": "cauchy", "params": {"scale": 1.0}}}),
    exp_case("exp_reject_n_values_not_list", name="coverage14", n_values=5),
    Case("exp_reject_duplicate_key", ("experiment", "--config", "cfg.json"),
         {"cfg.json": experiment("coverage14")[:-1] + ', "seed": 5}'}),
    Case("exp_reject_missing_experiment", ("experiment", "--config", "cfg.json"),
         {"cfg.json": json.dumps({key: value for key, value in json.loads(
             experiment("coverage14")).items() if key != "experiment"})}),
    # Gamma's one owner, z_for_gamma, rejects these before any replication runs.
    exp_case("exp_reject_normality_gamma_1e_300", name="normality", gamma=1e-300),
    exp_case("exp_reject_gamma_nan_flag", flags=("--gamma", "nan"), name="coverage14"),
    # 10**15 float64 values lie beyond a 47-bit address space: refused at once.
    exp_case("exp_reject_unallocatable_n", name="coverage14", n_values=(10 ** 15,)),
    # Replication counts whose outcomes no allocation can meet, the second
    # beyond NumPy's largest dimension: refused before any replication runs.
    exp_case("exp_reject_unallocatable_replications", name="coverage14", reps=10 ** 15),
    exp_case("exp_reject_replications_1e400", name="coverage14", reps=10 ** 400),
    # A sample size beyond NumPy's largest dimension, named in the error.
    exp_case("exp_reject_n_1e400", name="coverage14", n_values=(10 ** 400,)),
    # A family and a base that are not strings.
    exp_case("exp_reject_xi_family_list", name="coverage14",
             model={**model(), "xi": {"family": [], "params": {}}}),
    exp_case("exp_reject_error_base_object", name="coverage14",
             model={**model(), "errors": {**model()["errors"], "base": {}}}),
    # Fits of one CSV dataset.
    fit_case("estimate_case1_c1", "estimate", *SIDE1, "--intercept"),
    fit_case("estimate_case2_c0", "estimate", *SIDE2),
    fit_case("estimate_guard_exit_3", "estimate", *SIDE2, "--intercept", csv=CONST_X_CSV),
    fit_case("ci_plugin_case2_c1", "ci", *SIDE2, "--intercept", "--family", "plugin-slope"),
    fit_case("ci_plugin_case1_c0", "ci", *SIDE1, "--family", "plugin-slope", "--gamma", "0.1"),
    fit_case("ci_intercept_case1", "ci", *SIDE1, "--intercept", "--family", "intercept"),
    fit_case("ci_intercept_case2", "ci", *SIDE2, "--intercept", "--family", "intercept",
             "--gamma", "0.2"),
    fit_case("ci_quadratic_k1_c1", "ci", *SIDE1, "--intercept", "--family", "quadratic",
             "--k", "1"),
    fit_case("ci_quadratic_k2_c0", "ci", *SIDE1, "--family", "quadratic", "--k", "2"),
    fit_case("ci_quadratic_degenerate_exit_4", "ci", "--case", "1", "--lambda-theta", "0",
             "--mu", "0", "--intercept", "--family", "quadratic", "--gamma", "0.04",
             "--k", "1", csv=OFFLINE_CSV),
    fit_case("diagnose_column_center_ks", "diagnose", "--column", "x", "--center", "0.5",
             "--ks"),
    Case("diagnose_single_column", ("diagnose", "z.csv", "--center", "-1", "--ks"),
         {"z.csv": COLUMN_CSV}),
    # Flags and CSV files the fitting commands reject.
    fit_case("estimate_reject_no_mu", "estimate", "--case", "2", "--theta", "0.25"),
    fit_case("estimate_reject_case1_no_lambda_theta", "estimate", "--case", "1",
             "--mu", "0.05"),
    fit_case("ci_reject_case2_no_theta", "ci", "--case", "2", "--mu", "0.05",
             "--family", "plugin-slope"),
    fit_case("ci_reject_gamma_1_5", "ci", *SIDE2, "--family", "plugin-slope",
             "--gamma", "1.5"),
    fit_case("diagnose_reject_center_nan", "diagnose", "--column", "x", "--center", "nan"),
    Case("diagnose_reject_underflow", ("diagnose", "z.csv"), {"z.csv": UNDERFLOW_CSV}),
    fit_case("estimate_reject_non_numeric_cell", "estimate", *SIDE2,
             csv="y,x\n1,0\nabc,1\n5,2\n"),
    fit_case("estimate_reject_duplicate_column", "estimate", *SIDE2, "--intercept",
             csv="y,x,y\n1,2,3\n2,3,4\n4,5,1\n"),
    # Spellings of a CSV file that spreadsheets and editors write.
    fit_case("estimate_csv_trailing_blank_line", "estimate", *SIDE2, csv=DATA_CSV + "\n"),
    fit_case("estimate_csv_byte_order_mark", "estimate", *SIDE2,
             csv="\ufeffy,x\n1,2\n3,4\n5,7\n"),
    fit_case("estimate_csv_not_utf8", "estimate", *SIDE2, csv=b"y,x\n1,2\n\xff,4\n5,7\n"),
    fit_case("estimate_csv_quoted_cell", "estimate", *SIDE2,
             csv='y,x\n"1.5",2\n3,"4"\n5,7\n'),
    fit_case("estimate_csv_crlf", "estimate", *SIDE2, csv=DATA_CSV.replace("\n", "\r\n")),
    Case("estimate_reject_missing_csv", ("estimate", "missing.csv", *SIDE2)),
    # Simulation settings the command rejects.
    Case("simulate_reject_n_0", ("simulate", "--config", "cfg.json", "--out", "sim.csv"),
         {"cfg.json": json.dumps({"model": model(), "n": 0, "seed": 1})}),
    Case("simulate_reject_no_n", ("simulate", "--config", "cfg.json", "--out", "sim.csv"),
         {"cfg.json": json.dumps({"model": model(), "seed": 1})}),
    Case("simulate_reject_unallocatable_n", ("simulate", "--config", "cfg.json", "--out",
                                              "sim.csv", "--n", str(10 ** 15)),
         {"cfg.json": json.dumps({"model": model(), "seed": 1})}),
    Case("simulate_reject_n_1e400", ("simulate", "--config", "cfg.json", "--out", "sim.csv"),
         {"cfg.json": json.dumps({"model": model(), "n": 10 ** 400, "seed": 1})}),
    # An error covariance whose mu^2 leaves the float range.
    Case("simulate_reject_mu_1e200", ("simulate", "--config", "cfg.json", "--out", "sim.csv"),
         {"cfg.json": json.dumps({"model": {**model(), "errors": {
             "lambda_theta": 1e300, "theta": 1e300, "mu": 1e200}}, "n": 5, "seed": 1})}),
] + [
    # One simulation per latent family, alternating the error base.
    Case(f"simulate_{family}", ("simulate", "--config", "cfg.json", "--out", "sim.csv",
                                "--latent", "--n", "6", "--seed", "11"),
         {"cfg.json": json.dumps({"model": model(family, base, c)})},
         writes=("sim.csv", "sim.latent.csv"))
    for (family, base, c) in (("normal", "gaussian", 1), ("uniform", "scaled_uniform", 0),
                              ("centered_exponential", "gaussian", 0),
                              ("student_t2", "scaled_uniform", 1),
                              ("symmetric_pareto2", "gaussian", 1))
]


@contextlib.contextmanager
def _inside(workdir: Path, workers: str):
    """Run with ``workdir`` as the working directory, EIVREG_WORKERS set and
    a terminal width of 80 columns."""
    env = {"EIVREG_WORKERS": workers, "COLUMNS": "80"}
    old_cwd, old_env = os.getcwd(), {k: os.environ.get(k) for k in env}
    os.chdir(workdir)
    os.environ.update(env)
    try:
        yield
    finally:
        os.chdir(old_cwd)
        for key, value in old_env.items():
            if value is None:
                del os.environ[key]
            else:
                os.environ[key] = value


def run_case(case: Case, workdir: Path) -> tuple:
    """Exit code and {output name: bytes} of one case run inside ``workdir``."""
    for name, text in case.inputs.items():
        data = text if isinstance(text, bytes) else text.encode("utf-8")
        (workdir / name).write_bytes(data)
    out, err = io.StringIO(), io.StringIO()
    with _inside(workdir, case.workers), contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(err):
        try:
            code = main(list(case.argv))
        except SystemExit as exc:
            code = exc.code
    outputs = {"stdout": out.getvalue().encode("utf-8"),
               "stderr": err.getvalue().encode("utf-8")}
    for name in case.writes:
        outputs[name] = (workdir / name).read_bytes()
    return code, outputs


def _serialised(codes: dict) -> str:
    """The text of ``exit_codes.json``: sorted by case name, so a recapture
    rewrites only the codes that change."""
    return json.dumps(codes, indent=2, sort_keys=True) + "\n"


def _expected_codes() -> dict:
    return json.loads(EXIT_CODES.read_text(encoding="utf-8"))


@pytest.mark.parametrize("case", CASES, ids=lambda c: c.name)
def test_golden(case, tmp_path):
    code, outputs = run_case(case, tmp_path)
    assert code == _expected_codes()[case.name]
    for name, data in outputs.items():
        assert data == (GOLDEN / f"{case.name}.{name}").read_bytes(), name


# .get: a case added since the last capture has no exit code yet.
REPORTS = [c for c in CASES if c.name.startswith("exp_") and _expected_codes().get(c.name) == 0]


@pytest.mark.parametrize("case", REPORTS, ids=lambda c: c.name)
def test_report_reruns_from_its_config_echo(case, tmp_path):
    report = (GOLDEN / f"{case.name}.stdout").read_bytes()
    echo = json.dumps(json.loads(report)["config"])
    rerun = Case(case.name, ("experiment", "--config", "echo.json"), {"echo.json": echo},
                 case.workers)
    assert run_case(rerun, tmp_path) == (0, {"stdout": report, "stderr": b""})


def test_corpus_files_match_cases():
    expected = {f"{c.name}.{name}" for c in CASES
                for name in ("stdout", "stderr", *c.writes)}
    present = {p.name for p in GOLDEN.iterdir() if p != EXIT_CODES}
    assert present == expected
    assert set(_expected_codes()) == {c.name for c in CASES}
    assert EXIT_CODES.read_text(encoding="utf-8") == _serialised(_expected_codes())


class _IntText(str):
    """A JSON integer as its text, so that ``-0`` keeps its sign."""


def _json_values(data: bytes):
    """The document in ``data`` with integers as ``_IntText``, or None if it
    is not JSON."""
    try:
        return json.loads(data, parse_int=_IntText)
    except ValueError:
        return None


def _value_change(old, new, path="$") -> tuple:
    """(the first path whose value differs from ``old`` to ``new`` or None,
    the integers of ``old`` that ``new`` holds as floats of the same bits)."""
    if isinstance(old, dict) and isinstance(new, dict):
        if list(old) != list(new):
            changed = [key for key in (*new, *old) if key not in old or key not in new]
            return f"{path}.{changed[0]} (keys)" if changed else f"{path} (keys)", 0
        pairs = [(f"{path}.{key}", old[key], new[key]) for key in old]
    elif isinstance(old, list) and isinstance(new, list):
        if len(old) != len(new):
            return f"{path} (length)", 0
        pairs = [(f"{path}[{i}]", a, b) for i, (a, b) in enumerate(zip(old, new))]
    elif type(old) is _IntText and type(new) is float:
        return (None, 1) if float(old).hex() == new.hex() else (path, 0)
    elif type(old) is float and type(new) is float:
        return (None, 0) if old.hex() == new.hex() else (path, 0)
    else:
        return (None, 0) if type(old) is type(new) and old == new else (path, 0)
    ints = 0
    for where, a, b in pairs:
        differs, count = _value_change(a, b, where)
        if differs:
            return differs, 0
        ints += count
    return None, ints


def change_report(old, new: bytes) -> str:
    """How the bytes ``new`` differ from the bytes ``old`` (None: no file)."""
    if old is None:
        return "new file"
    before, after = _json_values(old), _json_values(new)
    if before is None or after is None:
        return "bytes differ"
    differs, ints = _value_change(before, after)
    if differs:
        return f"values differ at {differs}"
    return f"same values; {ints} ints now floats" if ints else "same values, bit for bit"


def _rewrite(path: Path, data: bytes) -> None:
    """Write ``data`` to ``path`` if its bytes change, and print how."""
    old = path.read_bytes() if path.exists() else None
    if old != data:
        print(f"{path.name}: {change_report(old, data)}")
        path.write_bytes(data)


@pytest.mark.parametrize("old, new, report", [
    (b'{"a": [2, 0.94999999999999996]}', b'{"a": [2.0, 0.95]}', "same values; 1 ints now floats"),
    (b"-0\n", b"-0.0\n", "same values; 1 ints now floats"),
    (b"0\n", b"-0.0\n", "values differ at $"),
    (b'{"a": 0.1}', b'{"a": 0.10000000000000001}', "same values, bit for bit"),
    (b'{"a": {"b": 1.0}}', b'{"a": {"b": 1.5}}', "values differ at $.a.b"),
    (b'{"a": 1, "b": 2}', b'{"b": 2, "a": 1}', "values differ at $ (keys)"),
    (b'{"a": 1}', b'{"a": 1, "b": 2}', "values differ at $.b (keys)"),
    (b"[0]", b"[0.0, 1]", "values differ at $ (length)"),
    (b'"5"', b"5", "values differ at $"),
    (b"eivreg: x\n", b"eivreg: y\n", "bytes differ"),
    (None, b"", "new file"),
])
def test_change_report_names_what_a_recapture_changes(old, new, report):
    assert change_report(old, new) == report


def capture() -> None:
    import tempfile

    GOLDEN.mkdir(exist_ok=True)
    codes = {}
    for case in CASES:
        with tempfile.TemporaryDirectory() as tmp:
            code, outputs = run_case(case, Path(tmp))
        codes[case.name] = code
        for name, data in outputs.items():
            _rewrite(GOLDEN / f"{case.name}.{name}", data)
    _rewrite(EXIT_CODES, _serialised(codes).encode("utf-8"))


if __name__ == "__main__":
    if sys.argv[1:] != ["--capture"]:
        raise SystemExit(__doc__)
    capture()
