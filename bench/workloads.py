"""Workloads of the eivreg benchmark.

A workload is a round of ``eivreg`` CLI calls, the input files they need
and the checks their outputs must pass.  ``calls(seed, check=False)`` is
the timed round at the workload seed; ``calls(DEFAULT_SEED, check=True)``
is a smaller round whose deterministic fields are compared with the
stored reference values.

Every model shares slope 2, intercept 1 and correlated Gaussian errors with
Var(delta) = Var(epsilon) = 0.25 and cov(delta, epsilon) = 0.05, the same
errors the acceptance suite uses.
"""

from __future__ import annotations

import hashlib
import json
import math
import statistics
from dataclasses import dataclass
from pathlib import Path

import numpy as np

DEFAULT_SEED = 1
GAMMA = 0.05
Z = statistics.NormalDist().inv_cdf(1.0 - GAMMA / 2.0)
LAMBDA_THETA, THETA, MU = 0.25, 0.25, 0.05

MODEL = {
    "beta": 2.0, "alpha": 1.0, "intercept_unknown": True,
    "errors": {"lambda_theta": LAMBDA_THETA, "theta": THETA, "mu": MU, "base": "gaussian"},
}
XI = {
    "normal": {"family": "normal", "params": {"mean": 0.0, "sd": 1.0}},
    "student_t2": {"family": "student_t2", "params": {"scale": 1.0, "shift": 0.0}},
    "symmetric_pareto2": {"family": "symmetric_pareto2",
                          "params": {"scale": 1.0, "shift": 0.0}},
}
SIDE = {
    1: {"case": 1, "lambda_theta": LAMBDA_THETA, "mu": MU, "theta": None},
    2: {"case": 2, "lambda_theta": None, "mu": MU, "theta": THETA},
}
SIDE_FLAGS = {
    1: ("--case", "1", "--lambda-theta", str(LAMBDA_THETA), "--mu", str(MU), "--intercept"),
    2: ("--case", "2", "--theta", str(THETA), "--mu", str(MU), "--intercept"),
}

# Loose plausibility bands; at the sizes used here they sit more than six
# Monte Carlo standard errors away from the measured values.
COVERAGE_BAND = (0.85, 0.99)
KS_MAX = 0.06


@dataclass(frozen=True)
class Call:
    """One CLI call: its arguments, the files it reads and writes, the work it does."""

    name: str
    args: tuple
    out: str
    reps: int
    rows: int
    data: str = ""


def model_doc(xi: str) -> dict:
    return {"model": dict(MODEL, xi=XI[xi])}


def _close(a: float, b: float, rel: float) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b))


@dataclass(frozen=True)
class Experiment:
    """One ``eivreg experiment`` config of a Monte Carlo workload."""

    name: str
    experiment: str
    xi: str
    case: int
    n: int
    reps: int
    check_reps: int
    extra: tuple = ()

    def doc(self, reps: int) -> dict:
        return dict(model_doc(self.xi), side=SIDE[self.case], experiment=self.experiment,
                    n_values=[self.n], replications=reps, gamma=GAMMA,
                    seed=DEFAULT_SEED, **dict(self.extra))


class MonteCarlo:
    """``eivreg experiment`` runs; ``pool`` says whether they use every core."""

    uses_workers = True

    def __init__(self, name: str, why: str, pool: bool, experiments: tuple):
        self.name, self.why, self.pool, self.experiments = name, why, pool, experiments

    def inputs(self) -> dict:
        files = {}
        for e in self.experiments:
            files[f"{e.name}.json"] = e.doc(e.reps)
            files[f"{e.name}.check.json"] = e.doc(e.check_reps)
        return files

    def calls(self, seed: int, check: bool = False) -> list:
        tag = ".check" if check else ""
        return [Call(name=e.name,
                     args=("experiment", "--config", f"{e.name}{tag}.json",
                           "--seed", str(seed), "--out", f"{e.name}{tag}.report.json"),
                     out=f"{e.name}{tag}.report.json",
                     reps=e.check_reps if check else e.reps,
                     rows=(e.check_reps if check else e.reps) * e.n)
                for e in self.experiments]

    def validate(self, call: Call, workdir: Path, code: int, seed: int):
        """Deterministic report fields and the problems found in the report."""
        if code != 0:
            return {}, [f"exit code {code}"]
        doc = json.loads((workdir / call.out).read_text(encoding="utf-8"))
        e = next(e for e in self.experiments if e.name == call.name)
        rec = doc["per_n"][0]
        problems = []
        if doc["seed"] != seed or len(doc["per_n"]) != 1 or rec["n"] != e.n:
            problems.append("report echoes the wrong seed or sample size")
        if rec["replications"] != call.reps:
            problems.append(f"replications {rec['replications']} != {call.reps}")
        fields = {k: rec[k] for k in ("replications", "failure_count", "degenerate_count",
                                      "covered_count", "coverage", "ks") if k in rec}
        if e.experiment.startswith("coverage"):
            scored = rec["covered_count"] + rec["miss_count"]
            if scored + rec["failure_count"] != call.reps:
                problems.append("covered + missed + failed != replications")
            if rec["failure_count"] < rec["degenerate_count"]:
                problems.append("fewer failures than degenerate inversions")
            if rec["coverage"] != rec["covered_count"] / scored:
                problems.append("coverage is not covered / scored")
            if not COVERAGE_BAND[0] <= rec["coverage"] <= COVERAGE_BAND[1]:
                problems.append(f"coverage {rec['coverage']} outside {COVERAGE_BAND}")
        else:
            if rec["pivot_count"] + rec["failure_count"] != call.reps:
                problems.append("pivots + failures != replications")
            if not 0.0 <= rec["ks"] <= KS_MAX:
                problems.append(f"KS distance {rec['ks']} above {KS_MAX}")
        return fields, problems

    def scored_fraction(self, call: Call, workdir: Path) -> float:
        rec = json.loads((workdir / call.out).read_text(encoding="utf-8"))["per_n"][0]
        return 1.0 - rec["failure_count"] / rec["replications"]


class CsvFit:
    """``eivreg simulate`` writes a dataset; four fits read it, one process each."""

    name = "csv_fit"
    why = ("One large Student-t2 dataset through simulate, estimate and three ci "
           "families: CSV I/O and one huge reduction per fit, and setup paid five times.")
    pool = False
    uses_workers = False
    rows = 200_000
    check_rows = 20_000
    fits = (
        ("estimate", ("estimate",), 2),
        ("plugin", ("ci", "--family", "plugin-slope"), 2),
        ("intercept", ("ci", "--family", "intercept"), 2),
        ("quadratic", ("ci", "--family", "quadratic", "--k", "1"), 1),
    )

    def __init__(self):
        self._oracles = {}

    def inputs(self) -> dict:
        return {"model.json": model_doc("student_t2")}

    def calls(self, seed: int, check: bool = False) -> list:
        tag = ".check" if check else ""
        rows = self.check_rows if check else self.rows
        data = f"data{tag}.csv"
        calls = [Call(name="simulate",
                      args=("simulate", "--config", "model.json", "--n", str(rows),
                            "--seed", str(seed), "--out", data),
                      out=data, reps=1, rows=rows)]
        for name, head, case in self.fits:
            out = f"{name}{tag}.json"
            calls.append(Call(name=name, args=head + (data,) + SIDE_FLAGS[case] + ("--out", out),
                              out=out, reps=1, rows=rows, data=data))
        return calls

    def validate(self, call: Call, workdir: Path, code: int, seed: int):
        """Fields of one output and the problems an independent NumPy fit finds."""
        if call.name == "simulate":
            if code != 0:
                return {}, [f"exit code {code}"]
            return self._check_dataset(workdir / call.out, call.rows)
        if code not in (0, 4):
            return {}, [f"exit code {code}"]
        doc = json.loads((workdir / call.out).read_text(encoding="utf-8"))
        oracle = self._oracle(workdir / call.data)
        problems = []
        if doc["n"] != call.rows:
            problems.append(f"n {doc['n']} != {call.rows}")
        if call.name == "estimate":
            fields = {"beta_hat": doc["beta_hat"], "alpha_hat": doc["alpha_hat"]}
        else:
            fields = {k: doc[k] for k in ("center", "lower", "upper", "degeneracy")}
            if (code == 4) != (doc["degeneracy"] != "none"):
                problems.append(f"exit code {code} with degeneracy {doc['degeneracy']}")
        expected = oracle[call.name]
        if call.name == "quadratic":
            problems += _check_quadratic(fields, expected)
        else:
            if doc.get("degeneracy", "none") != "none":
                problems.append(f"{call.name} interval reports {doc['degeneracy']}")
            elif call.name != "estimate" and not (
                    fields["lower"] < fields["center"] < fields["upper"]):
                problems.append("center outside the interval")
            for key, value in expected.items():
                if not _close(fields[key], value, 1e-9):
                    problems.append(f"{call.name}.{key} {fields[key]!r} != NumPy {value!r}")
        return fields, problems

    def scored_fraction(self, call: Call, workdir: Path) -> float:
        if call.name in ("simulate", "estimate"):
            return 1.0
        doc = json.loads((workdir / call.out).read_text(encoding="utf-8"))
        return 1.0 if doc["degeneracy"] == "none" else 0.0

    def _check_dataset(self, path: Path, rows: int):
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        problems = []
        if lines[0] != "y,x" or len(lines) != rows + 1:
            problems.append("dataset header or row count is wrong")
        first = [float(v) for v in lines[1].split(",")]
        last = [float(v) for v in lines[-1].split(",")]
        beta = self._oracle(path)["estimate"]["beta_hat"]
        if abs(beta - MODEL["beta"]) > 0.1:
            problems.append(f"simulated data give slope {beta}, far from {MODEL['beta']}")
        return {"rows": len(lines) - 1, "first": first, "last": last}, problems

    def _oracle(self, path: Path) -> dict:
        """Estimates and intervals recomputed with NumPy, keyed by file content."""
        key = hashlib.sha256(path.read_bytes()).hexdigest()
        if key not in self._oracles:
            self._oracles[key] = _numpy_fits(np.loadtxt(path, delimiter=",", skiprows=1))
        return self._oracles[key]


def _check_quadratic(fields: dict, expected: dict) -> list:
    """The interval's ends must be where the pivot it inverts equals z; it is
    degenerate exactly when the pivot stays within z as the slope runs off."""
    problems = []
    if not _close(fields["center"], expected["center"], 1e-9):
        problems.append("quadratic center differs from the NumPy fit")
    leading, scale = expected["leading"], expected["scale"]
    if fields["degeneracy"] == "none":
        if leading < -1e-9 * scale:
            problems.append("bounded interval where the NumPy fit finds none")
        elif not fields["lower"] < fields["center"] < fields["upper"]:
            problems.append("center outside the interval")
        else:
            for end in ("lower", "upper"):
                if not _close(expected["pivot"](fields[end]), Z, 1e-6):
                    problems.append(f"pivot at the {end} end is not z")
    elif fields["degeneracy"] == "nonpositive_leading_coeff":
        if leading > 1e-9 * scale:
            problems.append("degenerate interval where the NumPy fit finds a bounded one")
    else:
        problems.append(f"unexpected degeneracy {fields['degeneracy']}")
    return problems


def _numpy_fits(table: np.ndarray) -> dict:
    y, x = table[:, 0], table[:, 1]
    n = y.size
    y_bar, x_bar = y.mean(), x.mean()
    dy, dx = y - y_bar, x - x_bar
    s_yy, s_xy, s_xx = dy * dy, dx * dy, dx * dx
    S_yy, S_xy, S_xx = s_yy.mean(), s_xy.mean(), s_xx.mean()
    # Case 2: Var(epsilon) known.
    u2 = S_xx - THETA
    b2 = (S_xy - MU) / u2
    a2 = y_bar - x_bar * b2
    resid = (s_xy - MU) - b2 * (s_xx - THETA)
    half_slope = Z * math.sqrt(np.sum(resid * resid)) / (n * abs(u2))
    v = y - b2 * x - (x_bar / u2) * resid
    half_icpt = Z * math.sqrt(np.sum((v - v.mean()) ** 2)) / math.sqrt(n * (n - 1))
    # Case 1: Var(delta) known; Studentized known-slope pivot.
    u1 = S_xy - MU
    b1 = (S_yy - LAMBDA_THETA) / u1
    ay, ax = s_yy - S_yy, s_xy - S_xy
    # The pivot tends to sqrt(n(n-1)) |u1| / sqrt(sum ax^2) as the slope runs
    # off; the region it bounds by z is an interval when that limit exceeds z.
    scale = n * (n - 1) * u1 * u1

    def pivot(b: float) -> float:
        t = ay - b * ax
        return math.sqrt(n) * abs(u1) * abs(b1 - b) / math.sqrt(np.sum(t * t) / (n - 1))

    return {
        "estimate": {"beta_hat": b2, "alpha_hat": a2},
        "plugin": {"center": b2, "lower": b2 - half_slope, "upper": b2 + half_slope},
        "intercept": {"center": a2, "lower": a2 - half_icpt, "upper": a2 + half_icpt},
        "quadratic": {"center": b1, "pivot": pivot, "scale": scale,
                      "leading": scale - Z * Z * np.sum(ax * ax)},
    }


WORKLOADS = {
    w.name: w for w in (
        MonteCarlo(
            "mc_t2_n2000",
            "The paper's infinite-variance regime at n=2000 on one worker: exact "
            "summation and the per-replication kernel dominate, the pool is bypassed.",
            pool=False,
            experiments=(
                Experiment("coverage14", "coverage14", "student_t2", 2, 2000, 1000, 200),
                Experiment("coverage16", "coverage16", "student_t2", 1, 2000, 1000, 200,
                           extra=(("k", 1),)),
            )),
        MonteCarlo(
            "mc_small_n_pool",
            "Many small replications on every core: stream set-up, dispatch, pickling "
            "and the pool dominate, and Pareto-2 data exercise degenerate inversions.",
            pool=True,
            experiments=(
                Experiment("normality", "normality", "normal", 2, 100, 10000, 2000,
                           extra=(("pivot", "slope_self_normalized_plugin"),)),
                Experiment("coverage16", "coverage16", "symmetric_pareto2", 1, 50, 10000,
                           2000, extra=(("k", 1),)),
            )),
        CsvFit(),
    )
}
