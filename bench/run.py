#!/usr/bin/env python3
"""The eivreg benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source checkout.  It drives the ``eivreg`` CLI
from ``src/`` as a user would: every call is a fresh ``python -m eivreg``
process started from this one, one at a time, with ``EIVREG_WORKERS`` set
to 1 or to the number of usable cores.  Workloads are defined in
``workloads.py``; metric names, units and bounds in ``BENCHMARK.json``.

``--trace 0`` measures the end-to-end metrics: the median over bare
start-ups (``setup_s``), timed before the first round and between rounds;
replications and rows per second of wall time and the CPU time (user +
system of the whole process tree, pool workers included) of the typical
round, which takes each call at its median over rounds repeated for
``--seconds``; and the highest RSS of any process of the run.

``--trace 1`` measures the per-layer metrics.  Each cycle runs the round
untraced at 1 and at N workers, then traced at 1 worker through
``tracer.py``, which records a span around every module-boundary call.
Layer self times come from the spans; scaling and pool overhead from the
untraced rounds; tracing overhead is traced minus untraced wall time.

Outside the timed calls every output is checked: each report against
invariants, each fit against an independent NumPy fit, every round against
the first (the same seed must give the same bytes, at any worker count),
and a small round at the default seed against ``reference.json`` and, at 1
and N workers, against itself.  A call that exits with an unexpected code
or fails a check counts as failed.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A fuller result
file with the per-round samples and the provenance (cores, Python and
NumPy versions, CPU model, commit, seed) goes to ``.bench_out/``; the
comparison tool ``compare.py`` reads those files.  ``--update-reference``
rewrites ``reference.json`` from the current source.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import tracer
from workloads import DEFAULT_SEED, WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = Path.cwd()
SRC = ROOT / "src"
SPEC = ROOT / "BENCHMARK.json"
REFERENCE = BENCH / "reference.json"
WORK_ROOT = ROOT / ".bench_work"
OUT_ROOT = ROOT / ".bench_out"

# Bare start-ups timed before the first round and before every round.
SETUP_FIRST = 5
SETUP_PER_ROUND = 1
MIN_ROUNDS = 3
CALL_TIMEOUT_S = 150
# Exceptions a broken or missing output file raises while it is checked.
OUTPUT_ERRORS = (OSError, ValueError, KeyError, IndexError, TypeError)


@dataclass
class Round:
    """One pass over a workload's calls.  Times, per call, cover the CLI
    processes only; ``fields`` holds the checked fields of calls that passed."""

    walls: list = field(default_factory=list)
    cpus: list = field(default_factory=list)
    reps: int = 0
    rows: int = 0
    scored: float = 0.0
    fields: dict = field(default_factory=dict)


class Runner:
    """Starts eivreg processes one at a time and keeps the failure tally."""

    def __init__(self, workdir: Path):
        self.workdir = workdir
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def run(self, args, workers: int, spans: Path = None):
        """Wall seconds, CPU seconds of the process tree, exit code and stderr."""
        env = dict(os.environ, PYTHONPATH=str(SRC), EIVREG_WORKERS=str(workers),
                   TMPDIR=str(self.workdir))
        if spans is None:
            cmd = [sys.executable, "-m", "eivreg", *args]
        else:
            cmd = [sys.executable, str(BENCH / "tracer.py"), str(spans), *args]
        before = resource.getrusage(resource.RUSAGE_CHILDREN)
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=self.workdir, env=env, stdout=subprocess.DEVNULL,
                                stderr=subprocess.PIPE, start_new_session=True)
        try:
            _, err = proc.communicate(timeout=CALL_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            _, err = proc.communicate()
        wall = time.perf_counter() - start
        after = resource.getrusage(resource.RUSAGE_CHILDREN)
        cpu = (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime)
        self.attempted += 1
        return wall, cpu, proc.returncode, err.decode(errors="replace").strip()

    def fail(self, label: str, problems) -> None:
        self.failed += 1
        self.problems.extend(f"{label}: {p}" for p in problems)


def digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def run_round(runner: Runner, wl, calls, seed: int, workers: int, spans_dir: Path = None,
              expect: dict = None) -> Round:
    """Run ``calls`` once and check each output.  ``expect`` maps call names
    to output digests: missing ones are filled in, present ones must match."""
    r = Round()
    for i, call in enumerate(calls):
        spans = None if spans_dir is None else spans_dir / f"{i}.{call.name}.spans"
        wall, cpu, code, err = runner.run(call.args, workers, spans)
        r.walls.append(wall)
        r.cpus.append(cpu)
        r.reps += call.reps
        r.rows += call.rows
        try:
            fields, problems = wl.validate(call, runner.workdir, code, seed)
            if not problems:
                r.scored += call.reps * wl.scored_fraction(call, runner.workdir)
                out = digest(runner.workdir / call.out)
                if expect is not None and expect.setdefault(call.name, out) != out:
                    problems = [f"output differs from the first round at workers={workers}"]
        except OUTPUT_ERRORS as exc:
            problems = [f"unreadable output: {exc!r}"]
        if not problems:
            r.fields[call.name] = fields
        else:
            runner.fail(f"{wl.name}/{call.name}/seed {seed}", problems + ([err] if err else []))
    return r


def typical(per_round) -> float:
    """Sum over a round's calls of each call's median across rounds."""
    return sum(statistics.median(column) for column in zip(*per_round))


def measure(seconds: float, cycle) -> list:
    """Repeat ``cycle`` while another one still fits in ``seconds``; stop
    short of ``MIN_ROUNDS`` repetitions only once ``seconds`` have passed."""
    results = []
    start = time.perf_counter()
    while True:
        t = time.perf_counter()
        results.append(cycle())
        took = time.perf_counter() - t
        elapsed = time.perf_counter() - start
        if elapsed + took > seconds and (len(results) >= MIN_ROUNDS or elapsed >= seconds):
            return results


def end_to_end(runner: Runner, wl, seed: int, seconds: float, nproc: int):
    workers = nproc if wl.pool else 1
    calls, expect, setup = wl.calls(seed), {}, []

    def start_up(count: int) -> None:
        for _ in range(count):
            wall, _, code, err = runner.run(["--version"], workers)
            if code != 0:
                runner.fail("setup", [f"exit code {code}", err])
            setup.append(wall)

    def cycle() -> Round:
        start_up(SETUP_PER_ROUND)
        return run_round(runner, wl, calls, seed, workers, expect=expect)

    start_up(1 + SETUP_FIRST)
    del setup[0]  # a fresh checkout compiles its bytecode in the first start-up
    rounds = measure(seconds, cycle)
    # The typical round: each call at its median over the rounds.
    wall = typical(r.walls for r in rounds)
    reps, rows = rounds[0].reps, rounds[0].rows
    metrics = {
        "setup_s": statistics.median(setup),
        "reps_per_s": reps / wall,
        "rows_per_s": rows / wall,
        "cpu_s": typical(r.cpus for r in rounds),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0,
    }
    samples = {
        "setup_s": setup,
        "reps_per_s": [reps / sum(r.walls) for r in rounds],
        "rows_per_s": [rows / sum(r.walls) for r in rounds],
        "cpu_s": [sum(r.cpus) for r in rounds],
        "call_wall_s": [r.walls for r in rounds],
    }
    return metrics, samples, {}


def per_layer(runner: Runner, wl, seed: int, seconds: float, nproc: int, spans_root: Path):
    calls, expect, numbers = wl.calls(seed), {}, itertools.count()

    def cycle():
        spans_dir = spans_root / f"cycle{next(numbers)}"
        spans_dir.mkdir(parents=True)
        return (run_round(runner, wl, calls, seed, 1, expect=expect),
                run_round(runner, wl, calls, seed, nproc, expect=expect),
                run_round(runner, wl, calls, seed, 1, spans_dir, expect=expect))

    cycles = measure(seconds, cycle)
    profile = tracer.Profile()
    for path in sorted(spans_root.glob("cycle*/*.spans")):
        profile.add_file(path)
    wall_1 = typical(c[0].walls for c in cycles)
    wall_n = typical(c[1].walls for c in cycles)
    traced_wall = sum(sum(c[2].walls) for c in cycles)
    reps = max(profile.count["montecarlo._replicate"] or profile.count["cli.main"], 1)

    def per_rep_us(seconds_total: float) -> float:
        return 1e6 * seconds_total / reps

    def per_call(match, scale: float, inclusive: bool = True) -> float:
        count = profile.sum_count(match)
        total = profile.sum_inclusive(match) if inclusive else profile.sum_self(match)
        return scale * total / count if count else 0.0

    def named(name: str):
        return lambda n: n == name

    self_time = profile.self_time
    config_calls = profile.count["config.load_document"]
    metrics = {
        "samplers.substream_us": per_rep_us(self_time["samplers.substream"]),
        "samplers.sample_xi_us": per_rep_us(self_time["samplers.sample_xi"]),
        "samplers.sample_errors_us": per_rep_us(self_time["samplers.sample_errors"]),
        "samplers.simulate_us": per_rep_us(self_time["samplers.simulate_dataset"]),
        "moments.moment_set_us": per_rep_us(self_time["moments.moment_set"]),
        "moments.fsum_us": per_rep_us(self_time["moments.fsum"]),
        "moments.fsum_calls_per_rep": profile.count["moments.fsum"] / reps,
        "estimators.estimate_us": per_rep_us(
            profile.sum_self(lambda n: n.startswith("estimators."))),
        "inference.interval_us": per_rep_us(
            profile.sum_self(lambda n: n.startswith("inference.ci_"))),
        "inference.statistic_us": per_rep_us(
            profile.sum_self(lambda n: n.startswith("inference.") and n.endswith("_statistic"))),
        "inference.ok_frac": (sum(c[2].scored for c in cycles)
                              / sum(c[2].reps for c in cycles)),
        "diagnostics.ks_ms": per_call(named("diagnostics.ks_distance_to_normal"), 1e3),
        "diagnostics.empirical_bn_us": per_rep_us(self_time["diagnostics.empirical_bn"]),
        "montecarlo.replicate_us": per_call(named("montecarlo._replicate"), 1e6),
        "montecarlo.dispatch_us": per_rep_us(self_time["montecarlo.run_experiment"]),
        "montecarlo.aggregate_ms": per_call(
            lambda n: n.startswith("montecarlo._aggregate_"), 1e3),
        "montecarlo.scaling_eff": wall_1 / (nproc * wall_n),
        "montecarlo.pool_overhead_s": nproc * wall_n - wall_1,
        "cli.read_csv_s": per_call(named("cli._read_xy"), 1.0),
        "cli.write_csv_s": per_call(named("cli._cmd_simulate"), 1.0, inclusive=False),
        "config.parse_ms": (1e3 * profile.sum_self(lambda n: n.startswith("config."))
                            / config_calls if config_calls else 0.0),
        "jsonout.dumps_ms": per_call(named("jsonout.dumps"), 1e3),
        "trace.overhead_s": typical(c[2].walls for c in cycles) - wall_1,
        "trace.accounted_frac": profile.total_self / traced_wall,
    }
    by_layer = {}
    for name, t in profile.self_time.items():
        layer = name.split(".")[0]
        by_layer[layer] = by_layer.get(layer, 0.0) + t
    detail = {
        "traced_wall_s": traced_wall,
        "self_s_by_layer": dict(sorted(by_layer.items(), key=lambda kv: -kv[1])),
        "unaccounted_s": traced_wall - profile.total_self,
        "replications_traced": reps,
        "missing_boundaries": sorted(profile.missing),
        "not_exercised": sorted(k for k, v in metrics.items() if v == 0.0),
    }
    samples = {
        "call_wall_1_s": [c[0].walls for c in cycles],
        "call_wall_n_s": [c[1].walls for c in cycles],
        "call_wall_traced_s": [c[2].walls for c in cycles],
    }
    return metrics, samples, detail


def check_reference(runner: Runner, wl, nproc: int, reference: dict) -> None:
    """Compare the default-seed round with the stored reference values, and
    its output at 1 and at N workers byte for byte."""
    calls, expect = wl.calls(DEFAULT_SEED, check=True), {}
    one = run_round(runner, wl, calls, DEFAULT_SEED, 1, expect=expect)
    for name, fields in one.fields.items():
        want = reference.get(wl.name, {}).get(name)
        if fields != want:
            runner.fail(f"{wl.name}/{name}/reference", [f"fields {fields} != reference {want}"])
    if wl.uses_workers:
        run_round(runner, wl, calls, DEFAULT_SEED, nproc, expect=expect)


def provenance(seed: int, nproc: int) -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", "r", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)),
            timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    source = hashlib.sha256()
    for path in sorted((SRC / "eivreg").glob("*.py")):
        source.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"nproc": nproc, "python": platform.python_version(), "numpy": np.__version__,
            "cpu_model": cpu, "git_commit": commit, "source_sha256": source.hexdigest(),
            "workload_seed": seed}


def write_inputs(wl, workdir: Path) -> None:
    for name, doc in wl.inputs().items():
        (workdir / name).write_text(json.dumps(doc, indent=1), encoding="utf-8")


def update_reference() -> int:
    reference = {}
    for wl in WORKLOADS.values():
        workdir = WORK_ROOT / f"reference-{wl.name}-{os.getpid()}"
        workdir.mkdir(parents=True)
        try:
            write_inputs(wl, workdir)
            runner = Runner(workdir)
            r = run_round(runner, wl, wl.calls(DEFAULT_SEED, check=True), DEFAULT_SEED, 1)
        finally:
            shutil.rmtree(workdir)
        if runner.failed:
            print("\n".join(runner.problems), file=sys.stderr)
            return 1
        reference[wl.name] = r.fields
    REFERENCE.write_text(json.dumps(reference, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {REFERENCE}")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--update-reference", action="store_true",
                        help="rewrite reference.json from the current source and exit")
    args = parser.parse_args()
    if not (SRC / "eivreg" / "__init__.py").is_file() or not SPEC.is_file():
        print(f"eivreg benchmark: run from a source checkout; no {SRC / 'eivreg'} "
              f"or no {SPEC.name} here", file=sys.stderr)
        return 2
    nproc = len(os.sched_getaffinity(0))
    if args.update_reference:
        return update_reference()
    if args.workload is None:
        parser.error("--workload is required")
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    spec = json.loads(SPEC.read_text(encoding="utf-8"))
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    reference = json.loads(REFERENCE.read_text(encoding="utf-8"))
    wl = WORKLOADS[args.workload]

    label = f"{wl.name}.seed{args.seed}.trace{args.trace}"
    workdir = WORK_ROOT / f"{label}.{os.getpid()}"
    spans_root = OUT_ROOT / f"{wl.name}.seed{args.seed}.spans"
    workdir.mkdir(parents=True)
    if args.trace:
        shutil.rmtree(spans_root, ignore_errors=True)
    runner = Runner(workdir)
    started = time.perf_counter()
    try:
        write_inputs(wl, workdir)
        if args.trace:
            metrics, samples, detail = per_layer(runner, wl, args.seed, args.seconds, nproc,
                                                 spans_root)
        else:
            metrics, samples, detail = end_to_end(runner, wl, args.seed, args.seconds, nproc)
        check_reference(runner, wl, nproc, reference)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        print(f"eivreg benchmark: no value for {missing}", file=sys.stderr)
        return 1
    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }
    record = dict(result, workload=wl.name, trace=args.trace,
                  provenance=provenance(args.seed, nproc), samples=samples, detail=detail,
                  problems=runner.problems, run_s=time.perf_counter() - started)
    OUT_ROOT.mkdir(exist_ok=True)
    (OUT_ROOT / f"{label}.json").write_text(json.dumps(record, indent=1) + "\n",
                                           encoding="utf-8")

    for problem in runner.problems:
        print(f"FAILED {problem}")
    print(f"{wl.name} seed {args.seed} trace {args.trace}: {runner.attempted} calls, "
          f"{runner.failed} failed ({runner.failed / runner.attempted:.4f}), "
          f"{time.perf_counter() - started:.1f} s")
    for name, m in result["metrics"].items():
        print(f"  {name:30s} {m['value']:14.6g} {m['unit']}")
    print("provenance: " + json.dumps(record["provenance"]))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
