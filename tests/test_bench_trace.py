"""The benchmark's traced run must reach every module boundary it times.

``bench/tracer.py`` rebinds module-level functions and functions stored
directly as dict values; a boundary reached some other way (for example
through a record field) runs untraced, and its per-layer metric silently
reads 0.  The fsum count per replication is pinned: a change that moves
work into or out of ``moments.fsum`` changes what ``moments.fsum_us``
measures.
"""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "bench"))
import tracer  # noqa: E402

from eivreg.montecarlo import _BLOCK_ELEMENTS  # noqa: E402
from test_cli import M0_CONFIG  # noqa: E402

REPS = 5


def fsum_calls(n: int) -> int:
    """coverage14 in case 2 sums each sub-block of replications as (B, n)
    rows: six fsum calls per sub-block (five in moment_set, one plug-in
    half-width), plus the mean width in the aggregate.  The REPS
    replications fill ceil(REPS / B) sub-blocks of B = _BLOCK_ELEMENTS // n
    rows: one at n = 30, two at n = 2000 (B = 4)."""
    return 6 * math.ceil(REPS / max(1, _BLOCK_ELEMENTS // n)) + 1


def _traced_profile(tmp_path, n):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({**M0_CONFIG, "n_values": [n], "replications": REPS}))
    spans = tmp_path / "spans.bin"
    env = dict(os.environ, EIVREG_WORKERS="1",
               PYTHONPATH=os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, str(ROOT / "bench" / "tracer.py"), str(spans),
                           "experiment", "--config", str(config)],
                          capture_output=True, text=True, env=env, cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    profile = tracer.Profile()
    profile.add_file(spans)
    return profile


def test_traced_experiment_reaches_every_boundary(tmp_path):
    profile = _traced_profile(tmp_path, 30)
    assert profile.missing == set()
    assert profile.count["montecarlo._replicate"] == REPS
    assert profile.count["montecarlo._aggregate_coverage"] == 1
    assert profile.count["moments.fsum"] == fsum_calls(30) == 7


def test_traced_long_arrays_reach_every_boundary(tmp_path):
    # n = 2000 takes fsum's NumPy path, which must stay inside its span.
    profile = _traced_profile(tmp_path, 2000)
    assert profile.missing == set()
    assert profile.count["montecarlo._replicate"] == REPS
    assert profile.count["moments.fsum"] == fsum_calls(2000) == 13


def test_traced_streams_come_from_block_keys(tmp_path):
    # The serial run is one block: its keys come from one philox_keys call
    # for both roles, and no replication builds a substream of its own.
    profile = _traced_profile(tmp_path, 30)
    assert profile.count["samplers.substream"] == 0
    assert profile.count["samplers.philox_keys"] == 1
    assert profile.count["samplers.sample_xi"] == REPS


def _traced_cli(tmp_path, name, *args):
    spans = tmp_path / f"{name}.bin"
    env = dict(os.environ, EIVREG_WORKERS="1",
               PYTHONPATH=os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, str(ROOT / "bench" / "tracer.py"), str(spans),
                           name, *args], capture_output=True, text=True, env=env, cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    profile = tracer.Profile()
    profile.add_file(spans)
    return profile


def test_traced_csv_commands_reach_reader_and_writer(tmp_path):
    # cli.write_csv_s is the self time of _cmd_simulate and cli.read_csv_s
    # the time of _read_xy: the CSV code must run inside those spans.
    (tmp_path / "model.json").write_text(json.dumps(M0_CONFIG))
    simulate = _traced_cli(tmp_path, "simulate", "--config", "model.json", "--n", "50",
                           "--seed", "3", "--out", "data.csv")
    assert simulate.missing == set()
    assert simulate.count["cli._cmd_simulate"] == 1
    # No cli boundary of its own takes the writing out of that self time.
    assert {n for n in simulate.count if n.startswith("cli.")} == {
        "cli.main", "cli.build_parser", "cli._cmd_simulate"}
    estimate = _traced_cli(tmp_path, "estimate", "data.csv", "--case", "2", "--theta",
                           "0.25", "--mu", "0.05", "--intercept")
    assert estimate.missing == set()
    assert estimate.count["cli._read_xy"] == 1
    assert estimate.count["cli._cmd_estimate"] == 1
