"""The benchmark's traced run must reach every module boundary it times.

``bench/tracer.py`` rebinds module-level functions and functions stored
directly as dict values; a boundary reached some other way (for example
through a record field) runs untraced, and its per-layer metric silently
reads 0.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "bench"))
import tracer  # noqa: E402

from test_cli import M0_CONFIG  # noqa: E402

REPS = 5


def test_traced_experiment_reaches_every_boundary(tmp_path):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({**M0_CONFIG, "n_values": [30], "replications": REPS}))
    spans = tmp_path / "spans.bin"
    env = dict(os.environ, EIVREG_WORKERS="1",
               PYTHONPATH=os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, str(ROOT / "bench" / "tracer.py"), str(spans),
                           "experiment", "--config", str(config)],
                          capture_output=True, text=True, env=env, cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    profile = tracer.Profile()
    profile.add_file(spans)
    assert profile.missing == set()
    assert profile.count["montecarlo._replicate"] == REPS
    assert profile.count["montecarlo._aggregate_coverage"] == 1
