"""Start-up: each CLI command imports only the layers it uses, starts no
BLAS threads, the process runs with the garbage collector off, and the
package exports its public names lazily (PEP 562).

The import sets are pinned exactly, each in a fresh interpreter, since a
module that one command starts to import at top level shows up in the
others.  Times are not gated on: they are too noisy on a shared host.
"""

import gc
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import eivreg
from eivreg.cli import main
from test_cli import M0_CONFIG

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

# Runs eivreg.cli.main on its arguments, then prints, as the last line of
# stdout, the package modules and the heavy dependencies it has imported.
LOADED = """
import json, sys
from eivreg.cli import main
try:
    code = main(sys.argv[1:])
except SystemExit as exc:
    code = exc.code
heavy = ("numpy", "numpy.random", "concurrent.futures", "multiprocessing", "dataclasses",
         "inspect")
print(json.dumps([code, sorted(m for m in sys.modules if m.startswith("eivreg.") or m in heavy)]))
"""

# So --version and --help load no NumPy, no dataclasses (which imports
# inspect) and no layer; estimate, ci and diagnose no montecarlo, config or
# samplers; simulate no estimators, montecarlo, inference or diagnostics;
# experiment loads the worker module only when it forks, and no
# multiprocessing.  numpy.random loads only where the process draws: in
# simulate and in a one-worker experiment, never in the parent of a forked
# run.
BARE = ["eivreg.cli", "eivreg.errors"]
LAYER = BARE + ["dataclasses", "inspect", "numpy"]
FIT = LAYER + ["eivreg.estimators", "eivreg.jsonout", "eivreg.moments"]
SIDE = ("--case", "1", "--lambda-theta", "0.1", "--mu", "0", "--intercept")
EXPERIMENT = LAYER + ["eivreg.config", "eivreg.diagnostics", "eivreg.estimators",
                      "eivreg.inference", "eivreg.jsonout", "eivreg.moments",
                      "eivreg.montecarlo", "eivreg.normal", "eivreg.samplers"]
DRAWS = ["numpy.random"]

IMPORTS = {
    "version": (["--version"], BARE),
    "help": (["--help"], BARE),
    "estimate": (["estimate", "data.csv", *SIDE], FIT),
    "ci": (["ci", "data.csv", *SIDE, "--family", "quadratic"],
           FIT + ["eivreg.inference", "eivreg.normal"]),
    "diagnose": (["diagnose", "data.csv", "--column", "x", "--ks", "--center", "0"],
                 LAYER + ["eivreg.diagnostics", "eivreg.jsonout", "eivreg.moments",
                          "eivreg.normal"]),
    "simulate": (["simulate", "--config", "config.json", "--out", "sim.csv", "--latent"],
                 LAYER + ["eivreg.config", "eivreg.moments", "eivreg.samplers"] + DRAWS),
    "experiment": (["experiment", "--config", "config.json"], EXPERIMENT + DRAWS),
    # One usable core runs every worker count in one process.
    "experiment_2_workers": (["experiment", "--config", "config.json"], EXPERIMENT + (
        ["eivreg.workers"] if len(os.sched_getaffinity(0)) > 1 else DRAWS)),
}
# EIVREG_WORKERS of the commands that do not run on one worker.
WORKERS = {"experiment_2_workers": "2"}


# In-process main calls elsewhere in the suite set this variable in the
# test process, so a child never inherits it unless a test sets it.
BLAS_ENV = "OPENBLAS_NUM_THREADS"


def fresh_python(code: str, *args, cwd=None, workers="1", blas_threads=None) -> str:
    env = {name: value for name, value in os.environ.items() if name != BLAS_ENV}
    env.update(PYTHONPATH=str(SRC), EIVREG_WORKERS=workers)
    if blas_threads is not None:
        env[BLAS_ENV] = blas_threads
    proc = subprocess.run([sys.executable, "-c", code, *args], capture_output=True,
                          text=True, env=env, cwd=cwd)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def write_inputs(tmp_path) -> None:
    (tmp_path / "data.csv").write_text("y,x\n1,0\n3.1,1\n5,2\n6.9,3\n9.2,4\n11,5\n")
    (tmp_path / "config.json").write_text(
        json.dumps({**M0_CONFIG, "n": 40, "n_values": [30], "replications": 4}))


@pytest.mark.parametrize("command", IMPORTS)
def test_command_imports_only_its_layers(tmp_path, command):
    args, expected = IMPORTS[command]
    write_inputs(tmp_path)
    out = fresh_python(LOADED, *args, cwd=tmp_path, workers=WORKERS.get(command, "1"))
    code, loaded = json.loads(out.splitlines()[-1])
    assert code == 0
    assert loaded == sorted(expected)


# Runs eivreg.cli.main on its arguments, then prints, as the last line of
# stdout, its exit code, the BLAS thread setting and the process's threads.
THREADS = """
import os, sys
from eivreg.cli import main
code = main(sys.argv[1:])
print(code, os.environ.get("OPENBLAS_NUM_THREADS"), len(os.listdir("/proc/self/task")))
"""
# The commands that load NumPy.
NUMPY_COMMANDS = ("estimate", "ci", "diagnose", "simulate", "experiment",
                  "experiment_2_workers")
needs_proc_tasks = pytest.mark.skipif(not Path("/proc/self/task").is_dir(),
                                      reason="no /proc/self/task to count threads")


@needs_proc_tasks
@pytest.mark.parametrize("command", NUMPY_COMMANDS)
def test_command_starts_no_blas_threads(tmp_path, command):
    write_inputs(tmp_path)
    out = fresh_python(THREADS, *IMPORTS[command][0], cwd=tmp_path,
                       workers=WORKERS.get(command, "1"))
    assert out.splitlines()[-1] == "0 1 1"


@needs_proc_tasks
def test_user_blas_thread_setting_is_kept(tmp_path):
    write_inputs(tmp_path)
    out = fresh_python(THREADS, *IMPORTS["estimate"][0], cwd=tmp_path, blas_threads="2")
    code, blas_threads, _ = out.splitlines()[-1].split()
    assert (code, blas_threads) == ("0", "2")


# Runs ``python -m eivreg --version``, then prints from an atexit hook
# whether the collector is on and whether it was frozen.
EXIT_STATE = """
import atexit, gc, runpy, sys
atexit.register(lambda: print(gc.isenabled(), gc.get_freeze_count() > 0))
sys.argv = ["eivreg", "--version"]
runpy.run_module("eivreg", run_name="__main__")
"""


def test_process_exits_with_the_collector_off_and_frozen():
    assert fresh_python(EXIT_STATE).splitlines() == ["eivreg 0.1.0", "False True"]


def test_main_leaves_the_collector_alone():
    before = gc.isenabled(), gc.get_freeze_count()
    with pytest.raises(SystemExit):
        main(["--version"])
    assert (gc.isenabled(), gc.get_freeze_count()) == before


def test_installed_script_is_the_process_entry():
    tomllib = pytest.importorskip("tomllib")  # Python 3.11 and later
    with open(ROOT / "pyproject.toml", "rb") as fh:
        scripts = tomllib.load(fh)["project"]["scripts"]
    assert scripts == {"eivreg": "eivreg.cli:run"}


def test_import_and_version_load_no_numpy():
    # A library import also leaves the caller's BLAS setting alone.
    out = fresh_python("import os, sys, eivreg\n"
                       "print(eivreg.__version__, 'numpy' in sys.modules,"
                       " 'OPENBLAS_NUM_THREADS' in os.environ,"
                       " sorted(m for m in sys.modules if m.startswith('eivreg')))")
    assert out == "0.1.0 False False ['eivreg']\n"


def test_public_names_resolve_to_their_defining_module():
    assert len(set(eivreg.__all__)) == len(eivreg.__all__)
    for name in eivreg.__all__:
        if name == "__version__":
            continue
        value = getattr(eivreg, name)
        assert value.__module__.startswith("eivreg."), name
        assert getattr(importlib.import_module(value.__module__), name) is value, name


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from eivreg import *", namespace)
    assert set(eivreg.__all__) <= set(namespace)
    for name in eivreg.__all__:
        assert namespace[name] is getattr(eivreg, name)


def test_dir_lists_every_public_name():
    assert set(eivreg.__all__) <= set(dir(eivreg))


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="module 'eivreg' has no attribute 'no_such_name'"):
        eivreg.no_such_name
    assert not hasattr(eivreg, "fsum")
