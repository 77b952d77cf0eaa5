"""Shared constants and helpers for the test suite."""

import os
import tempfile

import numpy as np
import pytest

from eivreg import Dataset, ErrorSpec, ModelSpec, SideInfo, XiDistribution, simulate_dataset

# Randomized property suites draw at least this many cases each.
PROP_CASES = 200

# Benchmark model: slope 2, intercept 1, standard normal latent variable,
# correlated Gaussian errors with Var(delta) = Var(epsilon) = 0.25 and
# covariance 0.05.
M0_SPEC = ModelSpec(
    beta=2.0, alpha=1.0, c=1,
    xi=XiDistribution.normal(0.0, 1.0),
    err=ErrorSpec(lambda_theta=0.25, theta=0.25, mu=0.05, base="gaussian"),
)

# Same error structure with an infinite-variance latent variable.
T2_SPEC = ModelSpec(
    beta=2.0, alpha=1.0, c=1,
    xi=XiDistribution.student_t2(1.0, 0.0),
    err=ErrorSpec(lambda_theta=0.25, theta=0.25, mu=0.05, base="gaussian"),
)

SIDE1_M0 = SideInfo.case1(lambda_theta=0.25, mu=0.05, c=1)
SIDE2_M0 = SideInfo.case2(theta=0.25, mu=0.05, c=1)

# Tiny hand datasets used throughout: an exact line y = 2x + 1, and the
# same with the last response nudged off the line.
LINE_Y = np.array([1.0, 3.0, 5.0])
OFFLINE_Y = np.array([1.0, 3.0, 6.0])
X3 = np.array([0.0, 1.0, 2.0])


@pytest.fixture(scope="session", autouse=True)
def session_temp_dir(tmp_path_factory):
    """A temp dir of the session's own, in this process and in every child
    it starts, so the CSV cache of a fit run in a test stays out of the
    machine's temp dir."""
    path = str(tmp_path_factory.mktemp("tmp"))
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("TMPDIR", path)
        mp.setattr(tempfile, "tempdir", path)
        yield path


def line_dataset() -> Dataset:
    return Dataset(y=LINE_Y.copy(), x=X3.copy())


def offline_dataset() -> Dataset:
    return Dataset(y=OFFLINE_Y.copy(), x=X3.copy())


def random_dataset(rng: np.random.Generator, n: int = None) -> Dataset:
    """Unstructured random data for algebraic invariants."""
    if n is None:
        n = int(rng.integers(3, 40))
    x = rng.normal(rng.uniform(-3, 3), rng.uniform(0.5, 3), n)
    y = rng.normal(rng.uniform(-3, 3), rng.uniform(0.5, 3), n)
    return Dataset(y=y, x=x)


def m0_dataset(n: int, seed) -> Dataset:
    return simulate_dataset(M0_SPEC, n, seed)


def assert_no_child_left() -> None:
    """This process has no child left, running or unreaped."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def usable_cpus(monkeypatch, count: int) -> None:
    """Let this process run on ``count`` CPUs, as the worker count reads them."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)), raising=False)
