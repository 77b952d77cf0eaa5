"""Hostile input at the command line.

Seeded random CSV files, in the spellings that spreadsheets and editors
write, and side-information flags go through
``eivreg.cli.main`` in-process.  Whatever they hold, the command must end
in a documented exit code: 0 or 4 with a JSON document on stdout, or 2 or
3 with exactly one ``eivreg: `` line on stderr.  No traceback and no
warning may escape.  A static check keeps every exception class of the
package in ``errors.py``, so those exit codes stay the whole story.

Tiny seeded datasets of zeros, subnormals, values whose squares overflow
and random scales also go through every public one-sample entry point of
the library, which may only return finite numbers or raise a ValueError
or an ``EivregError``; ``tests/hostile_outcomes.py`` prints each of
those outcomes, so two versions of the package can be compared.
"""

from __future__ import annotations

import ast
import builtins
import contextlib
import io
import json
import math
import re
import warnings
from pathlib import Path

import numpy as np
import pytest

import eivreg
from conftest import PROP_CASES
from eivreg.cli import main
from eivreg.inference import SLOPE_VARIANTS

TINIEST = 5e-324
LARGEST = 1.7976931348623157e308
EDGE_CELLS = (0.0, TINIEST, -TINIEST, 1e-320, 2.2250738585072014e-308, 1e-160,
              1e154, 1e200, LARGEST, -LARGEST)
NON_FINITE = (math.nan, math.inf, -math.inf)
# Side information and gamma: plausible values, and hostile ones.
SIDE_VALUES = ((0.0, 0.05, 0.25, 1.0, 1e-310),
               (-1.0, 1e154, 1e308, -1e308, *NON_FINITE))
GAMMAS = ((0.05, 0.5, 1e-3, 1e-300, 0.999999),
          (0.0, 1.0, 1.5, -0.1, *NON_FINITE))
FIT_FLAGS = (
    ("estimate",),
    ("ci", "--family", "plugin-slope"),
    ("ci", "--family", "intercept"),
    ("ci", "--family", "quadratic", "--k", "1"),
    ("ci", "--family", "quadratic", "--k", "2"),
)


def _pick(rng: np.random.Generator, values: tuple, hostile: float) -> float:
    """A plausible value, or a hostile one with probability ``hostile``."""
    return float(rng.choice(values[rng.random() < hostile]))


def _column(rng: np.random.Generator, n: int) -> list:
    """``n`` cells of one kind: of order one, spread over a few decades
    around a random magnitude, constant, or edge values of the float range."""
    kind = rng.choice(4, p=(0.5, 0.2, 0.15, 0.15))
    if kind == 0:
        return [float(v) for v in rng.normal(size=n)]
    if kind == 1:
        exponent = rng.uniform(-320.0, 308.0)
        spread = rng.uniform(-3.0, 3.0, n)
        return [float(s * 10.0 ** min(exponent + d, 308.0) * rng.uniform(0.5, 1.0))
                for s, d in zip(rng.choice((-1.0, 1.0), n), spread)]
    if kind == 2:
        return [float(rng.choice(EDGE_CELLS))] * n
    return [float(v) for v in rng.choice(EDGE_CELLS, n)]


def _table(rng: np.random.Generator) -> tuple:
    """Columns y and x of 2 to 7 rows, some lying exactly on a line, some
    holding NaN or an infinity."""
    n = int(rng.integers(2, 8))
    x = _column(rng, n)
    if rng.random() < 0.25:
        scale = 2.0 ** int(rng.integers(-1070, 1018))
        x = [float(i) * scale for i in rng.integers(-4, 5, n)]
        y = [2.0 * v + scale for v in x]
    else:
        y = _column(rng, n)
    for _ in range(int(rng.integers(1, 3)) if rng.random() < 0.15 else 0):
        column = y if rng.random() < 0.5 else x
        column[rng.integers(n)] = float(rng.choice(NON_FINITE))
    return y, x


def _csv_bytes(rng: np.random.Generator, y: list, x: list) -> bytes:
    """The CSV file of columns y and x, sometimes with a byte-order mark,
    CRLF line ends, quoted cells, empty lines or a byte that is not UTF-8."""
    lines = ["y,x"]
    for row in zip(y, x):
        lines.append(",".join(f'"{v!r}"' if rng.random() < 0.1 else repr(v) for v in row))
        if rng.random() < 0.05:
            lines.append("")
    end = "\r\n" if rng.random() < 0.2 else "\n"
    data = (("\ufeff" if rng.random() < 0.1 else "") + end.join(lines) + end).encode("utf-8")
    if rng.random() < 0.05:
        at = int(rng.integers(len(data)))
        data = data[:at] + bytes([int(rng.choice((0x80, 0xe9, 0xff)))]) + data[at:]
    return data


def _side_flags(rng: np.random.Generator) -> list:
    """Side-information flags, each value bound with ``=`` so that a
    negative number is not read as a flag; a moment is sometimes left out."""
    case = int(rng.integers(1, 3))
    flags = [f"--case={case}"]
    for name in ("--mu", "--lambda-theta" if case == 1 else "--theta"):
        if rng.random() < 0.95:
            flags.append(f"{name}={_pick(rng, SIDE_VALUES, 0.2)!r}")
    if rng.random() < 0.5:
        flags.append("--intercept")
    return flags


def _run(argv: list) -> tuple:
    """Exit code, stdout, stderr and whether argparse ended the run."""
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(err):
        warnings.simplefilter("error")
        try:
            code, by_argparse = main(argv), False
        except SystemExit as exc:
            code, by_argparse = exc.code, True
    return code, out.getvalue(), err.getvalue(), by_argparse


def _check(argv: list) -> int:
    code, out, err, by_argparse = _run(argv)
    assert code in (0, 2, 3, 4), (argv, code, err)
    if code in (0, 4):
        assert not by_argparse and err == "", (argv, err)
        json.loads(out)
    else:
        assert out == "", (argv, out)
        if not by_argparse:
            assert err.startswith("eivreg: ") and err.count("\n") == 1 \
                and err.endswith("\n"), (argv, err)
    return code


def test_prop_hostile_csv_and_flags_end_in_exit_codes(tmp_path):
    csv = tmp_path / "data.csv"
    seen = set()
    for seed in range(PROP_CASES):
        rng = np.random.default_rng([2024, seed])
        y, x = _table(rng)
        # A stream of its own spells the file, so the other draws stay as they were.
        csv.write_bytes(_csv_bytes(np.random.default_rng([2024, seed, 1]), y, x))
        side = _side_flags(rng)
        for head in FIT_FLAGS:
            argv = [head[0], str(csv), *head[1:], *side]
            if head[0] == "ci":
                argv.append(f"--gamma={_pick(rng, GAMMAS, 0.2)!r}")
            seen.add(_check(argv))
        diagnose = ["diagnose", str(csv), f"--column={rng.choice(('y', 'x'))}"]
        if rng.random() < 0.5:
            diagnose.append(f"--center={_pick(rng, SIDE_VALUES, 0.3)!r}")
        if rng.random() < 0.5:
            diagnose.append("--ks")
        seen.add(_check(diagnose))
    # The cases reach every exit code.
    assert seen == {0, 2, 3, 4}


def _builtin_exceptions() -> set:
    return {name for name, value in vars(builtins).items()
            if isinstance(value, type) and issubclass(value, BaseException)}


def test_every_exception_class_lives_in_errors():
    package = Path(eivreg.__file__).parent
    errors = ast.parse((package / "errors.py").read_text(encoding="utf-8"))
    exception_names = _builtin_exceptions() | {
        node.name for node in ast.walk(errors) if isinstance(node, ast.ClassDef)}
    stray = []
    for path in sorted(package.glob("*.py")):
        if path.name == "errors.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.ClassDef):
                continue
            bases = {b.attr if isinstance(b, ast.Attribute) else getattr(b, "id", None)
                     for b in node.bases}
            if bases & exception_names:
                stray.append(f"{path.name}:{node.lineno} {node.name}")
    assert stray == []



# Cells of the library sweep: zeros of both signs, subnormals and values
# whose squares or sums overflow.
LIBRARY_CELLS = (0.0, -0.0, 1e-310, 5e-324, 1e154, 1e200, 1e308, -1e308)


def _library_column(rng: np.random.Generator, n: int) -> np.ndarray:
    """``n`` finite cells: edge cells, one random scale in 1e+-200, or a
    mixture of edge cells and random scales."""
    kind = rng.integers(3)
    if kind == 0:
        return rng.choice(LIBRARY_CELLS, n) * rng.choice((-1.0, 1.0), n)
    if kind == 1:
        return rng.normal(size=n) * 10.0 ** rng.uniform(-200.0, 200.0)
    column = rng.normal(size=n) * 10.0 ** rng.uniform(-200.0, 200.0, n)
    edge = rng.random(n) < 0.5
    column[edge] = rng.choice(LIBRARY_CELLS, int(edge.sum()))
    return column


def _library_calls(data, side, rng: np.random.Generator):
    """(name, call) of every public one-sample entry point on ``data``."""
    beta = float(rng.choice((0.0, 2.0, -1e154, 1e-300, 1e200)))
    alpha = float(rng.choice((0.0, 1.0, 1e300)))
    yield "moment_set", lambda: eivreg.moment_set(data.y, data.x, side.c)
    yield "estimate", lambda: eivreg.estimate(data, side)
    yield "naive_ratio_estimates", lambda: eivreg.naive_ratio_estimates(data, side.c)
    for variant in SLOPE_VARIANTS:
        yield variant, lambda variant=variant: eivreg.slope_statistic(data, side, beta, variant)
    yield "intercept plugin", lambda: eivreg.intercept_statistic(data, side, alpha)
    yield "intercept known_slope", lambda: eivreg.intercept_statistic(
        data, side, alpha, beta=beta, variant="known_slope")
    yield "ci_slope_plugin", lambda: eivreg.ci_slope_plugin(data, side, 0.05)
    yield "ci_intercept", lambda: eivreg.ci_intercept(data, side, 0.05)
    for k in (1, 2):
        yield f"ci_slope_quadratic k={k}", lambda k=k: eivreg.ci_slope_quadratic(data, side, k, 0.05)
    yield "obrien_ratio", lambda: eivreg.obrien_ratio(data.x)
    yield "empirical_bn", lambda: eivreg.empirical_bn(data.y)
    yield "selfnorm_sum", lambda: eivreg.selfnorm_sum(data.x, beta)
    yield "ks_distance_to_normal", lambda: eivreg.ks_distance_to_normal(data.y)


def _returned_numbers(value) -> list:
    """The numbers a library call returns that must be finite: a float, the
    float fields and guard values of an estimate or a moment set, and an
    interval's center and, where its degeneracy is ``none``, its ends."""
    if isinstance(value, eivreg.IntervalEstimate):
        ends = (value.lower, value.upper) if value.degeneracy == "none" else ()
        return [value.center, *ends]
    if isinstance(value, float):
        return [value]
    fields = vars(value).values()
    return [v for field in fields
            for v in (field.values() if isinstance(field, dict) else (field,))
            if isinstance(v, float)]


def _library_case(seed: int) -> tuple:
    """The dataset, side information and generator of library case ``seed``;
    the generator goes on to draw the hypothesized slope and intercept."""
    rng = np.random.default_rng([2026, seed])
    n = int(rng.integers(2, 7))
    data = eivreg.Dataset(y=_library_column(rng, n), x=_library_column(rng, n))
    moments = (float(rng.choice((0.0, 0.25, 1.0, 1e-310, 1e154, 1e300))),
               float(rng.choice((0.0, 0.05, -0.3, 1e-310, 1e154, 1e200))))
    c = int(rng.integers(2))
    side = (eivreg.SideInfo.case1(*moments, c=c) if rng.random() < 0.6
            else eivreg.SideInfo.case2(*moments, c=c))
    return data, side, rng


def test_prop_hostile_library_input_ends_in_named_errors():
    # Tiny finite datasets through every public one-sample entry point:
    # each call returns finite numbers, or raises a ValueError or an
    # EivregError.  No other exception and no warning may escape.
    called, returned = set(), set()
    for seed in range(2 * PROP_CASES):
        for name, call in _library_calls(*_library_case(seed)):
            called.add(name)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                try:
                    value = call()
                except (ValueError, eivreg.EivregError):
                    continue
                except Exception as exc:
                    raise AssertionError((seed, name)) from exc
            returned.add(name)
            assert all(map(math.isfinite, _returned_numbers(value))), (seed, name, value)
    # Every entry point returns on some of the cases.
    assert returned == called and len(called) == 16


# The seven entry points that take a dataset or a block of rows, six of
# them with side information, as calls on (data, side).
DATA_ENTRY_POINTS = {
    "estimate": lambda data, side: eivreg.estimate(data, side),
    "naive_ratio_estimates": lambda data, side: eivreg.naive_ratio_estimates(data),
    "slope_statistic": lambda data, side: eivreg.slope_statistic(data, side, 2.0, "studentized"),
    "intercept_statistic": lambda data, side: eivreg.intercept_statistic(data, side, 1.0),
    "ci_slope_plugin": lambda data, side: eivreg.ci_slope_plugin(data, side, 0.05),
    "ci_intercept": lambda data, side: eivreg.ci_intercept(data, side, 0.05),
    "ci_slope_quadratic": lambda data, side: eivreg.ci_slope_quadratic(data, side, 1, 0.05),
}


@pytest.mark.parametrize("name", DATA_ENTRY_POINTS)
def test_wrong_data_or_side_type_is_named(name):
    # Anything but a Dataset or Rows as data, and anything but a SideInfo
    # as side, ends in a ValueError that names the argument.
    call = DATA_ENTRY_POINTS[name]
    data = eivreg.Dataset(y=np.array([1.0, 3.0, 6.0]), x=np.array([0.0, 1.0, 2.0]))
    side = eivreg.SideInfo.case1(0.25, 0.05)
    call(data, side)
    for bad, shown in (([1.0, 2.0], "list"), (None, "NoneType"), (np.ones((2, 3)), "ndarray")):
        with pytest.raises(ValueError, match=f"^data must be a Dataset or Rows, got {shown}$"):
            call(bad, side)
    if name != "naive_ratio_estimates":
        for bad in ("case2", None, 1):
            with pytest.raises(ValueError,
                               match=f"^side must be a SideInfo, got {re.escape(repr(bad))}$"):
                call(data, bad)


# The three entry points that take an intercept flag, as calls on c.
INTERCEPT_FLAG_ENTRY_POINTS = {
    "SideInfo": lambda c: eivreg.SideInfo.case2(0.25, 0.05, c=c),
    "ModelSpec": lambda c: eivreg.ModelSpec(2.0, 0.0, c, eivreg.XiDistribution.normal(0, 1),
                                            eivreg.ErrorSpec(0.25, 0.25, 0.05)),
    "moment_set": lambda c: eivreg.moment_set([1.0, 3.0, 6.0], [0.0, 1.0, 2.0], c),
}


@pytest.mark.parametrize("name", INTERCEPT_FLAG_ENTRY_POINTS)
def test_intercept_flag_must_be_a_bool_or_an_integer(name):
    # The flag is a bool or a Python or NumPy integer of value 0 or 1; a
    # float of that value is rejected like any other value.
    call = INTERCEPT_FLAG_ENTRY_POINTS[name]
    for good in (0, 1, True, False, np.True_, np.int64(1), np.uint8(0)):
        call(good)
    for bad in (1.0, 0.0, np.float32(1.0), 2, -1, "1", None):
        with pytest.raises(ValueError,
                           match=f"^intercept flag c must be 0 or 1, got {re.escape(repr(bad))}$"):
            call(bad)


def test_model_spec_parts_are_typed():
    # A ModelSpec's xi and err are checked when it is built, not when a
    # simulation first reads them.
    xi, err = eivreg.XiDistribution.normal(0, 1), eivreg.ErrorSpec(0.25, 0.25, 0.05)
    with pytest.raises(ValueError, match="^xi must be an XiDistribution, got None$"):
        eivreg.ModelSpec(2.0, 1.0, 1, None, None)
    with pytest.raises(ValueError, match="^xi must be an XiDistribution, got 'normal'$"):
        eivreg.ModelSpec(2.0, 1.0, 1, "normal", err)
    with pytest.raises(ValueError, match="^err must be an ErrorSpec, got None$"):
        eivreg.ModelSpec(2.0, 1.0, 1, xi, None)
    with pytest.raises(ValueError, match=f"^err must be an ErrorSpec, got {re.escape(repr(xi))}$"):
        eivreg.ModelSpec(2.0, 1.0, 1, xi, xi)
