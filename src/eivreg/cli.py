"""Command-line front end.

Subcommands: ``estimate`` and ``ci`` fit observed CSV data, ``simulate``
writes synthetic datasets, ``experiment`` runs a Monte Carlo study from a
JSON config, and ``diagnose`` computes heavy-tail diagnostics for one
numeric column.  All structured output is JSON that writes each float as
its shortest ``repr``, which reads back as the same binary64; CSV output
uses the same rule.  So identical runs produce byte-identical documents.

Exit codes: 0 ok, 2 input or configuration error or a size that cannot be
allocated, 3 guard violation or a statistic undefined on the data, 4
degenerate quadratic interval (its JSON is still emitted).
"""

from __future__ import annotations

import argparse
import csv
import gc
import io
import itertools
import os
import sys
import warnings
from pathlib import Path

from . import __version__
from .errors import ConfigError, GuardViolation, ZeroNormalizer

# Each command imports the layers it uses in its own body, so a command
# loads only those, and --version and --help load no NumPy.

# The CSV dialect of the fitting commands, as np.loadtxt settings.
_CSV_FORMAT = {"delimiter": ",", "comments": None, "quotechar": '"', "ndmin": 2,
               "dtype": float}
# The names np.loadtxt opens as compressed files.
_PACKED_SUFFIXES = (".gz", ".bz2", ".xz", ".lzma")
# Rows that _write_csv formats at a time; this bounds its memory.
_WRITE_BLOCK_ROWS = 1 << 14
# Lines that _bad_cell parses at a time when it looks for a bad cell.
_PROBE_LINES = 1 << 10


def _read_columns(path: str, pick) -> dict:
    """The columns of a UTF-8 CSV file that ``pick`` names from its stripped
    header, as contiguous float64 arrays by name.  A column it names must
    appear in the header once.  Empty lines are skipped; there must be at
    least one data row."""
    import numpy as np

    try:
        with open(path, encoding="utf-8-sig") as handle, warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # loadtxt's "no data" warning
            # A pipe cannot be read again from its start, as _bad_cell does,
            # so it is read into memory once.
            seekable = handle.seekable()
            fh = handle if seekable else io.StringIO(handle.read())
            reader = csv.reader(fh)
            row = next(reader, None)
            if row is None:
                raise ConfigError(f"{path}: empty file")
            header = [h.strip() for h in row]
            names = pick(header)
            for name in names:
                if header.count(name) > 1:
                    raise ConfigError(f"{path}: header names column {name!r} more than once")
            cols = [header.index(name) for name in names]
            # NumPy reads a file it opens by name in chunks, but a handle
            # line by line.  A pipe cannot be opened again at its start,
            # and NumPy would unpack a name with a compression suffix.
            if seekable and not path.endswith(_PACKED_SUFFIXES):
                source, skip = path, reader.line_num
            else:
                source, skip = fh, 0
            try:
                table = np.loadtxt(source, skiprows=skip, usecols=cols, encoding="utf-8-sig",
                                   **_CSV_FORMAT)
            except ValueError as exc:  # also a UnicodeDecodeError, which the scan meets again
                raise _bad_cell(path, fh, names, cols) or ConfigError(f"{path}: {exc}")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text: cannot decode byte "
                          f"{exc.object[exc.start]:#04x}")
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc}")
    if not len(table):
        raise ConfigError(f"{path}: no data rows")
    return {name: table[:, j].copy() for j, name in enumerate(names)}


def _bad_cell(path: str, fh, names, cols):
    """A ConfigError naming the first cell np.loadtxt cannot read by its line
    in the file, or None.  NumPy's own message counts rows from 0 after the
    header and leaves out empty lines, so the lines are parsed again with
    the same settings: ``_PROBE_LINES`` at a time, then the lines of the
    first block that fails one by one."""
    fh.seek(0)
    rows = csv.reader(fh)
    next(rows)
    line_no = rows.line_num + 1
    while block := list(itertools.islice(fh, _PROBE_LINES)):
        if not _parses(block, cols):
            for number, line in enumerate(block, line_no):
                for name, i in zip(names, cols):
                    if not _parses([line], (i,)):
                        cells = next(csv.reader([line]))
                        return ConfigError(
                            f"{path}: line {number}: column {name!r} holds "
                            f"{cells[i] if i < len(cells) else ''!r}, not a number")
        line_no += len(block)
    return None


def _parses(lines: list, cols) -> bool:
    """Whether np.loadtxt reads columns ``cols`` of the CSV ``lines``."""
    import numpy as np

    try:
        np.loadtxt(lines, usecols=cols, **_CSV_FORMAT)
    except ValueError:
        return False
    return True


def _read_xy(path: str):
    """The ``Dataset`` of the 'y' and 'x' columns of a CSV file."""
    from .moments import Dataset

    def pick(header):
        if not {"y", "x"} <= set(header):
            raise ConfigError(f"{path}: header must contain columns 'y' and 'x'")
        return ("y", "x")
    return Dataset(**_read_columns(path, pick))


def _read_column(path: str, column):
    """One finite column of a CSV file: ``column``, or the only one."""
    from .moments import check_finite

    def pick(header):
        if column is None:
            if len(header) != 1:
                raise ConfigError(f"{path}: several columns, pick one with --column")
            return (header[0],)
        if column not in header:
            raise ConfigError(f"{path}: no column named {column!r}")
        return (column,)
    ((name, values),) = _read_columns(path, pick).items()
    try:
        return check_finite(name, values)
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}")


def _write_csv(path, header: tuple, columns: tuple) -> None:
    """Write float columns under ``header``, each value as its repr, a block
    of rows at a time."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        for start in range(0, columns[0].size, _WRITE_BLOCK_ROWS):
            block = (map(repr, c[start:start + _WRITE_BLOCK_ROWS].tolist()) for c in columns)
            fh.write("\n".join(map(",".join, zip(*block))) + "\n")


def _side_from_flags(args):
    from .estimators import SideInfo

    c = 1 if args.intercept else 0
    if args.case == 1:
        return SideInfo.case1(args.lambda_theta, args.mu, c=c)
    return SideInfo.case2(args.theta, args.mu, c=c)


def _emit(doc: dict, out) -> None:
    """Write ``doc`` as JSON to stdout or to the file ``out``."""
    from .jsonout import dumps

    text = dumps(doc)
    if out is None:
        sys.stdout.write(text)
    else:
        Path(out).write_text(text, encoding="utf-8")


def _cmd_estimate(args) -> int:
    from .estimators import estimate

    data = _read_xy(args.csv)
    side = _side_from_flags(args)
    est = estimate(data, side)
    _emit({
        "n": data.n,
        "case": side.case,
        "intercept_unknown": side.c == 1,
        "beta_hat": est.beta_hat,
        "alpha_hat": est.alpha_hat,
        "guards": est.guards,
    }, args.out)
    return 0


def _cmd_ci(args) -> int:
    from .inference import DEGENERACY_NONE, ci_intercept, ci_slope_plugin, ci_slope_quadratic

    data = _read_xy(args.csv)
    side = _side_from_flags(args)
    if args.family == "plugin-slope":
        ci = ci_slope_plugin(data, side, args.gamma)
    elif args.family == "intercept":
        ci = ci_intercept(data, side, args.gamma)
    else:
        ci = ci_slope_quadratic(data, side, args.k, args.gamma)
    _emit({
        "n": data.n,
        "family": ci.family,
        "case": ci.j,
        "k": ci.k,
        "level": ci.level,
        "center": ci.center,
        "lower": ci.lower,
        "upper": ci.upper,
        "degeneracy": ci.degeneracy,
    }, args.out)
    return 4 if ci.degeneracy != DEGENERACY_NONE else 0


def _cmd_simulate(args) -> int:
    from .config import load_document, parse_simulation
    from .samplers import simulate_dataset

    spec, n, seed = parse_simulation(load_document(args.config, n=args.n, seed=args.seed))
    data = simulate_dataset(spec, n, seed)
    _write_csv(args.out, ("y", "x"), (data.y, data.x))
    if args.latent:
        p = Path(args.out)
        lat = data.latent
        _write_csv(p.with_name(p.stem + ".latent" + p.suffix), ("xi", "delta", "epsilon"),
                   (lat.xi, lat.delta, lat.epsilon))
    return 0


def _cmd_experiment(args) -> int:
    from .config import load_document, parse_experiment_config
    from .montecarlo import run_experiment

    doc = load_document(args.config, seed=args.seed, gamma=args.gamma)
    report = run_experiment(parse_experiment_config(doc))
    _emit(report.to_dict(), args.out)
    return 0


def _cmd_diagnose(args) -> int:
    from dataclasses import asdict

    from .diagnostics import (DiagnosticReport, empirical_bn, ks_distance_to_normal,
                              obrien_ratio, selfnorm_sum)
    from .moments import check_finite_number

    if args.center is not None:
        check_finite_number("--center", args.center)
    z = _read_column(args.csv, args.column)
    report = DiagnosticReport(
        n=z.size, obrien_ratio=obrien_ratio(z),
        empirical_bn=empirical_bn(z) if z.size >= 2 else None,
        selfnorm_stat=None if args.center is None else selfnorm_sum(z, args.center),
        ks_distance=ks_distance_to_normal(z) if args.ks else None)
    _emit(asdict(report), args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="eivreg",
        description="Errors-in-variables estimation, confidence intervals, "
                    "simulation and Monte Carlo experiments.")
    parser.add_argument("--version", action="version", version=f"eivreg {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_side_flags(p):
        p.add_argument("csv", help="CSV file with columns 'y' and 'x'")
        p.add_argument("--case", type=int, choices=(1, 2), required=True,
                       help="identifiability case: 1 knows Var(delta), 2 knows Var(epsilon)")
        p.add_argument("--lambda-theta", dest="lambda_theta", type=float,
                       help="known Var(delta), case 1")
        p.add_argument("--theta", type=float, help="known Var(epsilon), case 2")
        p.add_argument("--mu", type=float, required=True, help="known cov(delta, epsilon)")
        p.add_argument("--intercept", action="store_true",
                       help="intercept unknown (omit when it is known to be zero)")
        p.add_argument("--out", help="write JSON here instead of stdout")

    p = sub.add_parser("estimate", help="point estimates from CSV data")
    add_side_flags(p)
    p.set_defaults(func=_cmd_estimate)

    p = sub.add_parser("ci", help="confidence interval from CSV data")
    add_side_flags(p)
    p.add_argument("--family", choices=("plugin-slope", "intercept", "quadratic"),
                   required=True)
    p.add_argument("--gamma", type=float, default=0.05,
                   help="interval misses the parameter with probability gamma")
    p.add_argument("--k", type=int, choices=(1, 2), default=1,
                   help="quadratic variant: 1 Studentized, 2 self-normalized")
    p.set_defaults(func=_cmd_ci)

    p = sub.add_parser("simulate", help="write a synthetic dataset as CSV")
    p.add_argument("--config", required=True, help="JSON config with a \"model\" section")
    p.add_argument("--out", required=True, help="output CSV path")
    p.add_argument("--latent", action="store_true",
                   help="also write xi/delta/epsilon next to the output")
    p.add_argument("--n", type=int, help="override the config sample size")
    p.add_argument("--seed", type=int, help="override the config seed")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("experiment", help="run a Monte Carlo experiment")
    p.add_argument("--config", required=True, help="JSON experiment config")
    p.add_argument("--out", help="write the report here instead of stdout")
    p.add_argument("--seed", type=int, help="override the config seed")
    p.add_argument("--gamma", type=float, help="override the config gamma")
    p.set_defaults(func=_cmd_experiment)

    p = sub.add_parser("diagnose", help="heavy-tail diagnostics for one column")
    p.add_argument("csv", help="CSV file with the column to diagnose")
    p.add_argument("--column", help="column name (required when several exist)")
    p.add_argument("--center", type=float,
                   help="also compute the self-normalized sum around this value")
    p.add_argument("--ks", action="store_true",
                   help="also compute the KS distance to the standard normal")
    p.add_argument("--out", help="write JSON here instead of stdout")
    p.set_defaults(func=_cmd_diagnose)
    return parser


def main(argv=None) -> int:
    # eivreg calls no BLAS routine, yet OpenBLAS starts a pool of threads
    # when NumPy loads, each of which spins for about 0.1 s of CPU before it
    # sleeps.  NumPy loads after this line, in the command's body, so one
    # thread is all it starts, and forked workers inherit it.  A value the
    # user set wins, and importing eivreg as a library changes nothing.
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (GuardViolation, ZeroNormalizer) as exc:
        print(f"eivreg: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        print(f"eivreg: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:  # a size no allocation can meet
        print(f"eivreg: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 2


def run() -> None:
    """The ``eivreg`` process: ``main`` on the command line, then exit with
    its code.  The cyclic garbage collector stays off for the process's
    short life, and is frozen before exit, so that the interpreter does not
    walk every NumPy module object a last time as it shuts down; atexit
    hooks and the flush of stdio still run.  Forked workers inherit the
    disabled collector.  ``main`` itself leaves the collector alone, for
    in-process callers."""
    gc.disable()
    try:
        code = main()
    finally:
        gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    run()
