"""Command-line front end.

Subcommands: ``estimate`` and ``ci`` fit observed CSV data, ``simulate``
writes synthetic datasets, ``experiment`` runs a Monte Carlo study from a
JSON config, and ``diagnose`` computes heavy-tail diagnostics for one
numeric column.  All structured output is JSON with 17-significant-digit
floats, so identical runs produce byte-identical documents.

Exit codes: 0 ok, 2 input or configuration error, 3 guard violation,
4 degenerate quadratic interval (its JSON is still emitted).
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .config import load_document, parse_experiment_config, parse_model
from .diagnostics import DiagnosticReport, empirical_bn, ks_distance_to_normal, obrien_ratio, selfnorm_sum
from .errors import ConfigError, GuardViolation
from .estimators import SideInfo, estimate
from .inference import DEGENERACY_NONE, ci_intercept, ci_slope_plugin, ci_slope_quadratic
from .jsonout import dumps
from .moments import check_finite
from .montecarlo import run_experiment
from .samplers import Dataset, simulate_dataset


class CliFailure(Exception):
    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


def _gamma_arg(raw: str) -> float:
    try:
        value = float(raw)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {raw!r}")
    if not 0.0 < value < 1.0:
        raise argparse.ArgumentTypeError("gamma must lie strictly between 0 and 1")
    return value


def _read_rows(path: str):
    """The stripped header of a CSV file and its data rows, of which there
    must be at least one."""
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            rows = list(csv.reader(fh))
    except OSError as exc:
        raise CliFailure(2, f"cannot read {path}: {exc}")
    if not rows:
        raise CliFailure(2, f"{path}: empty file")
    if len(rows) == 1:
        raise CliFailure(2, f"{path}: no data rows")
    return [h.strip() for h in rows[0]], rows[1:]


def _columns(path: str, body: list, indices: tuple) -> list:
    """The given columns of the data rows as float arrays."""
    try:
        return [np.asarray([float(r[i]) for r in body]) for i in indices]
    except (ValueError, IndexError) as exc:
        raise CliFailure(2, f"{path}: bad data row: {exc}")


def _read_xy(path: str) -> Dataset:
    header, body = _read_rows(path)
    try:
        iy, ix = header.index("y"), header.index("x")
    except ValueError:
        raise CliFailure(2, f"{path}: header must contain columns 'y' and 'x'")
    y, x = _columns(path, body, (iy, ix))
    return Dataset(y=y, x=x)


def _read_column(path: str, column) -> np.ndarray:
    header, body = _read_rows(path)
    if column is None:
        if len(header) != 1:
            raise CliFailure(2, f"{path}: several columns, pick one with --column")
        idx = 0
    else:
        try:
            idx = header.index(column)
        except ValueError:
            raise CliFailure(2, f"{path}: no column named {column!r}")
    (values,) = _columns(path, body, (idx,))
    try:
        return check_finite(header[idx], values)
    except ValueError as exc:
        raise CliFailure(2, f"{path}: {exc}")


def _write_csv(path, header: tuple, columns: tuple) -> None:
    """Write float columns under ``header``, each value as its repr."""
    rows = map(",".join, zip(*(map(repr, c.tolist()) for c in columns)))
    Path(path).write_text("\n".join([",".join(header), *rows]) + "\n", encoding="utf-8")


def _side_from_flags(args) -> SideInfo:
    c = 1 if args.intercept else 0
    if args.mu is None:
        raise CliFailure(2, "--mu is required")
    try:
        if args.case == 1:
            if args.lambda_theta is None:
                raise CliFailure(2, "--case 1 requires --lambda-theta")
            return SideInfo.case1(args.lambda_theta, args.mu, c=c)
        if args.theta is None:
            raise CliFailure(2, "--case 2 requires --theta")
        return SideInfo.case2(args.theta, args.mu, c=c)
    except ValueError as exc:
        raise CliFailure(2, str(exc))


def _emit(text: str, out) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        Path(out).write_text(text, encoding="utf-8")


def _cmd_estimate(args) -> int:
    data = _read_xy(args.csv)
    side = _side_from_flags(args)
    est = estimate(data, side)
    _emit(dumps({
        "n": data.n,
        "case": side.case,
        "intercept_unknown": side.c == 1,
        "beta_hat": est.beta_hat,
        "alpha_hat": est.alpha_hat,
        "guards": est.guards,
    }), args.out)
    return 0


def _cmd_ci(args) -> int:
    data = _read_xy(args.csv)
    side = _side_from_flags(args)
    if args.family == "plugin-slope":
        ci = ci_slope_plugin(data, side, args.gamma)
    elif args.family == "intercept":
        ci = ci_intercept(data, side, args.gamma)
    else:
        ci = ci_slope_quadratic(data, side, args.k, args.gamma)
    _emit(dumps({
        "n": data.n,
        "family": ci.family,
        "case": ci.j,
        "k": ci.k,
        "level": ci.level,
        "center": ci.center,
        "lower": ci.lower,
        "upper": ci.upper,
        "degeneracy": ci.degeneracy,
    }), args.out)
    return 4 if ci.degeneracy != DEGENERACY_NONE else 0


def _int_setting(flag, doc: dict, key: str, least: int) -> int:
    """The flag value of ``key`` if given, else the config's, checked to be
    an integer of at least ``least``."""
    value = flag if flag is not None else doc.get(key)
    if value is None:
        raise CliFailure(2, f"{key} missing: set \"{key}\" in the config or pass --{key}")
    if not isinstance(value, int) or isinstance(value, bool) or value < least:
        raise CliFailure(2, f"{key} must be an integer of at least {least}, got {value!r}")
    return value


def _cmd_simulate(args) -> int:
    doc = load_document(args.config)
    spec = parse_model(doc)
    n = _int_setting(args.n, doc, "n", 1)
    seed = _int_setting(args.seed, doc, "seed", 0)
    data = simulate_dataset(spec, n, seed)
    _write_csv(args.out, ("y", "x"), (data.y, data.x))
    if args.latent:
        p = Path(args.out)
        lat = data.latent
        _write_csv(p.with_name(p.stem + ".latent" + p.suffix), ("xi", "delta", "epsilon"),
                   (lat.xi, lat.delta, lat.epsilon))
    return 0


def _cmd_experiment(args) -> int:
    doc = load_document(args.config)
    config = parse_experiment_config(doc, seed_override=args.seed,
                                     gamma_override=args.gamma)
    report = run_experiment(config)
    _emit(dumps(report.to_dict()), args.out)
    return 0


def _cmd_diagnose(args) -> int:
    z = _read_column(args.csv, args.column)
    try:
        ratio = obrien_ratio(z)
    except ValueError as exc:
        raise CliFailure(3, str(exc))
    bn = empirical_bn(z) if z.size >= 2 else None
    selfnorm = None
    if args.center is not None:
        try:
            selfnorm = selfnorm_sum(z, args.center)
        except ValueError as exc:
            raise CliFailure(3, str(exc))
    ks = ks_distance_to_normal(z) if args.ks else None
    report = DiagnosticReport(n=z.size, obrien_ratio=ratio, empirical_bn=bn,
                              selfnorm_stat=selfnorm, ks_distance=ks)
    _emit(dumps(dataclasses.asdict(report)), args.out)
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
        p.add_argument("--mu", type=float, help="known cov(delta, epsilon)")
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
    p.add_argument("--gamma", type=_gamma_arg, default=0.05,
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
    p.add_argument("--gamma", type=_gamma_arg, help="override the config gamma")
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
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except CliFailure as failure:
        print(f"eivreg: {failure}", file=sys.stderr)
        return failure.code
    except GuardViolation as exc:
        print(f"eivreg: {exc}", file=sys.stderr)
        return 3
    except (ConfigError, ValueError, OSError) as exc:
        print(f"eivreg: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
