"""JSON configuration schema for simulation and experiment runs.

Document layout::

    {
      "model": {
        "beta": 2.0, "alpha": 1.0, "intercept_unknown": true,
        "xi": {"family": "normal", "params": {"mean": 0.0, "sd": 1.0}},
        "errors": {"lambda_theta": 0.25, "theta": 0.25, "mu": 0.05,
                   "base": "gaussian"}
      },
      "side": {"case": 2, "lambda_theta": null, "mu": 0.05, "theta": 0.25},
      "experiment": "coverage14",
      "n_values": [500], "replications": 4000, "gamma": 0.05, "seed": 1,
      "k": 1, "pivot": "slope_self_normalized_plugin",   # optional
      "n": 500                                           # simulate only
    }

``simulate`` runs need only "model", "seed" and an "n"; experiment runs
need everything except "n".  Violations raise ConfigError with a message
naming the offending field.
"""

from __future__ import annotations

import json
import math

from .errors import ConfigError
from .estimators import SideInfo
from .montecarlo import ExperimentConfig
from .samplers import XI_FAMILIES, ErrorSpec, ModelSpec, XiDistribution

__all__ = ["load_document", "parse_model", "parse_side", "parse_experiment_config"]


def load_document(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError("config document must be a JSON object")
    return doc


def _require(mapping: dict, key: str, context: str):
    if key not in mapping:
        raise ConfigError(f"missing field {context}.{key}")
    return mapping[key]


def _number(value, context: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{context} must be a number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:  # an integer beyond the float range
        number = math.inf
    if not math.isfinite(number):
        raise ConfigError(f"{context} must be finite, got {value!r}")
    return number


def _integer(value, context: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{context} must be an integer, got {value!r}")
    return value


def parse_model(doc: dict) -> ModelSpec:
    model = _require(doc, "model", "")
    if not isinstance(model, dict):
        raise ConfigError("model must be an object")
    beta = _number(_require(model, "beta", "model"), "model.beta")
    alpha = _number(_require(model, "alpha", "model"), "model.alpha")
    unknown = _require(model, "intercept_unknown", "model")
    if not isinstance(unknown, bool):
        raise ConfigError("model.intercept_unknown must be a boolean")
    xi_doc = _require(model, "xi", "model")
    if not isinstance(xi_doc, dict):
        raise ConfigError("model.xi must be an object")
    family = _require(xi_doc, "family", "model.xi")
    if family not in XI_FAMILIES:
        raise ConfigError(f"unknown xi family {family!r}")
    params_doc = _require(xi_doc, "params", "model.xi")
    if not isinstance(params_doc, dict):
        raise ConfigError("model.xi.params must be an object")
    params = tuple(
        _number(_require(params_doc, name, "model.xi.params"),
                f"model.xi.params.{name}")
        for name in XI_FAMILIES[family].params)
    err_doc = _require(model, "errors", "model")
    if not isinstance(err_doc, dict):
        raise ConfigError("model.errors must be an object")
    base = err_doc.get("base", "gaussian")
    try:
        xi = XiDistribution(family, params)
        err = ErrorSpec(
            lambda_theta=_number(_require(err_doc, "lambda_theta", "model.errors"),
                                 "model.errors.lambda_theta"),
            theta=_number(_require(err_doc, "theta", "model.errors"),
                          "model.errors.theta"),
            mu=_number(_require(err_doc, "mu", "model.errors"), "model.errors.mu"),
            base=base,
        )
        return ModelSpec(beta=beta, alpha=alpha, c=1 if unknown else 0, xi=xi, err=err)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def parse_side(doc: dict, c: int) -> SideInfo:
    side = _require(doc, "side", "")
    if not isinstance(side, dict):
        raise ConfigError("side must be an object")
    case = _integer(_require(side, "case", "side"), "side.case")
    mu = _number(_require(side, "mu", "side"), "side.mu")
    lam = side.get("lambda_theta")
    theta = side.get("theta")
    try:
        return SideInfo(
            case=case, mu=mu,
            lambda_theta=None if lam is None else _number(lam, "side.lambda_theta"),
            theta=None if theta is None else _number(theta, "side.theta"),
            c=c,
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def parse_experiment_config(doc: dict, seed_override=None, gamma_override=None) -> ExperimentConfig:
    spec = parse_model(doc)
    side = parse_side(doc, spec.c)
    experiment = _require(doc, "experiment", "")
    n_values = _require(doc, "n_values", "")
    if not isinstance(n_values, list) or not n_values:
        raise ConfigError("n_values must be a nonempty list of integers")
    n_values = tuple(_integer(n, "n_values[]") for n in n_values)
    replications = _integer(_require(doc, "replications", ""), "replications")
    gamma = _number(_require(doc, "gamma", ""), "gamma") \
        if gamma_override is None else gamma_override
    seed = _integer(_require(doc, "seed", ""), "seed") \
        if seed_override is None else seed_override
    kwargs = {}
    if "k" in doc:
        kwargs["k"] = _integer(doc["k"], "k")
    if "pivot" in doc:
        kwargs["pivot"] = doc["pivot"]
    try:
        return ExperimentConfig(spec=spec, side=side, experiment=experiment,
                                n_values=n_values, replications=replications,
                                gamma=gamma, seed=seed, **kwargs)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
