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

``simulate`` runs read only "model", "n" (an integer of at least 1) and
"seed" (an integer of at least 0); experiment runs need everything except
"n".  The command line merges its ``--n``, ``--seed`` and ``--gamma``
flags into the document as it loads it, so a flag meets the same checks
as the field it replaces.

This module checks what JSON can get wrong: keys given twice, missing
fields, values that are not objects, not numbers or not integers, NaN and
Infinity literals, integers beyond the float range, and the "n_values"
list.  The library owns every other rule: ``ModelSpec``, ``SideInfo``
and ``ExperimentConfig`` check their own fields, and ``ExperimentConfig``
checks replications, seed, k and gamma.  Violations raise ConfigError
with a message naming the offending field.
"""

from __future__ import annotations

import json

from .errors import ConfigError
from .estimators import SideInfo
from .moments import check_finite_number
from .samplers import ErrorSpec, ModelSpec, XiDistribution, _xi_family

__all__ = ["load_document", "parse_model", "parse_side", "parse_simulation",
           "parse_experiment_config"]


def _unique_keys(pairs: list) -> dict:
    """The object of ``pairs``; a key given twice, at any depth, is an error
    rather than a silent choice of its last value."""
    seen = set()
    for key, _ in pairs:
        if key in seen:
            raise ConfigError(f"duplicate key {key!r}")
        seen.add(key)
    return dict(pairs)


def load_document(path: str, **flags) -> dict:
    """The JSON object in the file ``path``, with each of ``flags`` that is
    not None as the value of its field."""
    # A ValueError here is malformed JSON, bytes that are not UTF-8, an
    # integer too long to parse or a duplicate key.
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh, object_pairs_hook=_unique_keys)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError("config document must be a JSON object")
    doc.update((key, value) for key, value in flags.items() if value is not None)
    return doc


def _require(mapping: dict, path: str, check=None):
    """The value at the last key of the dotted ``path`` in ``mapping``,
    passed through ``check(value, path)`` when one is given."""
    key = path.rpartition(".")[2]
    if key not in mapping:
        raise ConfigError(f"missing field {path}")
    return mapping[key] if check is None else check(mapping[key], path)


def _object(value, path: str) -> dict:
    if not isinstance(value, dict):
        raise ConfigError(f"{path} must be an object")
    return value


def _number(value, path: str) -> float:
    try:
        return check_finite_number(path, value)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def _integer(value, path: str, least=None) -> int:
    if isinstance(value, bool) or not isinstance(value, int) or \
            (least is not None and value < least):
        bound = "" if least is None else f" of at least {least}"
        raise ConfigError(f"{path} must be an integer{bound}, got {value!r}")
    return value


def parse_model(doc: dict) -> ModelSpec:
    model = _require(doc, "model", _object)
    beta = _require(model, "model.beta", _number)
    alpha = _require(model, "model.alpha", _number)
    unknown = _require(model, "model.intercept_unknown")
    if not isinstance(unknown, bool):
        raise ConfigError("model.intercept_unknown must be a boolean")
    xi_doc = _require(model, "model.xi", _object)
    family = _require(xi_doc, "model.xi.family")
    try:
        names = _xi_family(family).params
        params_doc = _require(xi_doc, "model.xi.params", _object)
        params = tuple(_require(params_doc, f"model.xi.params.{name}", _number)
                       for name in names)
        err_doc = _require(model, "model.errors", _object)
        xi = XiDistribution(family, params)
        err = ErrorSpec(
            lambda_theta=_require(err_doc, "model.errors.lambda_theta", _number),
            theta=_require(err_doc, "model.errors.theta", _number),
            mu=_require(err_doc, "model.errors.mu", _number),
            base=err_doc.get("base", "gaussian"),
        )
        return ModelSpec(beta=beta, alpha=alpha, c=1 if unknown else 0, xi=xi, err=err)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def parse_side(doc: dict, c: int) -> SideInfo:
    side = _require(doc, "side", _object)
    case = _require(side, "side.case", _integer)
    mu = _require(side, "side.mu", _number)
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


def parse_simulation(doc: dict):
    """(model, n, seed) of a ``simulate`` run."""
    spec = parse_model(doc)
    settings = []
    for key, least in (("n", 1), ("seed", 0)):
        value = doc.get(key)
        if value is None:
            raise ConfigError(f"{key} missing: set \"{key}\" in the config or pass --{key}")
        settings.append(_integer(value, key, least))
    return (spec, *settings)


def parse_experiment_config(doc: dict):
    """The ``ExperimentConfig`` of an ``experiment`` run."""
    from .montecarlo import ExperimentConfig

    spec = parse_model(doc)
    side = parse_side(doc, spec.c)
    experiment = _require(doc, "experiment")
    n_values = _require(doc, "n_values")
    if not isinstance(n_values, list) or not n_values:
        raise ConfigError("n_values must be a nonempty list of integers")
    n_values = tuple(_integer(n, "n_values[]") for n in n_values)
    replications = _require(doc, "replications")
    gamma = _require(doc, "gamma", _number)
    seed = _require(doc, "seed")
    optional = {key: doc[key] for key in ("k", "pivot") if key in doc}
    try:
        return ExperimentConfig(spec=spec, side=side, experiment=experiment,
                                n_values=n_values, replications=replications,
                                gamma=gamma, seed=seed, **optional)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
