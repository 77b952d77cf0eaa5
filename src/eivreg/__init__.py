"""Errors-in-variables regression with self-normalized inference.

Modified least squares estimation of the slope and intercept when both
variables carry measurement error, Studentized and self-normalized
pivotal statistics valid even for infinite-variance explanatory
variables, three families of large-sample confidence intervals, heavy-
tail data generators, diagnostics, and a deterministic Monte Carlo
harness.

The public names below load their submodule on first use (PEP 562), so
``import eivreg`` and ``eivreg --version`` import no NumPy.
"""

import importlib

__version__ = "0.1.0"

# The public names, by the submodule that defines them.
_EXPORTS = {
    "moments": ("MomentSet", "moment_set", "Latent", "Dataset"),
    "estimators": ("SideInfo", "PointEstimate", "NaiveEstimates", "estimate",
                   "naive_ratio_estimates", "reliability_ratio"),
    "inference": ("IntervalEstimate", "slope_statistic", "intercept_statistic",
                  "ci_slope_plugin", "ci_intercept", "ci_slope_quadratic"),
    "samplers": ("XiDistribution", "ErrorSpec", "ModelSpec", "substream", "sample_xi",
                 "sample_errors", "simulate_dataset"),
    "diagnostics": ("DiagnosticReport", "obrien_ratio", "empirical_bn", "selfnorm_sum",
                    "ks_distance_to_normal"),
    "montecarlo": ("ExperimentConfig", "ExperimentReport", "run_experiment"),
    "normal": ("norm_cdf", "norm_ppf", "z_for_gamma"),
    "errors": ("EivregError", "GuardViolation", "ZeroNormalizer", "ConfigError"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = [*_MODULE_OF, "__version__"]


def __getattr__(name):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__), name)


def __dir__():
    return sorted({*globals(), *__all__})
