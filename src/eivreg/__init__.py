"""Errors-in-variables regression with self-normalized inference.

Modified least squares estimation of the slope and intercept when both
variables carry measurement error, Studentized and self-normalized
pivotal statistics valid even for infinite-variance explanatory
variables, three families of large-sample confidence intervals, heavy-
tail data generators, diagnostics, and a deterministic Monte Carlo
harness.
"""

from .diagnostics import (
    DiagnosticReport,
    empirical_bn,
    ks_distance_to_normal,
    obrien_ratio,
    selfnorm_sum,
)
from .errors import ConfigError, EivregError, GuardViolation, ZeroNormalizer
from .estimators import (
    NaiveEstimates,
    PointEstimate,
    SideInfo,
    estimate,
    naive_ratio_estimates,
    reliability_ratio,
)
from .inference import (
    GridInversion,
    GridSpec,
    IntervalEstimate,
    InterceptResiduals,
    SlopeResiduals,
    ci_intercept,
    ci_slope_plugin,
    ci_slope_quadratic,
    grid_invert_ci,
    intercept_residuals,
    intercept_statistic,
    quadratic_pivot,
    slope_residuals,
    slope_statistic,
)
from .moments import MomentSet, moment_set
from .montecarlo import ExperimentConfig, ExperimentReport, run_experiment
from .normal import norm_cdf, norm_ppf, z_for_gamma
from .samplers import (
    Dataset,
    ErrorSpec,
    Latent,
    ModelSpec,
    XiDistribution,
    philox_keys,
    sample_errors,
    sample_xi,
    simulate_dataset,
    substream,
)

__version__ = "0.1.0"

__all__ = [
    "MomentSet", "moment_set",
    "SideInfo", "PointEstimate", "NaiveEstimates",
    "estimate", "naive_ratio_estimates", "reliability_ratio",
    "SlopeResiduals", "InterceptResiduals", "IntervalEstimate",
    "GridSpec", "GridInversion",
    "slope_residuals", "intercept_residuals",
    "slope_statistic", "intercept_statistic", "quadratic_pivot",
    "ci_slope_plugin", "ci_intercept", "ci_slope_quadratic", "grid_invert_ci",
    "XiDistribution", "ErrorSpec", "ModelSpec", "Latent", "Dataset",
    "substream", "philox_keys", "sample_xi", "sample_errors", "simulate_dataset",
    "DiagnosticReport", "obrien_ratio", "empirical_bn", "selfnorm_sum",
    "ks_distance_to_normal",
    "ExperimentConfig", "ExperimentReport", "run_experiment",
    "norm_cdf", "norm_ppf", "z_for_gamma",
    "EivregError", "GuardViolation", "ZeroNormalizer", "ConfigError",
    "__version__",
]
