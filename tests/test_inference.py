import dataclasses
import math
import re

import numpy as np
import pytest
from scipy import stats

from conftest import (
    M0_SPEC,
    PROP_CASES,
    SIDE1_M0,
    SIDE2_M0,
    line_dataset,
    m0_dataset,
    offline_dataset,
)
from grid_oracle import grid_invert
from eivreg import (
    Dataset,
    ExperimentConfig,
    GuardViolation,
    SideInfo,
    ZeroNormalizer,
    ci_intercept,
    ci_slope_plugin,
    ci_slope_quadratic,
    estimate,
    intercept_statistic,
    moment_set,
    slope_statistic,
    z_for_gamma,
)
from eivreg.moments import Rows
from eivreg.montecarlo import EXPERIMENTS

REL = 1e-10
SIDE2_FREE = SideInfo.case2(0.0, 0.0, c=1)
SIDE1_FREE = SideInfo.case1(0.0, 0.0, c=1)


def _slope_terms(data, side, b):
    """U and the terms a_i at slope ``b``, built from ``moment_set`` with
    the formulas of the ``eivreg.inference`` docstring."""
    ms = moment_set(data.y, data.x, side.c)
    if side.case == 2:
        return ms.S_xx - side.theta, (ms.s_xy - side.mu) - b * (ms.s_xx - side.theta)
    return ms.S_xy - side.mu, (ms.s_yy - side.lambda_theta) - b * (ms.s_xy - side.mu)


def _quadratic_pivot(data, k, b):
    """|pivot| that the quadratic interval of variant ``k`` inverts."""
    return abs(slope_statistic(data, SIDE1_M0, b, "studentized" if k == 1 else "self_normalized"))


class TestSlopeStatistic:
    def test_studentized_hand_value(self):
        value = slope_statistic(offline_dataset(), SIDE2_FREE, 2.0, "studentized")
        assert value == pytest.approx(math.sqrt(3.0), rel=REL)

    def test_self_normalized_hand_value(self):
        value = slope_statistic(offline_dataset(), SIDE2_FREE, 2.0, "self_normalized")
        assert value == pytest.approx(3.0 / math.sqrt(5.0), rel=REL)

    @pytest.mark.parametrize("variant", ["studentized", "self_normalized",
                                         "self_normalized_plugin"])
    def test_perfect_line_zero_normalizer(self, variant):
        with pytest.raises(ZeroNormalizer):
            slope_statistic(line_dataset(), SIDE2_FREE, 2.0, variant)

    def test_unknown_variant(self):
        with pytest.raises(ValueError):
            slope_statistic(offline_dataset(), SIDE2_FREE, 2.0, "bootstrap")

    def test_self_normalized_plugin_hand_value(self):
        # Plug-in terms at beta_hat = 2.5 are -1/6, 0, 1/6; the known-slope
        # terms at 2 have mean 1/3, so 3 * (1/3) / sqrt(1/18).
        value = slope_statistic(offline_dataset(), SIDE2_FREE, 2.0, "self_normalized_plugin")
        assert value == pytest.approx(math.sqrt(18.0), rel=REL)

    def test_case1_self_normalized_hand_value(self):
        # Case 1 terms (s_yy - lambda_theta) - 2*(s_xy - mu) are 7/9, 1/9 and
        # 16/9: mean 8/9 and sum of squares 306/81.
        value = slope_statistic(offline_dataset(), SIDE1_FREE, 2.0, "self_normalized")
        assert value == pytest.approx(24.0 / math.sqrt(306.0), rel=REL)

    def test_plugin_propagates_guards(self):
        data = Dataset(y=np.array([1.0, 2.0, 3.0]), x=np.ones(3))
        with pytest.raises(GuardViolation):
            slope_statistic(data, SIDE2_FREE, 2.0, "self_normalized_plugin")

    def test_prop_numerator_identity(self):
        # The self-normalized pivot, whose numerator is n times the mean of
        # the known-slope terms, equals n*U*(beta_hat - beta)/sqrt(sum a_i^2)
        # with U, a_i and beta_hat computed independently.
        rng = np.random.default_rng(30)
        done, i = 0, 0
        while done < PROP_CASES:
            i += 1
            n = int(rng.integers(10, 60))
            data = m0_dataset(n, (31, i))
            side = SIDE2_M0 if i % 2 == 0 else SIDE1_M0
            beta = float(rng.uniform(-3, 3))
            try:
                est = estimate(data, side)
            except GuardViolation:
                continue
            U, terms = _slope_terms(data, side, beta)
            expect = n * U * (est.beta_hat - beta) / math.sqrt(math.fsum(terms ** 2))
            value = slope_statistic(data, side, beta, "self_normalized")
            assert value == pytest.approx(expect, rel=1e-10, abs=1e-12)
            done += 1

    def test_prop_plugin_mean_vanishes(self):
        # At b = beta_hat the plug-in terms have mean zero, so the plug-in
        # pivot is zero up to rounding: |n*a_bar| / sqrt(sum a_i^2) is at
        # most n*|a_bar| / max|a_i|.
        rng = np.random.default_rng(32)
        for i in range(PROP_CASES):
            n = int(rng.integers(5, 80))
            data = m0_dataset(n, (33, i))
            side = SIDE2_M0 if i % 2 == 0 else SIDE1_M0
            try:
                beta_hat = estimate(data, side).beta_hat
            except GuardViolation:
                continue
            value = slope_statistic(data, side, beta_hat, "self_normalized_plugin")
            assert abs(value) <= 1e-10 * n


class TestInterceptResiduals:
    # The residual terms v_i enter only through the centered sum of squares
    # that Studentizes the intercept statistic and sizes its interval.

    def test_plugin_matches_direct_recomputation(self):
        data = m0_dataset(40, 77)
        # Plain numpy recomputation from the definitions.
        y, x = data.y, data.x
        n = y.size
        dx, dy = x - x.mean(), y - y.mean()
        S_xy, S_xx = np.mean(dx * dy), np.mean(dx * dx)
        U = S_xx - 0.25
        beta2 = (S_xy - 0.05) / U
        alpha2 = y.mean() - beta2 * x.mean()
        for variant, b, a in (("plugin", beta2, 0.0), ("known_slope", 2.0, 1.0)):
            u_t = (dx * dy - 0.05) - b * (dx * dx - 0.25)
            v = (y - a) - b * x - (x.mean() / U) * u_t
            expect = math.sqrt(n) * (alpha2 - 0.5) / math.sqrt(
                np.sum((v - v.mean()) ** 2) / (n - 1))
            value = intercept_statistic(data, SIDE2_M0, 0.5, variant=variant,
                                        beta=2.0 if variant == "known_slope" else None)
            assert value == pytest.approx(expect, rel=1e-9)

    def test_prop_centered_terms_shift_invariant(self):
        # Shifting every response moves the intercept interval by the shift
        # and leaves its width, set by the centered plug-in terms, unchanged.
        rng = np.random.default_rng(35)
        done, i = 0, 0
        while done < PROP_CASES:
            i += 1
            data = m0_dataset(int(rng.integers(5, 50)), (36, i))
            t = float(rng.uniform(-30, 30))
            shifted = Dataset(y=data.y + t, x=data.x)
            try:
                ci0 = ci_intercept(data, SIDE2_M0, z=1.0)
                ci1 = ci_intercept(shifted, SIDE2_M0, z=1.0)
            except GuardViolation:
                continue
            width0, width1 = ci0.upper - ci0.lower, ci1.upper - ci1.lower
            assert abs(width1 - width0) <= 1e-9 * max(width0, abs(t))
            assert ci1.center == pytest.approx(ci0.center + t, rel=1e-9, abs=1e-9)
            done += 1

    def test_prop_alpha_constant_cancels(self):
        # Any constant in place of the unknown intercept changes the raw
        # terms by that constant only, so the known-slope statistic at
        # (beta_hat, alpha0) equals the plug-in one, which uses 0.
        rng = np.random.default_rng(37)
        done, i = 0, 0
        while done < PROP_CASES:
            i += 1
            data = m0_dataset(int(rng.integers(5, 50)), (38, i))
            a = float(rng.uniform(-100, 100))
            try:
                est = estimate(data, SIDE2_M0)
            except GuardViolation:
                continue
            plug = intercept_statistic(data, SIDE2_M0, a)
            known = intercept_statistic(data, SIDE2_M0, a, beta=est.beta_hat,
                                        variant="known_slope")
            assert known == pytest.approx(plug, rel=1e-8, abs=1e-12)
            done += 1


class TestInterceptStatistic:
    def test_perfect_line_zero_normalizer(self):
        with pytest.raises(ZeroNormalizer):
            intercept_statistic(line_dataset(), SIDE2_FREE, 1.0, beta=2.0,
                                variant="known_slope")

    def test_seeded_variants_finite_and_distinct(self):
        data = m0_dataset(200, 42)
        known = intercept_statistic(data, SIDE2_M0, 1.0, beta=2.0, variant="known_slope")
        plug = intercept_statistic(data, SIDE2_M0, 1.0, variant="plugin")
        assert math.isfinite(known) and math.isfinite(plug)
        assert known != plug
        # Independent recomputation of the plug-in variant.
        y, x = data.y, data.x
        dx, dy = x - x.mean(), y - y.mean()
        U = np.mean(dx * dx) - 0.25
        beta2 = (np.mean(dx * dy) - 0.05) / U
        alpha2 = y.mean() - x.mean() * beta2
        u_t = (dx * dy - 0.05) - beta2 * (dx * dx - 0.25)
        v = y - beta2 * x - (x.mean() / U) * u_t
        expect = math.sqrt(data.n) * (alpha2 - 1.0) / math.sqrt(
            np.sum((v - v.mean()) ** 2) / (data.n - 1))
        assert plug == pytest.approx(expect, rel=1e-9)

    def test_prop_shift_equivariance(self):
        # Shifting y by t and the hypothesized intercept by t leaves the
        # statistic unchanged.
        rng = np.random.default_rng(40)
        done, i = 0, 0
        while done < PROP_CASES:
            i += 1
            data = m0_dataset(int(rng.integers(8, 60)), (41, i))
            t = float(rng.uniform(-20, 20))
            shifted = Dataset(y=data.y + t, x=data.x)
            for variant, beta in (("known_slope", 2.0), ("plugin", None)):
                try:
                    s0 = intercept_statistic(data, SIDE2_M0, 1.0, beta=beta,
                                             variant=variant)
                except GuardViolation:
                    break
                s1 = intercept_statistic(shifted, SIDE2_M0, 1.0 + t, beta=beta,
                                         variant=variant)
                assert s1 == pytest.approx(s0, rel=1e-7, abs=1e-9)
            else:
                done += 1

    def test_requires_beta_for_known_slope(self):
        with pytest.raises(ValueError):
            intercept_statistic(offline_dataset(), SIDE2_FREE, 1.0, variant="known_slope")

    def test_plugin_rejects_beta(self):
        # The plug-in variant estimates the slope, so a given beta would be ignored.
        with pytest.raises(ValueError, match=r"^beta is given only with the known_slope variant"):
            intercept_statistic(m0_dataset(50, 3), SIDE2_M0, 1.0, beta=99.0, variant="plugin")


class TestCiSlopePlugin:
    def test_perfect_line_zero_width(self):
        ci = ci_slope_plugin(line_dataset(), SIDE2_FREE, 0.05)
        assert ci.lower == ci.upper == ci.center == pytest.approx(2.0, rel=REL)

    def test_off_line_hand_endpoints(self):
        # 2.5 -+ z * sqrt(1/18) / (n * U) with n*U = 3 * (2/3) = 2.
        ci = ci_slope_plugin(offline_dataset(), SIDE2_FREE, 0.05)
        z = stats.norm.ppf(0.975)
        half = z * math.sqrt(1.0 / 18.0) / 2.0
        assert ci.lower == pytest.approx(2.5 - half, rel=REL)
        assert ci.upper == pytest.approx(2.5 + half, rel=REL)
        assert ci.level == pytest.approx(0.95, rel=REL)

    def test_zero_z_collapses(self):
        ci = ci_slope_plugin(offline_dataset(), SIDE2_FREE, z=0.0)
        assert ci.lower == ci.upper == ci.center

    def test_center_is_midpoint(self):
        ci = ci_slope_plugin(m0_dataset(60, 3), SIDE2_M0, 0.1)
        assert 0.5 * (ci.lower + ci.upper) == pytest.approx(ci.center, rel=1e-12)

    def test_gamma_xor_z(self):
        with pytest.raises(ValueError):
            ci_slope_plugin(offline_dataset(), SIDE2_FREE)
        with pytest.raises(ValueError):
            ci_slope_plugin(offline_dataset(), SIDE2_FREE, 0.05, z=1.0)


class TestCiIntercept:
    def test_perfect_line_zero_width(self):
        ci = ci_intercept(line_dataset(), SIDE2_FREE, 0.05)
        assert ci.lower == ci.upper == ci.center == pytest.approx(1.0, rel=REL)

    def test_zero_z_singleton(self):
        ci = ci_intercept(offline_dataset(), SIDE2_FREE, z=0.0)
        assert ci.lower == ci.upper == ci.center

    def test_seeded_endpoints_match_recomputation(self):
        data = m0_dataset(200, 42)
        ci = ci_intercept(data, SIDE2_M0, 0.05)
        y, x = data.y, data.x
        dx, dy = x - x.mean(), y - y.mean()
        U = np.mean(dx * dx) - 0.25
        beta2 = (np.mean(dx * dy) - 0.05) / U
        alpha2 = y.mean() - x.mean() * beta2
        u_t = (dx * dy - 0.05) - beta2 * (dx * dx - 0.25)
        v = y - beta2 * x - (x.mean() / U) * u_t
        half = stats.norm.ppf(0.975) * math.sqrt(np.sum((v - v.mean()) ** 2)) \
            / math.sqrt(data.n * (data.n - 1))
        assert ci.lower == pytest.approx(alpha2 - half, rel=1e-9)
        assert ci.upper == pytest.approx(alpha2 + half, rel=1e-9)

    def test_requires_unknown_intercept(self):
        with pytest.raises(ValueError):
            ci_intercept(line_dataset(), SideInfo.case2(0.0, 0.0, c=0), 0.05)


class TestCiSlopeQuadratic:
    def test_zero_z_singleton_at_estimate(self):
        for k in (1, 2):
            ci = ci_slope_quadratic(offline_dataset(), SIDE1_FREE, k, z=0.0)
            est = estimate(offline_dataset(), SIDE1_FREE)
            assert ci.degeneracy == "none"
            assert ci.lower == pytest.approx(est.beta_hat, rel=1e-12)
            assert ci.upper == pytest.approx(est.beta_hat, rel=1e-12)

    def test_leading_coefficient_degeneracy(self):
        # On the off-line dataset A_1 flips sign at z^2 = 150/38.
        z_crit = math.sqrt(150.0 / 38.0)
        ci = ci_slope_quadratic(offline_dataset(), SIDE1_FREE, 1, z=z_crit * 1.05)
        assert ci.degeneracy == "nonpositive_leading_coeff"
        assert ci.lower is None and ci.upper is None
        ci = ci_slope_quadratic(offline_dataset(), SIDE1_FREE, 1, z=z_crit * 0.95)
        assert ci.degeneracy == "none"
        assert ci.lower < ci.upper

    @staticmethod
    def _scaled(scale, x_scale=None):
        y = scale * np.array([1.0, -0.5, 0.7, 1.2, 0.3])
        x_scale = scale if x_scale is None else x_scale
        return Dataset(y=y, x=0.9 * x_scale * np.array([1.1, -0.4, 0.9, 1.0, 0.1]))

    @pytest.mark.parametrize("scale, message", [
        (1e77, "the leading coefficient of the inversion quadratic overflows"),
        (1e60, "the inversion quadratic overflows"),
        pytest.param((1e50, 1e-110), "the inversion quadratic overflows",
                     id="1e+50/1e-110-the inversion quadratic overflows"),
    ])
    def test_coefficient_overflow_named(self, scale, message):
        # Every sum stays finite; f*U^2 (1e77), the Gram determinant of
        # the discriminant (1e60) or beta_hat^2 alone (y at 1e50 and x at
        # 1e-110, so beta_hat is about 1.2e160) leaves the float range.  In
        # the last case f*U^2 and A stay finite and only C is infinite.
        scales = scale if isinstance(scale, tuple) else (scale,)
        with pytest.raises(ValueError, match=f"^{message} the float range$"):
            ci_slope_quadratic(self._scaled(*scales), SIDE1_FREE, 1, 0.05)

    def test_leading_degeneracy_needs_no_discriminant(self):
        # A <= 0 is decided before the discriminant, whose products
        # overflow here, is looked at.
        ci = ci_slope_quadratic(self._scaled(1e60), SIDE1_FREE, 2, 0.05)
        assert ci.degeneracy == "nonpositive_leading_coeff"

    def test_requires_case1(self):
        with pytest.raises(ValueError):
            ci_slope_quadratic(offline_dataset(), SIDE2_FREE, 1, 0.05)
        with pytest.raises(ValueError):
            ci_slope_quadratic(offline_dataset(), SIDE1_FREE, 3, 0.05)

    def test_seeded_matches_grid_oracle(self):
        data = m0_dataset(50, 7)
        for k in (1, 2):
            ci = ci_slope_quadratic(data, SIDE1_M0, k, 0.05)
            assert ci.degeneracy == "none"
            intervals, unbounded = grid_invert(data, SIDE1_M0, k, z_for_gamma(0.05))
            assert len(intervals) == 1 and not unbounded
            lo, hi = intervals[0]
            assert ci.lower == pytest.approx(lo, rel=1e-6)
            assert ci.upper == pytest.approx(hi, rel=1e-6)

    def test_pivot_at_endpoints_equals_z(self):
        data = m0_dataset(50, 7)
        z = z_for_gamma(0.05)
        for k in (1, 2):
            ci = ci_slope_quadratic(data, SIDE1_M0, k, 0.05)
            for endpoint in (ci.lower, ci.upper):
                assert abs(_quadratic_pivot(data, k, endpoint) - z) < 1e-9

    def test_prop_interval_membership_matches_pivot(self):
        # beta inside the interval iff |pivot(beta)| <= z, probed pointwise.
        rng = np.random.default_rng(50)
        z = z_for_gamma(0.05)
        done, i = 0, 0
        while done < PROP_CASES:
            i += 1
            data = m0_dataset(int(rng.integers(20, 60)), (51, i))
            k = 1 + i % 2
            try:
                ci = ci_slope_quadratic(data, SIDE1_M0, k, 0.05)
            except GuardViolation:
                continue
            if ci.degeneracy != "none":
                continue
            done += 1
            width = ci.upper - ci.lower
            for t in (0.1, 0.35, 0.65, 0.9):
                inside = ci.lower + t * width
                assert _quadratic_pivot(data, k, inside) <= z * (1 + 1e-9)
            for outside in (ci.lower - 0.05 * width - 1e-9,
                            ci.upper + 0.05 * width + 1e-9):
                assert _quadratic_pivot(data, k, outside) > z * (1 - 1e-9)


def test_prop_interval_monotone_in_gamma():
    rng = np.random.default_rng(55)
    done, i = 0, 0
    while done < PROP_CASES:
        i += 1
        data = m0_dataset(int(rng.integers(20, 50)), (56, i))
        g_small, g_large = 0.01, 0.10
        try:
            wide = ci_slope_plugin(data, SIDE2_M0, g_small)
            narrow = ci_slope_plugin(data, SIDE2_M0, g_large)
            assert wide.lower <= narrow.lower and narrow.upper <= wide.upper
            wide = ci_intercept(data, SIDE2_M0, g_small)
            narrow = ci_intercept(data, SIDE2_M0, g_large)
            assert wide.lower <= narrow.lower and narrow.upper <= wide.upper
            wide = ci_slope_quadratic(data, SIDE1_M0, 1 + i % 2, g_small)
            narrow = ci_slope_quadratic(data, SIDE1_M0, 1 + i % 2, g_large)
        except GuardViolation:
            continue
        if wide.degeneracy == "none" and narrow.degeneracy == "none":
            assert wide.lower <= narrow.lower and narrow.upper <= wide.upper
        done += 1


class TestGridInversion:
    def test_degenerate_region_reported_unbounded(self):
        # Past the leading-coefficient threshold the acceptance region is
        # unbounded: the closed form reports the degeneracy, and the grid
        # oracle still touches its bracket edge after every expansion.
        z = math.sqrt(150.0 / 38.0) * 1.2
        ci = ci_slope_quadratic(offline_dataset(), SIDE1_FREE, 1, z=z)
        assert ci.degeneracy == "nonpositive_leading_coeff"
        assert grid_invert(offline_dataset(), SIDE1_FREE, 1, z, max_expansions=3)[1]

    @pytest.mark.parametrize("y, x, c, k", [
        # The plug-in half-width is far below the spacing of the floats at
        # the estimate, so a grid bracket around it collapses to beta1.
        ([1e-310, -0.0, 1e154, -1.0],
         [1.228683719203421e37, 3.396200082486426e36, 4.237713528533473e36,
          3.7122741773625884e36], 0, 1),
        # b * ax overflows as a grid bracket grows around beta1 = -1.4e241.
        ([1e-310, 1e154], [4.117884010391812e-88, -3.020195569665504e-88], 1, 2),
    ], ids=["collapsed_bracket", "pivot_overflow"])
    def test_hostile_input_named(self, y, x, c, k):
        # The closed form names its overflowing sum, with no warning on the way.
        data, side = Dataset(y=np.array(y), x=np.array(x)), SideInfo.case1(0.25, 0.05, c=c)
        with pytest.raises(ValueError, match=r"^sum of ay\^2 overflows the float range$"):
            ci_slope_quadratic(data, side, k, 0.05)



_C0 = SideInfo.case2(0.25, 0.05, c=0)
_C0_SPEC = dataclasses.replace(M0_SPEC, c=0, alpha=0.0)
_CASE1 = "quadratic slope pivots require case 1 side info"
_K = "k must be 1 or 2"
_C1 = r"requires the unknown-intercept model \(c = 1\)"


def _config(experiment, side=SIDE1_M0, spec=M0_SPEC, **kw):
    return ExperimentConfig(spec=spec, side=side, experiment=experiment, n_values=(10,),
                            replications=2, gamma=0.05, seed=1, **kw)


# Each entry point of a quadratic interval or of intercept inference, and each
# experiment, with a side info or k it must refuse and the rule it breaks.
_REJECTED = {
    "ci_slope_quadratic_case2": (lambda d: ci_slope_quadratic(d, SIDE2_M0, 1, 0.05), _CASE1),
    "ci_slope_quadratic_k3": (lambda d: ci_slope_quadratic(d, SIDE1_M0, 3, 0.05), _K),
    "intercept_statistic_c0": (lambda d: intercept_statistic(d, _C0, 1.0), _C1),
    "ci_intercept_c0": (lambda d: ci_intercept(d, _C0, 0.05), _C1),
    "config_coverage16_case2": (lambda d: _config("coverage16", SIDE2_M0), _CASE1),
    "config_degeneracy_case2": (lambda d: _config("degeneracy", SIDE2_M0), _CASE1),
    "config_coverage15_c0": (lambda d: _config("coverage15", _C0, _C0_SPEC), _C1),
    "config_intercept_pivot_c0": (lambda d: _config("normality", _C0, _C0_SPEC,
                                                     pivot="intercept_plugin"), _C1),
    **{f"config_{name}_k3": (lambda d, name=name: _config(name, k=3), _K)
       for name in EXPERIMENTS},
}


@pytest.mark.parametrize("name", list(_REJECTED))
def test_inadmissible_side_info_rejected(name):
    call, match = _REJECTED[name]
    with pytest.raises(ValueError, match=match):
        call(m0_dataset(30, 3))


# Each entry point that takes a critical value z or a hypothesized slope or
# intercept, called with a non-finite one, and the argument it must name.
_NON_FINITE = {
    "ci_slope_plugin_z": (lambda d: ci_slope_plugin(d, SIDE2_M0, z=math.nan), "z"),
    "ci_intercept_z": (lambda d: ci_intercept(d, SIDE2_M0, z=math.inf), "z"),
    "ci_slope_quadratic_z": (lambda d: ci_slope_quadratic(d, SIDE1_M0, 1, z=math.nan), "z"),
    "slope_statistic_beta": (lambda d: slope_statistic(d, SIDE2_M0, math.nan, "studentized"),
                             "beta"),
    "intercept_statistic_alpha": (lambda d: intercept_statistic(d, SIDE2_M0, math.nan), "alpha"),
    "intercept_statistic_beta": (lambda d: intercept_statistic(
        d, SIDE2_M0, 1.0, beta=math.inf, variant="known_slope"), "beta"),
}


@pytest.mark.parametrize("name", list(_NON_FINITE))
def test_non_finite_argument_named(name):
    call, argument = _NON_FINITE[name]
    with pytest.raises(ValueError, match=f"^{argument} must be finite"):
        call(m0_dataset(30, 3))


# Entry points given a finite but huge critical value or hypothesized
# slope or intercept, and the result that overflows.
_HUGE = {
    "intercept_statistic_alpha": (lambda d: intercept_statistic(d, SIDE2_M0, 1e308),
                                  "the intercept statistic"),
    "intercept_statistic_beta": (lambda d: intercept_statistic(
        d, SIDE2_M0, 1.0, beta=1e308, variant="known_slope"), "sum of v_i"),
    "ci_slope_plugin_z": (lambda d: ci_slope_plugin(d, SIDE2_M0, z=1e308),
                          "the lower end of the slope_plugin interval"),
    "ci_intercept_z": (lambda d: ci_intercept(d, SIDE2_M0, z=1e308),
                       "the lower end of the intercept interval"),
    "slope_statistic_beta": (lambda d: slope_statistic(
        d, SIDE2_M0, 1e308, "self_normalized_plugin"), "sum of a_i"),
}


@pytest.mark.parametrize("name", list(_HUGE))
def test_overflowing_result_named(name):
    # Under the suite's warning filter an overflow warning would also fail.
    call, result = _HUGE[name]
    with pytest.raises(ValueError, match=rf"^{re.escape(result)} overflows the float range$"):
        call(m0_dataset(30, 3))


def _scaled(s):
    """The underflow rows at scale ``s``.  Under case 2 with theta = mu = 0
    the slope terms are products of two data values, so the sums of their
    squares are subnormal from s = 1e-77 on; the intercept terms keep the
    scale of the data, so theirs are from about s = 1e-155 on."""
    return Dataset(s * np.array([1.0, -0.5, 0.7, 1.2, 0.3]),
                   0.9 * s * np.array([1.1, -0.4, 0.9, 1.0, 0.1]))


_UNDERFLOWING = {
    **{variant: (lambda d, variant=variant: slope_statistic(d, SIDE2_FREE, 1.0, variant), sum_)
       for variant, sum_ in (("studentized", "(a_i - a_bar)^2"), ("self_normalized", "a_i^2"),
                             ("self_normalized_plugin", "a_i(beta_hat)^2"))},
    "ci_slope_plugin": (lambda d: ci_slope_plugin(d, SIDE2_FREE, 0.05), "a_i(beta_hat)^2"),
    "intercept_statistic": (lambda d: intercept_statistic(d, SIDE2_FREE, 0.0), "(v_i - v_bar)^2"),
    "intercept_statistic_known_slope": (lambda d: intercept_statistic(
        d, SIDE2_FREE, 0.0, beta=1.0, variant="known_slope"), "(v_i - v_bar)^2"),
    "ci_intercept": (lambda d: ci_intercept(d, SIDE2_FREE, 0.05), "(v_i - v_bar)^2"),
}


@pytest.mark.parametrize("s", [1e-77, 1e-80, 1e-90, 1e-155])
@pytest.mark.parametrize("name", list(_UNDERFLOWING))
def test_underflowing_normalizer_named(name, s):
    # Subnormal squares have lost bits, and at 1e-90 the slope terms' squares
    # are all zero though no term is: the sum is named, not read as a value
    # or as a zero normalizer.  The intercept sums stay normal down to 1e-90.
    call, sum_ = _UNDERFLOWING[name]
    if s > 1e-155 and sum_ == "(v_i - v_bar)^2":
        call(_scaled(s))
        return
    with pytest.raises(ValueError) as exc:
        call(_scaled(s))
    assert type(exc.value) is ValueError
    assert str(exc.value) == f"sum of {sum_} underflows the float range"


# The values of the calls of _UNDERFLOWING, intervals as (center, lower,
# upper), at scales whose normalizing sums are normal floats.
_NORMAL_SCALE_VALUES = {
    1e-76: [0.5684766437333333, 0.6113595317443431, 0.7580291307840397,
            (1.09186553759302, 0.8543375353162495, 1.3293935398697905),
            0.0939577642144887, 0.07662454835507955,
            (9.353348729792219e-79, -1.8575800580805123e-77, 2.0446470326763567e-77)],
    1e-60: [0.5684766437333333, 0.6113595317443429, 0.75802913078404,
            (1.0918655375930202, 0.8543375353162498, 1.3293935398697907),
            0.09395776421448818, 0.07662454835507908,
            (9.353348729792161e-63, -1.857580058080512e-61, 2.044647032676355e-61)],
}


@pytest.mark.parametrize("s", list(_NORMAL_SCALE_VALUES))
def test_normal_normalizers_keep_their_values(s):
    got = []
    for call, _ in _UNDERFLOWING.values():
        value = call(_scaled(s))
        got.append((value.center, value.lower, value.upper) if hasattr(value, "center")
                   else value)
    assert list(map(repr, got)) == list(map(repr, _NORMAL_SCALE_VALUES[s]))


def test_underflowing_row_fails_alone():
    data = [_scaled(s) for s in (1.0, 1e-80, 1e-60)]
    rows = Rows(np.stack([d.y for d in data]), np.stack([d.x for d in data]))
    values = slope_statistic(rows, SIDE2_FREE, 1.0, "studentized")
    first, error, last = rows.status.errors
    assert first is None and last is None
    assert str(error) == "sum of (a_i - a_bar)^2 underflows the float range"
    assert values[[0, 2], 0].tolist() == [slope_statistic(data[i], SIDE2_FREE, 1.0, "studentized")
                                          for i in (0, 2)]
