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
from eivreg import (
    Dataset,
    ExperimentConfig,
    GridSpec,
    GuardViolation,
    SideInfo,
    ZeroNormalizer,
    ci_intercept,
    ci_slope_plugin,
    ci_slope_quadratic,
    estimate,
    grid_invert_ci,
    intercept_residuals,
    intercept_statistic,
    quadratic_pivot,
    slope_residuals,
    slope_statistic,
    z_for_gamma,
)
from eivreg.inference import _squares
from eivreg.montecarlo import EXPERIMENTS

REL = 1e-10
SIDE2_FREE = SideInfo.case2(0.0, 0.0, c=1)
SIDE1_FREE = SideInfo.case1(0.0, 0.0, c=1)


class TestSlopeResiduals:
    def test_perfect_line_known_slope(self):
        r = slope_residuals(line_dataset(), SIDE2_FREE, beta=2.0)
        assert np.allclose(r.terms, 0.0, atol=1e-14)
        assert r.U == pytest.approx(2.0 / 3.0, rel=REL)
        assert r.kind == "known_beta" and r.j == 2

    def test_off_line_known_slope(self):
        r = slope_residuals(offline_dataset(), SIDE2_FREE, beta=2.0)
        assert np.allclose(r.terms, [1 / 3, 0.0, 2 / 3], rtol=REL, atol=1e-14)

    def test_off_line_plugin(self):
        r = slope_residuals(offline_dataset(), SIDE2_FREE)
        assert r.beta_used == pytest.approx(2.5, rel=REL)
        assert np.allclose(r.terms, [-1 / 6, 0.0, 1 / 6], rtol=REL, atol=1e-14)
        assert abs(r.term_mean) <= 1e-10 * np.max(np.abs(r.terms))

    def test_plugin_propagates_guards(self):
        data = Dataset(y=np.array([1.0, 2.0, 3.0]), x=np.ones(3))
        with pytest.raises(GuardViolation):
            slope_residuals(data, SIDE2_FREE)

    def test_case1_terms(self):
        # terms = (s_yy - lambda_theta) - beta*(s_xy - mu)
        data = offline_dataset()
        r = slope_residuals(data, SIDE1_FREE, beta=2.0)
        s_yy = np.array([49, 1, 64]) / 9.0
        s_xy = np.array([7 / 3, 0.0, 8 / 3])
        assert np.allclose(r.terms, s_yy - 2.0 * s_xy, rtol=REL, atol=1e-12)
        assert r.U == pytest.approx(5.0 / 3.0, rel=REL)


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

    def test_prop_numerator_identity(self):
        # sqrt(n)*U*(beta_hat - beta) must equal sqrt(n) times the mean of
        # the known-slope terms, both computed independently.
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
            r = slope_residuals(data, side, beta=beta)
            lhs = math.sqrt(n) * r.U * (est.beta_hat - beta)
            rhs = math.sqrt(n) * r.term_mean
            assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-12)
            done += 1

    def test_prop_plugin_mean_vanishes(self):
        rng = np.random.default_rng(32)
        for i in range(PROP_CASES):
            n = int(rng.integers(5, 80))
            data = m0_dataset(n, (33, i))
            side = SIDE2_M0 if i % 2 == 0 else SIDE1_M0
            try:
                r = slope_residuals(data, side)
            except GuardViolation:
                continue
            assert abs(r.term_mean) <= 1e-10 * max(np.max(np.abs(r.terms)), 1e-300)


class TestInterceptResiduals:
    def test_perfect_line_known_values(self):
        r = intercept_residuals(line_dataset(), SIDE2_FREE, beta=2.0, alpha=1.0)
        assert np.allclose(r.terms, 0.0, atol=1e-14)

    def test_requires_unknown_intercept(self):
        side = SideInfo.case2(0.0, 0.0, c=0)
        with pytest.raises(ValueError):
            intercept_residuals(line_dataset(), side, beta=2.0, alpha=1.0)

    def test_mixed_known_arguments_rejected(self):
        with pytest.raises(ValueError):
            intercept_residuals(line_dataset(), SIDE2_FREE, beta=2.0)

    def test_plugin_matches_direct_recomputation(self):
        data = m0_dataset(40, 77)
        r = intercept_residuals(data, SIDE2_M0)
        # Plain numpy recomputation from the definitions.
        y, x = data.y, data.x
        dx, dy = x - x.mean(), y - y.mean()
        S_xy, S_xx = np.mean(dx * dy), np.mean(dx * dx)
        U = S_xx - 0.25
        beta2 = (S_xy - 0.05) / U
        u_t = (dx * dy - 0.05) - beta2 * (dx * dx - 0.25)
        expect = y - beta2 * x - (x.mean() / U) * u_t
        assert np.allclose(r.terms, expect, rtol=1e-9, atol=1e-12)
        centered = r.terms - r.term_mean
        assert np.allclose(centered, expect - expect.mean(), rtol=1e-9, atol=1e-12)

    def test_prop_centered_terms_shift_invariant(self):
        # Shifting every response and recomputing leaves the centered
        # plug-in terms unchanged.
        rng = np.random.default_rng(35)
        done, i = 0, 0
        while done < PROP_CASES:
            i += 1
            data = m0_dataset(int(rng.integers(5, 50)), (36, i))
            t = float(rng.uniform(-30, 30))
            shifted = Dataset(y=data.y + t, x=data.x)
            try:
                r0 = intercept_residuals(data, SIDE2_M0)
                r1 = intercept_residuals(shifted, SIDE2_M0)
            except GuardViolation:
                continue
            c0 = r0.terms - r0.term_mean
            c1 = r1.terms - r1.term_mean
            scale = max(np.max(np.abs(c0)), 1e-12)
            assert np.max(np.abs(c0 - c1)) <= 1e-9 * max(scale, abs(t))
            done += 1

    def test_prop_alpha_constant_cancels(self):
        # Using any constant for the unknown intercept changes the raw
        # terms by that constant only; centered sums are unaffected.
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
            plug = intercept_residuals(data, SIDE2_M0)
            known = intercept_residuals(data, SIDE2_M0, beta=est.beta_hat, alpha=a)
            s_plug = np.sum((plug.terms - np.mean(plug.terms)) ** 2)
            s_known = np.sum((known.terms - np.mean(known.terms)) ** 2)
            assert s_known == pytest.approx(s_plug, rel=1e-8, abs=1e-12)
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
    def _scaled(scale):
        y = scale * np.array([1.0, -0.5, 0.7, 1.2, 0.3])
        return Dataset(y=y, x=0.9 * scale * np.array([1.1, -0.4, 0.9, 1.0, 0.1]))

    @pytest.mark.parametrize("scale, message", [
        (1e77, "the leading coefficient of the inversion quadratic overflows"),
        (1e60, "the inversion quadratic overflows"),
    ])
    def test_coefficient_overflow_named(self, scale, message):
        # Every sum stays finite; f*U^2 (1e77) or the Gram determinant of
        # the discriminant (1e60) leaves the float range.
        with pytest.raises(ValueError, match=f"^{message} the float range$"):
            ci_slope_quadratic(self._scaled(scale), SIDE1_FREE, 1, 0.05)

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
            gi = grid_invert_ci(data, SIDE1_M0, k, 0.05)
            assert len(gi.intervals) == 1 and not gi.unbounded
            lo, hi = gi.intervals[0]
            assert ci.lower == pytest.approx(lo, rel=1e-6)
            assert ci.upper == pytest.approx(hi, rel=1e-6)

    def test_pivot_at_endpoints_equals_z(self):
        data = m0_dataset(50, 7)
        z = z_for_gamma(0.05)
        for k in (1, 2):
            ci = ci_slope_quadratic(data, SIDE1_M0, k, 0.05)
            variant = ("studentized", "self_normalized")[k - 1]
            for endpoint in (ci.lower, ci.upper):
                pivot = quadratic_pivot(data, SIDE1_M0, k, endpoint)
                assert abs(pivot - z) < 1e-9
                # The quadratic pivots are the slope pivots at a known slope.
                assert pivot == pytest.approx(
                    abs(slope_statistic(data, SIDE1_M0, endpoint, variant)), rel=1e-12)

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
                assert quadratic_pivot(data, SIDE1_M0, k, inside) <= z * (1 + 1e-9)
            for outside in (ci.lower - 0.05 * width - 1e-9,
                            ci.upper + 0.05 * width + 1e-9):
                assert quadratic_pivot(data, SIDE1_M0, k, outside) > z * (1 - 1e-9)


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
    def test_zero_z_singleton(self):
        gi = grid_invert_ci(offline_dataset(), SIDE1_FREE, 1, z=0.0)
        est = estimate(offline_dataset(), SIDE1_FREE)
        assert gi.intervals == ((est.beta_hat, est.beta_hat),)

    def test_explicit_grid(self):
        data = m0_dataset(50, 7)
        ci = ci_slope_quadratic(data, SIDE1_M0, 1, 0.05)
        spec = GridSpec(lo=ci.lower - 1.0, hi=ci.upper + 1.0, step=1e-3)
        gi = grid_invert_ci(data, SIDE1_M0, 1, 0.05, grid=spec)
        assert len(gi.intervals) == 1
        lo, hi = gi.intervals[0]
        assert lo == pytest.approx(ci.lower, rel=1e-6)
        assert hi == pytest.approx(ci.upper, rel=1e-6)

    def test_grid_spec_validation(self):
        with pytest.raises(ValueError):
            GridSpec(lo=1.0, hi=0.0, step=0.1)
        with pytest.raises(ValueError):
            GridSpec(lo=0.0, hi=1.0, step=0.0)
        with pytest.raises(ValueError):
            GridSpec(lo=0.0, hi=1.0, step=2.0)

    @pytest.mark.parametrize("name", ["lo", "hi", "step"])
    def test_grid_spec_rejects_non_finite(self, name):
        bounds = dict(lo=0.0, hi=1.0, step=0.1)
        bounds[name] = math.inf if name == "hi" else math.nan
        with pytest.raises(ValueError, match=f"^{name} must be finite"):
            GridSpec(**bounds)

    def test_degenerate_region_reported_unbounded(self):
        # Past the leading-coefficient threshold the acceptance region is
        # unbounded; the inversion must say so rather than fake an interval.
        z = math.sqrt(150.0 / 38.0) * 1.2
        gi = grid_invert_ci(offline_dataset(), SIDE1_FREE, 1, z=z, max_expansions=3)
        assert gi.unbounded



_C0 = SideInfo.case2(0.25, 0.05, c=0)
_C0_SPEC = dataclasses.replace(M0_SPEC, c=0, alpha=0.0)
_CASE1 = "quadratic slope pivots require case 1 side info"
_K = "k must be 1 or 2"
_C1 = r"requires the unknown-intercept model \(c = 1\)"


def _config(experiment, side=SIDE1_M0, spec=M0_SPEC, **kw):
    return ExperimentConfig(spec=spec, side=side, experiment=experiment, n_values=(10,),
                            replications=2, gamma=0.05, seed=1, **kw)


# Each entry point of a quadratic pivot or of intercept inference, and each
# experiment, with a side info or k it must refuse and the rule it breaks.
_REJECTED = {
    "ci_slope_quadratic_case2": (lambda d: ci_slope_quadratic(d, SIDE2_M0, 1, 0.05), _CASE1),
    "ci_slope_quadratic_k3": (lambda d: ci_slope_quadratic(d, SIDE1_M0, 3, 0.05), _K),
    "quadratic_pivot_case2": (lambda d: quadratic_pivot(d, SIDE2_M0, 1, 2.0), _CASE1),
    "quadratic_pivot_k3": (lambda d: quadratic_pivot(d, SIDE1_M0, 3, 2.0), _K),
    "grid_invert_ci_case2": (lambda d: grid_invert_ci(d, SIDE2_M0, 1, 0.05), _CASE1),
    "grid_invert_ci_k3": (lambda d: grid_invert_ci(d, SIDE1_M0, 3, 0.05), _K),
    "intercept_residuals_c0": (lambda d: intercept_residuals(d, _C0), _C1),
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
    "grid_invert_ci_z": (lambda d: grid_invert_ci(d, SIDE1_M0, 1, z=math.nan), "z"),
    "slope_statistic_beta": (lambda d: slope_statistic(d, SIDE2_M0, math.nan, "studentized"),
                             "beta"),
    "quadratic_pivot_beta": (lambda d: quadratic_pivot(d, SIDE1_M0, 2, -math.inf), "beta"),
    "intercept_statistic_alpha": (lambda d: intercept_statistic(d, SIDE2_M0, math.nan), "alpha"),
    "intercept_statistic_beta": (lambda d: intercept_statistic(
        d, SIDE2_M0, 1.0, beta=math.inf, variant="known_slope"), "beta"),
    "slope_residuals_beta": (lambda d: slope_residuals(d, SIDE2_M0, beta=math.nan), "beta"),
    "intercept_residuals_beta": (lambda d: intercept_residuals(
        d, SIDE2_M0, beta=math.nan, alpha=1.0), "beta"),
    "intercept_residuals_alpha": (lambda d: intercept_residuals(
        d, SIDE2_M0, beta=2.0, alpha=-math.inf), "alpha"),
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
    "slope_residuals_beta": (lambda d: slope_residuals(d, SIDE2_M0, beta=1e308), "sum of a_i"),
    "intercept_residuals_beta": (lambda d: intercept_residuals(
        d, SIDE2_M0, beta=1e308, alpha=1.0), "sum of v_i"),
    "slope_statistic_beta": (lambda d: slope_statistic(
        d, SIDE2_M0, 1e308, "self_normalized_plugin"), "sum of a_i"),
}


@pytest.mark.parametrize("name", list(_HUGE))
def test_overflowing_result_named(name):
    # Under the suite's warning filter an overflow warning would also fail.
    call, result = _HUGE[name]
    with pytest.raises(ValueError, match=rf"^{re.escape(result)} overflows the float range$"):
        call(m0_dataset(30, 3))



def test_quadratic_squares_are_python_float_powers():
    # f*U**2 and beta1**2 keep the bits of Python's float ** (the C pow),
    # which differ from U*U on some inputs, row by row; a row where either
    # square overflows gets inf in both, as the OverflowError handler of the
    # one-sample code did.
    rng = np.random.default_rng(8)
    U = rng.standard_normal(20000) * np.exp(rng.uniform(-300, 300, 20000))
    beta1 = rng.standard_normal(20000) * np.exp(rng.uniform(-30, 30, 20000))
    U[:2], beta1[2:4] = [1e200, -1e160], [1e155, -2e300]
    f = 37 * 36
    fu2, beta1_sq = _squares(f, U[:, None], beta1[:, None])
    want_fu2, want_sq = [], []
    for u, b in zip(U.tolist(), beta1.tolist()):
        try:
            pair = f * u ** 2, b ** 2
        except OverflowError:
            pair = math.inf, math.inf
        want_fu2.append(pair[0])
        want_sq.append(pair[1])
    assert fu2.shape == beta1_sq.shape == (20000, 1)
    assert fu2.ravel().tolist() == want_fu2 and beta1_sq.ravel().tolist() == want_sq
    assert np.isinf(fu2[:4]).all() and np.isinf(beta1_sq[:4]).all()
    # The case this helper exists for: C pow and U*U disagree on some rows.
    finite = U[4:]
    assert (finite * finite != np.array([u ** 2 for u in finite.tolist()])).any()
