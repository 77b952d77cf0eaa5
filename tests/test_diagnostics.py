import math
import re

import numpy as np
import pytest
from scipy import stats

from conftest import PROP_CASES
from eivreg import (
    XiDistribution,
    ZeroNormalizer,
    empirical_bn,
    ks_distance_to_normal,
    obrien_ratio,
    sample_xi,
    selfnorm_sum,
    substream,
)

REL = 1e-10


class TestObrienRatio:
    def test_hand_value(self):
        assert obrien_ratio([3.0, 4.0]) == pytest.approx(0.64, rel=REL)

    def test_constant_series(self):
        for n in (1, 2, 7, 50):
            assert obrien_ratio([2.5] * n) == pytest.approx(1.0 / n, rel=REL)

    def test_single_element(self):
        assert obrien_ratio([-3.0]) == 1.0

    def test_all_zero_rejected(self):
        with pytest.raises(ValueError):
            obrien_ratio([0.0, 0.0])

    def test_prop_scale_invariance_and_range(self):
        rng = np.random.default_rng(60)
        for _ in range(PROP_CASES):
            z = rng.normal(size=rng.integers(1, 40))
            a = rng.uniform(0.1, 50) * (1 if rng.random() < 0.5 else -1)
            r = obrien_ratio(z)
            assert 0.0 < r <= 1.0
            assert obrien_ratio(a * z) == pytest.approx(r, rel=1e-12)


class TestEmpiricalBn:
    def test_hand_value(self):
        assert empirical_bn([0.0, 2.0]) == pytest.approx(math.sqrt(2.0), rel=REL)

    def test_constant_series(self):
        assert empirical_bn([5.0, 5.0, 5.0]) == 0.0

    def test_needs_two_points(self):
        with pytest.raises(ValueError):
            empirical_bn([1.0])

    def test_prop_homogeneity(self):
        rng = np.random.default_rng(61)
        for _ in range(PROP_CASES):
            z = rng.normal(size=rng.integers(2, 40))
            a = rng.uniform(-20, 20)
            assert empirical_bn(a * z) == pytest.approx(abs(a) * empirical_bn(z),
                                                        rel=1e-10, abs=1e-12)


class TestSelfnormSum:
    def test_hand_value(self):
        assert selfnorm_sum([0.0, 2.0], 1.0) == 0.0

    def test_degenerate_rejected(self):
        with pytest.raises(ValueError):
            selfnorm_sum([1.0, 1.0], 1.0)

    def test_prop_antisymmetry_and_bound(self):
        rng = np.random.default_rng(62)
        for _ in range(PROP_CASES):
            n = int(rng.integers(2, 40))
            z = rng.normal(size=n)
            a = float(rng.uniform(-3, 3))
            if np.all(z == a):
                continue
            s = selfnorm_sum(z, a)
            assert abs(s) <= math.sqrt(n) + 1e-12
            mirrored = 2 * a - z  # negates z - a
            assert selfnorm_sum(mirrored, a) == pytest.approx(-s, rel=1e-10, abs=1e-12)


class TestKsDistance:
    def test_single_sample_at_zero(self):
        assert ks_distance_to_normal([0.0]) == pytest.approx(0.5, rel=REL)

    def test_stairstep_quantiles(self):
        for n in (10, 100, 1000):
            samples = stats.norm.ppf((np.arange(1, n + 1) - 0.5) / n)
            assert ks_distance_to_normal(samples) <= 0.5 / n + 1e-9

    def test_non_finite_sample_rejected(self):
        for bad in (float("nan"), float("inf")):
            with pytest.raises(ValueError, match=r"samples\[1\] is not finite"):
                ks_distance_to_normal([0.1, bad, -0.3])

    def test_gross_shift(self):
        samples = np.linspace(-1, 1, 20) + 10.0
        assert ks_distance_to_normal(samples) > 0.9

    def test_prop_matches_scipy_and_is_reorder_invariant(self):
        rng = np.random.default_rng(63)
        for _ in range(PROP_CASES):
            z = rng.normal(size=rng.integers(1, 60))
            d = ks_distance_to_normal(z)
            assert 0.0 <= d <= 1.0
            assert d == pytest.approx(stats.kstest(z, "norm").statistic,
                                      rel=1e-12, abs=1e-14)
            shuffled = rng.permutation(z)
            assert ks_distance_to_normal(shuffled) == d


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("call, message", [
    (lambda v: obrien_ratio([1.0, v, 2.0]), r"^z\[1\] is not finite"),
    (lambda v: empirical_bn([1.0, v, 2.0]), r"^z\[1\] is not finite"),
    (lambda v: empirical_bn(np.resize([1.0, v, 2.0], 2000)), r"^z\[1\] is not finite"),
    (lambda v: selfnorm_sum([1.0, v, 2.0], 0.5), r"^z\[1\] is not finite"),
    (lambda v: selfnorm_sum([1.0, 2.0], v), "^a must be finite"),
], ids=["obrien_ratio", "empirical_bn", "empirical_bn_long", "selfnorm_sum_z", "selfnorm_sum_a"])
def test_non_finite_input_rejected(call, message, bad):
    with pytest.raises(ValueError, match=message):
        call(bad)


def test_empirical_bn_overflow_names_the_sum():
    # Finite entries: only the sum leaves the float range.
    with pytest.raises(ValueError, match="^sum of z overflows"):
        empirical_bn([1e308, 1e308, 0.0])


@pytest.mark.parametrize("call, name", [
    (lambda: empirical_bn([1e200, -1e200]), "(z - z_bar)^2"),
    (lambda: obrien_ratio([1e200, 1.0]), "z^2"),
    (lambda: selfnorm_sum([1e200, -1e200], 0.0), "(z - a)^2"),
    (lambda: selfnorm_sum([1e308, -1e308], -1e308), "(z - a)^2"),
], ids=["empirical_bn", "obrien_ratio", "selfnorm_sum", "selfnorm_sum_difference"])
def test_squares_overflow_names_the_sum(call, name):
    # Finite entries whose squares leave the float range; under the suite's
    # warning filter an overflow warning would fail the test too.
    with pytest.raises(ValueError, match=rf"^sum of {re.escape(name)} overflows the float range$"):
        call()


@pytest.mark.parametrize("call", [lambda: obrien_ratio([0.0, 0.0]),
                                  lambda: selfnorm_sum([2.0, 2.0], 2.0)],
                         ids=["obrien_ratio", "selfnorm_sum"])
def test_undefined_statistic_is_zero_normalizer(call):
    # Still a ValueError for existing callers; the CLI maps it to exit 3.
    with pytest.raises(ZeroNormalizer):
        call()


@pytest.mark.parametrize("dist", [
    XiDistribution.normal(0, 1),
    XiDistribution.uniform(-1, 1),
    XiDistribution.centered_exponential(1.0),
    XiDistribution.student_t2(1, 0),
    XiDistribution.symmetric_pareto2(1, 0),
])
def test_obrien_median_decreases_with_n(dist):
    # Membership in the normal domain of attraction shows up as the
    # max-over-sum ratio shrinking with the sample size.
    medians = []
    for n in (100, 10000):
        ratios = [obrien_ratio(sample_xi(dist, n, substream(seed, 1)))
                  for seed in range(50)]
        medians.append(np.median(ratios))
    assert medians[1] < medians[0]
