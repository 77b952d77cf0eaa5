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
from eivreg.normal import norm_cdf

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

    @pytest.mark.parametrize("n", (1, 2, 3, 10, 1000, 10000))
    def test_matches_the_loop_bit_for_bit(self, n):
        # The reference is the per-pivot loop the array form replaced.  At
        # +-40, Phi rounds to 1 or 0.
        def loop(samples):
            s = np.sort(samples)
            d = 0.0
            for i in range(n):
                phi = norm_cdf(float(s[i]))
                d = max(d, (i + 1) / n - phi, phi - i / n)
            return d

        rng = np.random.default_rng([71, n])
        for z in (rng.standard_normal(n), rng.standard_t(2, n) * 1e3, np.full(n, 40.0),
                  np.full(n, -40.0)):
            d = ks_distance_to_normal(z)
            assert type(d) is float
            assert np.float64(d).tobytes() == np.float64(loop(z)).tobytes()


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


# Each diagnostic and the sum of squares it divides by.
SUMS_OF_SQUARES = {"obrien_ratio": (obrien_ratio, "z^2"),
                   "empirical_bn": (empirical_bn, "(z - z_bar)^2"),
                   "selfnorm_sum": (lambda z: selfnorm_sum(z, 0.0), "(z - a)^2")}


def _tiny(s):
    """Five values of scale ``s``, none of them zero."""
    return 0.9 * s * np.array([1.1, -0.4, 0.9, 1.0, 0.1])


@pytest.mark.parametrize("s", [1e-160, 1e-165])
@pytest.mark.parametrize("name", SUMS_OF_SQUARES)
def test_underflowing_sum_of_squares_named(name, s):
    # The squares are subnormal and have lost bits; at 1e-165 the ratio read
    # "all values are zero" and the normalizer 0.0 before the rule.
    call, sum_ = SUMS_OF_SQUARES[name]
    with pytest.raises(ValueError) as exc:
        call(_tiny(s))
    assert type(exc.value) is ValueError
    assert str(exc.value) == f"sum of {sum_} underflows the float range"


@pytest.mark.parametrize("name, value", [("obrien_ratio", "0.3793103448275862"),
                                         ("empirical_bn", "1.1844492390980714e-150"),
                                         ("selfnorm_sum", "1.5117097795808068")])
def test_normal_sums_of_squares_keep_their_values(name, value):
    # Reprs from before the underflow rule: a sum above 2**-1022 is unchanged.
    assert repr(SUMS_OF_SQUARES[name][0](_tiny(1e-150))) == value


@pytest.mark.parametrize("name", ["obrien_ratio", "selfnorm_sum"])
def test_all_zero_column_is_still_zero_normalizer(name):
    # Its sum is below 2**-1022 too, but no square has lost a bit.
    with pytest.raises(ZeroNormalizer):
        SUMS_OF_SQUARES[name][0](np.zeros(5))


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
