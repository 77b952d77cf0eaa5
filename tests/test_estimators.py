import numpy as np
import pytest

from conftest import PROP_CASES, line_dataset, offline_dataset, random_dataset
from eivreg import (
    Dataset,
    GuardViolation,
    SideInfo,
    XiDistribution,
    estimate,
    naive_ratio_estimates,
    reliability_ratio,
)
from eivreg.estimators import (
    GUARD_SXX_MINUS_THETA,
    GUARD_SXY_MINUS_MU,
    GUARD_SYY_MINUS_LAMBDA_THETA,
)

REL = 1e-10


class TestCase1:
    def test_perfect_line(self):
        est = estimate(line_dataset(), SideInfo.case1(0.0, 0.0, c=1))
        assert est.beta_hat == pytest.approx(2.0, rel=REL)
        assert est.alpha_hat == pytest.approx(1.0, rel=REL)
        assert est.j == 1
        assert est.guards[GUARD_SXY_MINUS_MU] == pytest.approx(4 / 3, rel=REL)
        assert est.guards[GUARD_SYY_MINUS_LAMBDA_THETA] == pytest.approx(8 / 3, rel=REL)

    def test_zero_denominator_guard(self):
        with pytest.raises(GuardViolation) as exc:
            estimate(line_dataset(), SideInfo.case1(0.0, 4 / 3, c=1))
        assert exc.value.guard == GUARD_SXY_MINUS_MU

    def test_nonpositive_numerator_guard(self):
        with pytest.raises(GuardViolation) as exc:
            estimate(line_dataset(), SideInfo.case1(8 / 3, 0.0, c=1))
        assert exc.value.guard == GUARD_SYY_MINUS_LAMBDA_THETA


class TestCase2:
    def test_perfect_line(self):
        est = estimate(line_dataset(), SideInfo.case2(0.0, 0.0, c=1))
        assert est.beta_hat == pytest.approx(2.0, rel=REL)
        assert est.alpha_hat == pytest.approx(1.0, rel=REL)
        assert est.j == 2

    def test_constant_x_guard(self):
        data = Dataset(y=np.array([1.0, 2.0, 3.0]), x=np.array([1.0, 1.0, 1.0]))
        with pytest.raises(GuardViolation) as exc:
            estimate(data, SideInfo.case2(0.0, 0.0, c=1))
        assert exc.value.guard == GUARD_SXX_MINUS_THETA

    def test_theta_equal_to_sxx_guard(self):
        with pytest.raises(GuardViolation):
            estimate(line_dataset(), SideInfo.case2(2 / 3, 0.0, c=1))

    def test_no_intercept_estimate_when_c0(self):
        est = estimate(line_dataset(), SideInfo.case2(0.0, 0.0, c=0))
        assert est.alpha_hat is None


def test_too_few_observations():
    data = Dataset(y=np.array([1.0]), x=np.array([2.0]))
    with pytest.raises(ValueError):
        estimate(data, SideInfo.case2(0.0, 0.0, c=1))


class TestNaive:
    def test_perfect_line(self):
        naive = naive_ratio_estimates(line_dataset(), c=1)
        assert naive.beta_a == pytest.approx(2.0, rel=REL)
        assert naive.beta_b == pytest.approx(2.0, rel=REL)
        assert naive.alpha_a == pytest.approx(1.0, rel=REL)
        assert naive.alpha_b == pytest.approx(1.0, rel=REL)

    def test_off_line(self):
        naive = naive_ratio_estimates(offline_dataset(), c=1)
        assert naive.beta_b == pytest.approx(2.5, rel=REL)
        assert naive.beta_a == pytest.approx((38 / 9) / (5 / 3), rel=REL)

    def test_constant_x_guard(self):
        data = Dataset(y=np.array([1.0, 2.0, 3.0]), x=np.array([1.0, 1.0, 1.0]))
        with pytest.raises(GuardViolation):
            naive_ratio_estimates(data, c=1)

    def test_c0_has_no_intercepts(self):
        naive = naive_ratio_estimates(line_dataset(), c=0)
        assert naive.alpha_a is None and naive.alpha_b is None


class TestReliabilityRatio:
    def test_infinite_variance_is_one(self):
        assert reliability_ratio(XiDistribution.student_t2(1, 0), 1.0, c=1) == 1.0
        assert reliability_ratio(XiDistribution.symmetric_pareto2(2, 1), 0.3, c=0) == 1.0

    def test_hand_value(self):
        # E xi^2 = 2, E xi = 1, Var eps = 1, c = 1 -> 0.5
        xi = XiDistribution.normal(1.0, 1.0)
        assert reliability_ratio(xi, 1.0, c=1) == pytest.approx(0.5, rel=REL)

    def test_zero_error_variance(self):
        xi = XiDistribution.uniform(0.0, 1.0)
        assert reliability_ratio(xi, 0.0, c=1) == 1.0

    def test_in_unit_interval(self):
        rng = np.random.default_rng(8)
        for _ in range(PROP_CASES):
            xi = XiDistribution.normal(rng.uniform(-5, 5), rng.uniform(0.1, 3))
            k = reliability_ratio(xi, rng.uniform(0, 4), c=int(rng.integers(0, 2)))
            assert 0.0 < k <= 1.0

    def test_negative_var_epsilon_rejected(self):
        with pytest.raises(ValueError):
            reliability_ratio(XiDistribution.normal(0, 1), -1.0, c=1)


def test_prop_ols_representation_identity():
    # With all error moments set to zero, the case 2 estimator is exactly
    # the ordinary least squares slope.
    rng = np.random.default_rng(9)
    side = SideInfo.case2(0.0, 0.0, c=1)
    count = 0
    while count < PROP_CASES:
        data = random_dataset(rng)
        naive = naive_ratio_estimates(data, c=1)
        est = estimate(data, side)
        assert est.beta_hat == naive.beta_b
        count += 1


def test_prop_response_shift_equivariance():
    rng = np.random.default_rng(10)
    for _ in range(PROP_CASES):
        data = random_dataset(rng)
        t = rng.uniform(-20, 20)
        shifted = Dataset(y=data.y + t, x=data.x)
        for side in (SideInfo.case2(0.0, 0.0, c=1), SideInfo.case1(0.0, 0.0, c=1)):
            try:
                est0 = estimate(data, side)
                est1 = estimate(shifted, side)
            except GuardViolation:
                continue
            assert est1.beta_hat == pytest.approx(est0.beta_hat, rel=1e-9, abs=1e-11)
            assert est1.alpha_hat - est0.alpha_hat == pytest.approx(t, rel=1e-9, abs=1e-9)


@pytest.mark.parametrize("kwargs, name", [
    (dict(case=2, mu=0.05, theta=float("nan")), "theta"),
    (dict(case=1, mu=float("inf"), lambda_theta=0.25), "mu"),
    (dict(case=1, mu=0.05, lambda_theta=float("-inf")), "lambda_theta"),
    (dict(case=2, mu=0.05, theta=0.25, lambda_theta=float("nan")), "lambda_theta"),
])
def test_side_info_rejects_non_finite(kwargs, name):
    with pytest.raises(ValueError, match=f"{name} must be finite"):
        SideInfo(**kwargs)


def test_side_info_validation():
    with pytest.raises(ValueError):
        SideInfo(case=3, mu=0.0)
    with pytest.raises(ValueError):
        SideInfo(case=1, mu=0.0)  # lambda_theta missing
    with pytest.raises(ValueError):
        SideInfo(case=2, mu=0.0)  # theta missing
    with pytest.raises(ValueError):
        SideInfo.case1(-0.1, 0.0)
    with pytest.raises(ValueError):
        SideInfo.case2(-0.1, 0.0)
    with pytest.raises(ValueError):
        SideInfo.case2(1.0, 0.0, c=7)
