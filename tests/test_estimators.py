import numpy as np
import pytest

from conftest import PROP_CASES, line_dataset, offline_dataset, random_dataset
from eivreg import (
    Dataset,
    GuardViolation,
    SideInfo,
    XiDistribution,
    estimate,
    moment_set,
    naive_ratio_estimates,
    reliability_ratio,
)
from eivreg.estimators import (
    GUARD_SXX_MINUS_THETA,
    GUARD_SXY_MINUS_MU,
    GUARD_SYY_MINUS_LAMBDA_THETA,
    NaiveEstimates,
    estimate_from_moments,
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


# Finite data whose case-2 denominator S_xx - theta is subnormal.
TINY_Y = 1e-150 * np.array([1.0, -0.5, 0.7, 1.2, 0.3])
TINY_X = 1e-150 * np.array([1.1, -0.4, 0.9, 1.0, 0.1])
TINY_THETA = 3.4639999999999653e-301


def test_overflowing_slope_named():
    with pytest.raises(ValueError, match="^beta_hat overflows the float range$"):
        estimate(Dataset(y=TINY_Y, x=TINY_X), SideInfo.case2(TINY_THETA, -1.0, c=1))


@pytest.mark.parametrize("case", [1, 2])
def test_overflowing_guard_value_named(case):
    # S_xy is about 2.5e307, so S_xy - mu overflows.
    data = Dataset(y=np.array([5e153, -5e153]), x=np.array([5e153, -5e153]))
    side = SideInfo(case=case, mu=-1.7e308, lambda_theta=0.0, theta=0.0, c=1)
    with pytest.raises(ValueError, match="^s_xy_minus_mu overflows the float range$"):
        estimate(data, side)


def test_overflowing_intercept_named():
    # S_xy is exactly 0, so the case-1 denominator is -mu = 2**-600 and the
    # slope 2**600; the slope is finite but x_bar * beta_hat is not.
    x = 2.0 ** 500 + 2.0 ** 460 * np.array([1.0, -1.0, 1.0, -1.0])
    data = Dataset(y=np.array([1.0, 1.0, -1.0, -1.0]), x=x)
    side = SideInfo.case1(0.0, -(2.0 ** -600), c=1)
    with pytest.raises(ValueError, match="^alpha_hat overflows the float range$"):
        estimate(data, side)
    assert estimate(data, SideInfo.case1(0.0, -(2.0 ** -600), c=0)).beta_hat > 1e180


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

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_var_epsilon_rejected(self, value):
        with pytest.raises(ValueError, match="^var_epsilon must be finite"):
            reliability_ratio(XiDistribution.normal(0, 1), value, c=1)


def _zero_side_fits(data, c):
    """The case 1 and case 2 modified fits with every error moment zero, or
    the guard the first failing one names."""
    ms = moment_set(data.y, data.x, c)
    try:
        a = estimate_from_moments(ms, SideInfo.case1(0.0, 0.0, c))
        b = estimate_from_moments(ms, SideInfo.case2(0.0, 0.0, c))
    except GuardViolation as exc:
        return exc.guard
    return NaiveEstimates(a.beta_hat, b.beta_hat, a.alpha_hat, b.alpha_hat)


def test_prop_ols_representation_identity():
    # The naive ratio estimators are the modified least squares estimators
    # with all error moments set to zero, guards included; beta_b, the case
    # 2 one, is the ordinary least squares slope.
    rng = np.random.default_rng(9)
    degenerate = [Dataset(y=[1.0, 2.0, 3.0], x=[1.0, 1.0, 1.0]),
                  Dataset(y=[4.0, 4.0, 4.0], x=[1.0, 2.0, 3.0]),
                  Dataset(y=[1e-170, -1e-170, 2e-170, 0.0], x=[1.0, 2.0, 3.0, 4.5])]
    for i in range(PROP_CASES):
        data = degenerate[i % 3] if i % 10 == 0 else random_dataset(rng)
        for c in (0, 1):
            try:
                naive = naive_ratio_estimates(data, c)
            except GuardViolation as exc:
                naive = exc.guard
            assert naive == _zero_side_fits(data, c)


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


@pytest.mark.parametrize("case", [True, 2.0, "1"])
def test_side_info_case_must_be_an_integer(case):
    with pytest.raises(ValueError, match=f"^case must be an integer, got {case!r}$"):
        SideInfo(case=case, mu=0.05, lambda_theta=0.25, theta=0.25)


def test_side_info_stores_int_case_and_flag():
    # NumPy integers and the flags True and 1.0 are stored as ints, so an
    # estimate's j is the int case.
    for c in (True, 1.0, np.int64(1)):
        side = SideInfo(case=np.int64(1), mu=0.0, lambda_theta=0.0, c=c)
        assert (side.case, side.c) == (1, 1) and type(side.case) is type(side.c) is int
        est = estimate(line_dataset(), side)
        assert type(est.j) is int and est.j == 1


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
