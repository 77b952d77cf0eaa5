import dataclasses
import itertools
import math

import numpy as np
import pytest

from conftest import M0_SPEC, SIDE2_M0, PROP_CASES
from eivreg import (
    Dataset,
    ErrorSpec,
    ModelSpec,
    XiDistribution,
    estimate,
    philox_keys,
    sample_errors,
    sample_xi,
    simulate_dataset,
    substream,
)
from eivreg.samplers import ROLE_ERRORS, ROLE_XI, XI_FAMILIES, _philox_generator, _reset


class TestXiDistribution:
    def test_var_finite_flags(self):
        assert XiDistribution.normal(0, 1).var_finite
        assert XiDistribution.uniform(0, 1).var_finite
        assert XiDistribution.centered_exponential(2.0).var_finite
        assert not XiDistribution.student_t2(1, 0).var_finite
        assert not XiDistribution.symmetric_pareto2(1, 0).var_finite

    def test_degenerate_rejected(self):
        with pytest.raises(ValueError):
            XiDistribution.normal(0, 0.0)
        with pytest.raises(ValueError):
            XiDistribution.uniform(1.0, 1.0)
        with pytest.raises(ValueError):
            XiDistribution.centered_exponential(0.0)
        with pytest.raises(ValueError):
            XiDistribution.student_t2(0.0, 0.0)
        with pytest.raises(ValueError):
            XiDistribution.symmetric_pareto2(-1.0, 0.0)
        with pytest.raises(ValueError):
            XiDistribution("cauchy", (1.0,))

    @pytest.mark.parametrize("family, params, name", [
        ("normal", [0.0, None], "sd"),
        ("uniform", [None, 1.0], "a"),
        ("centered_exponential", [None], "rate"),
        ("student_t2", [1.0, None], "shift"),
        ("symmetric_pareto2", [None, 0.0], "scale"),
    ])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_parameter_rejected(self, family, params, name, value):
        params = tuple(value if p is None else p for p in params)
        with pytest.raises(ValueError, match=f"^{name} must be finite, got {value!r}$"):
            XiDistribution(family, params)

    def test_population_moments(self):
        assert XiDistribution.normal(2, 3).variance == 9.0
        assert XiDistribution.uniform(0, 6).variance == 3.0
        assert XiDistribution.centered_exponential(2.0).variance == 0.25
        assert XiDistribution.student_t2(1, 0).variance is None
        assert XiDistribution.normal(1, 1).second_moment == 2.0


class TestErrorSpec:
    def test_positive_definite_required(self):
        with pytest.raises(ValueError):
            ErrorSpec(lambda_theta=1.0, theta=1.0, mu=1.0)
        with pytest.raises(ValueError):
            ErrorSpec(lambda_theta=1.0, theta=1.0, mu=-1.5)
        with pytest.raises(ValueError):
            ErrorSpec(lambda_theta=0.0, theta=1.0, mu=0.0)

    @pytest.mark.parametrize("name", ["lambda_theta", "theta", "mu"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_parameter_rejected(self, name, value):
        kwargs = {"lambda_theta": 1.0, "theta": 1.0, "mu": 0.0, name: value}
        with pytest.raises(ValueError, match=f"^{name} must be finite, got {value!r}$"):
            ErrorSpec(**kwargs)

    def test_unknown_base_rejected(self):
        with pytest.raises(ValueError):
            ErrorSpec(lambda_theta=1.0, theta=1.0, mu=0.0, base="laplace")


@pytest.mark.parametrize("name, value", [("beta", math.nan), ("alpha", math.inf),
                                         ("beta", -math.inf)])
def test_model_spec_rejects_non_finite(name, value):
    with pytest.raises(ValueError, match=f"^{name} must be finite"):
        dataclasses.replace(M0_SPEC, **{name: value})


def test_model_spec_alpha_zero_when_no_intercept():
    xi = XiDistribution.normal(0, 1)
    err = ErrorSpec(1.0, 1.0, 0.0)
    with pytest.raises(ValueError):
        ModelSpec(beta=1.0, alpha=0.5, c=0, xi=xi, err=err)
    ModelSpec(beta=1.0, alpha=0.0, c=0, xi=xi, err=err)


def test_sample_xi_seeded_mean():
    n = 10 ** 6
    draws = sample_xi(XiDistribution.normal(0, 1), n, substream(1))
    assert abs(np.mean(draws)) <= 4.0 / math.sqrt(n)


def test_sample_xi_pareto_support():
    draws = sample_xi(XiDistribution.symmetric_pareto2(1.0, 0.0), 20000, substream(4))
    assert np.min(np.abs(draws)) >= 1.0


def test_sample_xi_needs_positive_n():
    with pytest.raises(ValueError):
        sample_xi(XiDistribution.normal(0, 1), 0, substream(0))


@pytest.mark.parametrize("dist, fourth_central", [
    (XiDistribution.normal(0.5, 1.3), 3 * 1.3 ** 4),
    (XiDistribution.uniform(-1.0, 3.0), 4.0 ** 4 / 80.0),
    (XiDistribution.centered_exponential(0.8), 9.0 / 0.8 ** 4),
])
def test_finite_variance_families_match_moments(dist, fourth_central):
    n = 10 ** 6
    draws = sample_xi(dist, n, substream(17))
    var = dist.variance
    se = math.sqrt((fourth_central - var ** 2) / n)
    assert abs(np.var(draws) - var) <= 5.0 * se


@pytest.mark.parametrize("dist", [
    XiDistribution.student_t2(1.0, 0.0),
    XiDistribution.symmetric_pareto2(1.0, 0.0),
])
def test_heavy_tail_running_variance_grows(dist):
    # Empirical proxy for an infinite variance: the running sample variance
    # keeps climbing with n, in median over seeds.
    sizes = (10 ** 3, 10 ** 4, 10 ** 5)
    medians = []
    for n in sizes:
        variances = [np.var(sample_xi(dist, n, substream(seed, 0))) for seed in range(50)]
        medians.append(np.median(variances))
    assert medians[0] <= medians[1] <= medians[2]


def test_sample_errors_seeded_covariance():
    n = 10 ** 6
    err = ErrorSpec(lambda_theta=1.0, theta=1.0, mu=0.0)
    delta, epsilon = sample_errors(err, n, substream(2))
    cov = np.cov(np.vstack([delta, epsilon]), bias=True)
    assert abs(cov[0, 0] - 1.0) < 0.01
    assert abs(cov[1, 1] - 1.0) < 0.01
    assert abs(cov[0, 1] - 0.0) < 0.01


def test_sample_errors_correlated_covariance():
    n = 10 ** 6
    err = ErrorSpec(lambda_theta=0.5, theta=2.0, mu=-0.6, base="scaled_uniform")
    delta, epsilon = sample_errors(err, n, substream(12))
    cov = np.cov(np.vstack([delta, epsilon]), bias=True)
    assert abs(cov[0, 0] - 0.5) < 0.01
    assert abs(cov[1, 1] - 2.0) < 0.02
    assert abs(cov[0, 1] + 0.6) < 0.01


def test_scaled_uniform_delta_bound():
    err = ErrorSpec(lambda_theta=0.7, theta=1.1, mu=0.4, base="scaled_uniform")
    delta, _ = sample_errors(err, 200000, substream(3))
    bound = math.sqrt(3 * 0.7) * (1 + abs(0.4) / math.sqrt(0.7 * 1.1))
    assert np.max(np.abs(delta)) <= bound


class TestSimulate:
    def test_bit_identical_replay(self):
        a = simulate_dataset(M0_SPEC, 200, 123)
        b = simulate_dataset(M0_SPEC, 200, 123)
        assert np.array_equal(a.y, b.y) and np.array_equal(a.x, b.x)
        assert np.array_equal(a.latent.xi, b.latent.xi)
        assert np.array_equal(a.latent.delta, b.latent.delta)
        assert np.array_equal(a.latent.epsilon, b.latent.epsilon)

    def test_error_spec_does_not_touch_xi_stream(self):
        a = simulate_dataset(M0_SPEC, 300, 7)
        other = ModelSpec(beta=M0_SPEC.beta, alpha=M0_SPEC.alpha, c=1, xi=M0_SPEC.xi,
                          err=ErrorSpec(1.5, 2.5, -0.9, base="scaled_uniform"))
        b = simulate_dataset(other, 300, 7)
        assert np.array_equal(a.latent.xi, b.latent.xi)
        assert not np.array_equal(a.latent.epsilon, b.latent.epsilon)

    def test_latent_residual_identities_exact(self):
        data = simulate_dataset(M0_SPEC, 500, 42)
        lat = data.latent
        assert np.array_equal(data.y - M0_SPEC.beta * lat.xi - M0_SPEC.alpha, lat.delta)
        assert np.array_equal(data.x - lat.xi, lat.epsilon)

    def test_seeded_estimate_recovers_slope(self):
        data = simulate_dataset(M0_SPEC, 500, 42)
        est = estimate(data, SIDE2_M0)
        assert abs(est.beta_hat - 2.0) < 0.2

    def test_distinct_seeds_differ(self):
        a = simulate_dataset(M0_SPEC, 50, 0)
        b = simulate_dataset(M0_SPEC, 50, 1)
        assert not np.array_equal(a.y, b.y)

    def test_seed_path_tuples(self):
        a = simulate_dataset(M0_SPEC, 50, (9, 100, 3))
        b = simulate_dataset(M0_SPEC, 50, (9, 100, 3))
        c = simulate_dataset(M0_SPEC, 50, (9, 100, 4))
        assert np.array_equal(a.y, b.y)
        assert not np.array_equal(a.y, c.y)


def test_substream_roles_are_independent_streams():
    r0 = substream(5, 0).standard_normal(10)
    r1 = substream(5, 1).standard_normal(10)
    assert not np.array_equal(r0, r1)
    again = substream(5, 0).standard_normal(10)
    assert np.array_equal(r0, again)


def _seed_sequence_key(seed, n, rep, role):
    return np.random.SeedSequence((seed, n, rep), spawn_key=(role,)).generate_state(2, np.uint64)


@pytest.mark.parametrize("seed", [0, 1, 2 ** 32 - 1, 2 ** 32, 2 ** 70 + 3])
@pytest.mark.parametrize("n", [2, 100, 2 ** 33 + 1])
@pytest.mark.parametrize("role", [ROLE_XI, ROLE_ERRORS])
def test_philox_keys_are_seed_sequence_keys(seed, n, role):
    # The third block crosses the 32-bit word boundary of the rep.
    blocks = ([0, 1, 999, 2 ** 32 - 1], range(998, 1003), range(2 ** 32 - 3, 2 ** 32 + 3),
              [2 ** 64 - 1])
    for reps in blocks:
        keys = philox_keys(seed, n, reps, role)
        assert keys.shape == (len(reps), 2) and keys.dtype == np.uint64
        expected = np.array([_seed_sequence_key(seed, n, rep, role) for rep in reps])
        assert np.array_equal(keys, expected)


@pytest.mark.parametrize("seed", [0, 2 ** 32, 2 ** 70 + 3])
@pytest.mark.parametrize("n", [2, 2 ** 33 + 1])
def test_joint_philox_keys_are_each_roles_keys(seed, n):
    # One call derives every role's keys, roles that take two words
    # included; each role's slice is bitwise its own call's result.
    reps = [0, 1, 999, 2 ** 32 - 1, 2 ** 32, 2 ** 64 - 1]
    roles = (ROLE_XI, ROLE_ERRORS, 2 ** 32 + 7, 5)
    keys = philox_keys(seed, n, reps, roles)
    assert keys.shape == (len(roles), len(reps), 2) and keys.dtype == np.uint64
    for role, role_keys in zip(roles, keys):
        expected = np.array([_seed_sequence_key(seed, n, rep, role) for rep in reps])
        assert np.array_equal(role_keys, expected)
        assert np.array_equal(role_keys, philox_keys(seed, n, reps, role))


def test_philox_keys_reject_negative_words():
    for seed, n, role in ((-1, 10, 0), (1, -10, 0), (1, 10, -1)):
        with pytest.raises(ValueError, match="must be nonnegative"):
            philox_keys(seed, n, [0], role)


def test_philox_keys_never_collide():
    # SeedSequence concatenates the words of seed, n and rep, so two
    # triples whose multi-word values split the same words apart share a
    # key; n stays below 2**32 here, as any n that can be simulated does.
    keys = set()
    count = 0
    for seed, n, role in itertools.product((0, 1, 2, 2 ** 32 - 1, 2 ** 32, 2 ** 70 + 3),
                                           (2, 3, 50, 100, 2000), (ROLE_XI, ROLE_ERRORS)):
        block = philox_keys(seed, n, range(400), role)
        keys.update(map(tuple, block.tolist()))
        count += len(block)
    assert len(keys) == count == 24000


def _dirty_generator():
    # Buffered 32-bit halves and a used-up counter must not survive a reset.
    rng = _philox_generator()
    rng.integers(0, 2, 3)
    rng.random(5)
    return rng


# One distribution of every xi family.
XI_CASES = [XiDistribution.normal(0.5, 2.0), XiDistribution.uniform(-1.0, 3.0),
            XiDistribution.centered_exponential(1.5), XiDistribution.student_t2(1.0, 0.25),
            XiDistribution.symmetric_pareto2(1.0, 0.25)]


def test_xi_cases_cover_every_family():
    assert sorted(dist.family for dist in XI_CASES) == sorted(XI_FAMILIES)


@pytest.mark.parametrize("dist", XI_CASES, ids=[dist.family for dist in XI_CASES])
def test_reset_draws_equal_substream_xi(dist):
    seed, n, rep = 11, 37, 5
    expected = sample_xi(dist, n, substream((seed, n, rep), ROLE_XI))
    for key in (philox_keys(seed, n, [rep], ROLE_XI)[0],
                philox_keys(seed, n, [rep], (ROLE_XI, ROLE_ERRORS))[0, 0]):
        got = sample_xi(dist, n, _reset(_dirty_generator(), key))
        assert np.array_equal(got, expected)


@pytest.mark.parametrize("base", ["gaussian", "scaled_uniform"])
def test_reset_draws_equal_substream_errors(base):
    err = ErrorSpec(lambda_theta=0.5, theta=2.0, mu=-0.6, base=base)
    seed, n, rep = 11, 37, 2 ** 32 + 5
    expected = sample_errors(err, n, substream((seed, n, rep), ROLE_ERRORS))
    for key in (philox_keys(seed, n, [rep], ROLE_ERRORS)[0],
                philox_keys(seed, n, [rep], (ROLE_XI, ROLE_ERRORS))[1, 0]):
        got = sample_errors(err, n, _reset(_dirty_generator(), key))
        assert all(map(np.array_equal, got, expected))


def test_dataset_validation():
    with pytest.raises(ValueError):
        Dataset(y=np.array([1.0, 2.0]), x=np.array([1.0]))
    with pytest.raises(ValueError):
        Dataset(y=np.array([]), x=np.array([]))
    with pytest.raises(ValueError):
        Dataset(y=np.ones((2, 2)), x=np.ones((2, 2)))


@pytest.mark.parametrize("series, bad", [("y", np.nan), ("x", np.inf), ("x", -np.inf)])
def test_dataset_rejects_non_finite(series, bad):
    values = {"y": np.array([1.0, 2.0, 3.0]), "x": np.array([0.0, 1.0, 2.0])}
    values[series][1] = bad
    with pytest.raises(ValueError, match=rf"^{series}\[1\] is not finite"):
        Dataset(**values)


def test_prop_reliability_of_samples():
    # Sampled finite-variance latent series should look like their spec:
    # crude check that sample variances stay within a generous band, run
    # over many small seeds (this is a smoke property, not a moment test).
    rng = np.random.default_rng(20)
    for seed in range(PROP_CASES):
        dist = XiDistribution.normal(float(rng.uniform(-2, 2)), float(rng.uniform(0.5, 2)))
        draws = sample_xi(dist, 400, substream(seed, 2))
        ratio = np.var(draws) / dist.variance
        assert 0.4 < ratio < 2.5
