import dataclasses
import itertools
import math
import re

import numpy as np
import pytest

from conftest import M0_SPEC, SIDE2_M0, PROP_CASES
from eivreg import montecarlo
from eivreg import (
    Dataset,
    ErrorSpec,
    ModelSpec,
    XiDistribution,
    ExperimentConfig,
    SideInfo,
    estimate,
    reliability_ratio,
    sample_errors,
    sample_xi,
    simulate_dataset,
    substream,
)
from eivreg.samplers import (ROLE_ERRORS, ROLE_XI, XI_FAMILIES, _philox_generator, _reset,
                             philox_keys)


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
        with pytest.raises(ValueError, match="^uniform needs a < b and a finite b - a$"):
            XiDistribution.uniform(-1e308, 1e308)  # NumPy's uniform rejected this range
        with pytest.raises(ValueError):
            XiDistribution.centered_exponential(0.0)
        with pytest.raises(ValueError):
            XiDistribution.student_t2(0.0, 0.0)
        with pytest.raises(ValueError):
            XiDistribution.symmetric_pareto2(-1.0, 0.0)
        with pytest.raises(ValueError):
            XiDistribution("cauchy", (1.0,))

    @pytest.mark.parametrize("family", [[], {}, None, 1])
    def test_non_string_family_rejected(self, family):
        with pytest.raises(ValueError, match=f"^unknown xi family {re.escape(repr(family))}$"):
            XiDistribution(family, (1.0,))

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

    @pytest.mark.parametrize("dist, moment, name", [
        (XiDistribution.normal(0, 1e200), "variance", "the variance of xi"),
        (XiDistribution.uniform(-1e200, 1e200), "variance", "the variance of xi"),
        (XiDistribution.normal(1e200, 1), "second_moment", "the second moment of xi"),
        (XiDistribution.centered_exponential(1e-170), "variance", "the variance of xi"),
        (XiDistribution.centered_exponential(1e-160), "variance", "the variance of xi"),
    ], ids=["normal_sd", "uniform_width", "normal_mean", "rate_squared_zero",
            "rate_squared_subnormal"])
    def test_population_moment_out_of_float_range_named(self, dist, moment, name):
        # A float power that overflows, a square that underflows to zero
        # and one whose reciprocal is inf all end in the same error, and
        # reliability_ratio, built on these moments, raises it too.
        with pytest.raises(ValueError, match=f"^{name} overflows the float range$"):
            getattr(dist, moment)
        with pytest.raises(ValueError, match=f"^{name} overflows the float range$"):
            reliability_ratio(dist, 1.0, c=1)


class TestErrorSpec:
    def test_positive_definite_required(self):
        with pytest.raises(ValueError):
            ErrorSpec(lambda_theta=1.0, theta=1.0, mu=1.0)
        with pytest.raises(ValueError):
            ErrorSpec(lambda_theta=1.0, theta=1.0, mu=-1.5)
        with pytest.raises(ValueError):
            ErrorSpec(lambda_theta=0.0, theta=1.0, mu=0.0)

    @pytest.mark.parametrize("mu", [1e200, -1e300])
    @pytest.mark.parametrize("variances", [(1.0, 1.0), (1e300, 1e300)])
    def test_mu_square_out_of_float_range_named(self, mu, variances):
        with pytest.raises(ValueError, match=r"^mu\^2 overflows the float range$"):
            ErrorSpec(*variances, mu)

    def test_overflowed_determinant_keeps_its_bits(self):
        # lambda_theta*theta is inf but mu^2 is a float: the spec is built
        # as before, with the same factor.
        err = ErrorSpec(1e300, 1e300, 1e150)
        assert err.cholesky() == (1e150, 1.0, 1e150)

    @pytest.mark.parametrize("name", ["lambda_theta", "theta", "mu"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_parameter_rejected(self, name, value):
        kwargs = {"lambda_theta": 1.0, "theta": 1.0, "mu": 0.0, name: value}
        with pytest.raises(ValueError, match=f"^{name} must be finite, got {value!r}$"):
            ErrorSpec(**kwargs)

    def test_unknown_base_rejected(self):
        with pytest.raises(ValueError):
            ErrorSpec(lambda_theta=1.0, theta=1.0, mu=0.0, base="laplace")

    @pytest.mark.parametrize("base", [{}, [], None])
    def test_non_string_base_rejected(self, base):
        with pytest.raises(ValueError, match=f"^unknown error base {re.escape(repr(base))}$"):
            ErrorSpec(lambda_theta=1.0, theta=1.0, mu=0.0, base=base)


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


@pytest.mark.parametrize("call, name, shown", [
    (lambda: sample_xi(XiDistribution.normal(0, 1), 2.5, substream(0)), "n", "2.5"),
    (lambda: sample_xi(XiDistribution.normal(0, 1), True, substream(0)), "n", "True"),
    (lambda: sample_errors(ErrorSpec(1.0, 1.0, 0.0), "3", substream(0)), "n", "'3'"),
    (lambda: simulate_dataset(M0_SPEC, 2.5, 1), "n", "2.5"),
    (lambda: simulate_dataset(M0_SPEC, 3, 1.5), "seed", "1.5"),
    (lambda: simulate_dataset(M0_SPEC, 3, (1, 2.5)), "seed", "2.5"),
    (lambda: substream(True, ROLE_XI), "seed", "True"),
    (lambda: substream(1, 1.5), "path", "1.5"),
    (lambda: substream(1, ROLE_XI, True), "path", "True"),
    (lambda: philox_keys(0.5, 100, 0, 1), "seed", "0.5"),
    (lambda: philox_keys(False, 100, 0, 1), "seed", "False"),
    (lambda: philox_keys(1, 100.0, 0, 1), "n", "100.0"),
])
def test_sampler_integer_arguments_named(call, name, shown):
    with pytest.raises(ValueError, match=f"^{name} must be an integer, got {re.escape(shown)}$"):
        call()


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
    # Each call derives both roles' keys; this case checks the role's
    # slice.  The third range crosses the 32-bit word boundary of the rep,
    # the last ends at the largest index SeedSequence takes.
    for start, stop in ((0, 5), (998, 1003), (2 ** 32 - 3, 2 ** 32 + 3),
                        (2 ** 64 - 2, 2 ** 64 - 1)):
        keys = philox_keys(seed, n, start, stop)
        assert keys.shape == (2, stop - start, 2) and keys.dtype == np.uint64
        expected = [_seed_sequence_key(seed, n, rep, role) for rep in range(start, stop)]
        assert np.array_equal(keys[role], expected)


def test_philox_keys_reject_negative_words():
    for seed, n in ((-1, 10), (1, -10)):
        with pytest.raises(ValueError, match="must be nonnegative"):
            philox_keys(seed, n, 0, 1)


def test_philox_keys_never_collide():
    # SeedSequence concatenates the words of seed, n and rep, so two
    # triples whose multi-word values split the same words apart share a
    # key; n stays below 2**32 here, as any n that can be simulated does.
    keys = set()
    count = 0
    for seed, n in itertools.product((0, 1, 2, 2 ** 32 - 1, 2 ** 32, 2 ** 70 + 3),
                                     (2, 3, 50, 100, 2000)):
        block = philox_keys(seed, n, 0, 400).reshape(-1, 2)
        keys.update(map(tuple, block.tolist()))
        count += len(block)
    assert len(keys) == count == 24000


def _dirty_generator():
    # Buffered 32-bit halves and a used-up counter must not survive a reset.
    rng = _philox_generator()
    rng.integers(0, 2, 3)
    rng.random(5)
    return rng


# One distribution of every xi family.  No scale or range is a power of two,
# so a transform evaluated in another order changes some bits.
XI_CASES = [XiDistribution.normal(0.3, 1.7), XiDistribution.uniform(-0.7, 2.9),
            XiDistribution.centered_exponential(1.3), XiDistribution.student_t2(1.7, 0.3),
            XiDistribution.symmetric_pareto2(0.7, 0.3)]


def test_xi_cases_cover_every_family():
    assert sorted(dist.family for dist in XI_CASES) == sorted(XI_FAMILIES)


XI_IDS = [dist.family for dist in XI_CASES]
BASES = ["gaussian", "scaled_uniform"]


def _reference_student_t2(p, n, rng):
    z = rng.standard_normal(n)
    w = rng.chisquare(2.0, n)
    return p[1] + p[0] * z / np.sqrt(w / 2.0)


def _reference_symmetric_pareto2(p, n, rng):
    magnitude = p[0] / np.sqrt(1.0 - rng.random(n))
    sign = 2.0 * rng.integers(0, 2, n).astype(float) - 1.0
    return p[1] + sign * magnitude


# Each family's draws as sized NumPy calls, one series at a time: the
# reference that the raw draws and their block transforms must equal.
REFERENCE_XI = {
    "normal": lambda p, n, rng: p[0] + p[1] * rng.standard_normal(n),
    "uniform": lambda p, n, rng: rng.uniform(p[0], p[1], n),
    "centered_exponential": lambda p, n, rng: rng.exponential(1.0 / p[0], n) - 1.0 / p[0],
    "student_t2": _reference_student_t2,
    "symmetric_pareto2": _reference_symmetric_pareto2,
}


def _reference_errors(err, n, rng):
    l11, l21, l22 = err.cholesky()
    if err.base == "gaussian":
        w1, w2 = rng.standard_normal(n), rng.standard_normal(n)
    else:
        half = math.sqrt(3.0)
        w1, w2 = rng.uniform(-half, half, n), rng.uniform(-half, half, n)
    return l11 * w1, l21 * w1 + l22 * w2


def _live_state(rng) -> tuple:
    state = rng.bit_generator.state
    return (state["state"]["counter"].tolist(), state["state"]["key"].tolist(),
            state["buffer"].tolist(), state["buffer_pos"], state["has_uint32"],
            state["uinteger"] if state["has_uint32"] else None)


def _same_state(a, b):
    # The fields NumPy reads, then the next raw, double and 32-bit draws.
    # The stored 32-bit half is read only while has_uint32 is set: after
    # an even number of Pareto-2 sign bits the sized integers call leaves a
    # stale one where the raw words leave none, and no draw can tell.
    return (_live_state(a) == _live_state(b)
            and np.array_equal(a.bit_generator.random_raw(3), b.bit_generator.random_raw(3))
            and np.array_equal(a.random(3), b.random(3))
            and np.array_equal(a.integers(0, 2 ** 32, 3, dtype=np.uint32),
                               b.integers(0, 2 ** 32, 3, dtype=np.uint32)))


@pytest.mark.parametrize("n, reps", [(1, 300), (2, 300), (37, 150), (2000, 12)])
@pytest.mark.parametrize("dist", XI_CASES, ids=XI_IDS)
def test_draws_equal_sized_numpy_calls(dist, n, reps):
    # Bit for bit, with the same end state of the generator, over many keys.
    errs = [ErrorSpec(lambda_theta=0.5, theta=2.0, mu=-0.6, base=base) for base in BASES]
    for rep in range(reps):
        seed = (11, n, rep)
        rng, ref = substream(seed, ROLE_XI), substream(seed, ROLE_XI)
        xi = REFERENCE_XI[dist.family](dist.params, n, ref)
        assert np.array_equal(sample_xi(dist, n, rng), xi) and _same_state(rng, ref)
        for err in errs:
            rng, ref = substream(seed, ROLE_ERRORS), substream(seed, ROLE_ERRORS)
            delta, epsilon = _reference_errors(err, n, ref)
            got = sample_errors(err, n, rng)
            assert np.array_equal(got[0], delta) and np.array_equal(got[1], epsilon)
            assert _same_state(rng, ref)
            spec = ModelSpec(beta=2.0, alpha=1.0, c=1, xi=dist, err=err)
            data = simulate_dataset(spec, n, seed)
            y = spec.beta * xi
            y += spec.alpha
            y += delta
            assert np.array_equal(data.y, y) and np.array_equal(data.x, xi + epsilon)
            assert np.array_equal(data.latent.xi, xi)


class _NoRows:
    """Outcome columns that take any rows and keep none."""

    def __setitem__(self, rows, value):
        pass

    def __getitem__(self, rows):
        return None


def _check_block_rows(monkeypatch, dist, base, n, start, stop):
    """Run replications start..stop-1 through ``_fill`` in sub-blocks of
    at most 7 rows, check each row against the dataset ``simulate_dataset``
    gives its replication, and return the sub-block sizes.  The outcomes
    go to columns that keep none, as indices past 2**32 have no room in a
    run's own."""
    spec = ModelSpec(beta=2.0, alpha=1.0, c=1, xi=dist,
                     err=ErrorSpec(lambda_theta=0.5, theta=2.0, mu=-0.6, base=base))
    config = ExperimentConfig(spec=spec, side=SideInfo.case2(theta=2.0, mu=-0.6, c=1),
                              experiment="coverage14", n_values=(n,), replications=26,
                              gamma=0.05, seed=11)
    blocks = []

    def keep(config, rows):
        blocks.append(rows)
        return np.zeros(len(rows.y), np.int8), np.zeros((len(rows.y), 1))

    monkeypatch.setattr(montecarlo, "_BLOCK_ELEMENTS", 7 * n)
    monkeypatch.setattr(montecarlo, "_MIN_ROWS", 1)
    monkeypatch.setattr(montecarlo, "_evaluate", keep)
    montecarlo._fill(config, n, start, stop, (_NoRows(), _NoRows()))
    y, x, xi = (np.concatenate([getattr(rows, name) for rows in blocks])
                for name in ("y", "x", "xi"))
    for i, rep in enumerate(range(start, stop)):
        data = simulate_dataset(spec, n, (config.seed, n, rep))
        assert np.array_equal(y[i], data.y) and np.array_equal(x[i], data.x)
        assert np.array_equal(xi[i], data.latent.xi)
    return [len(rows.y) for rows in blocks]


@pytest.mark.parametrize("n", [2, 37, 2000])
@pytest.mark.parametrize("base", BASES)
@pytest.mark.parametrize("dist", XI_CASES, ids=XI_IDS)
def test_block_rows_equal_simulate_dataset(monkeypatch, dist, base, n):
    # Replications 3..25 fill three sub-blocks and a partial one.
    assert _check_block_rows(monkeypatch, dist, base, n, 3, 26) == [7, 7, 7, 2]


@pytest.mark.parametrize("base", BASES)
@pytest.mark.parametrize("dist", XI_CASES, ids=XI_IDS)
def test_block_rows_across_the_two_word_rep_boundary(monkeypatch, dist, base):
    # The first two indices take one 32-bit word and the last two take
    # two, so the block's keys come from both word groups.
    assert _check_block_rows(monkeypatch, dist, base, 37, 2 ** 32 - 2, 2 ** 32 + 2) == [4]


@pytest.mark.parametrize("dist", XI_CASES, ids=XI_IDS)
def test_reset_draws_equal_substream_xi(dist):
    seed, n, rep = 11, 37, 5
    expected = sample_xi(dist, n, substream((seed, n, rep), ROLE_XI))
    key = philox_keys(seed, n, rep, rep + 1)[ROLE_XI, 0]
    assert np.array_equal(sample_xi(dist, n, _reset(_dirty_generator(), key)), expected)


@pytest.mark.parametrize("base", BASES)
def test_reset_draws_equal_substream_errors(base):
    err = ErrorSpec(lambda_theta=0.5, theta=2.0, mu=-0.6, base=base)
    seed, n, rep = 11, 37, 2 ** 32 + 5
    expected = sample_errors(err, n, substream((seed, n, rep), ROLE_ERRORS))
    key = philox_keys(seed, n, rep, rep + 1)[ROLE_ERRORS, 0]
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
