from fractions import Fraction

import numpy as np
import pytest

from conftest import PROP_CASES
from eivreg import moment_set

REL = 1e-10


def test_centered_hand_example():
    ms = moment_set(y=[2, 4, 6], x=[1, 2, 3], c=1)
    assert ms.x_bar == pytest.approx(2.0, rel=REL)
    assert ms.y_bar == pytest.approx(4.0, rel=REL)
    assert np.allclose(ms.s_xy, [2.0, 0.0, 2.0], rtol=REL)
    assert ms.S_xy == pytest.approx(4.0 / 3.0, rel=REL)


def test_uncentered_hand_example():
    ms = moment_set(y=[2, 4, 6], x=[1, 2, 3], c=0)
    assert np.allclose(ms.s_xy, [2.0, 8.0, 18.0], rtol=REL)
    assert ms.S_xy == pytest.approx(28.0 / 3.0, rel=REL)


def test_zero_series():
    for c in (0, 1):
        ms = moment_set(y=[5.0, -1.0, 2.0], x=[0.0, 0.0, 0.0], c=c)
        assert ms.S_xy == 0.0
        assert ms.S_xx == 0.0


def test_single_observation_centered_vanishes():
    ms = moment_set(y=[-2.0], x=[3.5], c=1)
    assert ms.S_yy == ms.S_xy == ms.S_xx == 0.0
    assert ms.s_xy[0] == 0.0


def test_s_equals_mean_of_terms():
    rng = np.random.default_rng(1)
    for _ in range(PROP_CASES):
        u = rng.normal(size=rng.integers(1, 30))
        v = rng.normal(size=u.size)
        for c in (0, 1):
            ms = moment_set(y=v, x=u, c=c)
            for S, terms in ((ms.S_yy, ms.s_yy), (ms.S_xy, ms.s_xy), (ms.S_xx, ms.s_xx)):
                assert S == pytest.approx(np.mean(terms), rel=1e-12, abs=1e-15)


def test_input_validation():
    with pytest.raises(ValueError):
        moment_set([1, 2], [1, 2, 3])
    with pytest.raises(ValueError):
        moment_set([], [])
    with pytest.raises(ValueError):
        moment_set([1], [1], c=2)
    with pytest.raises(ValueError):
        moment_set([[1, 2]], [[1, 2]])


def test_prop_shift_invariance():
    rng = np.random.default_rng(2)
    for _ in range(PROP_CASES):
        u = rng.normal(size=rng.integers(2, 25))
        v = rng.normal(size=u.size)
        a, b = rng.uniform(-50, 50, 2)
        s0 = moment_set(y=v, x=u, c=1)
        s1 = moment_set(y=v + b, x=u + a, c=1)
        assert s1.S_xy == pytest.approx(s0.S_xy, rel=1e-9, abs=1e-12)


def test_prop_symmetry():
    rng = np.random.default_rng(3)
    for _ in range(PROP_CASES):
        u = rng.normal(size=rng.integers(1, 25))
        v = rng.normal(size=u.size)
        for c in (0, 1):
            suv = moment_set(y=v, x=u, c=c)
            svu = moment_set(y=u, x=v, c=c)
            assert np.array_equal(suv.s_xy, svu.s_xy)
            assert suv.S_xy == svu.S_xy
            assert suv.S_yy == svu.S_xx


def test_prop_scaling_bilinearity():
    rng = np.random.default_rng(4)
    for _ in range(PROP_CASES):
        u = rng.normal(size=rng.integers(1, 25))
        v = rng.normal(size=u.size)
        a = rng.uniform(-10, 10)
        for c in (0, 1):
            s0 = moment_set(y=v, x=u, c=c)
            s1 = moment_set(y=v, x=a * u, c=c)
            assert np.allclose(s1.s_xy, a * s0.s_xy, rtol=1e-12, atol=1e-13)
            assert s1.S_xy == pytest.approx(a * s0.S_xy, rel=1e-10, abs=1e-13)


def test_prop_cauchy_schwarz():
    rng = np.random.default_rng(5)
    for _ in range(PROP_CASES):
        u = rng.normal(size=rng.integers(2, 25))
        v = rng.normal(size=u.size)
        ms = moment_set(y=v, x=u, c=1)
        suv, suu, svv = ms.S_xy, ms.S_xx, ms.S_yy
        assert suu >= 0.0 and svv >= 0.0
        assert suv ** 2 <= suu * svv * (1 + 1e-12) + 1e-15


def test_prop_exact_rational_oracle():
    # On integer data the whole computation is exact in rationals; the
    # compensated float path must agree to full double precision.
    rng = np.random.default_rng(6)
    for _ in range(PROP_CASES):
        n = int(rng.integers(1, 15))
        u = rng.integers(-50, 50, n)
        v = rng.integers(-50, 50, n)
        for c in (0, 1):
            fu = [Fraction(int(t)) for t in u]
            fv = [Fraction(int(t)) for t in v]
            ub = sum(fu) / n
            vb = sum(fv) / n
            exact = sum((a - c * ub) * (b - c * vb) for a, b in zip(fu, fv)) / n
            got = moment_set(y=v.astype(float), x=u.astype(float), c=c).S_xy
            assert got == pytest.approx(float(exact), rel=1e-14, abs=1e-12)


def test_moment_set_matches_granular_summaries():
    # Each sum of a joint moment set equals the cross sum of its own pair.
    rng = np.random.default_rng(7)
    for _ in range(50):
        y = rng.normal(size=rng.integers(2, 30))
        x = rng.normal(size=y.size)
        for c in (0, 1):
            ms = moment_set(y, x, c=c)
            assert ms.S_yy == moment_set(y, y, c=c).S_xy
            assert ms.S_xy == moment_set(y, x, c=c).S_xy == moment_set(x, y, c=c).S_xy
            assert ms.S_xx == moment_set(x, x, c=c).S_xy


def test_large_magnitude_accuracy():
    # Compensated sums keep the mean stable through catastrophic ranges.
    u = np.array([1e16, 3.0, -1e16, 5.0])
    ms = moment_set(y=np.ones_like(u), x=u, c=0)
    assert ms.x_bar == pytest.approx(2.0, rel=1e-12)
    assert ms.S_xy == pytest.approx(2.0, rel=1e-12)
