import math

import numpy as np
import pytest
from scipy import special, stats

from eivreg.normal import norm_cdf, norm_ppf, z_for_gamma


@pytest.mark.parametrize("ps", [
    np.linspace(1e-12, 1 - 1e-12, 40001),
    np.linspace(0.5 - 1e-3, 0.5 + 1e-3, 40001),
], ids=["grid", "median_band"])
def test_ppf_relative_error(ps):
    # Relative error against scipy's ndtri: near p = 0.5 the quantile is
    # close to 0, where an absolute bound would hide a loss of relative
    # accuracy.  Measured: at most 1.0e-15 on the grid and 6.4e-16 within
    # 1e-3 of p = 0.5; the bound is 4e-15.
    ours = np.array([norm_ppf(float(p)) for p in ps])
    ref = special.ndtri(ps)
    assert np.all(np.abs(ours - ref) <= 4e-15 * np.abs(ref))


def test_ppf_tails():
    for p in (1e-300, 1e-30, 1 - 1e-14):
        assert abs(norm_ppf(p) - stats.norm.ppf(p)) < 1e-8 * abs(stats.norm.ppf(p))


def test_cdf_matches_scipy():
    xs = np.linspace(-8, 8, 2001)
    ours = np.array([norm_cdf(float(x)) for x in xs])
    assert np.max(np.abs(ours - stats.norm.cdf(xs))) < 1e-14


def test_cdf_ppf_round_trip():
    for p in np.linspace(0.001, 0.999, 997):
        assert abs(norm_cdf(norm_ppf(float(p))) - p) < 1e-13


@pytest.mark.parametrize("p", [0.0, 1.0, -0.1, 1.1])
def test_ppf_domain(p):
    with pytest.raises(ValueError):
        norm_ppf(p)


def test_z_for_gamma():
    assert z_for_gamma(0.05) == pytest.approx(stats.norm.ppf(0.975), abs=1e-12)
    assert z_for_gamma(0.01) == pytest.approx(stats.norm.ppf(0.995), abs=1e-12)
    for gamma in (0.0, 1.0, -0.5, 2.0):
        with pytest.raises(ValueError):
            z_for_gamma(gamma)


def test_z_for_gamma_below_float_resolution_names_gamma():
    # Below 2**-53, 1 - gamma/2 rounds to 1 and the quantile is undefined.
    assert math.isfinite(z_for_gamma(2.0 ** -52))
    for gamma in (2.0 ** -53, 1e-300):
        with pytest.raises(ValueError, match=f"^gamma must exceed 2\\*\\*-53.*got {gamma!r}$"):
            z_for_gamma(gamma)
