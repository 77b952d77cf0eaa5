import ast
import math
import re
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from conftest import PROP_CASES
from eivreg import (Dataset, ErrorSpec, ModelSpec, SideInfo, XiDistribution, ci_slope_plugin,
                    empirical_bn, estimate, ks_distance_to_normal, moment_set, moments,
                    obrien_ratio, reliability_ratio, selfnorm_sum, z_for_gamma)
from eivreg.moments import fsum

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
    # exactly rounded float path must agree to full double precision.
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
    # Exactly rounded sums keep the mean stable through catastrophic ranges.
    u = np.array([1e16, 3.0, -1e16, 5.0])
    ms = moment_set(y=np.ones_like(u), x=u, c=0)
    assert ms.x_bar == pytest.approx(2.0, rel=1e-12)
    assert ms.S_xy == pytest.approx(2.0, rel=1e-12)


@pytest.mark.parametrize("scale, name", [(1e308, "sum of y"), (1e200, "sum of s_yy")])
def test_overflow_names_the_sum(scale, name):
    # Finite data whose sums leave the float range raise instead of turning
    # into inf or NaN; the suite makes any RuntimeWarning an error, so this
    # also checks that no warning leaks.
    # The data (1e308) lie outside fsum's extraction domain and the squares
    # (1e200 squared) are infinite, so at both sizes the sum leaves the
    # range in fsum's math.fsum fallback.
    for n in (4, 2000):
        y = scale * np.resize([1.0, -0.5, 0.7, 1.2], n)
        for c in (0, 1):
            with pytest.raises(ValueError, match=f"{name} overflows"):
                moment_set(y, 0.9 * y, c=c)
        with pytest.raises(ValueError, match=f"{name} overflows"):
            estimate(Dataset(y=y, x=0.9 * y), SideInfo.case2(0.0, 0.0))


@pytest.mark.parametrize("series", ["y", "x"])
@pytest.mark.parametrize("bad, message", [
    (math.nan, r"{}\[1\] is not finite: nan"),
    (math.inf, r"{}\[1\] is not finite: inf"),
    (-math.inf, r"{}\[1\] is not finite: -inf"),
    (1e308, "sum of {} overflows the float range"),  # finite entries
], ids=["nan", "inf", "-inf", "overflow"])
def test_non_finite_input_named(series, bad, message):
    # moment_set scans for a non-finite entry only once a sum of y or x is
    # not finite; a finite series whose sum overflows names the sum.
    for n in (4, 2000):
        values = {"y": np.resize([1.0, -0.5, 0.7, 1.2], n), "x": np.resize([0.3, 1.0, 2.0], n)}
        values[series][1:3] = bad
        for c in (0, 1):
            with pytest.raises(ValueError, match="^" + message.format(series)):
                moment_set(values["y"], values["x"], c=c)


def _messages(status) -> list:
    return [None if error is None else str(error) for error in status.errors]


def test_rows_fail_as_moment_set_fails_each_row_alone():
    # A block leaves the non-finite scan to moment_set: each row fails with
    # the error moment_set raises on that row alone, y before x.  The fifth
    # row's y is finite but its sum overflows, and that is its error even
    # though its x holds a NaN.
    nan, inf = math.nan, math.inf
    y0, x0 = [1.0, -0.5, 0.7, 1.2], [0.3, 1.0, 2.0, 0.4]
    samples = [(y0, x0), ([1.0, nan, inf, 1.2], x0), (y0, [0.3, -inf, 2.0, 0.4]),
               ([-inf, 1.0, inf, 1.0], [nan, 1.0, 1.0, 1.0]), ([1e308] * 4, [0.3, nan, 2.0, 0.4]),
               (y0, [1e308] * 4), ([nan] * 4, [inf] * 4)]
    for c in (0, 1):
        rows = moments.Rows(np.array([y for y, _ in samples]), np.array([x for _, x in samples]))
        assert _messages(rows.status) == [None] * len(samples)
        moment_set(rows.y, rows.x, c, rows.status)
        alone = []
        for y, x in samples:
            try:
                moment_set(np.array(y), np.array(x), c=c)
                alone.append(None)
            except ValueError as exc:
                alone.append(str(exc))
        assert _messages(rows.status) == alone, c
        assert alone[4] == "sum of y overflows the float range"


def test_row_status_keeps_each_rows_first_failure():
    # Each row keeps the first check it failed; a later check neither
    # overwrites it nor builds an error for it.
    built = []

    def error(tag):
        def make(i):
            built.append((tag, i))
            return ValueError(f"{tag} {i}")
        return make

    status = moments.RowStatus(4)
    status.fail(np.array([False, True, False, True]), error("first"))
    status.fail(np.array([[True], [True], [False], [False]]), error("second"))
    status.fail(np.zeros(4, dtype=bool), error("third"))
    status.fail(np.ones((4, 1), dtype=bool), error("fourth"))
    assert _messages(status) == ["second 0", "first 1", "fourth 2", "first 3"]
    assert built == [("first", 1), ("first", 3), ("second", 0), ("fourth", 2)]


def test_raising_status_raises_first_failure_at_once():
    status = moments.RowStatus(1, raising=True)
    status.fail(np.array([[False]]), lambda i: ValueError("passed"))
    with pytest.raises(ValueError, match="^first$"):
        status.fail(np.array([[True]]), lambda i: ValueError("first"))
    assert _messages(status) == ["first"]


def test_row_error_is_built_when_its_check_runs():
    # A row's error holds the values as they were at its check, as the
    # one-sample call's does, whatever the arrays hold later.
    values = np.array([[1.0], [2.0]])
    status = moments.RowStatus(2)
    status.fail(values > 1.5, lambda i: ValueError(f"value {values.item(i)}"))
    one = values[1:].copy()
    values[1] = 99.0
    with pytest.raises(ValueError) as raised:
        moments.RowStatus(1, raising=True).fail(
            one > 1.5, lambda i: ValueError(f"value {one.item(i)}"))
    assert _messages(status) == [None, str(raised.value)] == [None, "value 2.0"]


def _fsum_family(family: str, n: int, rng) -> np.ndarray:
    t = rng.standard_normal(n) / np.sqrt(rng.chisquare(2.0, n) / 2.0)
    if family == "t2_squares":
        return t * t
    if family == "cancellation":
        # +-1e300 pairs that cancel exactly, around Student-t2 values.
        a = 1e300 * rng.standard_normal(n)
        a[1::2] = -a[0::2][: n // 2]
        a[::5] = t[::5]
        return rng.permutation(a)
    if family == "subnormal":
        return rng.integers(-2 ** 20, 2 ** 20, n) * 5e-324
    if family == "signed_zeros":
        return rng.choice([0.0, -0.0, 1.5, -1.5], n)
    if family == "negative_zeros":
        return np.full(n, -0.0)
    if family == "ties":
        # 1 + 2**-53 is a tie that +-2**-106 breaks, among pairs of
        # Student-t2 values that cancel exactly.
        half = max(n - 3, 0) // 2
        a = np.zeros(n)
        a[:3] = [1.0, 2.0 ** -53, rng.choice([-1.0, 1.0]) * 2.0 ** -106][:n]
        a[3:3 + half] = t[:half]
        a[3 + half:3 + 2 * half] = -t[:half]
        return rng.permutation(a)
    if family == "one_binade":
        # Partial sums near n * max|a| test the headroom of each level.
        return rng.uniform(0.5, 1.0, n)
    if family == "scaled_1e290":
        return 1e290 * t
    raise ValueError(family)


def _same(got: float, want: float) -> bool:
    return got == want and math.copysign(1.0, got) == math.copysign(1.0, want)


_FSUM_FAMILIES = ("t2_squares", "cancellation", "subnormal", "signed_zeros",
                  "negative_zeros", "ties", "one_binade", "scaled_1e290")


@pytest.mark.parametrize("n", [1, 2, 50, 1023, 1024, 2000, 200000])
def test_fsum_matches_math_fsum_bitwise(n):
    # fsum promises the bits of math.fsum on every input; a finite float64
    # array of any length is a one-row block of the NumPy extraction.
    rng = np.random.default_rng(n)
    for family in _FSUM_FAMILIES:
        for _ in range(1 if n > 2000 else 20):
            a = _fsum_family(family, n, rng)
            for view in (a, -a, np.repeat(a, 3)[::3]):  # the last is strided
                assert _same(fsum(view), math.fsum(view.tolist())), (family, n)
    if n > 2000:
        return
    # A 2-D array gives its row sums.  Rows of every family share a block of
    # more than 1024 entries, extracted at once with a sigma per row.
    count = max(2 * len(_FSUM_FAMILIES), -(-1024 // n) + 1)
    for _ in range(4 if n <= 50 else 1):
        block = np.stack([_fsum_family(_FSUM_FAMILIES[i % len(_FSUM_FAMILIES)], n, rng)
                          for i in range(count)])
        for view in (block, -block, np.repeat(block, 2, axis=1)[:, ::2]):
            sums = fsum(view)
            assert sums.shape == (count,) and sums.dtype == np.float64
            for got, row in zip(sums.tolist(), view.tolist()):
                assert _same(got, math.fsum(row)), n


_SPECIAL_ROWS = {"zeros": None, "negative_zeros": None, "signed_zeros": None,
                 "subnormal": None, "nan": [math.nan], "inf": [math.inf], "-inf": [-math.inf],
                 "inf_minus_inf": [math.inf, -math.inf], "overflow": [1e308, 1e308],
                 "huge": [3e307, -2e307]}


def _special_row(kind: str, n: int, rng) -> np.ndarray:
    if kind == "zeros":
        return np.zeros(n)
    if kind == "negative_zeros":
        return np.full(n, -0.0)
    if kind == "signed_zeros":
        return rng.choice([0.0, -0.0], n)
    if kind == "subnormal":
        return rng.integers(-2 ** 20, 2 ** 20, n) * 5e-324
    a = rng.standard_normal(n)
    a[:2] = _SPECIAL_ROWS[kind] * (2 // len(_SPECIAL_ROWS[kind]))
    return a


def _fsum_outcome(f, values):
    try:
        return repr(f(values))
    except (ValueError, OverflowError) as exc:
        return type(exc)


@pytest.mark.parametrize("n", [3, 50, 2000])
def test_fsum_rows_special_values_match_math_fsum(n):
    # Zero, NaN, infinite, overflowing, huge (outside the extraction
    # domain, where sigma would overflow) and subnormal rows in a block of
    # ordinary ones: each row gives math.fsum's value, and a row math.fsum
    # raises on makes the block raise the same exception type.
    rng = np.random.default_rng(n)
    ordinary = [rng.standard_normal(n) * 10.0 ** rng.integers(-5, 5)
                for _ in range(max(3, 1024 // n))]
    special = {kind: _special_row(kind, n, rng) for kind in _SPECIAL_ROWS}
    expected = {kind: _fsum_outcome(math.fsum, row.tolist()) for kind, row in special.items()}
    assert sorted(kind for kind, e in expected.items() if isinstance(e, type)) == [
        "inf_minus_inf", "overflow"]
    summed = [row for kind, row in special.items() if not isinstance(expected[kind], type)]
    block = np.stack(ordinary[:2] + summed + ordinary[2:])
    got = fsum(block).tolist()
    assert list(map(repr, got)) == [_fsum_outcome(math.fsum, row) for row in block.tolist()]
    for kind, want in expected.items():
        if isinstance(want, type):
            with pytest.raises(want):
                fsum(np.stack(ordinary[:1] + [special[kind]] + ordinary[1:]))


@pytest.mark.parametrize("specials", [[math.nan], [math.inf], [-math.inf],
                                      [math.inf, -math.inf], [1e308, 1e308]])
@pytest.mark.parametrize("n", [3, 2000])
def test_fsum_special_values_match_math_fsum(specials, n):
    # NaN, infinities and overflowing partial sums keep math.fsum's value
    # or its exception and message.
    a = np.random.default_rng(0).standard_normal(n)
    a[: len(specials)] = specials
    outcomes = []
    for f in (fsum, lambda v: math.fsum(v.tolist())):
        try:
            outcomes.append(repr(f(a)))
        except (ValueError, OverflowError) as exc:
            outcomes.append((type(exc), str(exc)))
    assert outcomes[0] == outcomes[1]


def test_fsum_empty_shapes():
    # An empty row sums to 0.0 and a block without rows to an empty array.
    assert repr(fsum(np.array([]))) == "0.0"
    for shape in ((3, 0), (0, 5), (0, 0)):
        sums = fsum(np.zeros(shape))
        assert sums.shape == (shape[0],) and sums.dtype == np.float64
        assert list(map(repr, sums.tolist())) == ["0.0"] * shape[0]


def _stop(row, monkeypatch):
    """The level at which fsum settles ``row`` alone, and whether the row's
    remainder was all zero by then."""
    zero, real = [], moments._extract_level
    with monkeypatch.context() as patch:
        def counted(r, sigma, q):
            tau = real(r, sigma, q)
            zero.append(not q.any())
            return tau

        patch.setattr(moments, "_extract_level", counted)
        fsum(np.array(row, dtype=float)[None, :])
    return len(zero), zero[-1]


# Rows of n = 6 (L = 3) whose first sigma is 16 or 32: after the first level
# every remainder entry is at most 2**-53 * sigma, and err is 30.0000...
# units of 2**-102 at sigma = 16.  _ERR_GAP lies between err / 2 and err.
_ERR_GAP = 20 * 2.0 ** -102
_STOP_ROWS = {
    # Settled at the first level by the test.
    "one_level": ([3.0, -1.0, 2.0, 0.5, 0.0, 0.0], (1, True)),
    "two_levels": ([1.0, 2.0 ** -60, -0.25, 0.0, 0.0, 0.0], (1, False)),
    "three_levels": ([1.0, 2.0 ** -60, 2.0 ** -130, -3.0, 0.0, 0.0], (1, False)),
    # An exact tie of 1 and 1 + 2**-52 (to even), then the same tie broken
    # by 2**-100: neither can settle while err covers the midpoint, so both
    # go on until their remainder is zero, the second past the level that
    # leaves 2**-200.
    "tie": ([1.0, 2.0 ** -53, 0.0, 0.0, 0.0, 0.0], (2, True)),
    "above_tie": ([1.0, 2.0 ** -53, 2.0 ** -100, 2.0 ** -200, 0.0, 0.0], (3, True)),
    # _ERR_GAP from the midpoint, above it and below it: err reaches the
    # midpoint and err / 2 would not, so these go on to the second level,
    # and would settle at the first with half the bound.
    "err_above": ([1.0, 2.0 ** -53, _ERR_GAP, 0.0, 0.0, 0.0], (2, True)),
    "err_below": ([1.5, 2.0 ** -53, -_ERR_GAP, 0.0, 0.0, 0.0], (2, True)),
    # S_1 = 0 never settles by the test: these go on until the remainder
    # is zero.
    "cancels_to_zero": ([1.0, -1.0, 2.0 ** -60, -(2.0 ** -60), 0.0, -0.0], (2, True)),
    "many_levels": ([1e300, 1.0, -1e300, 2.0 ** -1000, 2.0 ** -130, -0.0], (5, True)),
    # A sum in the subnormal range never settles by the test; this row's
    # first remainder is zero already, so no level follows.
    "subnormal": ([5e-324, -1e-310, 1e-310, 0.0, -0.0, 5e-324], (1, True)),
}


def test_fsum_stop_levels(monkeypatch):
    # A row stops after the first level when tau_1 + t - err and
    # tau_1 + t + err round to the same float, and else at the level where
    # its remainder is all zero.
    for kind, (row, stop) in _STOP_ROWS.items():
        assert _stop(row, monkeypatch) == stop, kind
        assert _same(fsum(np.array(row)), math.fsum(row)), kind


def test_fsum_rows_are_independent(monkeypatch):
    # A block extracts every row at once, with a sigma per row; rows that
    # need more levels than others, and rows outside the extraction domain,
    # leave the other rows' bits alone, sign of zero included.
    tiny, tinier = 2.0 ** -60, 2.0 ** -130
    rows = {
        "one_level": [3.0, -1.0, 2.0, 0.5, 0.0, 0.0],
        "two_levels": [1.0, tiny, -0.25, 0.0, 0.0, 0.0],
        "three_levels": [1.0, tiny, tinier, -3.0, 0.0, 0.0],
        "cancels_to_zero": [1.0, -1.0, tiny, -tiny, 0.0, -0.0],
        "many_levels": [1e300, 1.0, -1e300, 2.0 ** -1000, tinier, -0.0],
        "subnormal": [5e-324, -1e-310, 1e-310, 0.0, -0.0, 5e-324],
        "zeros": [0.0, -0.0, 0.0, 0.0, -0.0, 0.0],
        "negative_zeros": [-0.0] * 6,
        "nan": [1.0, math.nan, 2.0, 0.0, 0.0, 0.0],
        "inf": [1.0, -math.inf, 2.0, 0.0, 0.0, 0.0],
        "huge": [3e307, -2e307, 1.0, 0.0, 0.0, 0.0],
    }
    block = np.array(list(rows.values()))
    stops = {kind: _stop(block[i], monkeypatch)[0] for i, kind in enumerate(rows)
             if kind in ("one_level", "two_levels", "three_levels", "many_levels")}
    assert stops == {"one_level": 1, "two_levels": 1, "three_levels": 1, "many_levels": 5}
    rng = np.random.default_rng(11)
    for _ in range(20):
        view = block[rng.permutation(len(block))]
        got = list(map(repr, fsum(view).tolist()))
        assert got == [repr(fsum(view[i:i + 1]).item()) for i in range(len(view))]
        assert got == [repr(math.fsum(row)) for row in view.tolist()]


def test_fsum_block_where_every_row_goes_on(monkeypatch):
    # Centred Student-t2 rows sum to almost nothing next to their terms, so
    # no row of the block settles at the first level: the whole block goes
    # on, and each row keeps the bits of math.fsum.
    t = np.random.default_rng(1).standard_t(2, (163, 50))
    block = t - t.mean(axis=1, keepdims=True)
    shapes, real = [], moments._extract_level
    monkeypatch.setattr(moments, "_extract_level",
                        lambda r, sigma, q: shapes.append(r.shape) or real(r, sigma, q))
    sums = fsum(block)
    assert shapes[:2] == [block.shape] * 2
    assert all(_same(got, math.fsum(row)) for got, row in zip(sums.tolist(), block.tolist()))


def _gensum(n: int, cond: float, rng) -> np.ndarray:
    """n floats whose sum is ill-conditioned, built the way GenSum builds
    them (Ogita, Rump and Oishi, "Accurate sum and dot product", SIAM J.
    Sci. Comput. 26(6), 2005): the first half has random signs and
    exponents up to b = log2(cond), the largest first and 0 last; each
    entry of the second half is a random number of exponent falling from b
    to 0, minus the sum so far.  The sum is then of order 1 and
    sum|x| / |sum x| of order cond, within a factor of n."""
    b = round(math.log2(cond))
    half = max(n // 2, 1)
    exponents = rng.integers(0, b + 1, half)
    exponents[-1], exponents[0] = 0, b
    x = np.empty(n)
    x[:half] = rng.uniform(-1.0, 1.0, half) * np.exp2(exponents)
    # The sum so far as an unevaluated pair hi + lo of about 106 bits.
    hi = math.fsum(x[:half].tolist())
    lo = math.fsum(x[:half].tolist() + [-hi])
    later = np.rint(np.linspace(b, 0, n - half + 1)[1:]).tolist()
    for i, (u, e) in enumerate(zip(rng.uniform(-1.0, 1.0, n - half).tolist(), later), half):
        x[i] = math.fsum([u * 2.0 ** e, -hi, -lo])
        total = [hi, lo, x[i]]
        hi = math.fsum(total)
        lo = math.fsum(total + [-hi])
    return rng.permutation(x)


def _near_midpoint(n: int, side: int, rng, power_of_two: bool = False) -> np.ndarray:
    """n floats summing exactly to a rounding midpoint plus ``side`` units
    of the last bit of the remainder (side in -1, 0, 1): a head f, half
    the gap from f to its neighbour plus those units, and pairs (a, -a) of
    random magnitudes.  Pairs above f split f across levels; pairs below it
    make the plain sum of the remainder lose bits.  With ``power_of_two``,
    f is a power of two and the midpoint lies in the narrower gap below
    it."""
    k = int(rng.integers(-30, 30))
    f = math.ldexp(1.0, k) if power_of_two else math.ldexp(float(rng.uniform(1.0, 2.0)), k)
    half = -(f - math.nextafter(f, 0.0)) / 2 if power_of_two else math.ulp(f) / 2
    unit = math.ldexp(abs(half), -int(rng.integers(1, 52)))
    head = [f, half + side * unit]
    x = np.zeros(n)
    x[:2] = head
    pairs = (n - 2) // 2
    a = np.ldexp(rng.uniform(1.0, 2.0, pairs), rng.integers(k - 70, k + 20, pairs))
    x[len(head):len(head) + pairs] = a
    x[len(head) + pairs:len(head) + 2 * pairs] = -a
    return rng.choice([-1.0, 1.0]) * rng.permutation(x)


def _zero_sum(n: int, rng) -> np.ndarray:
    """n floats of cancelling pairs at random scales, with negative zeros:
    the level sums cancel, and the sum is +0.0."""
    pairs = n // 2
    a = np.ldexp(rng.uniform(-2.0, 2.0, pairs), rng.integers(-80, 80, pairs))
    return rng.permutation(np.concatenate([a, -a, np.full(n - 2 * pairs, -0.0)]))


def _adversarial_rows(n: int, rng) -> list:
    rows = [np.abs(_gensum(n, 1.0, rng))]  # condition number 1
    rows += [_gensum(n, cond, rng) for cond in (1e4, 1e8, 1e16, 1e24, 1e30)]
    rows += [_near_midpoint(n, side, rng, power) for side in (-1, 0, 1)
             for power in (False, True)]
    rows.append(_zero_sum(n, rng))
    # Scaled into the subnormal range: remainders are subnormal and err
    # underflows.
    return rows + [np.ldexp(row, -1040) for row in rows]


@pytest.mark.parametrize("n", [2, 50, 2000, 200000])
def test_fsum_adversarial_rows_match_math_fsum(n):
    # GenSum rows of condition numbers 1 to 1e30, rows on a rounding
    # midpoint or one remainder unit either side of it (also in the narrower
    # gap below a power of two), rows whose level sums cancel to zero, and
    # all of these with subnormal remainders: each row alone and in a block
    # of rows keeps the bits of math.fsum, sign of zero included.
    rng = np.random.default_rng(n + 7)
    for _ in range(1 if n > 2000 else 12):
        rows = _adversarial_rows(n, rng)
        want = [math.fsum(row.tolist()) for row in rows]
        for row, w in zip(rows, want):
            assert _same(fsum(row), w), n
        if n <= 2000:
            got = fsum(np.stack(rows))
            assert all(_same(g, w) for g, w in zip(got.tolist(), want)), n


def _raised_text(node: ast.Raise) -> str:
    """The string literals of a raise statement, f-string fields as {}."""
    parts = []
    for sub in ast.walk(node):
        if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            parts.append(sub.value)
        elif isinstance(sub, ast.FormattedValue):
            parts.append("{}")
    return "".join(parts)


def test_only_moments_calls_math_fsum():
    # moments.fsum is the one exact reduction every caller shares, and
    # moments.checked_fsum the one place that names a sum that overflows.
    package = Path(__file__).resolve().parents[1] / "src" / "eivreg"
    offenders = []
    for path in sorted(package.glob("*.py")):
        if path.name == "moments.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (isinstance(node, ast.Attribute) and node.attr == "fsum"
                    and isinstance(node.value, ast.Name) and node.value.id == "math"):
                offenders.append(f"{path.name}:{node.lineno}")
            elif (isinstance(node, ast.ImportFrom) and node.module == "math"
                  and any(alias.name == "fsum" for alias in node.names)):
                offenders.append(f"{path.name}:{node.lineno}")
            elif isinstance(node, ast.Raise) and re.search(r"sum of .*overflows",
                                                           _raised_text(node)):
                offenders.append(f"{path.name}:{node.lineno}")
    assert offenders == []


# Entry points of the finite-number rule, each given an integer past the
# float range or a value that is not a real number, and the start of the
# error that must name it.
_NUMBER_RULE = {
    "side_info_mu_1e400": (lambda: SideInfo.case2(0.25, 10 ** 400), "mu must be finite, got 1000"),
    "model_spec_beta_1e400": (lambda: ModelSpec(10 ** 400, 1.0, 1, XiDistribution.normal(0, 1),
                                                ErrorSpec(0.25, 0.25, 0.05)),
                              "beta must be finite, got 1000"),
    "error_spec_lambda_theta_1e400": (lambda: ErrorSpec(10 ** 400, 0.25, 0),
                                      "lambda_theta must be finite, got 1000"),
    "side_info_mu_str": (lambda: SideInfo.case2(0.25, "x"), "mu must be a number, got 'x'$"),
    "side_info_mu_bool": (lambda: SideInfo.case2(0.25, True), "mu must be a number, got True$"),
    "reliability_ratio_str": (lambda: reliability_ratio(XiDistribution.normal(0, 1), "a"),
                              "var_epsilon must be a number, got 'a'$"),
    "ci_slope_plugin_z_str": (lambda: ci_slope_plugin(
        Dataset(y=[1.0, 3.0, 6.0], x=[0.0, 1.0, 2.0]), SideInfo.case2(0.0, 0.0), z="a"),
        "z must be a number, got 'a'$"),
    "z_for_gamma_str": (lambda: z_for_gamma("a"), "gamma must be a number, got 'a'$"),
    "z_for_gamma_1e400": (lambda: z_for_gamma(10 ** 400), "gamma must be finite, got 1000"),
    "xi_params_none": (lambda: XiDistribution("normal", None),
                       r"normal takes parameters \('mean', 'sd'\), got None$"),
    "xi_param_none": (lambda: XiDistribution.normal(0.0, None), "sd must be a number, got None$"),
}


@pytest.mark.parametrize("name", list(_NUMBER_RULE))
def test_finite_number_rule_names_its_argument(name):
    call, message = _NUMBER_RULE[name]
    with pytest.raises(ValueError, match=f"^{message}"):
        call()


# Entry points that read a series, each given one that is not numeric, and
# the series the error must name.
_NOT_NUMERIC = {
    "dataset_y": (lambda: Dataset(y="abc", x=[1.0]), "y"),
    "moment_set_x": (lambda: moment_set([1.0, 2.0], [1.0, "a"]), "x"),
    "obrien_ratio": (lambda: obrien_ratio("abc"), "z"),
    "empirical_bn": (lambda: empirical_bn(["1", "b"]), "z"),
    "selfnorm_sum": (lambda: selfnorm_sum([{}], 1.0), "z"),
    "ks_distance_to_normal": (lambda: ks_distance_to_normal(["a"]), "samples"),
}


@pytest.mark.parametrize("name", list(_NOT_NUMERIC))
def test_non_numeric_series_named(name):
    call, series = _NOT_NUMERIC[name]
    with pytest.raises(ValueError, match=f"^{series} must be a sequence of numbers: "):
        call()
