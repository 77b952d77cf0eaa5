"""Sample means and centered or uncentered cross-product summaries.

Every estimator and pivotal statistic in the package is built from the
quantities computed here: for two series u, v and an intercept flag c in
{0, 1},

    s_{i,uv} = (u_i - c*u_bar)(v_i - c*v_bar),    S_uv = mean_i s_{i,uv}.

With c = 0 the products are raw; with c = 1 they are centered at the
sample means.  Every scalar reduction goes through ``fsum``, which returns
the exactly rounded sum (the bits of ``math.fsum``), so results are
bit-reproducible and carry one rounding at most, even for heavy-tailed
magnitudes at n up to 1e7.  ``fsum`` sums each row of a (B, n) float64
array exactly in NumPy by error-free extraction (Rump, Ogita and Oishi,
"Accurate floating-point summation part I", SIAM J. Sci. Comput. 31(1),
2008): the whole block at once, with a sigma per row.  Almost every row
stops after the first level, where a certified bound shows that its
remainder cannot move the rounding (as in AccSum and NearSum, part II of
the same paper); the others go on until their remainder is zero.  A 1-D
array is the one-row block.  A row reads inf where ``math.fsum`` raises,
whatever the shape, and ``checked_fsum`` fails it by the name of its sum;
``RowStatus.normalizer`` is the one rule of a sum of squares that a pivot
or a diagnostic divides by.

A ``Dataset`` is one checked sample, y and x, with the latent truth of a
simulated one; the fitting commands build it without the generators.

Computation is on blocks of B samples of one size n, ``Rows``: means and
sums are (B, 1) columns that broadcast against the (B, n) terms the way
floats do against one sample's terms.  A ``RowStatus`` holds the first
check each row fails, in the order the one-sample code checks, so the
Monte Carlo harness evaluates many replications in one pass and still
gives each the outcome of its own call.  A one-sample call is the block of
one row whose status raises at once, and its public function's one exit,
``one_value``, turns the block's (1, 1) columns into the call's floats.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Callable, Optional, Tuple

import numpy as np

__all__ = ["MomentSet", "moment_set", "fsum", "Rows", "RowStatus", "Latent", "Dataset"]


def fsum(values: np.ndarray):
    """The exactly rounded sum of ``values``: the bits of ``math.fsum``.

    A 2-D float64 array of shape (B, n) gives the array of its B row sums,
    each the bits of ``math.fsum`` of its row; a 1-D array is the one-row
    block and gives a float.  Rows are summed in NumPy by error-free
    extraction (Rump, Ogita and Oishi, 2008), the whole block at once with
    a sigma per row, level by level (``_extract_level``).  Each level's row
    sum tau_k is exact, so after level k a row's sum is
    tau_1 + ... + tau_k + sum(r), where r is the remainder the level leaves.

    After the first level a row stops if its remainder can no longer move
    the rounding (AccSum and NearSum; Rump, Ogita and Oishi, "Accurate
    floating-point summation part II", SIAM J. Sci. Comput. 31(2), 2008).
    Let t be the plain NumPy sum of r and u = 2**-53.  Every |r_i| is at
    most 2**-53 * sigma, and any order of the n - 1 rounded additions,
    pairwise or recursive, is within gamma_{n-1} * sum|r_i| of the exact
    sum, gamma_{n-1} = (n - 1) u / (1 - (n - 1) u) (Higham, "Accuracy and
    stability of numerical algorithms", 2nd ed., 2002, section 4.2).  So

        |sum(r) - t| <= err = gamma_{n-1} * n * 2**-53 * sigma,

    computed rounded up.  Underflow leaves the bound intact: a sum of
    floats that is subnormal is exact, and if err rounds in the subnormal
    range, sum(r) - t, a multiple of 2**-1074 no larger than err before
    rounding, is no larger than err after it.

    The settle test, on the whole block at once: with s + e = tau_1 + t
    exactly (TwoSum), a row is settled at s when |e| + err is below half
    the gap from |s| to the next float towards zero, the narrower gap below
    a power of two; then tau_1 + t - err and tau_1 + t + err round to s,
    and so does the row's sum.  A sum of zero or in the subnormal range
    never settles this way.  The rows that go on are extracted until every
    remainder is all zero; their level sums then add up to the exact
    total, and ``math.fsum`` of them rounds it correctly.

    An empty row, a row holding a NaN or an infinity, an all-zero row and
    a row with magnitudes of 2**(1020 - L) or more, where sigma could
    overflow (L = (n + 1).bit_length()), goes to ``math.fsum`` itself,
    which keeps its NaN and infinity values.  Where ``math.fsum`` raises,
    because its partial sums overflow or it meets -inf + inf, the row
    reads inf, whatever the shape, and the other rows keep their sums.
    """
    rows = values if values.ndim == 2 else values[None, :]
    L = (rows.shape[1] + 1).bit_length()
    q = np.abs(rows)
    m = np.maximum.reduce(q, axis=1, initial=0.0)  # 0 for an empty row
    inside = (0.0 < m) & (m < math.ldexp(1.0, 1020 - L))  # also False for NaN
    if np.count_nonzero(inside) == len(inside):
        sums = _extracted_row_sums(rows, m, L, q)
    else:
        sums = np.empty(len(inside))
        for i in np.flatnonzero(~inside).tolist():
            try:
                sums[i] = math.fsum(rows[i].tolist())
            except (OverflowError, ValueError):  # overflow, or -inf + inf
                sums[i] = math.inf
        sums[inside] = _extracted_row_sums(rows[inside], m[inside], L, q[inside])
    return sums if values.ndim == 2 else one_value(sums)


def _extract_level(r: np.ndarray, sigma: np.ndarray, q: np.ndarray) -> np.ndarray:
    """One extraction level of the rows ``r``: their exact row sums at the
    units of the (B,) column ``sigma``; the remainder is left in ``q``.

    Let L = (n + 1).bit_length(), so 2**L >= n + 2, and let
    sigma = 2**(e + L) per row, where max|r| < 2**e.  Then

    - q = (sigma + r) - sigma is exact (Sterbenz), and so is r - q, the
      rounding error of sigma + r;
    - every q_i is a multiple of 2**-53 * sigma with |q_i| <= 2**e, so every
      partial sum of the q_i, in any order, is such a multiple below sigma
      in magnitude and hence a float: the row sum of q is exact;
    - the new remainder r - q is at most 2**-53 * sigma in magnitude, so e
      falls by at least 52 - L per level until r is all zero.
    """
    sigma = sigma[:, None]
    np.add(r, sigma, out=q)
    q -= sigma
    tau = np.add.reduce(q, axis=1)
    np.subtract(r, q, out=q)
    return tau


def _extracted_row_sums(rows: np.ndarray, m: np.ndarray, L: int, q: np.ndarray) -> np.ndarray:
    """The exactly rounded row sums of ``rows``, every row inside the
    extraction domain with max|row| = ``m``: the first level of the whole
    block with a sigma per row and its settle test, then the levels of the
    rows that go on (see ``fsum``); ``q`` is a buffer of the shape of
    ``rows`` that the levels overwrite."""
    n = rows.shape[1]
    g = (n - 1) * 2.0 ** -53
    # err = ratio * sigma (see fsum): the factor 1 + 2**-49 covers the three
    # roundings of ratio, and the product with a power of two is exact.
    ratio = n * 2.0 ** -53 * g / (1.0 - g) * (1.0 + 2.0 ** -49)
    sigma = np.ldexp(2.0 ** L, np.frexp(m)[1])
    tau = _extract_level(rows, sigma, q)
    t, err = np.add.reduce(q, axis=1), ratio * sigma
    sums = tau + t
    z = sums - tau
    e = (tau - (sums - z)) + (t - z)  # sums + e = tau + t exactly (TwoSum)
    a = np.abs(sums)
    settled = np.abs(e) + err < (a - np.nextafter(a, 0.0)) * 0.5
    # np.count_nonzero tests masks: any() and all() cost several times more
    # on the (B,) columns.
    if np.count_nonzero(settled) == len(settled):
        return sums
    # The rows that go on are extracted until every remainder is all zero.
    on = ~settled
    levels, r = [tau[on]], q[on]
    q = q[:len(r)]  # r is a copy, so q is free scratch
    while True:
        m = np.maximum.reduce(np.abs(r, out=q), axis=1)
        if not np.count_nonzero(m):
            break
        levels.append(_extract_level(r, np.ldexp(2.0 ** L, np.frexp(m)[1]), q))
        r, q = q, r
    sums[on] = [math.fsum(terms) for terms in zip(*[level.tolist() for level in levels])]
    return sums


def as_series(name: str, seq) -> np.ndarray:
    try:
        arr = np.asarray(seq, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{name} must be a sequence of numbers: {exc}") from exc
    if arr.ndim != 1:
        raise ValueError(f"{name} must be one-dimensional, got shape {arr.shape}")
    if arr.size == 0:
        raise ValueError(f"{name} must not be empty")
    return arr


def as_sample(y, x) -> Tuple[np.ndarray, np.ndarray]:
    """``y`` and ``x`` as float arrays; raises ValueError unless both are
    one-dimensional, non-empty and of equal length."""
    y = as_series("y", y)
    x = as_series("x", x)
    if y.size != x.size:
        raise ValueError(f"series length mismatch: y has {y.size}, x has {x.size}")
    return y, x


def _nonfinite_error(name: str, arr: np.ndarray) -> Optional[ValueError]:
    """The error naming the first non-finite entry of ``arr``, or None."""
    bad = np.flatnonzero(~np.isfinite(arr))
    if bad.size:
        return ValueError(f"{name}[{bad[0]}] is not finite: {float(arr[bad[0]])!r}")
    return None


def check_finite(name: str, arr: np.ndarray) -> np.ndarray:
    """``arr`` itself; raises ValueError naming its first non-finite entry."""
    error = _nonfinite_error(name, arr)
    if error:
        raise error
    return arr


def check_finite_number(name: str, value) -> float:
    """``value`` as a float; raises ValueError unless it is a real number,
    not a bool, that reads as a finite float.  Sign and order checks compare
    False with NaN, so they cannot catch it themselves; an integer past the
    float range is not finite either."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:
        number = math.inf
    if not math.isfinite(number):
        raise ValueError(f"{name} must be finite, got {value!r}")
    return number


def check_integer(name: str, value) -> int:
    """``value`` as an int; raises ValueError unless it is a Python or NumPy
    integer.  A bool is not one, though Python counts it as an int."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


@dataclass(frozen=True)
class Latent:
    """Simulation truth carried alongside a dataset.

    ``delta`` and ``epsilon`` are stored as the exact float residuals of
    the generated series (delta = y - beta*xi - alpha, epsilon = x - xi,
    evaluated in that order), so those identities reproduce them bitwise.
    They differ from the raw noise draws by at most a rounding ulp.
    """

    xi: np.ndarray
    delta: np.ndarray
    epsilon: np.ndarray


@dataclass(frozen=True)
class Dataset:
    """Observed pairs, optionally carrying the latent simulation truth."""

    y: np.ndarray
    x: np.ndarray
    latent: Optional[Latent] = None

    def __post_init__(self):
        y, x = as_sample(self.y, self.x)
        object.__setattr__(self, "y", check_finite("y", y))
        object.__setattr__(self, "x", check_finite("x", x))

    @property
    def n(self) -> int:
        return self.y.size


# Decorates the functions that form products and quotients on blocks, so an
# overflowed term is an infinity and a failed row's NaN or division by
# zero is quiet, not a warning.  Decorated calls nest.
quiet_overflow = np.errstate(over="ignore", invalid="ignore", divide="ignore")


def _range_error(name: str) -> ValueError:
    """The error of a value that is not finite though its inputs are: it
    has overflowed."""
    return ValueError(f"{name} overflows the float range")


def one_value(column):
    """The value a one-sample call returns for a result of its one-row
    block: the one entry of the array as a Python float, or a str for a
    degeneracy kind.  None, and a str that every row shares, stay as
    they are."""
    return column.item() if isinstance(column, np.ndarray) else column


def _in_range(name: str, value: Callable[[], float]) -> float:
    """``value()`` of Python floats; raises ValueError naming ``name`` where
    it leaves the float range: a float power overflows, a divisor
    underflows to zero or the result is infinite."""
    try:
        result = value()
    except (OverflowError, ZeroDivisionError):
        result = math.inf
    if not math.isfinite(result):
        raise _range_error(name)
    return result


class RowStatus:
    """The first failed check of each row of a block of B samples.

    ``errors[i]`` is None while row i passes, else the exception the
    one-sample call on row i raises: the first check it fails, in the order
    the one-sample code checks, built when that check runs.  A failed row
    is still computed on, with floating-point warnings off, but nothing
    reads its results.  The status of a one-sample call is ``raising``: it
    raises the first failure at once, so that call stops where the check
    is.  Block code hands on columns under either status; the public
    function that made it turns them into floats with ``one_value``.
    """

    def __init__(self, rows: int, raising: bool = False):
        self.raising = raising
        self.errors = [None] * rows
        self._ok = np.ones(rows, dtype=bool)

    def fail(self, failed: np.ndarray, error: Callable[[int], Exception]) -> None:
        """Rows where the mask ``failed`` holds fail with ``error(row)``,
        unless they failed before."""
        if not np.count_nonzero(failed):
            return
        new = failed.ravel() & self._ok
        rows = np.flatnonzero(new).tolist()
        for i in rows:
            self.errors[i] = error(i)
        self._ok &= ~new
        if self.raising:
            raise self.errors[rows[0]]

    def finite(self, name: str, values: np.ndarray, where=True) -> np.ndarray:
        """``values``; rows in ``where`` whose value is not finite fail
        because ``name`` overflows the float range."""
        bad = ~np.isfinite(values)
        self.fail(bad if where is True else bad & where, lambda i: _range_error(name))
        return values

    def normalizer(self, name: str, terms: np.ndarray) -> np.ndarray:
        """The column of the row sums of squares of the block ``terms``, the
        normalizer ``name`` of a pivot or a diagnostic.  A row fails where
        the sum overflows, or where it is below the least normal float,
        2**-1022, though a term is not zero: its squares have lost bits.  An
        all-zero row passes."""
        sums = checked_fsum(name, terms ** 2, self)
        low = sums < 2.0 ** -1022
        if np.count_nonzero(low):
            self.fail(low & (np.count_nonzero(terms, axis=1)[:, None] > 0),
                      lambda i: ValueError(f"sum of {name} underflows the float range"))
        return sums


class Rows:
    """A block of B samples of one size n: the rows of (B, n) float arrays
    ``y`` and ``x``, the latent ``xi`` of simulated rows, and the ``status``
    of each row.  It checks nothing itself: every computation on a block
    starts with ``moment_set``, whose ``series_mean`` fails a row with a
    non-finite entry, naming it, y before x, as that call fails on the row
    alone."""

    def __init__(self, y: np.ndarray, x: np.ndarray, xi: Optional[np.ndarray] = None,
                 status: Optional[RowStatus] = None):
        self.y, self.x, self.xi = y, x, xi
        self.status = RowStatus(y.shape[0]) if status is None else status


def as_rows(data) -> Rows:
    """A dataset as the one-row block whose status raises; a block of rows
    itself.  Raises ValueError naming ``data`` for anything else."""
    if isinstance(data, Dataset):
        return Rows(data.y[None, :], data.x[None, :], status=RowStatus(1, raising=True))
    if not isinstance(data, Rows):
        raise ValueError(f"data must be a Dataset or Rows, got {type(data).__name__}")
    return data


def checked_fsum(name: str, values: np.ndarray, status: RowStatus) -> np.ndarray:
    """The (B, 1) column of the row sums of the (B, n) block ``values``; a
    row whose sum leaves the float range fails in ``status``, naming the
    sum of ``name``."""
    # Every exact sum goes through the name fsum: bench/tracer.py times it
    # as the moments.fsum span, and tests/test_bench_trace.py pins how many
    # fsum calls a traced experiment makes.
    return status.finite(f"sum of {name}", fsum(values))[:, None]


def series_mean(name: str, values: np.ndarray, status: RowStatus) -> np.ndarray:
    """The (B, 1) column of row means of the block ``values`` of an input
    series.  A row whose sum is not finite fails, naming its first
    non-finite entry if it has one and else the overflowing sum; only such
    a row costs a scan."""
    sums = fsum(values)
    status.fail(~np.isfinite(sums), lambda i: _nonfinite_error(name, values[i])
                or _range_error(f"sum of {name}"))
    return sums[:, None] / values.shape[1]


def check_intercept_flag(c) -> int:
    """``c`` as the int 0 or 1; raises ValueError unless it is a bool or a
    Python or NumPy integer of that value."""
    if not isinstance(c, (int, np.integer, np.bool_)) or c not in (0, 1):
        raise ValueError(f"intercept flag c must be 0 or 1, got {c!r}")
    return int(c)


@dataclass(frozen=True)
class MomentSet:
    """The full second-moment machinery of an observed (y, x) sample.

    Bundles the three cross-product summaries a fit needs so the means are
    computed once per dataset.  The moment set of a block of samples has a
    ``status``; its means and summaries are (B, 1) columns and its terms
    (B, n) arrays.
    """

    n: int
    c: int
    y_bar: float
    x_bar: float
    s_yy: np.ndarray
    s_xy: np.ndarray
    s_xx: np.ndarray
    S_yy: float
    S_xy: float
    S_xx: float
    status: Optional[RowStatus] = None

    def first(self) -> "MomentSet":
        """The one-sample moment set of the block's first row."""
        return MomentSet(self.n, self.c, *map(one_value, (self.y_bar, self.x_bar)),
                         self.s_yy[0], self.s_xy[0], self.s_xx[0],
                         *map(one_value, (self.S_yy, self.S_xy, self.S_xx)))


@quiet_overflow
def moment_set(y, x, c: int = 1, status: Optional[RowStatus] = None) -> MomentSet:
    """Means and the yy/xy/xx cross-product summaries of a sample.

    Raises ValueError on empty input, length mismatch, a bad intercept
    flag, a non-finite entry or a sum that overflows the float range.  With
    c = 1 and n = 1 every centered sum is 0; downstream guards reject that
    instead.  With a ``status``, ``y`` and ``x`` are (B, n) blocks and the
    result is their block moment set, whose rows fail in ``status`` instead
    of raising.
    """
    one = status is None
    if one:
        y, x = as_sample(y, x)
        y, x, status = y[None, :], x[None, :], RowStatus(1, raising=True)
    c = check_intercept_flag(c)
    n = y.shape[1]
    y_bar = series_mean("y", y, status)
    x_bar = series_mean("x", x, status)
    dy, dx = (y - y_bar, x - x_bar) if c == 1 else (y, x)
    s_yy = dy * dy
    s_xy = dx * dy
    s_xx = dx * dx
    # The squares are summed first because a cross product can overflow
    # only when one of its two squares does.
    S_yy = checked_fsum("s_yy", s_yy, status) / n
    S_xx = checked_fsum("s_xx", s_xx, status) / n
    ms = MomentSet(n=n, c=c, y_bar=y_bar, x_bar=x_bar, s_yy=s_yy, s_xy=s_xy, s_xx=s_xx,
                   S_yy=S_yy, S_xy=checked_fsum("s_xy", s_xy, status) / n, S_xx=S_xx,
                   status=status)
    return ms.first() if one else ms
