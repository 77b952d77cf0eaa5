"""Grid/bisection inversion of the quadratic slope pivots: the reference
the tests hold ``eivreg.ci_slope_quadratic`` to.

It never touches the quadratic algebra, nor the library's own selection of
pivot terms: each pivot is evaluated directly at every grid point, from
the public ``moment_set`` output and the formulas of the
``eivreg.inference`` docstring.  For case 1 side info (lambda_theta, mu),
with U = S_xy - mu and

    a_i(b) = (s_{i,yy} - lambda_theta) - b*(s_{i,xy} - mu),

the slope b is accepted at critical value z where

    k = 1:  sqrt(n)*|U|*|beta_hat - b| <= z * sqrt(sum (a_i - a_bar)^2 / (n-1)),
    k = 2:       n*|U|*|beta_hat - b| <= z * sqrt(sum a_i^2),

the numerator being U*(beta_hat - b) = a_bar(b).  The bracket is the
plug-in slope interval beta_hat -+ z*sqrt(sum a_i(beta_hat)^2)/(n*|U|),
with beta_hat from the public ``estimate``, inflated tenfold, with a grid
of 10^-4 of its width, doubled around the estimate whenever the accepted
set touches its edge.  Each finite boundary is then refined by
bisection, so the endpoints are far more accurate than the grid step.
"""

from __future__ import annotations

import math

import numpy as np

from eivreg import estimate, moment_set

GRID_POINTS = 20001
CHUNK_ELEMENTS = 2_000_000
BISECT_ITERATIONS = 80


def _acceptance(ms, side, k: int, z: float, beta1: float):
    """The membership test of quadratic pivot ``k`` on the moments ``ms``:
    maps an array of slopes b to the mask of those it accepts."""
    n = ms.n
    U = ms.S_xy - side.mu
    ay, ax = ms.s_yy - side.lambda_theta, ms.s_xy - side.mu
    if k == 1:
        ay, ax = ay - math.fsum(ay) / n, ax - math.fsum(ax) / n
        num_factor, den_scale = math.sqrt(n), 1.0 / math.sqrt(n - 1)
    else:
        num_factor, den_scale = float(n), 1.0
    block = max(1, CHUNK_ELEMENTS // n)

    def accept(grid: np.ndarray) -> np.ndarray:
        mask = np.empty(grid.size, dtype=bool)
        for start in range(0, grid.size, block):
            b = grid[start:start + block]
            t = ay[None, :] - b[:, None] * ax[None, :]
            den = np.sqrt(np.einsum("ij,ij->i", t, t)) * den_scale
            mask[start:start + block] = num_factor * abs(U) * np.abs(beta1 - b) <= z * den
        return mask

    return accept


def _bisect_boundary(accept, b_in: float, b_out: float) -> float:
    """Boundary of the accepted set between an inside and an outside point."""
    for _ in range(BISECT_ITERATIONS):
        mid = 0.5 * (b_in + b_out)
        if mid == b_in or mid == b_out:
            break
        if accept(np.array([mid]))[0]:
            b_in = mid
        else:
            b_out = mid
    return b_in


def grid_invert(data, side, k: int, z: float, max_expansions: int = 40):
    """(intervals, unbounded): the connected components of
    {b : |pivot k at b| <= z} on the grid, each with its finite boundaries
    bisected, and whether the set still touches the bracket edge after
    ``max_expansions`` doublings, so that it is not a bounded interval."""
    beta1 = estimate(data, side).beta_hat
    ms = moment_set(data.y, data.x, side.c)
    terms = (ms.s_yy - side.lambda_theta) - beta1 * (ms.s_xy - side.mu)
    half = z * math.sqrt(math.fsum(terms ** 2)) / (ms.n * abs(ms.S_xy - side.mu))
    if half == 0.0:
        half = 1e-8 * max(1.0, abs(beta1))
    lo, hi = beta1 - 10.0 * half, beta1 + 10.0 * half
    accept = _acceptance(ms, side, k, z, beta1)

    expansions = 0
    while True:
        pts = np.linspace(lo, hi, GRID_POINTS)
        mask = accept(pts)
        if not (mask[0] or mask[-1]) or expansions == max_expansions:
            break
        expansions += 1
        lo, hi = lo - (hi - lo) / 2, hi + (hi - lo) / 2

    idx = np.flatnonzero(mask)
    breaks = np.flatnonzero(np.diff(idx) > 1)
    intervals = []
    for s, e in zip(np.concatenate(([0], breaks + 1)), np.concatenate((breaks, [idx.size - 1]))):
        i_lo, i_hi = idx[s], idx[e]
        left = _bisect_boundary(accept, pts[i_lo], pts[i_lo - 1]) if i_lo > 0 else pts[i_lo]
        right = (_bisect_boundary(accept, pts[i_hi], pts[i_hi + 1]) if i_hi < pts.size - 1
                 else pts[i_hi])
        intervals.append((left, right))
    return tuple(intervals), bool(mask[0] or mask[-1])
