"""Myerson virtual values, regularity detection, and ironing.

The ironed virtual value is built in quantile space: with u the value
quantile, the revenue curve R(u) = (1 - u) * F^{-1}(u) is tabulated on a
grid and its least concave majorant is taken. The (negated) slopes of the
majorant's segments are the ironed virtual value phi_bar, a nondecreasing
step function: ``IronedVirtualMap`` keeps only its steps, the hull vertices
where the level changes (``knots``) and the level on each step (``levels``),
so a four-point discrete item has at most four levels. Regular distributions
that are not purely atomic (uniform, exponential, truncated equal-revenue)
evaluate their exact raw virtual value (``SingleDist.raw_virtual``) instead;
the grid is still built to drive the regularity check. ``psi`` inverts
phi_bar^+ for the exact revenue and benchmark integrals.

Finite discrete supports include their cumulative-probability breakpoints in
the grid, so the hull construction there is exact, not approximate.

The hull's monotone chain runs over Python floats (``tolist``), not numpy
scalars: the arithmetic is the same IEEE-754 double arithmetic, so every
vertex is the same, at about a third of the cost. The grid is deduplicated
by ``_sorted_distinct``, not ``np.unique``, whose first call imports all of
``numpy.ma``.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .distributions import SingleDist

__all__ = ["IronedVirtualMap", "iron"]

REGULARITY_TOL = 1e-9
DEFAULT_GRID = 4096
IRON_CACHE_SIZE = 32  # ironed maps kept per process, keyed by (distribution, K)


@dataclass(frozen=True)
class IronedVirtualMap:
    """The ironed virtual value phi_bar in quantile space, as a step function.

    phi_bar(u) is ``levels[searchsorted(knots, u, "right")]``: ``knots`` are
    the ascending quantiles where it changes and ``levels`` its value on each
    of the ``len(knots) + 1`` steps. Maps are shared between callers (see
    ``iron``), so both arrays are read-only.
    """

    dist: SingleDist
    knots: np.ndarray
    levels: np.ndarray
    regular: bool

    def at_quantile(self, u):
        """Ironed virtual value of the value at quantile u."""
        u = np.asarray(u, dtype=float)
        d = self.dist
        if self.regular and not d.purely_atomic:
            return d.raw_virtual(d.quantile(u))
        return self.levels[np.searchsorted(self.knots, u, side="right")]

    def psi(self, t):
        """sup{u : phi_bar(u)^+ <= t}, the CDF of phi_bar(U)^+ for uniform U.

        Mirrors ``at_quantile``: the exact path inverts the raw virtual value
        (``SingleDist.raw_virtual_cdf``), the grid path reads the steps.
        """
        t = np.asarray(t, dtype=float)
        d = self.dist
        if self.regular and not d.purely_atomic:
            u = d.raw_virtual_cdf(t)
        else:
            edges = np.concatenate([[0.0], self.knots, [1.0]])
            u = edges[np.searchsorted(self.levels, t, side="right")]
        return np.where(t < 0, 0.0, u)


def _sorted_distinct(x: np.ndarray) -> np.ndarray:
    """The sorted distinct values of a NaN-free x, as ``np.unique`` gives
    them, without the import of ``numpy.ma`` that ``np.unique`` makes."""
    x = np.sort(x)
    if x.size:
        x = x[np.concatenate([[True], x[1:] != x[:-1]])]
    return x


def _upper_concave_envelope(u: np.ndarray, r: np.ndarray) -> list[int]:
    """Indices of the vertices of the least concave majorant of (u, r).

    Runs over Python floats: the same IEEE-754 double arithmetic as numpy
    scalars, without the cost of indexing an array one element at a time.
    """
    u, r = u.tolist(), r.tolist()
    hull: list[int] = []
    for i, (ui, ri) in enumerate(zip(u, r)):
        while len(hull) >= 2:
            i0, i1 = hull[-2], hull[-1]
            # drop i1 if it lies (weakly) below chord i0 -> i
            cross = (u[i1] - u[i0]) * (ri - r[i0]) - (ui - u[i0]) * (r[i1] - r[i0])
            if cross >= 0:
                hull.pop()
            else:
                break
        hull.append(i)
    return hull


def iron(d: SingleDist, K: int = DEFAULT_GRID) -> IronedVirtualMap:
    """The ironed virtual value map of d on a K-cell quantile grid.

    Distributions are frozen and hashable, so maps are memoized per (d, K):
    repeated calls return the same read-only map.
    """
    if K < 2:
        raise ValueError("grid size must be >= 2")
    return _iron_cached(d, K)


@functools.lru_cache(maxsize=IRON_CACHE_SIZE)
def _iron_cached(d: SingleDist, K: int) -> IronedVirtualMap:
    grid = np.linspace(0.0, 1.0, K + 1)
    bps = d.quantile_breakpoints()
    if bps.size:
        grid = _sorted_distinct(np.concatenate([grid, bps[(bps > 0) & (bps < 1)]]))

    # evaluate the quantile right-continuously, so at a discrete breakpoint the
    # revenue point is the segment's upper corner (the one the hull must see)
    vals = d.quantile(np.minimum(np.nextafter(grid, 1.0), 1.0))
    with np.errstate(invalid="ignore"):
        revenue = (1.0 - grid) * vals
    revenue[-1] = 0.0 if not np.isfinite(vals[-1]) else (1.0 - grid[-1]) * vals[-1]

    hull_idx = _upper_concave_envelope(grid, revenue)
    hull_u = grid[hull_idx]
    hull_r = revenue[hull_idx]
    hull_on_grid = np.interp(grid, hull_u, hull_r)
    gap = hull_on_grid - revenue
    if d.purely_atomic:
        # between atoms the quantile is flat and the tabulated "curve" is not
        # the revenue of any price; regularity is decided at the vertices only
        vertex = np.isin(grid, np.concatenate([[0.0, 1.0], bps]))
        gap = gap[vertex]
    regular = bool(np.max(gap) <= REGULARITY_TOL)

    # one slope per hull segment; bit-equal neighbours are one step
    slopes = np.maximum.accumulate(-np.diff(hull_r) / np.diff(hull_u))  # absorb fp noise only
    bits = slopes.view(np.int64)
    change = np.flatnonzero(bits[1:] != bits[:-1]) + 1
    knots = hull_u[change]
    levels = np.concatenate([slopes[:1], slopes[change]])
    knots.flags.writeable = False
    levels.flags.writeable = False
    return IronedVirtualMap(dist=d, knots=knots, levels=levels, regular=regular)
