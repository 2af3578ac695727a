"""Myerson virtual values, regularity detection, and ironing.

The ironed virtual value is built in quantile space: with u the value
quantile, the revenue curve R(u) = (1 - u) * F^{-1}(u) is tabulated on a
grid, its least concave majorant is taken, and the (negated) left slope of
the majorant gives a monotone nondecreasing ironed virtual value per grid
cell. Regular distributions that are not purely atomic (uniform, exponential,
truncated equal-revenue) evaluate their exact raw virtual value
(``SingleDist.raw_virtual``) instead; the grid is still built to drive the
regularity check. The grid path looks up the step function ``phi_bar``
through its change points only: hull vertices are grid points, so ``phi_bar``
takes few distinct levels (three for a four-point discrete item).

Finite discrete supports include their cumulative-probability breakpoints in
the grid, so the hull construction there is exact, not approximate.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .distributions import SingleDist
from .rng import substream

__all__ = ["IronedVirtualMap", "raw_virtual", "raw_virtual_many", "iron", "fact1_check"]

REGULARITY_TOL = 1e-9
DEFAULT_GRID = 4096
IRON_CACHE_SIZE = 32  # ironed maps kept per process, keyed by (distribution, K)


def raw_virtual(d: SingleDist, v: float) -> float:
    """Raw virtual value v - (1 - F(v)) / f(v).

    Defined where d has a density, plus the truncation atom of the
    equal-revenue curve (where it equals the truncation point). Other atoms
    are rejected.
    """
    return float(raw_virtual_many(d, np.asarray(v, dtype=float)))


def raw_virtual_many(d: SingleDist, v: np.ndarray) -> np.ndarray:
    return d.raw_virtual(np.asarray(v, dtype=float))


@dataclass(frozen=True)
class IronedVirtualMap:
    """Grid representation of the ironed virtual value in quantile space.

    Maps are shared between callers (see ``iron``), so ``grid``, ``phi_bar``
    and the step form (``steps``) are read-only arrays.
    """

    dist: SingleDist
    grid: np.ndarray        # ascending quantiles, grid[0]=0, grid[-1]=1
    phi_bar: np.ndarray     # one slope per grid cell, monotone nondecreasing
    regular: bool

    @functools.cached_property
    def steps(self) -> tuple[np.ndarray, np.ndarray]:
        """(knots, levels): where ``phi_bar`` changes, and its value on each step.

        ``levels[searchsorted(knots, u, "right")]`` equals
        ``phi_bar[clip(searchsorted(grid, u, "right") - 1, 0, K - 1)]`` bit
        for bit for every u, including 0, 1, values outside [0, 1] and NaN: a
        knot is the left edge of each cell whose bits differ from the previous
        cell's. Built on the first grid-path lookup; read-only, like ``phi_bar``.
        """
        bits = self.phi_bar.view(np.int64)
        change = np.flatnonzero(bits[1:] != bits[:-1]) + 1
        knots = self.grid[change]
        levels = np.concatenate([self.phi_bar[:1], self.phi_bar[change]])
        knots.flags.writeable = False
        levels.flags.writeable = False
        return knots, levels

    def at_quantile(self, u, values=None):
        """Ironed virtual value of the value at quantile u.

        ``values``, when given, must be ``dist.quantile(u)``; the exact path
        then uses it instead of recomputing the quantile.
        """
        u = np.asarray(u, dtype=float)
        d = self.dist
        if self.regular and not d.purely_atomic:
            return d.raw_virtual(d.quantile(u) if values is None else values)
        knots, levels = self.steps
        return levels[np.searchsorted(knots, u, side="right")]

    def at_value(self, v):
        return self.at_quantile(self.dist.cdf(v))


def _upper_concave_envelope(u: np.ndarray, r: np.ndarray):
    """Indices of the vertices of the least concave majorant of (u, r)."""
    hull: list[int] = []
    for i in range(len(u)):
        while len(hull) >= 2:
            i0, i1 = hull[-2], hull[-1]
            # drop i1 if it lies (weakly) below chord i0 -> i
            cross = (u[i1] - u[i0]) * (r[i] - r[i0]) - (u[i] - u[i0]) * (r[i1] - r[i0])
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
        grid = np.unique(np.concatenate([grid, bps[(bps > 0) & (bps < 1)]]))

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

    # one slope per hull segment, broadcast to the grid cells it spans
    seg_slopes = -np.diff(hull_r) / np.diff(hull_u)
    seg_slopes = np.maximum.accumulate(seg_slopes)  # absorb fp noise only
    cell_seg = np.searchsorted(hull_u, grid[:-1], side="right") - 1
    cell_seg = np.clip(cell_seg, 0, len(seg_slopes) - 1)
    phi_bar = seg_slopes[cell_seg]

    grid.flags.writeable = False
    phi_bar.flags.writeable = False
    return IronedVirtualMap(dist=d, grid=grid, phi_bar=phi_bar, regular=regular)


def fact1_check(d: SingleDist, v: float, N: int, seed: int) -> tuple[float, float]:
    """Monte Carlo estimate of E[phi(w) | w >= v] with its standard error.

    For regular distributions the estimate should match v within sampling
    noise; the caller owns the 3-sigma comparison.
    """
    if v > d.support_hi:
        raise ValueError("conditioning value above the support")
    qlo = float(d.cdf_left(np.asarray(v)))
    if qlo >= 1.0:
        raise ValueError("conditioning event has probability zero")
    rng = substream(seed, "fact1")
    u = qlo + rng.random(N) * (1.0 - qlo)
    w = d.quantile(u)
    phi = raw_virtual_many(d, w)
    est = float(np.mean(phi))
    stderr = float(np.std(phi, ddof=1) / np.sqrt(N)) if N > 1 else float("inf")
    return est, stderr
