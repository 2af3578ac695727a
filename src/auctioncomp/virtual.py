"""Myerson virtual values, regularity detection, and ironing, with no grid.

Kinds with a density (uniform, exponential, truncated equal-revenue) are
regular in closed form: phi_bar is their nondecreasing raw virtual value
(``SingleDist.raw_virtual``), which ``raw_virtual_cdf`` inverts. A purely
atomic kind (finite discrete, a point mass among them) has a revenue curve
R(u) = (1 - u) * F^{-1}(u) that is linear between its breakpoints, so its
least concave majorant is the hull of the corners {0, interior breakpoints,
1}, and phi_bar is the (negated) slope of the hull's segments: a step
function with at most one level per atom. ``psi`` inverts phi_bar^+ for the
exact revenue and benchmark integrals. Corners are deduplicated by
``_sorted_distinct``, not ``np.unique``, whose first call imports all of
``numpy.ma``.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .distributions import SingleDist

__all__ = ["IronedVirtualMap", "iron"]

REGULARITY_TOL = 1e-9
IRON_CACHE_SIZE = 32  # ironed maps kept per process, one per distribution


@dataclass(frozen=True)
class IronedVirtualMap:
    """The ironed virtual value phi_bar in quantile space.

    For a purely atomic ``dist``, phi_bar(u) is ``levels[searchsorted(knots,
    u, "right")]``: ``knots`` are the ascending quantiles where it changes and
    ``levels`` its value on each of the ``len(knots) + 1`` steps. Other kinds
    read their raw virtual value and have no steps. Maps are shared between
    callers (see ``iron``), so both arrays are read-only.
    """

    dist: SingleDist
    knots: np.ndarray
    levels: np.ndarray
    regular: bool

    def at_quantile(self, u):
        """Ironed virtual value of the value at quantile u."""
        u = np.asarray(u, dtype=float)
        d = self.dist
        if not d.purely_atomic:
            return d.raw_virtual(d.quantile(u))
        return self.levels[np.searchsorted(self.knots, u, side="right")]

    def psi(self, t):
        """sup{u : phi_bar(u)^+ <= t}, the CDF of phi_bar(U)^+ for uniform U.

        Mirrors ``at_quantile``: kinds with a density invert the raw virtual
        value (``SingleDist.raw_virtual_cdf``), atomic kinds read the steps.
        """
        t = np.asarray(t, dtype=float)
        d = self.dist
        if not d.purely_atomic:
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


_NO_STEPS = np.empty(0)
_NO_STEPS.flags.writeable = False


@functools.lru_cache(maxsize=IRON_CACHE_SIZE)
def iron(d: SingleDist) -> IronedVirtualMap:
    """The ironed virtual value map of d.

    Distributions are frozen and hashable, so maps are memoized per d:
    repeated calls return the same read-only map.
    """
    if not d.purely_atomic:
        return IronedVirtualMap(dist=d, knots=_NO_STEPS, levels=_NO_STEPS, regular=True)

    bps = d.quantile_breakpoints()
    corners = _sorted_distinct(np.concatenate([[0.0, 1.0], bps[(bps > 0) & (bps < 1)]]))
    # the quantile read right-continuously: at a breakpoint the revenue point
    # is the upper corner of the jump, the one the hull must see
    revenue = (1.0 - corners) * d.quantile(np.nextafter(corners, 1.0))

    hull_idx = _upper_concave_envelope(corners, revenue)
    hull_u, hull_r = corners[hull_idx], revenue[hull_idx]
    regular = bool(np.max(np.interp(corners, hull_u, hull_r) - revenue) <= REGULARITY_TOL)

    # one slope per hull segment; bit-equal neighbours are one step
    with np.errstate(over="ignore"):  # an overflow is rejected below
        slopes = np.maximum.accumulate(-np.diff(hull_r) / np.diff(hull_u))  # absorb fp noise only
    if not np.isfinite(slopes).all():
        raise ValueError(f"ironing {d.spec()} overflows: a hull slope is not finite")
    bits = slopes.view(np.int64)
    change = np.flatnonzero(bits[1:] != bits[:-1]) + 1
    knots = hull_u[change]
    levels = np.concatenate([slopes[:1], slopes[change]])
    knots.flags.writeable = False
    levels.flags.writeable = False
    return IronedVirtualMap(dist=d, knots=knots, levels=levels, regular=regular)
