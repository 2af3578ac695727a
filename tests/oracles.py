"""Monte Carlo oracles shared by the tests.

Each one samples a quantity that the package computes in closed form, so it
is the independent check of that form and lives here, not in the package:
Fact 1's conditional virtual value, the three-tier revenue, the two-item sum
tail and the conditional W tail of the big-n key proposition. The
Bulow-Klemperer margin is the difference of two exact estimates. The
posted-bundle kernel in one draw per batch is the reference for the blocked
one in the package. The ironing construction with its hull loop indexing
numpy arrays element by element, and ``np.unique`` for the grid, is the
reference for the one over Python floats in the package.
"""

from __future__ import annotations

import numpy as np

from auctioncomp.distributions import SingleDist, TruncatedEqualRevenue
from auctioncomp.experiments import top_order_stats
from auctioncomp.revenue import (
    RevenueEstimate,
    feldman_params,
    myerson_item_revenue,
    three_tier_params,
    vcg_item_revenue,
)
from auctioncomp.rng import BLOCK, batch_moments, hit_rate, map_batches, mean_stderr, substream
from auctioncomp.virtual import iron


def upper_concave_envelope_indexed(u: np.ndarray, r: np.ndarray) -> list[int]:
    """Vertex indices of the least concave majorant of (u, r), indexing the
    numpy arrays one element at a time."""
    hull: list[int] = []
    for i in range(len(u)):
        while len(hull) >= 2:
            i0, i1 = hull[-2], hull[-1]
            cross = (u[i1] - u[i0]) * (r[i] - r[i0]) - (u[i] - u[i0]) * (r[i1] - r[i0])
            if cross >= 0:
                hull.pop()
            else:
                break
        hull.append(i)
    return hull


def revenue_curve(d: SingleDist, K: int) -> tuple[np.ndarray, np.ndarray]:
    """The quantile grid of ``virtual.iron(d, K)`` (np.unique of K + 1
    uniform points and d's interior breakpoints) and the revenue on it."""
    grid = np.linspace(0.0, 1.0, K + 1)
    bps = d.quantile_breakpoints()
    if bps.size:
        grid = np.unique(np.concatenate([grid, bps[(bps > 0) & (bps < 1)]]))
    vals = d.quantile(np.minimum(np.nextafter(grid, 1.0), 1.0))
    with np.errstate(invalid="ignore"):
        revenue = (1.0 - grid) * vals
    revenue[-1] = 0.0 if not np.isfinite(vals[-1]) else (1.0 - grid[-1]) * vals[-1]
    return grid, revenue


def iron_reference(d: SingleDist, K: int, tol: float = 1e-9):
    """(knots, levels, regular) of ``virtual.iron(d, K)``, built on
    ``revenue_curve`` with ``upper_concave_envelope_indexed``."""
    grid, revenue = revenue_curve(d, K)
    hull_idx = upper_concave_envelope_indexed(grid, revenue)
    hull_u, hull_r = grid[hull_idx], revenue[hull_idx]
    gap = np.interp(grid, hull_u, hull_r) - revenue
    if d.purely_atomic:
        gap = gap[np.isin(grid, np.concatenate([[0.0, 1.0], d.quantile_breakpoints()]))]
    regular = bool(np.max(gap) <= tol)
    slopes = np.maximum.accumulate(-np.diff(hull_r) / np.diff(hull_u))
    bits = slopes.view(np.int64)
    change = np.flatnonzero(bits[1:] != bits[:-1]) + 1
    return hull_u[change], np.concatenate([slopes[:1], slopes[change]]), regular


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
    phi = d.raw_virtual(w)
    est = float(np.mean(phi))
    stderr = float(np.std(phi, ddof=1) / np.sqrt(N)) if N > 1 else float("inf")
    return est, stderr


def bulow_klemperer_check(d: SingleDist, n: int, N: int, seed: int):
    """(VCG_{n+1}, Rev_n, margin) for a regular distribution.

    The margin is vcg.mean - rev.mean; the classical guarantee asks it to be
    nonnegative. Both estimates are exact brackets.
    """
    if not iron(d).regular:
        raise ValueError("Bulow-Klemperer requires a regular distribution")
    vcg_est = vcg_item_revenue(d, n + 1, N, seed)
    rev_est = myerson_item_revenue(d, n, N, seed)
    return vcg_est, rev_est, vcg_est.mean - rev_est.mean


def three_tier_mc(n: int, q: float, p: float, N: int, seed: int) -> RevenueEstimate:
    """Monte Carlo revenue of the three-tier mechanism over N runs.

    A run's tier counts are drawn multinomially from the exact tier
    probabilities (``three_tier_params``); it earns p if some bidder is high,
    else q per medium bidder, up to two.
    """
    params = three_tier_params(n, q, p)
    p_high, p_med = params["p_high"], params["p_med"]

    def batch(rng, b):
        counts = rng.multinomial(n, [p_high, p_med, 1.0 - p_high - p_med], size=b)
        runs = np.where(counts[:, 0] >= 1, p, q * np.minimum(counts[:, 1], 2))
        return batch_moments(runs)

    mean, stderr = mean_stderr(map_batches(seed, "three-tier", N, batch))
    return RevenueEstimate(mean=mean, stderr=stderr, samples=N, seed=seed)


def feldman_one_shot(
    n: int, m: int, N: int, seed: int, p: float = 1e4, price: float | None = None
) -> RevenueEstimate:
    """``revenue.feldman_posted_price`` with each batch's (b, n, m) values
    drawn and run at once, not in blocks."""
    bundle, default_price = feldman_params(n, m)
    price = default_price if price is None else price
    dist = TruncatedEqualRevenue(p)

    def batch(rng, b):
        vals = dist.quantile(rng.random((b, n, m)))
        avail = np.ones((b, m), dtype=bool)
        bought = np.zeros(b)
        rows = np.arange(b)
        for i in range(n):
            masked = np.where(avail, vals[:, i, :], -np.inf)
            idx = np.argpartition(masked, m - bundle, axis=1)[:, m - bundle:]
            bundle_val = np.take_along_axis(masked, idx, axis=1).sum(axis=1)
            buy = bundle_val >= price
            bought += buy
            r = rows[buy]
            avail[r[:, None], idx[buy]] = False
        return batch_moments(price * bought)

    mean, stderr = mean_stderr(map_batches(seed, "feldman", N, batch, n * m))
    return RevenueEstimate(mean=mean, stderr=stderr, samples=N, seed=seed)


def two_item_sum_tail_mc(q: float, N: int, seed: int, p: float = 1e6) -> tuple[float, float]:
    """Monte Carlo Pr[v1 + v2 >= 2q] on truncated ER(p)^2; (estimate, stderr)."""
    if q <= 1:
        raise ValueError("need q > 1")
    dist = TruncatedEqualRevenue(p)
    rows = BLOCK // 2  # a batch is BATCH pairs; count its hits block by block

    def batch(rng, b):
        hits = 0
        for lo in range(0, b, rows):
            v = dist.quantile(rng.random((min(rows, b - lo), 2)))
            hits += int(np.count_nonzero(v.sum(axis=1) >= 2.0 * q))
        return hits

    return hit_rate(sum(map_batches(seed, "sum-tail", N, batch)), N)


def prop_key_conditional(n: int, ell: int, c: int, p: float, N: int, seed: int):
    """Compare Pr[Z_(1),c > p | X_(1),n < p] with Pr[W_{ell,n} > p | X_(1),n < p].

    The left side is analytic (1 - p^c, independence). The right side is
    estimated by sampling the conditional law directly: given X_(1),n < p the
    draws are i.i.d. uniform on [0, p]. Returns (lhs, rhs, (0, stderr_rhs)).
    """
    if not 0 < p < 1:
        raise ValueError("p must lie in (0, 1)")
    if p**n < 1e-4:
        raise ValueError("conditioning event too rare (p^n < 1e-4)")
    if not 2 <= ell <= n:
        raise ValueError("need 2 <= ell <= n")
    lhs = 1.0 - p**c

    def batch(rng, b):
        xl = p * top_order_stats(n, ell, rng, b)[1]
        w = xl + rng.random(b) * (1.0 - xl)  # W is uniform on [X_(ell), 1]
        return int(np.count_nonzero(w > p))

    rhs, stderr = hit_rate(sum(map_batches(seed, "prop-key", N, batch)), N)
    return lhs, rhs, (0.0, stderr)
