"""Monte Carlo oracles shared by the tests.

Each one samples a quantity that the package computes in closed form, so it
is the independent check of that form and lives here, not in the package:
Fact 1's conditional virtual value, the three-tier revenue, the two-item sum
tail and the conditional W tail of the big-n key proposition. The
Bulow-Klemperer margin is the difference of two exact estimates. The
posted-bundle mechanism run greedily on every bidder's values on all m items
(``feldman_full_matrix``, checked against ``feldman_run_once`` one profile at
a time) is the law the package's order-statistic walk must match, and that
walk replayed on all N runs' uniforms at once is the reference for its
blocks. The ironing construction with its hull loop indexing numpy arrays
element by element, and ``np.unique`` for the corners, is the reference for
the one over Python floats in the package; the same hull of the revenue
tabulated on a K-cell grid is the construction the corners replace. The exact
kernels evaluated on their whole grid at once are the references for the
piecewise ones in the package, and the grid's points, each one's cell found
by binary search, for its run-length lookup. X_L's CDF as a Gauss-Legendre
quadrature over the top bidder draw, and X_B's as one over its ell-th order
statistic, are the references for their closed forms. Within 1/(n + 1) of
1, X_B's CDF by a recurrence over ell in 50-digit decimals, from J_k as the
difference -log(1 - x) - sum_{i <= k} x^i / i, is the reference for the
series there. The two-pass score bracket, which reads each cell's left
limit on its own, is the bound on the one-pass width; the two-read chain
bracket, which reads phi_bar at the float inside each end of a cell, is
the bound on the one-read chain width. Each exact score's CDF, written
out at its own site as the package once wrote it (Myerson's psi^n, VCG's
F^n + n F^(n-1) (1 - F), the benchmark's G^n, obs1's and the equal-revenue
order statistic's binomial sum), is the reference for the one
order-statistic rule that now forms them all, and the running-maximum
region loop is the reference for the region rule's argmax. The raw virtual
value v - (1 - F(v)) / f(v) of each kind with a density, and its CDF, in
closed form (``raw_virtual``, ``raw_virtual_cdf``), with the steps of the
reference hull for an atomic kind, are the reference for each item's own
``phi_bar`` and ``psi``. The sum tail of the truncated equal-revenue square,
split on which draws sit at the atom, is the reference for the untruncated
closed form the three-tier mechanism reads below that atom.
"""

from __future__ import annotations

import decimal
import functools
import math
from dataclasses import dataclass

import numpy as np

from auctioncomp import revenue as revenue_mod
from auctioncomp.distributions import (
    Exponential,
    FiniteDiscrete,
    ProductDist,
    SingleDist,
    TruncatedEqualRevenue,
    Uniform,
    _sorted_distinct,
)
from auctioncomp.experiments import _hyp, top_order_stats
from auctioncomp.revenue import (
    _COARSE_U,
    Bracket,
    _Grid,
    _item_sum,
    _score_grid,
    feldman_params,
    myerson_item_revenue,
    three_tier_params,
    vcg_item_revenue,
)
from auctioncomp.rng import BLOCK, PIECE, batch_sizes, map_batches, substream


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
    """A K-cell quantile grid (np.unique of K + 1 uniform points and d's
    interior breakpoints) and the revenue (1 - u) Q(u+) on it, with R(1) = 0
    where Q(1) is infinite."""
    grid = np.linspace(0.0, 1.0, K + 1)
    bps = d.quantile_breakpoints()
    if bps.size:
        grid = np.unique(np.concatenate([grid, bps[(bps > 0) & (bps < 1)]]))
    vals = d.quantile(np.minimum(np.nextafter(grid, 1.0), 1.0))
    with np.errstate(invalid="ignore"):
        revenue = (1.0 - grid) * vals
    revenue[-1] = 0.0 if not np.isfinite(vals[-1]) else (1.0 - grid[-1]) * vals[-1]
    return grid, revenue


def _hull_steps(u: np.ndarray, r: np.ndarray, vertex: np.ndarray, tol: float):
    """(knots, levels, regular) of the least concave majorant of (u, r), by
    ``upper_concave_envelope_indexed``: regular when no point where
    ``vertex`` holds lies more than tol below it; one level per run of
    bit-equal segment slopes."""
    hull_idx = upper_concave_envelope_indexed(u, r)
    hull_u, hull_r = u[hull_idx], r[hull_idx]
    regular = bool(np.max((np.interp(u, hull_u, hull_r) - r)[vertex]) <= tol)
    slopes = np.maximum.accumulate(-np.diff(hull_r) / np.diff(hull_u))
    bits = slopes.view(np.int64)
    change = np.flatnonzero(bits[1:] != bits[:-1]) + 1
    return hull_u[change], np.concatenate([slopes[:1], slopes[change]]), regular


def iron_reference(d: SingleDist, tol: float = 1e-9):
    """(knots, levels, regular) of d: no steps and regular for a kind with a
    density; for a finite discrete d, the hull of its revenue corners
    (``np.unique`` of 0, 1 and the interior breakpoints)."""
    if not isinstance(d, FiniteDiscrete):
        return np.empty(0), np.empty(0), True
    bps = d.quantile_breakpoints()
    corners = np.unique(np.concatenate([[0.0, 1.0], bps[(bps > 0) & (bps < 1)]]))
    revenue = (1.0 - corners) * d.quantile(np.minimum(np.nextafter(corners, 1.0), 1.0))
    return _hull_steps(corners, revenue, np.ones(corners.size, dtype=bool), tol)


def iron_on_grid(d: SingleDist, K: int, tol: float = 1e-9):
    """(knots, levels, regular) of the hull of ``revenue_curve(d, K)``, the
    tabulated construction: a finite discrete d is judged at its corners
    only, since between them the tabulated curve is no price's revenue."""
    grid, revenue = revenue_curve(d, K)
    vertex = np.ones(grid.size, dtype=bool)
    if isinstance(d, FiniteDiscrete):
        vertex = np.isin(grid, np.concatenate([[0.0, 1.0], d.quantile_breakpoints()]))
    return _hull_steps(grid, revenue, vertex, tol)


def raw_virtual(d: SingleDist, v):
    """The raw virtual value v - (1 - F(v)) / f(v) of a kind with a density,
    in closed form, elementwise; the atoms of a discrete kind have none."""
    if isinstance(d, Uniform):
        return 2.0 * v - d.hi
    if isinstance(d, Exponential):
        return v - 1.0 / d.rate
    if isinstance(d, TruncatedEqualRevenue):
        # 0 on the continuous part, p at the truncation atom
        return np.where(v >= d.p, d.p, 0.0)
    raise ValueError("raw virtual value undefined at atoms of discrete distributions")


def raw_virtual_cdf(d: SingleDist, t):
    """Pr[phi(Q(U)) <= t] for the raw virtual value phi of a regular kind
    with a density, in closed form."""
    if isinstance(d, Uniform):
        return d.cdf((t + d.hi) / 2.0)
    if isinstance(d, Exponential):
        return d.cdf(t + 1.0 / d.rate)
    if isinstance(d, TruncatedEqualRevenue):
        return np.where(t >= d.p, 1.0, np.where(t >= 0, 1.0 - 1.0 / d.p, 0.0))
    raise ValueError("raw virtual value undefined at atoms of discrete distributions")


def phi_bar_reference(d: SingleDist, u) -> np.ndarray:
    """phi_bar at quantiles u: the raw virtual value at Q(u) for a kind with
    a density, the steps of ``iron_reference`` for a discrete one."""
    u = np.asarray(u, dtype=float)
    if not isinstance(d, FiniteDiscrete):
        return raw_virtual(d, d.quantile(u))
    knots, levels, _ = iron_reference(d)
    return levels[np.searchsorted(knots, u, side="right")]


def psi_reference(d: SingleDist, t) -> np.ndarray:
    """The CDF of phi_bar(U)^+: 0 below t = 0, else ``raw_virtual_cdf`` for
    a kind with a density and the steps' quantile edges for a discrete one."""
    t = np.asarray(t, dtype=float)
    if not isinstance(d, FiniteDiscrete):
        u = raw_virtual_cdf(d, t)
    else:
        knots, levels, _ = iron_reference(d)
        u = np.concatenate([[0.0], knots, [1.0]])[np.searchsorted(levels, t, side="right")]
    return np.where(t < 0, 0.0, u)


def fact1_check(d: SingleDist, v: float, N: int, seed: int) -> tuple[float, float]:
    """Monte Carlo estimate of E[phi(w) | w >= v] with its standard error.

    For regular distributions the estimate should match v within sampling
    noise; the caller owns the 3-sigma comparison.
    """
    if v > d.support_hi:
        raise ValueError("conditioning value above the support")
    qlo = float(d.cdf(np.nextafter(v, -np.inf)))  # Pr[X < v]
    if qlo >= 1.0:
        raise ValueError("conditioning event has probability zero")
    rng = substream(seed, "fact1")
    u = qlo + rng.random(N) * (1.0 - qlo)
    w = d.quantile(u)
    phi = raw_virtual(d, w)
    est = float(np.mean(phi))
    stderr = float(np.std(phi, ddof=1) / np.sqrt(N)) if N > 1 else float("inf")
    return est, stderr


def bulow_klemperer_check(d: SingleDist, n: int):
    """(VCG_{n+1}, Rev_n, margin) for a regular distribution.

    The margin is vcg.mid - rev.mid; the classical guarantee asks it to be
    nonnegative. Both are exact brackets.
    """
    if not d.regular:
        raise ValueError("Bulow-Klemperer requires a regular distribution")
    vcg_est = vcg_item_revenue(d, n + 1)
    rev_est = myerson_item_revenue(d, n)
    return vcg_est, rev_est, vcg_est.mid - rev_est.mid


def sample_estimate(x: np.ndarray) -> tuple[float, float]:
    """(``np.mean`` of the run values, ``np.std(ddof=1) / sqrt(N)``), the
    second 0 for one run."""
    stderr = float(np.std(x, ddof=1) / math.sqrt(len(x))) if len(x) > 1 else 0.0
    return float(np.mean(x)), stderr


def three_tier_mc(n: int, q: float, p: float, N: int, seed: int) -> tuple[float, float]:
    """Monte Carlo revenue of the three-tier mechanism over N runs, as (mean, stderr).

    A run's tier counts are drawn multinomially from the exact tier
    probabilities (``three_tier_params``); it earns p if some bidder is high,
    else q per medium bidder, up to two.
    """
    params = three_tier_params(n, q, p)
    p_high, p_med = params["p_high"], params["p_med"]

    def batch(rng, b):
        counts = rng.multinomial(n, [p_high, p_med, 1.0 - p_high - p_med], size=b)
        return np.where(counts[:, 0] >= 1, p, q * np.minimum(counts[:, 1], 2))

    return sample_estimate(np.concatenate(list(map_batches(seed, "three-tier", N, batch))))


@dataclass(frozen=True)
class MechanismOutcome:
    """Allocation trace of one mechanism run; revenue equals total payments."""

    revenue: float
    winners: tuple  # per item: bidder index or None
    payments: tuple  # per bidder

    def __post_init__(self):
        if any(p < 0 for p in self.payments):
            raise ValueError("payments must be nonnegative")
        if abs(self.revenue - sum(self.payments)) > 1e-9 * max(1.0, abs(self.revenue)):
            raise ValueError("revenue must equal the sum of payments")


def feldman_run_once(values, bundle_size, price):
    """One pass of the sequential mechanism on an (n, m) value matrix.

    Bidders are visited in row order; each takes their ``bundle_size``
    highest-value remaining items iff their total value meets the price.
    """
    n, m = values.shape
    avail = np.ones(m, dtype=bool)
    winners = [None] * m
    payments = [0.0] * n
    for i in range(n):
        masked = np.where(avail, values[i], -np.inf)
        idx = np.argpartition(masked, m - bundle_size)[m - bundle_size:]
        if masked[idx].sum() >= price:
            payments[i] = price
            avail[idx] = False
            for j in idx:
                winners[j] = i
    return MechanismOutcome(revenue=sum(payments), winners=tuple(winners), payments=tuple(payments))


def feldman_full_matrix(
    n: int, m: int, N: int, seed: int, p: float = 1e4, price: float | None = None
) -> tuple[float, float]:
    """(mean, stderr) revenue of the sequential posted-bundle mechanism on ER(p)^m, each run
    drawing all n m values (stream ``"feldman-full-matrix"``) and each bidder
    taking her top ``feldman_params`` bundle among the unsold items by
    ``argpartition``. Blocks of ``BLOCK // (n m)`` runs (at least one)."""
    bundle, default_price = feldman_params(n, m)
    price = default_price if price is None else price
    dist = TruncatedEqualRevenue(p)

    def block(rng, r):
        vals = dist.quantile(rng.random((r, n, m)))
        avail = np.ones((r, m), dtype=bool)
        sold = np.zeros(r)
        for i in range(n):
            masked = np.where(avail, vals[:, i, :], -np.inf)
            idx = np.argpartition(masked, m - bundle, axis=1)[:, m - bundle:]
            bundle_val = np.take_along_axis(masked, idx, axis=1).sum(axis=1)
            buy = bundle_val >= price
            sold += buy
            avail[np.flatnonzero(buy)[:, None], idx[buy]] = False
        return price * sold

    return sample_estimate(np.concatenate(list(map_batches(seed, "feldman-full-matrix", N, block, n * m))))


def feldman_one_shot_sold(
    n: int, m: int, N: int, seed: int, p: float = 1e4, price: float | None = None
) -> tuple[float, np.ndarray]:
    """(price, bundles sold in each run) of ``revenue.feldman_posted_price``,
    with the uniforms of all N runs drawn at once and walked on all runs
    together, the unsold counts held as floats.

    A block of r runs draws, bidder by bidder and step by step, n k arrays
    of r uniforms, so the stream cut block by block into (n, k, r) slabs and
    joined along the runs gives every run's draws.
    """
    bundle, default_price = feldman_params(n, m)
    price = default_price if price is None else price
    dist = TruncatedEqualRevenue(p)
    runs = BLOCK // revenue_mod._FELDMAN_WIDTH
    stream = substream(seed, "feldman").random(N * n * bundle)
    slabs, start = [], 0
    for r in batch_sizes(N, runs):
        slabs.append(stream[start:start + n * bundle * r].reshape(n, bundle, r))
        start += n * bundle * r
    draws = np.concatenate(slabs, axis=2)
    sold = np.zeros(N)
    for i in range(n):
        unsold = m - bundle * sold
        u = draws[i, 0] ** (1.0 / unsold)
        value = dist.quantile(u)
        for j in range(1, bundle):
            u = u * draws[i, j] ** (1.0 / (unsold - j))
            value = value + dist.quantile(u)
        sold += value >= price
    return price, sold


def feldman_one_shot(
    n: int, m: int, N: int, seed: int, p: float = 1e4, price: float | None = None
) -> tuple[float, float]:
    """``revenue.feldman_posted_price`` from ``feldman_one_shot_sold``, the
    counts of all N runs reduced to their totals (S1, S2) at once."""
    price, sold = feldman_one_shot_sold(n, m, N, seed, p, price)
    k = sold.astype(np.int64)
    s1, s2 = int(np.sum(k)), int(np.sum(k * k))
    stderr = math.sqrt((N * s2 - s1 * s1) / (N * N * (N - 1))) if N > 1 else 0.0
    return price * (s1 / N), price * stderr


def two_item_sum_tail_mc(q: float, N: int, seed: int, p: float = 1e6) -> tuple[float, float]:
    """Monte Carlo Pr[v1 + v2 >= 2q] on truncated ER(p)^2; (estimate, stderr)."""
    if q <= 1:
        raise ValueError("need q > 1")
    dist = TruncatedEqualRevenue(p)

    def block(rng, r):
        v = dist.quantile(rng.random((r, 2)))
        return int(np.count_nonzero(v.sum(axis=1) >= 2.0 * q))

    rate = sum(map_batches(seed, "sum-tail", N, block, 2)) / N
    return rate, math.sqrt(max(rate * (1 - rate), 1e-300) / N)  # the binomial stderr


def er2_sum_tail_truncated(t: float, trunc: float) -> float:
    """Pr[v1 + v2 >= t] for two i.i.d. draws from ER truncated at ``trunc``.

    Closed form by splitting on which draws sit at the truncation atom;
    the continuous-continuous part integrates via partial fractions.
    """
    P = float(trunc)
    if t <= 2.0:
        return 1.0
    if t > 2.0 * P:
        return 0.0
    a = 1.0 / P

    def cont_tail(u: float) -> float:
        # mass of the continuous part at or above u
        if u <= 1.0:
            return 1.0 - a
        if u >= P:
            return 0.0
        return 1.0 / u - a

    both_atoms = a * a
    one_atom = 2.0 * a * cont_tail(t - P)
    # continuous pairs with x0 <= v1 < x1 and v2 >= t - v1; each end comes
    # with its gap t - x from its definition: t minus the rounded x1 = t - 1
    # reads 0 once t passes 2^53
    x0, g0 = (1.0, t - 1.0) if t - P <= 1.0 else (t - P, P)
    x1, g1 = (t - 1.0, 1.0) if t - 1.0 <= P else (P, t - P)
    part_mixed = 0.0
    if x1 > x0:
        def F(x: float, gap: float) -> float:
            # t * t reads inf past t ~ 1.3e154, where t**2 raises; the terms read 0
            return math.log(x / gap) / (t * t) - 1.0 / (t * x)
        part_mixed = F(x1, g1) - F(x0, g0) - a * (1.0 / x0 - 1.0 / x1)
    part_flat = (1.0 - a) * (1.0 / x1 - 1.0 / P) if P > x1 else 0.0
    return both_atoms + one_atom + part_mixed + part_flat


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

    rhs = sum(map_batches(seed, "prop-key", N, batch)) / N
    return lhs, rhs, (0.0, math.sqrt(max(rhs * (1 - rhs), 1e-300) / N))  # the binomial stderr


def assign_regions_loop(quantiles: np.ndarray) -> np.ndarray:
    """``benchmark.assign_regions`` as a running maximum over the items of
    an item-major (m, ...) array: an item takes a bidder only when it beats
    every earlier item strictly, so ties keep the first."""
    region = np.zeros(quantiles.shape[1:], dtype=np.intp)
    best = quantiles[0]
    for j in range(1, quantiles.shape[0]):
        np.copyto(region, j, where=quantiles[j] > best)
        best = np.maximum(best, quantiles[j])
    return region


# ---------------------------------------------------------------------------
# The score CDFs as each site wrote them
# ---------------------------------------------------------------------------


def myerson_cdf(d: SingleDist, n: int):
    """psi(t)^n: the CDF of phi_bar(max)^+."""
    psi = d.psi
    return lambda t: psi(t) ** n


def vcg_cdf(d: SingleDist, n: int):
    """F^n + n F^(n-1) (1 - F): the CDF of the second-highest of n values."""

    def cdf(t):
        F = d.cdf(t)
        return F**n + n * F ** (n - 1) * (1.0 - F)

    return cdf


def region_max_cdf(d: SingleDist, m: int, n: int, psi):
    """(F - F^m/m + psi^m/m)^n: the CDF of the largest of n benchmark
    scores on item d of m, with region-term law psi."""

    def cdf(t):
        F = d.cdf(t)
        return (F - F**m / m + psi(t) ** m / m) ** n

    return cdf


def obs1_cdf(d: SingleDist, m: int, n: int):
    """F^n + n F^(n-1) max(psi^m - F^m, 0)/m: the CDF of obs1's quantity on
    item d of m, for an item with support_lo >= 0."""
    psi = d.psi

    def cdf(t):
        F = d.cdf(t)
        return F**n + n * F ** (n - 1) * np.maximum(psi(t) ** m - F**m, 0.0) / m

    return cdf


def er_order_stat_cdf(d: SingleDist, x: int, y: int):
    """Pr[Bin(y, 1 - F(t)) < x]: the CDF of the x-th highest of y values,
    summed as C(y, j) (1 - F)^j F^(y-j)."""

    def cdf(t):
        F = d.cdf(t)
        return sum(math.comb(y, j) * (1.0 - F) ** j * F ** (y - j) for j in range(x))

    return cdf


# ---------------------------------------------------------------------------
# The exact kernels in one shot: each integrand is evaluated on its whole grid
# (or a whole block of rows) at once
# ---------------------------------------------------------------------------


def grid_points_by_search(grid, s: slice) -> np.ndarray:
    """``grid[s]`` of a ``revenue._Grid`` with each point's cell found by a
    binary search of the cells' first points."""
    p = np.arange(*s.indices(grid.size), dtype=float)
    k = np.searchsorted(grid._first[1:], p, "right")
    p -= grid._first[k]
    p *= grid._step[k]
    return np.add(p, grid.x[k], out=p)


def _fold_pieces(dW: np.ndarray, g: np.ndarray) -> tuple[float, float]:
    """The two rectangle sums of ``revenue._stieltjes`` from g read on the
    whole grid, folded over ``PIECE``-cell slices as the package folds them."""
    left = right = 0.0
    for i in range(0, len(dW), PIECE):
        left += float(np.sum(dW[i:i + PIECE] * g[:-1][i:i + PIECE]))
        right += float(np.sum(dW[i:i + PIECE] * g[1:][i:i + PIECE]))
    return left, right


def score_estimate_one_shot(d: SingleDist, n: int, cdf) -> Bracket:
    """``revenue._score_estimate`` with ``cdf`` read on the whole grid at once;
    the rectangle sums are folded over ``PIECE``-cell slices, as the package
    folds its pieces."""
    t = _score_grid(d, cdf)[:]
    upper, lower = _fold_pieces(np.diff(t), 1.0 - cdf(t))
    return Bracket(float(t[0] + lower), float(t[0] + upper) + n * d.tail_integral(t[-1]))


def score_estimate_two_pass(d: SingleDist, n: int, cdf) -> Bracket:
    """The two-pass bracket: ``cdf`` read at every t_k for the upper
    rectangles and again at the float below every t_k+1 (its left limit)
    for the lower ones, each sum taken whole. The one-pass bracket of
    ``revenue._score_estimate`` must be as tight, up to rounding."""
    t = _score_grid(d, cdf)[:]
    dt = np.diff(t)
    upper = float(t[0] + np.sum(dt * (1.0 - cdf(t[:-1])))) + n * d.tail_integral(t[-1])
    lower = float(t[0] + np.sum(dt * (1.0 - cdf(np.nextafter(t[1:], -np.inf)))))
    return Bracket(lower, upper)


MIN_NODES = 48  # Gauss-Legendre nodes per CDF value, at the least
MAX_NODES = 1024  # built in ~0.05 s; beyond it accuracy degrades slowly


@functools.lru_cache(maxsize=16)
def _gauss_legendre(k: int):
    """(r, 1 - r, w): k Gauss-Legendre nodes on [0, 1], their mirror images
    and weights, read-only.

    Newton's method on the Legendre recurrence from Tricomi's guesses, as in
    Numerical Recipes' gauleg: ``numpy.polynomial.legendre.leggauss`` gives
    the same nodes to 1e-16.
    """
    z = np.cos(np.pi * (np.arange(k) + 0.75) / (k + 0.5))
    for _ in range(100):
        p0, p1 = np.ones_like(z), z
        for j in range(2, k + 1):
            p0, p1 = p1, ((2 * j - 1) * z * p1 - (j - 1) * p0) / j
        slope = k * (z * p1 - p0) / (z * z - 1.0)  # P_k'(z)
        step = p1 / slope
        z = z - step
        if np.max(np.abs(step)) <= 1e-15:
            break
    w = 2.0 / ((1.0 - z * z) * slope * slope)
    nodes = ((1.0 + z) / 2.0, (1.0 - z) / 2.0, w / 2.0)
    for a in nodes:
        a.flags.writeable = False
    return nodes


def _node_count(t: float, sharpness: float) -> int:
    """Gauss-Legendre nodes for an interval of length L = -log(1 - t) in v:
    4 L sqrt(sharpness), within [MIN_NODES, MAX_NODES]. The integrands'
    narrowest features are about 1/sqrt(sharpness) wide in v."""
    return min(MAX_NODES, max(MIN_NODES, math.ceil(-4.0 * math.log1p(-t) * math.sqrt(sharpness))))


def _log_gap_cdf(t, sharpness: float, integrand) -> np.ndarray | float:
    """A CDF on [0, 1] given as F(t) = integral over v in [log(1 - t), 0] of
    ``integrand(d, v, g)``, with d = 1 - t, v the node and g = log(1 - t) - v.

    Gauss-Legendre quadrature in v = log(1 - x) turns the pole of
    (t - x)/(1 - x), a distance 1 - t past the end of [0, t], into a smooth
    boundary layer, so a rule whose node count grows with -log(1 - t) holds
    ~1e-13 up to t = 1 - 2^-15 and beyond. F is 0 for t <= 0 and 1 for
    t >= 1. The t in (0, 1) are taken in ascending blocks of about ``BLOCK``
    floats, each with the node count of its largest t.
    """
    t = np.asarray(t, dtype=float)
    out = np.where(t >= 1.0, 1.0, 0.0)
    flat_t, flat_out = t.ravel(), out.ravel()
    inner = np.flatnonzero((flat_t > 0.0) & (flat_t < 1.0))
    inner = inner[np.argsort(flat_t[inner], kind="stable")]
    start = 0
    while start < len(inner):
        widest = flat_t[inner[min(start + BLOCK // MIN_NODES, len(inner)) - 1]]
        block = inner[start:start + max(1, BLOCK // _node_count(widest, sharpness))]
        tb = flat_t[block]
        r, rc, w = _gauss_legendre(_node_count(tb[-1], sharpness))
        lo = np.log1p(-tb)[:, None]
        f = integrand((1.0 - tb)[:, None], lo * r, lo * rc)
        flat_out[block] = -lo[:, 0] * np.sum(f * w, axis=1)
        start += len(block)
    return out if out.ndim else float(out)


def xl_cdf_quadrature(n: int, m: int, t) -> np.ndarray | float:
    """The CDF of X_L(n, m) as the 1-D integral over x1 that ``XL.cdf``
    solves in closed form, F(t) = integral_0^t a_t(x1) g_t(x1) dx1 with
    a_t(x) = x^(m-1) + (1 - x^(m-1)) (t - x) / (1 - x) and
    g_t(x) = n x^(n-1) - n (n-1) (1 - t) J_{n-2}(x), taken by
    ``_log_gap_cdf`` in v = log(1 - x1)."""

    def integrand(d, v, g):
        x = -np.expm1(v)
        xm = x ** (m - 1)
        a = xm + (1.0 - xm) * -np.expm1(g)  # (t - x)/(1 - x) = 1 - e^g
        top = n * x ** (n - 1) - n * (n - 1) * d * _hyp(n - 1, 0, x)
        return a * top * np.exp(v)  # dx1 = e^v dv

    return _log_gap_cdf(t, 2.0, integrand)


def xb_cdf_quadrature(n: int, ell: int, t) -> np.ndarray | float:
    """The CDF of X_B(n, ell) as the 1-D integral over s = t X_(ell) that
    ``XB.cdf`` solves in closed form,
    F(t) = C integral_0^t s^(n-ell) (t - s)^ell / (1 - s) ds,
    C = n! / ((n-ell)! (ell-1)!), taken by ``_log_gap_cdf`` in
    v = log(1 - s), where it reads
    C integral (1 - e^v)^(n-ell) (e^v - (1 - t))^ell dv, in logs."""
    log_c = math.lgamma(n + 1) - math.lgamma(n - ell + 1) - math.lgamma(ell)

    def integrand(d, v, g):
        # e^v - (1 - t) = (1 - t) expm1(-g) >= 0, exact near the end of [0, t]
        log_gap = np.log(d) + np.log(np.expm1(-g))
        return np.exp(log_c + (n - ell) * np.log(-np.expm1(v)) + ell * log_gap)

    return _log_gap_cdf(t, float(ell), integrand)


def _j_tail_in_decimals(k: int, X: decimal.Decimal) -> decimal.Decimal:
    """J_k(X) = sum_{i > k} X^i / i as -log(1 - X) - sum_{i <= k} X^i / i in
    the current decimal context, the sum by Horner's rule."""
    acc = decimal.Decimal(0)
    for i in range(k, 0, -1):
        acc = (acc + decimal.Decimal(1) / i) * X
    return -(1 - X).ln() - acc


def j_tail_decimal(k: int, x: float) -> float:
    """J_k(x) in 50-digit decimal arithmetic: within 1/(k + 1) of 1, where
    J_k >= E_1(1) and -log(1 - x) < 2 + log(k + 1), it keeps 47 digits."""
    with decimal.localcontext() as ctx:
        ctx.prec = 50
        return float(_j_tail_in_decimals(k, decimal.Decimal(x)))


def xb_cdf_near_one_decimal(n: int, ell: int, t: float) -> float:
    """The CDF of X_B(n, ell) at (n + 1)(1 - t) < 1 by the recurrence over
    ell in 50-digit decimal arithmetic: with a = n - ell and d = 1 - t,
    F_1 = t^(a+1) - (a + 1) d J_a(t), F_l = t^(a+l) - d (a + l)/(l - 1) F_(l-1),
    F = F_ell. Each step scales an error by d (a + l)/(l - 1) <= (n + 1) d < 1."""
    a = n - ell
    with decimal.localcontext() as ctx:
        ctx.prec = 50
        T = decimal.Decimal(t)
        F = T ** (a + 1) - (a + 1) * (1 - T) * _j_tail_in_decimals(a, T)
        for l in range(2, ell + 1):
            F = T ** (a + l) - (1 - T) * (a + l) / (l - 1) * F
        return float(F)


def chain_grid_points(d: SingleDist, law) -> np.ndarray:
    """Every point of item d's chain grid on [0, 1] at once: the ``_Grid``
    of ``benchmark._phi_at_experiment`` run on to u = 1, with phi_bar read
    up to the float below 1 for its weights."""
    below_one = np.nextafter(1.0, 0.0)
    grid = _Grid(_COARSE_U, np.append(d.knots, d.quantile_breakpoints()), 0.0, 1.0, law.cdf,
                 lambda u: d.phi_bar(np.minimum(u, below_one)))
    return grid[:]


def phi_at_experiment_one_shot(pd: ProductDist, law) -> Bracket:
    """``benchmark._phi_at_experiment`` as the whole-grid rule: each item's
    grid on [0, 1] made at once (``chain_grid_points``), F the running
    maximum of ``law.cdf`` on it, the rectangle sums on all points but 1
    folded over ``PIECE``-cell slices, and the top cell (u_K, 1) added."""

    def item(d: SingleDist):
        u = chain_grid_points(d, law)
        F = np.maximum.accumulate(law.cdf(u))
        top = float(F[-1] - F[-2])
        phi = d.phi_bar(u)
        lower, upper = _fold_pieces(np.diff(F[:-1]), phi[:-1])
        lower += top * float(phi[-2])
        if math.isfinite(d.support_hi):
            upper += top * float(phi[-1])
        else:
            upper += top * float(phi[-2]) + law.tail_constant * d.tail_integral(float(d.quantile(u[-2])))
        return Bracket(lower, upper)

    return _item_sum(pd.marginals, item)


def phi_at_experiment_two_read(pd: ProductDist, law) -> Bracket:
    """The two-read chain bracket: the chain grid with no one-ulp cells beside
    the knots and breakpoints; phi_bar read at the float above each cell's
    left end for the lower rectangles and at the float below its right end
    for the upper ones, each sum taken whole. The one-read bracket of
    ``benchmark._phi_at_experiment`` must be as tight, up to its one-ulp
    cells at the jumps."""

    def item(d: SingleDist):
        steps = np.append(d.knots, d.quantile_breakpoints())
        u = _sorted_distinct(chain_grid_points(d, law))
        beside = np.concatenate([np.nextafter(steps, -np.inf), np.nextafter(steps, np.inf)])
        u = u[~np.isin(u, beside) | np.isin(u, steps)]
        F = law.cdf(u)
        F[0], F[-1] = 0.0, 1.0
        dF = np.diff(np.maximum.accumulate(F))
        # the float above each left end, up to the float below 1 (the grid's
        # last left end), where an unbounded phi_bar is finite
        above = np.minimum(np.nextafter(u[:-1], np.inf), np.nextafter(1.0, 0.0))
        below = np.nextafter(u[1:], -np.inf)
        lo_phi = d.phi_bar(above)
        hi_phi = d.phi_bar(below)
        tail = 0.0
        if not math.isfinite(d.support_hi):
            hi_phi[-1] = lo_phi[-1]
            tail = law.tail_constant * d.tail_integral(float(d.quantile(above[-1])))
        lower = float(np.sum(dF * lo_phi))
        upper = float(np.sum(dF * hi_phi)) + tail
        return Bracket(lower, upper)

    return _item_sum(pd.marginals, item)


def jump_allowance(pd: ProductDist, cdf) -> float:
    """Sum over the items' knots and breakpoints of phi_bar's jump there
    times the mass, under ``cdf``, of the one-ulp cells on each side of it:
    the width that the one-read chain bracket may keep on a step item."""
    out = 0.0
    for d in pd.marginals:
        steps = np.concatenate([d.knots, d.quantile_breakpoints()])
        below, above = np.nextafter(steps, -np.inf), np.nextafter(steps, np.inf)
        jump = d.phi_bar(above) - d.phi_bar(below)
        out += float(np.sum(jump * (cdf(above) - cdf(below))))
    return out
