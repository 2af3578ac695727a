"""Revenue estimators: Myerson per item, VCG, and the explicit lower-bound
mechanisms (sequential posted-bundle and three-tier).

Single-item optimal revenue E[(phi_bar(max))^+] and VCG (the second-highest
value) are exact: each is the mean of an order statistic of n i.i.d.
bidder scores, whose CDF one rule forms from one bidder's score CDF and
the rank (``_order_stat``, which the benchmark, ``obs1_bound`` and the
equal-revenue order statistics share). ``_score_estimate`` integrates it
by ``_stieltjes``, the bracket rule that every exact integral here shares:
the integrand is read once per point of a ``_Grid``, whose points spread
by sqrt(dW dg) from a coarse table, at most one per float of a cell, and
are made piece by piece, each cell's run at once, with no memo. Monte
Carlo is hopeless here for heavy tails: at p = 10^4 the truncated
equal-revenue curve has all of its virtual value in an atom of mass 1/p,
so the naive estimator has ~10% relative error at a million samples. An
exact value takes no sample count and no seed, and is a ``Bracket``.
A sum over items integrates each distinct marginal once and adds the
items' brackets in order (``_item_sum``).

Of the explicit mechanisms, the three-tier one is exact: its revenue depends
only on the tier counts (``three_tier_revenue``). The sequential posted-bundle
mechanism is seeded Monte Carlo: a bidder's bundle is the top k of the items
still unsold, so each run walks down the top k order statistics of each
bidder's values, n k draws per run whatever m. The walk is the one of the
quantile experiments (``experiments.top_order_walk``), with one count of
unsold items per run. Determinism model: it draws one seeded stream in
blocks of ``BLOCK // _FELDMAN_WIDTH`` runs (``rng.map_batches``), a
constant width, so a block holds a few run-length arrays for any n and m,
and its estimate is a function of the integer totals of the bundles sold,
which the blocks add exactly, as (mean, standard error).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .distributions import ProductDist, SingleDist, TruncatedEqualRevenue, _sorted_distinct
from .experiments import top_order_walk
from .rng import PIECE, estimate, map_batches

__all__ = [
    "Bracket",
    "myerson_item_revenue",
    "vcg_item_revenue",
    "srev",
    "vcg",
    "feldman_params",
    "feldman_posted_price",
    "three_tier_params",
    "three_tier_mechanism",
    "three_tier_revenue",
]

_QUAD_CELLS = 50_000


@dataclass(frozen=True)
class Bracket:
    """An exact value known to lie in [lo, hi] (Moore's interval
    arithmetic): brackets add end by end, and compare by ``le``."""

    lo: float
    hi: float

    @staticmethod
    def point(x: float) -> "Bracket":
        return Bracket(x, x)

    def __add__(self, other: "Bracket") -> "Bracket":
        return Bracket(self.lo + other.lo, self.hi + other.hi)

    @property
    def mid(self) -> float:
        return 0.5 * (self.lo + self.hi)

    @property
    def half(self) -> float:
        return 0.5 * (self.hi - self.lo)

    def le(self, other: "Bracket") -> bool | None:
        """Whether self <= other: True when self.hi <= other.lo, None
        (undecided) when the two overlap, else False; a NaN end reads False."""
        if any(map(math.isnan, (self.lo, self.hi, other.lo, other.hi))):
            return False
        return True if self.hi <= other.lo else None if self.lo <= other.hi else False

    # pinned by the benchmark's workloads (README, "Pinned by `bench/`")
    mean = mid
    stderr = half

    def combined_stderr(self, other: "Bracket") -> float:
        return math.hypot(self.half, other.half)


def _item_sum(marginals, fn) -> Bracket:
    """Sum over items of the exact bracket ``fn(d)``, added end by end in
    item order. ``fn`` runs once per distinct (frozen, hashable) marginal
    and a repeat adds the first result, so the sum has the bits of one call
    per item."""
    done = {d: fn(d) for d in dict.fromkeys(marginals)}
    return sum((done[d] for d in marginals), Bracket.point(0.0))


# the coarse table's quantiles: 1 025 uniform points and 8 per octave of
# 1 - u, down to 1 - 2^-53
_COARSE_U = np.concatenate([np.linspace(0.0, 1.0, 1025), 1.0 - np.exp2(-np.arange(8 * 53 + 1) / 8)])


class _Grid:
    """The grid of every exact bracket, from a coarse table: the sorted
    distinct points of x and of each known jump with the float on either
    side of it, cut to [lo, hi], with W and g read on its nodes. Cell
    [x_k, x_k+1) of the table gets its left node and its share of
    ``_QUAD_CELLS`` points in proportion to sqrt(|dW_k| |dg_k|), spaced
    evenly, but never more points than it holds floats; the last point is
    the table's last. A K-cell rectangle bracket of the integral of g dW is
    at least (integral of sqrt(W' g'))^2 / K wide, and points spread evenly
    in sqrt(dW dg) come near it. A step function g has all of its weight in
    the one-ulp cells beside its jumps, which hold one float each, so its
    grid is its table, with no point read twice; the points a cell cannot
    hold go to no other cell. A table whose weights have no finite,
    positive sum (g constant) keeps its nodes alone.

    ``grid[i:j]`` makes points i..j-1 of its ``size``: point i is
    x_k + (i - first_k) step_k in its cell k, a pure function of i and the
    table, so pieces of any size join into the same nondecreasing grid
    (k step_k stays below the cell's width, so no point passes x_k+1).
    A cell's points are consecutive, so a slice finds its first and last
    cell by binary search and gives each cell between its run of points.
    Nothing grid-length is held.
    """

    def __init__(self, x: np.ndarray, jumps: np.ndarray, lo: float, hi: float, W, g):
        x = _sorted_distinct(np.concatenate([x, jumps, np.nextafter(jumps, -np.inf), np.nextafter(jumps, np.inf)]))
        self.x = x = x[np.searchsorted(x, lo):np.searchsorted(x, hi, "right")]
        cum = np.cumsum(np.append(0.0, np.sqrt(np.abs(np.diff(W(x)) * np.diff(g(x))))))
        scale = _QUAD_CELLS / cum[-1] if 0.0 < cum[-1] < math.inf else 0.0
        # the floats in each cell: the difference of the nodes' order-preserving
        # int64 images (the bits, negated below 0), read as unsigned past 2^63
        bits = x.view(np.int64)
        floats = np.diff(np.where(bits < 0, np.int64(-2**63) - bits, bits)).view(np.uint64)
        count = np.minimum(np.diff(np.floor(cum * scale)) + 1.0, floats)
        self._step = np.append(np.diff(x) / count, 0.0)
        self._first = np.cumsum(np.append(0.0, count))  # the last node closes the grid
        self.size = int(self._first[-1]) + 1

    def __getitem__(self, s: slice) -> np.ndarray:
        i, j, _ = s.indices(self.size)
        p = np.arange(i, j, dtype=float)
        if not p.size:
            return p
        # the cells of points i..j-1 and their runs of points within the slice
        a, b = np.searchsorted(self._first, [i, j - 1], "right") - 1
        first = self._first[a:b + 1]
        runs = (np.append(first[1:], j) - np.maximum(first, i)).astype(np.intp)
        p -= np.repeat(first, runs)
        p *= np.repeat(self._step[a:b + 1], runs)
        return np.add(p, np.repeat(self.x[a:b + 1], runs), out=p)


def _stieltjes(x, g, W) -> tuple[float, float, float]:
    """sum_k dW_k g(x_k), sum_k dW_k g(x_k+1) and W_K, dW_k = W_k+1 - W_k,
    on x_0..x_K (a ``_Grid`` or an array): W_k is the running maximum of
    W(x) up to x_k, so for a monotone g the sums bracket the integral of
    g dW over [x_0, x_K]. Walks x in pieces of ``PIECE`` cells that share
    their end points, reads g and W once per point (W on a piece's
    ``PIECE`` new points, the shared one's W_k carried) and adds the
    pieces' sums in order."""
    left = right = 0.0
    end = W(x[:1])
    for i in range(0, x.size - 1, PIECE):
        xs = x[i:i + PIECE + 1]
        gx = g(xs)
        w = np.concatenate([end, W(xs[1:])])
        # a nondecreasing piece is its own running maximum: skip the
        # maximum's sequential loop (~5 ns a point, twice the rest of the walk)
        if not (w[1:] >= w[:-1]).all():
            np.maximum.accumulate(w, out=w)
        end = w[-1:]
        dW = np.diff(w)
        # np.sum, not a BLAS dot, whose threaded sum order follows the CPU count
        left += float(np.sum(dW * gx[:-1]))
        right += float(np.sum(dW * gx[1:]))
        del xs, gx, w, dW  # so the next piece is made and read without them
    return left, right, float(end[0])


def _score_grid(d: SingleDist, cdf) -> _Grid:
    """The ``_Grid`` of a score of item d with CDF H = ``cdf``, with W = t
    and g = H, from min(0, support_lo) to the top of the support
    (Q(1 - 2^-53) if unbounded), or to the float above the last jump of H
    where that lies higher. Its table is Q at ``_COARSE_U`` and where H may
    jump: 0, the atoms and d's ironed step levels (the top level may pass
    the top value by rounding)."""
    bps = d.quantile_breakpoints()
    jumps = np.concatenate([[0.0], d.levels, d.quantile(np.concatenate([bps, np.nextafter(bps, 1.0)]))])
    # cut at the largest float: drops Q(1) = inf of an unbounded item
    return _Grid(d.quantile(_COARSE_U), jumps, min(0.0, d.support_lo), np.finfo(float).max, lambda t: t, cdf)


def _score_estimate(d: SingleDist, n: int, cdf) -> Bracket:
    """E[S] = L + integral over t >= L of 1 - H(t), for a score S >= L =
    min(0, support_lo) of item d with CDF H = ``cdf``.

    Bracketed by rectangles on ``_score_grid``, streamed through
    ``_stieltjes`` with W = t and g = 1 - H. On each cell [t_k, t_k+1) the
    nondecreasing H lies between H(t_k) and its left limit at t_k+1, and
    that left limit is at most H(t_k+1) (H is right-continuous), so
    dt (1 - H(t_k)) bounds the cell's area from above and dt (1 - H(t_k+1))
    from below: one read of H per point serves both ends, wherever H jumps.
    The grid puts a one-ulp cell left of each jump it knows, so the lower
    end loses almost nothing there. Past the last point T every score here
    has 1 - H <= n (1 - F), which adds n * d.tail_integral(T) to the upper
    end.
    """
    t = _score_grid(d, cdf)
    upper, lower, _ = _stieltjes(t, lambda x: 1.0 - cdf(x), lambda x: x)
    return Bracket(float(t.x[0] + lower), float(t.x[0] + upper) + n * d.tail_integral(t.x[-1]))


def _order_stat(d: SingleDist, n: int, G, k: int = 1, accept=None) -> Bracket:
    """E[S] for the k-th highest S of n i.i.d. scores on item d,
    each with CDF G: S <= t iff fewer than k scores pass t, so S has CDF

        H = sum_{j < k} C(n, j) G^(n-j) a^j,

    where a = ``accept(t, G(t))``, 1 - G by default, is the chance that one
    bidder's score passes t; a score whose passes count only in part
    (``benchmark.obs1_bound``) gives its own. k = 1 reads G(t) ** n. This
    is the one order-statistic rule of every exact score: it checks n once
    and hands H to ``_score_estimate``.
    """
    if n < 1:
        raise ValueError("need n >= 1")

    def cdf(t):
        g = G(t)
        H = g**n
        if k > 1:
            a = 1.0 - g if accept is None else accept(t, g)
            for j in range(1, k):
                H += math.comb(n, j) * g ** (n - j) * a**j
        return H

    return _score_estimate(d, n, cdf)


def myerson_item_revenue(d: SingleDist, n: int) -> Bracket:
    """Optimal single-item revenue with n i.i.d. bidders, E[(phi_bar(max))^+],
    the highest of the n scores phi_bar^+, whose CDF is ``SingleDist.psi``."""
    return _order_stat(d, n, d.psi)


def vcg_item_revenue(d: SingleDist, n: int) -> Bracket:
    """Second-price (no reserve) revenue on one item: E[second-highest of n
    values], 0 for one bidder."""
    if n == 1:
        return Bracket.point(0.0)
    return _order_stat(d, n, d.cdf, k=2)


def srev(pd: ProductDist, n: int) -> Bracket:
    """Myerson run separately per item: sum of single-item optimal revenues."""
    return _item_sum(pd.marginals, lambda d: myerson_item_revenue(d, n))


def vcg(pd: ProductDist, n: int) -> Bracket:
    """Second-price auction per item, summed over the items."""
    return _item_sum(pd.marginals, lambda d: vcg_item_revenue(d, n))


# ---------------------------------------------------------------------------
# Sequential posted-bundle mechanism on ER(p)^m (little-n lower bound)
# ---------------------------------------------------------------------------


def feldman_params(n: int, m: int) -> tuple[int, float]:
    """Bundle size m//(4n) (rounded down) and price (m/8)(ln(m/n)+1)."""
    if n < 1 or m < 4 * n:
        raise ValueError("need n >= 1 and m >= 4n")
    return m // (4 * n), (m / 8.0) * (math.log(m / n) + 1.0)


# floats held per run: sold, the walk's unsold count, order statistic, step
# and exponent, the bundle value, and the quantile's temporaries
_FELDMAN_WIDTH = 8


def feldman_posted_price(
    n: int, m: int, N: int, seed: int, p: float = 1e4, price: float | None = None
) -> tuple[float, float]:
    """Revenue of the sequential posted-bundle mechanism on ER(p)^m, as
    (mean, standard error).

    Greedy bundle choice (the bidder's k = m//(4n) highest-value unsold
    items) maximizes her purchase probability. Her values on the R unsold
    items are i.i.d. ER(p) whichever items they are, since that set depends
    only on earlier bidders, so her bundle value has the law of the sum of
    Q(U_(j)) over the top k order statistics of R uniforms, which
    ``experiments.top_order_walk`` draws. She buys iff it meets the price;
    a sale takes R down by k. Ties at the atom p do not change the sum.
    Blocks of ``BLOCK // _FELDMAN_WIDTH`` runs draw n k uniforms per run and
    return the integer totals (S1, S2) of the bundles sold and of their
    squares, which add exactly over the blocks; ``rng.estimate`` turns them
    into the mean and standard error of the bundles sold, times the price.
    """
    bundle, default_price = feldman_params(n, m)
    price = default_price if price is None else price
    if not (math.isfinite(price) and price >= 0.0):
        raise ValueError("posted price must be finite and >= 0")
    dist = TruncatedEqualRevenue(p)

    def block(rng, r):
        sold = np.zeros(r, dtype=np.int64)  # bundles sold in each run
        for _ in range(n):
            unsold = m - bundle * sold
            value = np.zeros(r)
            for u in top_order_walk(rng, unsold, bundle, r):
                value += dist.quantile(u)
            sold += value >= price
        runs = np.bincount(sold).tolist()  # runs[k]: the runs that sold k bundles
        return sum(k * c for k, c in enumerate(runs)), sum(k * k * c for k, c in enumerate(runs))

    s1, s2 = map(sum, zip(*map_batches(seed, "feldman", N, block, _FELDMAN_WIDTH)))
    mean, stderr = estimate(s1, s2, N)
    return price * mean, price * stderr


# ---------------------------------------------------------------------------
# Three-tier mechanism on ER^2 (big-n lower bound)
# ---------------------------------------------------------------------------


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


def three_tier_params(n: int, q: float, p: float) -> dict:
    """The concentration value k and the tier probabilities of the
    three-tier mechanism: high iff v1 + v2 >= p k/(k-1), medium iff
    v1 + v2 >= 2q.

    Values are truncated at 10^4 * p, so the high price sits well inside
    their support.
    """
    trunc = 1e4 * p
    k = n / q + n * math.log(q) / (8.0 * q**2)
    t_high = p * k / (k - 1.0)
    if not math.isfinite(1e4 * t_high):  # so trunc = 10^4 p and t_high are finite
        raise ValueError("high price p must be finite, and so must 10^4 p k/(k-1)")
    p_high = er2_sum_tail_truncated(t_high, trunc)
    p_med = max(er2_sum_tail_truncated(2.0 * q, trunc) - p_high, 0.0)
    return {"k": k, "p_high": p_high, "p_med": p_med}


def three_tier_mechanism(n: int, q: float, p: float) -> Bracket:
    """Revenue of the three-tier (high/medium/low) mechanism on ER^2 bidders.

    Bidders play the explicit threshold profile: high iff v1+v2 >= p*k/(k-1)
    with k the concentration value n/q + n*ln(q)/(8 q^2), medium iff
    v1+v2 >= 2q, else low. The first processed high bidder takes both items
    for p; otherwise up to two medium bidders each take one item for q. The
    revenue is exact (``three_tier_revenue``): a point bracket.
    """
    return Bracket.point(three_tier_revenue(n, q, p))


def _check_three_tier(n: int, q: float, p: float) -> None:
    if not 100.0 <= q <= math.sqrt(n):
        raise ValueError("q must satisfy 100 <= q <= sqrt(n)")
    if p < 100.0 * q:
        raise ValueError("high price p must be >> q")


def three_tier_revenue(n: int, q: float, p: float) -> float:
    """Exact expected revenue of the three-tier mechanism (see three_tier_mechanism).

    Revenue depends only on the tier counts: p when some bidder is high,
    else q * min(M, 2) with M ~ Bin(n, p_med / (1 - p_high)) medium bidders, so

        E = p (1 - (1 - p_high)^n) + q (1 - p_high)^n E[min(M, 2)].

    Powers go through log1p/expm1, which keeps the tiny p_high exact.
    """
    _check_three_tier(n, q, p)
    params = three_tier_params(n, q, p)
    p_high, p_med = params["p_high"], params["p_med"]
    log_no_high = n * math.log1p(-p_high)
    r = p_med / (1.0 - p_high)
    log_no_med = math.log1p(-r)
    # E[min(M, 2)] = 2 - 2 Pr[M = 0] - Pr[M = 1]
    e_min_m2 = 2.0 - 2.0 * math.exp(n * log_no_med) - n * r * math.exp((n - 1) * log_no_med)
    return -p * math.expm1(log_no_high) + q * math.exp(log_no_high) * e_min_m2
