"""Revenue estimators: Myerson per item, VCG, and the explicit lower-bound
mechanisms (sequential posted-bundle and three-tier).

Single-item optimal revenue E[(phi_bar(max))^+] and VCG (the second-highest
value) are exact: the mean of a score with a closed-form CDF, integrated by
``_score_estimate`` (as are the benchmark and ``obs1_bound``) on a memoized
grid by ``_stieltjes``, the bracket rule that every exact integral here
shares: the integrand is read once per grid point. Monte Carlo is
hopeless here for heavy tails: at p = 10^4 the truncated equal-revenue curve
has all of its virtual value in an atom of mass 1/p, so the naive estimator
has ~10% relative error at a million samples. An exact value takes no
sample count and no seed. A sum over items integrates each distinct
marginal once and adds the items in order (``_item_sum``).

Of the explicit mechanisms, the three-tier one is exact: its revenue depends
only on the tier counts (``three_tier_revenue``). The sequential posted-bundle
mechanism is seeded Monte Carlo: a bidder's bundle is the top k of the items
still unsold, so each run walks down the top k order statistics of each
bidder's values, n k draws per run whatever m. The walk is the one of the
quantile experiments (``experiments.top_order_walk``), with one count of
unsold items per run. Determinism model: it draws one seeded stream in
blocks of ``BLOCK // _FELDMAN_WIDTH`` runs (``rng.map_batches``), a
constant width, so a block holds a few run-length arrays for any n and m.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .distributions import ProductDist, SingleDist, TruncatedEqualRevenue
from .experiments import top_order_walk
from .rng import PIECE, batch_moments, map_batches, mean_stderr
from .virtual import iron

__all__ = [
    "RevenueEstimate",
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

_QUAD_CELLS = 1 << 15


@dataclass(frozen=True)
class RevenueEstimate:
    """Revenue with its standard error: Monte Carlo, or an exact integral's
    midpoint with the bracket's certified half-width."""

    mean: float
    stderr: float

    def combined_stderr(self, other: "RevenueEstimate") -> float:
        return math.hypot(self.stderr, other.stderr)


def _item_sum(marginals, fn) -> RevenueEstimate:
    """Sum over items of the exact bracket ``fn(d)``, added in item order;
    the half-widths add. ``fn`` runs once per distinct (frozen, hashable)
    marginal and a repeat adds the first result, so the sum has the bits of
    one call per item."""
    done = {}
    mean = err = 0.0
    for d in marginals:
        if d not in done:
            done[d] = fn(d)
        mean += done[d].mean
        err += done[d].stderr
    return RevenueEstimate(mean=mean, stderr=err)


@functools.lru_cache(maxsize=8)
def _score_points(d: SingleDist, n: int, cells: int) -> np.ndarray:
    """Sorted, read-only grid from min(0, support_lo) to the top of the support
    (Q(1 - 2^-53) if unbounded): the support edges, 0, the atoms and an atomic
    item's ironed step levels, where a score's CDF may jump, each with the
    float below it; Q on a ``cells``-cell quantile grid and on its n-th root
    (where the top of n lives); and a geometric grid. Memoized per (d, n,
    cells); the bracket holds on any grid, the points only narrow it.
    """
    lo, hi = d.support_lo, d.support_hi
    levels = iron(d).levels  # empty for the kinds with a density
    top = hi if math.isfinite(hi) else float(d.quantile(np.nextafter(1.0, 0.0)))
    top = max([top, *levels[-1:].tolist()])  # a hull slope may pass v by rounding
    bps = d.quantile_breakpoints()
    jumps = np.concatenate([[min(0.0, lo), 0.0, top], levels, d.quantile(bps)])
    u = np.linspace(0.0, 1.0, cells + 1)
    t = np.concatenate([
        jumps,
        np.nextafter(jumps, -np.inf),  # one-ulp cells left of each known jump
        d.quantile(np.nextafter(bps, 1.0)),
        d.quantile(u),
        d.quantile(u ** (1.0 / n)),
        lo + (top - lo) * np.geomspace(2.0**-20, 1.0, cells // 4),
    ])
    t.sort()  # in place: no second grid-length copy
    # drops Q(1) = inf and the float below min(0, lo); repeats add 0
    t = t[np.searchsorted(t, min(0.0, lo)):np.searchsorted(t, top, "right")]
    t.flags.writeable = False
    return t


def _stieltjes(x: np.ndarray, W: np.ndarray, g) -> tuple[float, float]:
    """sum_k dW_k g(x_k) and sum_k dW_k g(x_k+1), dW_k = W_k+1 - W_k: for a
    monotone g they bracket the integral of g dW over [x_0, x_K]. Walks x in
    pieces of ``PIECE`` cells that share their end points, reads g once per
    point of a piece and adds the pieces' sums in order."""
    left = right = 0.0
    for i in range(0, len(x) - 1, PIECE):
        gx = g(x[i:i + PIECE + 1])
        w = W[i:i + PIECE + 1]
        dW = w[1:] - w[:-1]
        # np.sum, not a BLAS dot, whose threaded sum order follows the CPU count
        left += float(np.sum(dW * gx[:-1]))
        right += float(np.sum(dW * gx[1:]))
    return left, right


def _score_estimate(d: SingleDist, n: int, cdf) -> RevenueEstimate:
    """E[S] = L + integral over t >= L of 1 - H(t), for a score S >= L =
    min(0, support_lo) of item d with CDF H = ``cdf``.

    Bracketed by rectangles on ``_score_points`` with ``_QUAD_CELLS`` cells
    (read at the call), summed by ``_stieltjes`` with W = t and g = 1 - H.
    On each cell [t_k, t_k+1) the nondecreasing H lies between H(t_k) and
    its left limit at t_k+1, and that left limit is at most H(t_k+1) (H is
    right-continuous), so dt (1 - H(t_k)) bounds the cell's area from above
    and dt (1 - H(t_k+1)) from below: one read of H per point serves both
    ends, wherever H jumps. The grid puts a one-ulp cell left of each jump
    it knows, so the lower end loses almost nothing there. Past the last
    point T every score here has 1 - H <= n (1 - F), which adds
    n * d.tail_integral(T) to the upper end. Returns the bracket's midpoint,
    with its half-width as the stderr.
    """
    t = _score_points(d, n, _QUAD_CELLS)
    upper, lower = _stieltjes(t, t, lambda x: 1.0 - cdf(x))
    upper = float(t[0] + upper) + n * d.tail_integral(t[-1])
    lower = float(t[0] + lower)
    return RevenueEstimate(mean=0.5 * (lower + upper), stderr=0.5 * (upper - lower))


def myerson_item_revenue(d: SingleDist, n: int) -> RevenueEstimate:
    """Optimal single-item revenue with n i.i.d. bidders, E[(phi_bar(max))^+].

    The top quantile has CDF u^n, so phi_bar(max)^+ has CDF psi(t)^n
    (``IronedVirtualMap.psi``).
    """
    if n < 1:
        raise ValueError("need n >= 1")
    imap = iron(d)
    return _score_estimate(d, n, lambda t: imap.psi(t) ** n)


def vcg_item_revenue(d: SingleDist, n: int) -> RevenueEstimate:
    """Second-price (no reserve) revenue on one item: E[second-highest of n],
    whose CDF is F^n + n F^(n-1) (1 - F)."""
    if n < 1:
        raise ValueError("need n >= 1")
    if n == 1:
        return RevenueEstimate(mean=0.0, stderr=0.0)

    def cdf(t):
        F = d.cdf(t)
        return F**n + n * F ** (n - 1) * (1.0 - F)

    return _score_estimate(d, n, cdf)


def srev(pd: ProductDist, n: int) -> RevenueEstimate:
    """Myerson run separately per item: sum of single-item optimal revenues."""
    return _item_sum(pd.marginals, lambda d: myerson_item_revenue(d, n))


def vcg(pd: ProductDist, n: int) -> RevenueEstimate:
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
) -> RevenueEstimate:
    """Revenue of the sequential posted-bundle mechanism on ER(p)^m.

    Greedy bundle choice (the bidder's k = m//(4n) highest-value unsold
    items) maximizes her purchase probability. Her values on the R unsold
    items are i.i.d. ER(p) whichever items they are, since that set depends
    only on earlier bidders, so her bundle value has the law of the sum of
    Q(U_(j)) over the top k order statistics of R uniforms, which
    ``experiments.top_order_walk`` draws. She buys iff it meets the price;
    a sale takes R down by k. Ties at the atom p do not change the sum.
    Blocks of ``BLOCK // _FELDMAN_WIDTH`` runs draw n k uniforms per run and
    are reduced to the ``batch_moments`` of price times the bundles sold.
    """
    bundle, default_price = feldman_params(n, m)
    price = default_price if price is None else price
    if not (math.isfinite(price) and price >= 0.0):
        raise ValueError("posted price must be finite and >= 0")
    dist = TruncatedEqualRevenue(p)

    def block(rng, r):
        sold = np.zeros(r)  # bundles sold in each run
        for _ in range(n):
            unsold = m - bundle * sold
            value = np.zeros(r)
            for u in top_order_walk(rng, unsold, bundle, r):
                value += dist.quantile(u)
            sold += value >= price
        return batch_moments(price * sold)

    mean, stderr = mean_stderr(map_batches(seed, "feldman", N, block, _FELDMAN_WIDTH))
    return RevenueEstimate(mean=mean, stderr=stderr)


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
            return math.log(x / gap) / t**2 - 1.0 / (t * x)
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
    p_high = er2_sum_tail_truncated(t_high, trunc)
    p_med = max(er2_sum_tail_truncated(2.0 * q, trunc) - p_high, 0.0)
    return {"k": k, "p_high": p_high, "p_med": p_med}


def three_tier_mechanism(n: int, q: float, p: float) -> RevenueEstimate:
    """Revenue of the three-tier (high/medium/low) mechanism on ER^2 bidders.

    Bidders play the explicit threshold profile: high iff v1+v2 >= p*k/(k-1)
    with k the concentration value n/q + n*ln(q)/(8 q^2), medium iff
    v1+v2 >= 2q, else low. The first processed high bidder takes both items
    for p; otherwise up to two medium bidders each take one item for q. The
    revenue is exact (``three_tier_revenue``), with stderr 0.
    """
    return RevenueEstimate(mean=three_tier_revenue(n, q, p), stderr=0.0)


def _check_three_tier(n: int, q: float, p: float) -> None:
    if not 100.0 <= q <= math.sqrt(n):
        raise ValueError("q must satisfy 100 <= q <= sqrt(n)")
    if not math.isfinite(p):
        raise ValueError("high price p must be finite")
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
