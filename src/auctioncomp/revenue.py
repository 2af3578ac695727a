"""Revenue estimators: Myerson per item, VCG, and the explicit lower-bound
mechanisms (sequential posted-bundle and three-tier).

Single-item optimal revenue E[(phi_bar(max))^+] is computed by deterministic
quadrature against the exact law of the top quantile (CDF u^n) over the
ironed grid, and is reported with stderr 0. A plain Monte Carlo estimator is
hopeless here for heavy-tailed cases: the truncated equal-revenue curve puts
all of its virtual value in an atom of mass 1/p, so at p = 10^4 the naive
estimator has ~10% relative error at a million samples. VCG (second-highest
value) and the explicit mechanisms are seeded Monte Carlo.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .distributions import ProductDist, SingleDist, TruncatedEqualRevenue
from .rng import map_batches, substream
from .virtual import IronedVirtualMap, iron

__all__ = [
    "RevenueEstimate",
    "myerson_item_revenue",
    "vcg_item_revenue",
    "srev",
    "vcg",
    "bulow_klemperer_check",
    "feldman_params",
    "feldman_posted_price",
    "three_tier_params",
    "three_tier_mechanism",
    "three_tier_revenue",
]

_QUAD_CELLS = 1 << 15


@dataclass(frozen=True)
class RevenueEstimate:
    """Monte Carlo (or quadrature) revenue with its standard error."""

    mean: float
    stderr: float
    samples: int
    seed: int

    def combined_stderr(self, other: "RevenueEstimate") -> float:
        return math.hypot(self.stderr, other.stderr)


def _mc_estimate(values: np.ndarray, samples: int, seed: int) -> RevenueEstimate:
    mean = float(np.mean(values))
    stderr = float(np.std(values, ddof=1) / math.sqrt(len(values))) if len(values) > 1 else 0.0
    return RevenueEstimate(mean=mean, stderr=stderr, samples=samples, seed=seed)


def _sum_estimates(ests, samples: int, seed: int) -> RevenueEstimate:
    """Sum of independent estimates, added in order; stderrs combine in quadrature."""
    mean = var = 0.0
    for est in ests:
        mean += est.mean
        var += est.stderr**2
    return RevenueEstimate(mean=mean, stderr=math.sqrt(var), samples=samples, seed=seed)


def myerson_item_revenue(
    d: SingleDist, n: int, N: int = 0, seed: int = 0, imap: IronedVirtualMap | None = None
) -> RevenueEstimate:
    """Optimal single-item revenue with n i.i.d. bidders, E[(phi_bar(max))^+].

    Integrates the ironed virtual value against the exact distribution of the
    highest quantile (CDF u^n); deterministic, so stderr is 0 and the N
    argument is recorded but unused.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    imap = imap if imap is not None else iron(d)
    grid = np.unique(np.concatenate([np.linspace(0.0, 1.0, _QUAD_CELLS + 1), imap.grid]))
    mids = 0.5 * (grid[:-1] + grid[1:])
    weights = np.diff(grid**n)
    phi = np.maximum(imap.at_quantile(mids), 0.0)
    mean = float(np.sum(phi * weights))
    return RevenueEstimate(mean=mean, stderr=0.0, samples=N, seed=seed)


def _second_highest_quantiles(rng: np.random.Generator, n: int, size: int):
    """(top, second) quantiles of n i.i.d. uniforms via the ratio recursion."""
    u1 = rng.random(size) ** (1.0 / n)
    u2 = u1 * rng.random(size) ** (1.0 / (n - 1))
    return u1, u2


def vcg_item_revenue(d: SingleDist, n: int, N: int, seed: int) -> RevenueEstimate:
    """Second-price (no reserve) revenue on one item: E[second-highest of n]."""
    if n < 1:
        raise ValueError("need n >= 1")
    if N < 1:  # before the n = 1 shortcut, which never reaches the engine's check
        raise ValueError("need N >= 1 samples")
    if n == 1:
        return RevenueEstimate(mean=0.0, stderr=0.0, samples=N, seed=seed)
    chunks = map_batches(
        seed, "vcg-item", N, lambda rng, b: d.quantile(_second_highest_quantiles(rng, n, b)[1])
    )
    return _mc_estimate(np.concatenate(chunks), N, seed)


def srev(pd: ProductDist, n: int, N: int = 0, seed: int = 0) -> RevenueEstimate:
    """Myerson run separately per item: sum of single-item optimal revenues."""
    return _sum_estimates((myerson_item_revenue(d, n, N, seed) for d in pd.marginals), N, seed)


def vcg(pd: ProductDist, n: int, N: int, seed: int) -> RevenueEstimate:
    """Second-price auction per item; per-item stderrs combine in quadrature."""
    ests = (
        vcg_item_revenue(d, n, N, substream(seed, "vcg", j).integers(2**63))
        for j, d in enumerate(pd.marginals)
    )
    return _sum_estimates(ests, N, seed)


def bulow_klemperer_check(d: SingleDist, n: int, N: int, seed: int):
    """Estimate (VCG_{n+1}, Rev_n, margin) for a regular distribution.

    The margin is vcg.mean - rev.mean; the classical guarantee asks it to be
    nonnegative up to 3 combined standard errors.
    """
    imap = iron(d)
    if not imap.regular:
        raise ValueError("Bulow-Klemperer requires a regular distribution")
    vcg_est = vcg_item_revenue(d, n + 1, N, seed)
    rev_est = myerson_item_revenue(d, n, N, seed, imap=imap)
    return vcg_est, rev_est, vcg_est.mean - rev_est.mean


# ---------------------------------------------------------------------------
# Sequential posted-bundle mechanism on ER(p)^m (little-n lower bound)
# ---------------------------------------------------------------------------


def feldman_params(n: int, m: int) -> tuple[int, float]:
    """Bundle size m//(4n) (rounded down) and price (m/8)(ln(m/n)+1)."""
    if n < 1 or m < 4 * n:
        raise ValueError("need n >= 1 and m >= 4n")
    return m // (4 * n), (m / 8.0) * (math.log(m / n) + 1.0)


def feldman_posted_price(
    n: int, m: int, N: int, seed: int, p: float = 1e4, price: float | None = None
) -> RevenueEstimate:
    """Revenue of the sequential posted-bundle mechanism on ER(p)^m.

    Greedy bundle choice (the bidder's highest-value remaining items)
    maximizes her purchase probability.
    """
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
        return price * bought

    return _mc_estimate(np.concatenate(map_batches(seed, "feldman", N, batch, n * m)), N, seed)


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
    x0 = max(1.0, t - P)
    x1 = min(max(t - 1.0, x0), P)
    part_mixed = 0.0
    if x1 > x0:
        def F(x: float) -> float:
            return math.log(x / (t - x)) / t**2 - 1.0 / (t * x)
        part_mixed = F(x1) - F(x0) - a * (1.0 / x0 - 1.0 / x1)
    part_flat = (1.0 - a) * (1.0 / x1 - 1.0 / P) if P > x1 else 0.0
    return both_atoms + one_atom + part_mixed + part_flat


def three_tier_params(n: int, q: float, p: float, truncation: float | None = None) -> dict:
    """Tier thresholds and probabilities for the three-tier mechanism."""
    trunc = truncation if truncation is not None else 1e4 * p
    k = n / q + n * math.log(q) / (8.0 * q**2)
    t_high = p * k / (k - 1.0)
    p_high = er2_sum_tail_truncated(t_high, trunc)
    p_med = max(er2_sum_tail_truncated(2.0 * q, trunc) - p_high, 0.0)
    return {"k": k, "t_high": t_high, "p_high": p_high, "p_med": p_med, "truncation": trunc}


def three_tier_mechanism(
    n: int,
    q: float,
    p: float,
    N: int,
    seed: int,
    truncation: float | None = None,
    profile_override: str | None = None,
) -> RevenueEstimate:
    """Revenue of the three-tier (high/medium/low) mechanism on ER^2 bidders.

    Bidders play the explicit threshold profile: high iff v1+v2 >= p*k/(k-1)
    with k the concentration value n/q + n*ln(q)/(8 q^2), medium iff
    v1+v2 >= 2q, else low. The first processed high bidder takes both items
    for p; otherwise up to two medium bidders each take one item for q, so
    per-run revenue depends only on the tier counts, which are drawn
    multinomially from the exact tier probabilities. The truncation of the
    value support defaults to 10^4 * p so the high price sits well inside it.
    """
    _check_three_tier(n, q, p)
    if profile_override not in (None, "low"):
        raise ValueError("unknown profile override")
    if N < 1:  # before the all-low shortcut, which never reaches the engine's check
        raise ValueError("need N >= 1 samples")
    if profile_override == "low":
        return RevenueEstimate(mean=0.0, stderr=0.0, samples=N, seed=seed)
    return _mc_estimate(_three_tier_runs(n, q, p, N, seed, truncation), N, seed)


def _check_three_tier(n: int, q: float, p: float) -> None:
    if not 100.0 <= q <= math.sqrt(n):
        raise ValueError("q must satisfy 100 <= q <= sqrt(n)")
    if p < 100.0 * q:
        raise ValueError("high price p must be >> q")


def _three_tier_runs(
    n: int, q: float, p: float, N: int, seed: int, truncation: float | None = None
) -> np.ndarray:
    """Per-run revenues of the three-tier mechanism, from multinomial tier counts."""
    params = three_tier_params(n, q, p, truncation)
    p_high, p_med = params["p_high"], params["p_med"]

    def batch(rng, b):
        counts = rng.multinomial(n, [p_high, p_med, 1.0 - p_high - p_med], size=b)
        return np.where(counts[:, 0] >= 1, p, q * np.minimum(counts[:, 1], 2))

    return np.concatenate(map_batches(seed, "three-tier", N, batch))


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
