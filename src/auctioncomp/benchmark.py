"""The quantile-region revenue benchmark and its chain of upper bounds.

The benchmark partitions bidders by their highest-quantile item: bidder i is
"in region j" when her quantile for item j beats her quantile for every other
item. The benchmark value is

    sum_j E[ max_i { phi_bar_j(v_ij)^+ * I(i in R_j) + v_ij * I(i not in R_j) } ],

which upper-bounds the optimal revenue of any mechanism. The chain bounds
relax it step by step toward a sum of single-item ironed virtual values at
coupled quantile experiments; each relaxation drops the positive part exactly
where the underlying inequality does.

A bidder with quantile u on item j is in R_j with probability u^(m-1),
whatever the marginals, so each item's scores are i.i.d. across bidders with
a closed-form CDF: the benchmark and ``obs1_bound`` are exact 1-D integrals
(``revenue._score_estimate``). The chain bounds are Monte Carlo, one labelled
``rng.map_batches`` stream per item. ``assign_regions`` is the region rule of
the Monte Carlo oracles in the tests.
"""

from __future__ import annotations

import numpy as np

from .distributions import ProductDist, SingleDist
from .experiments import sample_xb, sample_xl
from .revenue import RevenueEstimate, _mc_estimate, _score_estimate, _sum_estimates
from .rng import map_batches, need_samples
from .virtual import iron

__all__ = [
    "assign_regions",
    "efftw_bound",
    "obs1_bound",
    "xl_chain_bound",
    "xb_chain_bound",
]


def assign_regions(quantiles: np.ndarray) -> np.ndarray:
    """Per-bidder region: the index of the item with the highest quantile.

    Accepts item-major quantile arrays of shape (m, ...) (the layout of
    ``ProductDist.sample_profiles``); returns shape (...). Ties go to the
    first such item, as with argmax; atom quantiles are randomized at
    sampling time, so ties have measure zero.
    """
    quantiles = np.asarray(quantiles)
    if quantiles.ndim < 1 or quantiles.shape[0] < 1:
        raise ValueError("need at least one item")
    m = quantiles.shape[0]
    region = np.zeros(quantiles.shape[1:], dtype=np.intp)
    best = quantiles[0]
    for j in range(1, m):
        np.copyto(region, j, where=quantiles[j] > best)  # strict: ties keep the first item
        if j < m - 1:
            best = np.maximum(best, quantiles[j])
    return region


def _region_max_cdf(d: SingleDist, m: int, n: int, psi):
    """CDF of the largest of n i.i.d. bidder scores on item d of m.

    A bidder with quantile u is in the item's region with probability
    u^(m-1). Outside it the score (the value) is at most t for quantiles up
    to F(t); inside it the region term is at most t for quantiles up to
    psi(t). So one score has CDF G = F - F^m/m + psi^m/m, and the largest G^n.
    """

    def cdf(t):
        F = d.cdf(t)
        return (F - F**m / m + psi(t) ** m / m) ** n

    return cdf


def _exact_bound(pd: ProductDist, n: int, N: int, seed: int, item_cdf) -> RevenueEstimate:
    """Sum over items of the exact mean of a score with CDF ``item_cdf(d, imap)``."""
    need_samples(N)
    ests = (_score_estimate(d, n, item_cdf(d, iron(d)), N, seed) for d in pd.marginals)
    return _sum_estimates(ests, N, seed, exact=True)


def efftw_bound(pd: ProductDist, n: int, N: int, seed: int) -> RevenueEstimate:
    """The quantile-region revenue benchmark, exact; N and the seed are recorded.

    Region terms are phi_bar^+, whose law ``IronedVirtualMap.psi`` gives.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    return _exact_bound(pd, n, N, seed, lambda d, imap: _region_max_cdf(d, pd.m, n, imap.psi))


def obs1_bound(pd: ProductDist, n: int, N: int, seed: int) -> RevenueEstimate:
    """First relaxation of the benchmark, per item j:

    E[ max { v_(1)j * I(top bidder not in R_j), phi_bar_j(v_(1)j), v_(2)j } ]

    where v_(1)j, v_(2)j are the two highest values for item j and the top
    bidder is the first bidder holding v_(1)j. Weakly exceeds the benchmark.

    Exact: as phi_bar <= v, the quantity is v_(1) off the region and
    max(phi_bar^+, v_(2)) in it. Its CDF is F^n + n F^(n-1) (psi^m - F^m)/m
    for t >= 0 (where psi >= F) and F^n - n F^(n+m-1)/(n+m-1) for t < 0.
    """
    if n < 2:
        raise ValueError("need n >= 2 (uses the second-highest value)")
    m = pd.m

    def item_cdf(d, imap):
        def cdf(t):
            F = d.cdf(t)
            in_region = n * F ** (n - 1) * np.maximum(imap.psi(t) ** m - F**m, 0.0) / m
            off_only = -n * F ** (n + m - 1) / (n + m - 1)
            return F**n + np.where(t < 0, off_only, in_region)

        return cdf

    return _exact_bound(pd, n, N, seed, item_cdf)


def _phi_at_experiment(pd: ProductDist, sampler, N: int, seed: int, label: str):
    """Sum over items of E[phi_bar_j at an experiment quantile]; no positive part."""

    def item(j, imap):
        chunks = map_batches(seed, (label, j), N, lambda rng, b: imap.at_quantile(sampler(rng, b)))
        return _mc_estimate(np.concatenate(chunks), N, seed)

    return _sum_estimates((item(j, iron(d)) for j, d in enumerate(pd.marginals)), N, seed)


def xl_chain_bound(pd: ProductDist, n: int, N: int, seed: int) -> RevenueEstimate:
    """Sum over items of E[phi_bar_j at the little-n experiment quantile X_L(n, m)]."""
    if n < 2:
        raise ValueError("need n >= 2")
    m = pd.m
    return _phi_at_experiment(pd, lambda rng, b: sample_xl(n, m, rng, b), N, seed, "xl-chain")


def xb_chain_bound(pd: ProductDist, n: int, ell: int, N: int, seed: int) -> RevenueEstimate:
    """Sum over items of E[phi_bar_j at X_B(n', ell)] with n' = n + (m-1)(ell-1)."""
    if not 2 <= ell <= n:
        raise ValueError("need 2 <= ell <= n")
    n_prime = n + (pd.m - 1) * (ell - 1)
    return _phi_at_experiment(pd, lambda rng, b: sample_xb(n_prime, ell, rng, b), N, seed, "xb-chain")
