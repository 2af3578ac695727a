"""The quantile-region revenue benchmark and its chain of upper bounds.

The benchmark partitions bidders by their highest-quantile item: bidder i is
"in region j" when her quantile for item j beats her quantile for every other
item. The benchmark value is

    sum_j E[ max_i { phi_bar_j(v_ij)^+ * I(i in R_j) + v_ij * I(i not in R_j) } ],

which upper-bounds the optimal revenue of any mechanism. The chain bounds
relax it step by step toward a sum of single-item ironed virtual values at
coupled quantile experiments; each relaxation drops the positive part exactly
where the underlying inequality does.

All estimators draw complete valuation profiles from one shared per-seed
stream, so estimates compared at the same seed use common random numbers.
Batches come from ``rng.map_batches``: a profile batch holds about
``rng.BATCH`` floats (n * m per profile), and the chain bounds run one
labelled batch stream per item. Profile batches run on one lane per usable
CPU and are drawn and reduced in blocks of about ``rng.BLOCK`` floats, each
block's output written at its profiles' place in one result array, so the
estimates do not depend on the CPU count. Blocks are item-major, shape
(m, n, b) (see ``ProductDist.sample_profiles``): regions come from a running
maximum over the item slabs, and every reduction over bidders is an
elementwise pass over the n rows of a slab, so no kernel reduces along a
short strided axis.
"""

from __future__ import annotations

import numpy as np

from .distributions import ProductDist
from .experiments import sample_xb, sample_xl
from .revenue import RevenueEstimate, _mc_estimate, _sum_estimates
from .rng import BLOCK, map_batches
from .virtual import iron

__all__ = [
    "assign_regions",
    "efftw_bound",
    "obs1_bound",
    "xl_chain_bound",
    "xb_chain_bound",
]


# profiles per block at least: obs1's pass over the bidders runs numpy calls
# on rows of one value per profile, and on shorter rows the per-call overhead
# (under the interpreter lock) outweighs the cache gain of a smaller block
MIN_BLOCK_PROFILES = 4096


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


def _map_profiles(
    pd: ProductDist, n: int, N: int, seed: int, kernel, shape: tuple = ()
) -> np.ndarray:
    """Run ``kernel(values, quantiles, region)`` on coupled profile blocks.

    Profiles are item-major (see ``ProductDist.sample_profiles``) and come
    from one shared per-seed stream, in batches of about ``BATCH`` floats
    (n * m per profile) that run on every usable CPU. Each batch is drawn and
    reduced in blocks of about ``BLOCK`` floats (but at least
    ``MIN_BLOCK_PROFILES`` profiles), block after block from the batch's
    generator, so a block's draws and temporaries stay in cache and the
    cells hold the same uniforms as a one-shot draw of the batch. The
    kernel returns an array of ``shape`` per profile, with the block's
    profiles on the last axis; each block's output goes straight into one
    ``shape + (N,)`` array, which is returned.
    """
    out = np.empty(shape + (max(N, 0),))  # N < 1 is left to the engine's check
    rows = max(MIN_BLOCK_PROFILES, BLOCK // (n * pd.m))

    def batch(rng, b, start):
        for lo in range(start, start + b, rows):
            hi = min(lo + rows, start + b)
            values, quantiles = pd.sample_profiles(rng, n, hi - lo)
            out[..., lo:hi] = kernel(values, quantiles, assign_regions(quantiles))

    map_batches(seed, "profiles", N, batch, n * pd.m, parallel=True)
    return out


def efftw_bound(pd: ProductDist, n: int, N: int, seed: int) -> RevenueEstimate:
    """Monte Carlo estimate of the quantile-region revenue benchmark."""
    if n < 1:
        raise ValueError("need n >= 1")
    imaps = [iron(d) for d in pd.marginals]

    def kernel(values, quantiles, region):
        total = np.zeros(values.shape[2])
        for j, imap in enumerate(imaps):
            phi_plus = np.maximum(imap.at_quantile(quantiles[j], values[j]), 0.0)
            total += np.where(region == j, phi_plus, values[j]).max(axis=0)
        return total

    return _mc_estimate(_map_profiles(pd, n, N, seed, kernel), N, seed)


def obs1_bound(pd: ProductDist, n: int, N: int, seed: int) -> RevenueEstimate:
    """First relaxation of the benchmark, per item j:

    E[ max { v_(1)j * I(top bidder not in R_j), phi_bar_j(v_(1)j), v_(2)j } ]

    where v_(1)j, v_(2)j are the two highest values for item j and the top
    bidder is the first bidder holding v_(1)j. Weakly exceeds the benchmark.
    """
    if n < 2:
        raise ValueError("need n >= 2 (uses the second-highest value)")
    imaps = [iron(d) for d in pd.marginals]

    def kernel(values, quantiles, region):
        total = np.zeros(values.shape[2])
        for j, imap in enumerate(imaps):
            vj, qj = values[j], quantiles[j]
            # one pass over the bidders: the top value v1 with its bidder's
            # quantile q1 and region r1, and the second value v2
            v1, q1, r1 = vj[0].copy(), qj[0].copy(), region[0].copy()
            v2 = np.full_like(v1, -np.inf)
            for i in range(1, n):
                np.maximum(v2, np.minimum(v1, vj[i]), out=v2)
                top = vj[i] > v1  # strict: a tie keeps the earlier bidder
                np.copyto(v1, vj[i], where=top)
                np.copyto(q1, qj[i], where=top)
                np.copyto(r1, region[i], where=top)
            phi1 = imap.at_quantile(q1, v1)
            total += np.maximum(np.maximum(np.where(r1 == j, 0.0, v1), phi1), v2)
        return total

    return _mc_estimate(_map_profiles(pd, n, N, seed, kernel), N, seed)


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
