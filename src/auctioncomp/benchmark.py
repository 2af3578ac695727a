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
(``revenue._score_estimate``). The chain bounds are exact too: the CDF of
the experiment (``experiments.xl_cdf`` / ``xb_cdf``) is tabulated once per
call on a quantile grid, and each item's E[phi_bar(X)] is bracketed by
rectangles on it. ``assign_regions`` is the region rule of the Monte Carlo
oracles in the tests.
"""

from __future__ import annotations

import math

import numpy as np

from .distributions import ProductDist, SingleDist
from .experiments import xb_cdf, xl_cdf
from .revenue import _QUAD_CELLS, RevenueEstimate, _per_item, _score_estimate, _sum_estimates
from .rng import need_samples
from .virtual import _sorted_distinct, iron

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
    """Sum over items of the exact mean of a score with CDF ``item_cdf(d, imap)``,
    integrated once per distinct marginal and added in item order."""
    need_samples(N)
    ests = _per_item(lambda d: _score_estimate(d, n, item_cdf(d, iron(d)), N, seed), pd.marginals)
    return _sum_estimates(ests, N, seed)


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
    bidder is the one with the highest quantile for item j; quantiles are
    randomized at atoms, so that bidder holds v_(1)j. Weakly exceeds the
    benchmark when support_lo >= 0; below 0 it need not (on
    ``discrete:v=-2,-1,1;p=0.3,0.3,0.4`` squared with n = 3 the benchmark
    is 1.38666 and obs1 1.28855).

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


def _phi_at_experiment(pd: ProductDist, cdf, D: float, N: int, seed: int) -> RevenueEstimate:
    """Sum over items of E[phi_bar_j(X)] for an experiment quantile X with CDF
    ``cdf``, exact; no positive part. N and the seed are recorded.

    One quantile grid serves every item: ``_QUAD_CELLS`` uniform cells plus
    each marginal's ironing knots and quantile breakpoints, where phi_bar
    jumps. F = ``cdf`` is tabulated on it once, with F(0) = 0, F(1) = 1 and
    running maxima, so every cell has mass dF_k >= 0. X has no atoms and
    phi_bar is nondecreasing, so on cell (u_k, u_k+1) phi_bar(X) lies
    between its right limit at u_k and its left limit at u_k+1, read at the
    next float above and below. (The exact regular path is left-continuous
    at a value atom: ER(p) reads 0 at its breakpoint and p just above.) The
    item's bracket is the midpoint, with its half-width as the stderr, and
    the items' half-widths add. A repeated marginal reuses its bracket
    (``revenue._per_item``); the sum still runs over the items in order.

    phi_bar is unbounded only for ``Exponential``, where it is Q - 1/rate.
    There the top cell (u_K, 1) takes phi_bar(u_K) dF_K plus
    integral_{s > Q(u_K)} Pr[Q(X) > s] ds <= D * tail_integral(Q(u_K)),
    given 1 - F(u) <= D (1 - u) for every u.
    """
    need_samples(N)
    imaps = {d: iron(d) for d in pd.marginals}  # one per distinct marginal
    u = _sorted_distinct(np.concatenate(
        [np.linspace(0.0, 1.0, _QUAD_CELLS + 1)]
        + [imap.knots for imap in imaps.values()]
        + [d.quantile_breakpoints() for d in imaps]
    ))
    F = cdf(u)
    F[0], F[-1] = 0.0, 1.0
    dF = np.diff(np.maximum.accumulate(F))
    above, below = np.nextafter(u[:-1], np.inf), np.nextafter(u[1:], -np.inf)

    def item(d: SingleDist):
        imap = imaps[d]
        lo_phi = imap.at_quantile(above)
        hi_phi = imap.at_quantile(below)
        tail = 0.0
        if not math.isfinite(d.support_hi):
            hi_phi[-1] = lo_phi[-1]
            tail = D * d.tail_integral(float(d.quantile(above[-1])))
        # np.sum, not a BLAS dot, whose threaded sum order follows the CPU count
        lower = float(np.sum(dF * lo_phi))
        upper = float(np.sum(dF * hi_phi)) + tail
        mean, half_width = 0.5 * (lower + upper), 0.5 * (upper - lower)
        return RevenueEstimate(mean=mean, stderr=half_width, samples=N, seed=seed)

    return _sum_estimates(_per_item(item, pd.marginals), N, seed)


def xl_chain_bound(pd: ProductDist, n: int, N: int, seed: int) -> RevenueEstimate:
    """Sum over items of E[phi_bar_j at the little-n experiment quantile X_L(n, m)].

    Exact (``_phi_at_experiment``), with D = 2n + m - 1: X_L > u needs
    x1 > u (probability 1 - u^n <= n (1 - u)), or x1 <= u with X'_L > u
    (at most (1 - x1^(m-1)) (1 - u)/(1 - x1) <= (m - 1)(1 - u)), or x1 <= u
    with W_2 > u (at most E[(1 - u)/(1 - X_(2))] = n (1 - u)).
    """
    if n < 2:
        raise ValueError("need n >= 2")
    m = pd.m
    return _phi_at_experiment(pd, lambda u: xl_cdf(n, m, u), 2 * n + m - 1, N, seed)


def xb_chain_bound(pd: ProductDist, n: int, ell: int, N: int, seed: int) -> RevenueEstimate:
    """Sum over items of E[phi_bar_j at X_B(n', ell)] with n' = n + (m-1)(ell-1).

    Exact (``_phi_at_experiment``), with D = n' ell / (ell - 1): X_B > u needs
    X_(1) > u (at most n' (1 - u)) or W > u >= X_(1) (at most
    E[(1 - u)/(1 - X_(ell))] = n' (1 - u) / (ell - 1)).
    """
    if not 2 <= ell <= n:
        raise ValueError("need 2 <= ell <= n")
    n_prime = n + (pd.m - 1) * (ell - 1)
    D = n_prime * ell / (ell - 1)
    return _phi_at_experiment(pd, lambda u: xb_cdf(n_prime, ell, u), D, N, seed)
