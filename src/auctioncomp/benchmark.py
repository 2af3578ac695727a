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
the experiment (``experiments.XL`` / ``XB``) is tabulated once per call on
a quantile grid of the score integrals' rule (``revenue._Grid``), and each
item's E[phi_bar(X)] is bracketed on it by that rule's sums
(``revenue._stieltjes``). ``assign_regions`` is
the region rule of the Monte Carlo oracles in the tests.

No bound reads a sample count or a seed. ``efftw_bound``, ``obs1_bound``
and ``xl_chain_bound`` take a trailing ``N`` and ``seed``, unread, since
``bench/workloads.py`` passes them by position and ``bench/tracer.py`` reads
``N`` by name, so callers here pass ``N`` to the first two.
"""

from __future__ import annotations

import math

import numpy as np

from .distributions import ProductDist, SingleDist
from .experiments import XB, XL
from .revenue import _COARSE_U, RevenueEstimate, _Grid, _item_sum, _score_estimate, _stieltjes
from .rng import fill_pieces
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


def efftw_bound(pd: ProductDist, n: int, N: int = 0, seed: int = 0) -> RevenueEstimate:
    """The quantile-region revenue benchmark, exact.

    Region terms are phi_bar^+, whose law ``IronedVirtualMap.psi`` gives.
    N and the seed are not read (see the module docstring).
    """
    if n < 1:
        raise ValueError("need n >= 1")
    return _item_sum(pd.marginals,
                     lambda d: _score_estimate(d, n, _region_max_cdf(d, pd.m, n, iron(d).psi)))


def obs1_bound(pd: ProductDist, n: int, N: int = 0, seed: int = 0) -> RevenueEstimate:
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
    N and the seed are not read (see the module docstring).
    """
    if n < 2:
        raise ValueError("need n >= 2 (uses the second-highest value)")
    m = pd.m

    def item(d):
        imap = iron(d)

        def cdf(t):
            F = d.cdf(t)
            extra = n * F ** (n - 1) * np.maximum(imap.psi(t) ** m - F**m, 0.0) / m
            below = t < 0  # only a support below 0 has such points
            extra[below] = -n * F[below] ** (n + m - 1) / (n + m - 1)
            return F**n + extra

        return _score_estimate(d, n, cdf)

    return _item_sum(pd.marginals, item)


def _chain_grid(marginals, law) -> tuple[np.ndarray, np.ndarray]:
    """(u, F): the chain bounds' ``revenue._Grid`` on [0, 1], made whole a
    piece at a time, and F = ``law.cdf`` on it (0 at u = 0, 1 at u = 1) with
    running maxima. Its table is ``_COARSE_U`` and where phi_bar
    may jump, the atomic items' ironing knots and every item's
    breakpoints, with the floats beside them; W = F and g is the sum of the
    distinct items' phi_bar, read up to the float below 1."""
    imaps = [iron(d) for d in dict.fromkeys(marginals)]
    steps = np.concatenate([np.append(imap.knots, imap.dist.quantile_breakpoints()) for imap in imaps])
    grid = _Grid(_COARSE_U, steps, 0.0, 1.0, law.cdf,
                 lambda u: sum(imap.at_quantile(np.minimum(u, np.nextafter(1.0, 0.0))) for imap in imaps))
    u = fill_pieces(np.empty(grid.size), np.asarray, grid)
    F = law.cdf(u)
    return u, np.maximum.accumulate(F, out=F)


def _phi_at_experiment(pd: ProductDist, law) -> RevenueEstimate:
    """Sum over items of E[phi_bar_j(X)] for an experiment quantile X of
    ``law`` (an ``XL`` or ``XB``), exact; no positive part.

    One grid serves every item (``_chain_grid``), its points spread by
    sqrt(dF dphi_bar), with F = ``law.cdf`` tabulated on it once, so every
    cell has mass dF_k >= 0. X has no atoms and phi_bar is nondecreasing,
    so on cell (u_k, u_k+1) phi_bar(X) lies between phi_bar(u_k) and
    phi_bar(u_k+1), wherever it jumps: ``revenue._stieltjes`` with W = F
    and g = phi_bar brackets the cells below u_K; a jump costs its size
    times the F-mass of the one-ulp cells beside it. The item's
    bracket is the midpoint, with its half-width as the stderr, and the
    items' half-widths add. A repeated marginal reuses its bracket
    (``revenue._item_sum``); the sum still runs over the items in order.

    The top cell (u_K, 1), u_K = 1 - 2^-53, reads phi_bar(u_K) and
    phi_bar(1). phi_bar(1) is infinite only for ``Exponential``, where
    phi_bar is Q - 1/rate; there the upper end takes phi_bar(u_K) dF_K
    plus integral_{s > Q(u_K)} Pr[Q(X) > s] ds <= D * tail_integral(Q(u_K)),
    D = ``law.tail_constant``.
    Working set: u, F and the temporaries of one piece.
    """
    u, F = _chain_grid(pd.marginals, law)
    top = float(F[-1] - F[-2])

    def item(d: SingleDist):
        imap = iron(d)
        lower, upper = _stieltjes(u[:-1], imap.at_quantile, F[:-1])
        at_top, at_one = imap.at_quantile(u[-2:]).tolist()
        lower += top * at_top
        if math.isfinite(d.support_hi):
            upper += top * at_one
        else:
            upper += top * at_top + law.tail_constant * d.tail_integral(float(d.quantile(u[-2])))
        return RevenueEstimate(mean=0.5 * (lower + upper), stderr=0.5 * (upper - lower))

    return _item_sum(pd.marginals, item)


def xl_chain_bound(pd: ProductDist, n: int, N: int = 0, seed: int = 0) -> RevenueEstimate:
    """Sum over items of E[phi_bar_j at X_L(n, m)], exact (``_phi_at_experiment``),
    for n >= 2: the chain's first link, ``obs1_bound``, needs a second
    bidder. N and the seed are not read (see the module docstring)."""
    if n < 2:
        raise ValueError("need n >= 2 for the little-n chain")
    return _phi_at_experiment(pd, XL(n, pd.m))


def xb_chain_bound(pd: ProductDist, n: int, ell: int) -> RevenueEstimate:
    """Sum over items of E[phi_bar_j at X_B(n', ell)] with n' = n + (m-1)(ell-1),
    exact (``_phi_at_experiment``). It keeps its ell <= n: ``XB`` takes ell up to n'."""
    if ell > n:
        raise ValueError("need 2 <= ell <= n")
    return _phi_at_experiment(pd, XB(n + (pd.m - 1) * (ell - 1), ell))
