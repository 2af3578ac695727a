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
a closed-form CDF (``_region_score_cdf``): the benchmark is the mean of
their highest, and ``obs1_bound`` of the value's rank-2 rule with its own
chance of passing; both are exact 1-D integrals of the one order-statistic
rule (``revenue._order_stat``), each reading the item's own psi
(``SingleDist.psi``), and closed forms on an equal-revenue item below a
size cap. ``obs1_bound`` and the chain bounds take no item
with support_lo < 0, where they need not bound the benchmark; one check
(``_need_support_at_least_0``) serves the three. The chain bounds are
exact too: each distinct item's E[phi_bar(X)] is bracketed by the score
integrals' rule (``revenue._Grid`` and ``revenue._stieltjes``), walked
piece by piece on the item's quantile grid with the CDF of the experiment
(``experiments.XL`` / ``XB``) read on each piece. ``assign_regions``, an argmax over the items, is the region
rule of the Monte Carlo oracles in the tests.

No bound reads a sample count or a seed; the trailing ``N`` and ``seed``
of three of them are pinned by the benchmark harness (README, "Pinned by
`bench/`").
"""

from __future__ import annotations

import math

import numpy as np

from .distributions import ProductDist, SingleDist
from .experiments import XB, XL
from .revenue import _COARSE_U, Bracket, _Grid, _item_sum, _order_stat, _stieltjes

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
    return np.argmax(quantiles, axis=0)


def _region_score_cdf(m: int):
    """The rule x -> G of one bidder's score on an item of m, from x.F and
    x.psi (``revenue._order_stat``).

    A bidder with quantile u is in the item's region with probability
    u^(m-1). Outside it the score (the value) is at most t for quantiles up
    to F(t); inside it the region term is at most t for quantiles up to
    psi(t). So the score has CDF G = F - F^m/m + psi^m/m.
    """
    return lambda x: x.F - x.F**m / m + x.psi**m / m


def efftw_bound(pd: ProductDist, n: int, N: int = 0, seed: int = 0) -> Bracket:
    """The quantile-region revenue benchmark, exact: per item, the highest
    of n scores ``_region_score_cdf``, whose region terms are phi_bar^+, with
    the law ``SingleDist.psi``."""
    rule = _region_score_cdf(pd.m)
    return _item_sum(pd.marginals, lambda d: _order_stat(d, n, rule))


def _need_support_at_least_0(pd: ProductDist) -> None:
    """Reject an item with support_lo < 0, where the chain past the
    benchmark need not bound it."""
    if min(d.support_lo for d in pd.marginals) < 0:
        raise ValueError("the chain needs every item's support_lo >= 0; below 0 it need not bound the benchmark")


def obs1_bound(pd: ProductDist, n: int, N: int = 0, seed: int = 0) -> Bracket:
    """First relaxation of the benchmark, per item j:

    E[ max { v_(1)j * I(top bidder not in R_j), phi_bar_j(v_(1)j), v_(2)j } ]

    where v_(1)j, v_(2)j are the two highest values for item j and the top
    bidder is the one with the highest quantile for item j; quantiles are
    randomized at atoms, so that bidder holds v_(1)j. It weakly exceeds the
    benchmark only where every item's support_lo >= 0, so an item below 0
    is rejected: on ``discrete:v=-2,-1,1;p=0.3,0.3,0.4`` squared with n = 3
    the benchmark is 1.38666 and this quantity 1.28855.

    Exact: as phi_bar <= v, the quantity is v_(1) off the region and
    max(phi_bar^+, v_(2)) in it. It is at most t >= 0 iff no value passes
    t, or one does and that bidder is in the region with phi_bar^+ <= t, so
    its CDF is the second-highest's rule with a = (max(F, psi)^m - F^m)/m,
    that is max(psi^m - F^m, 0)/m, for the chance that one bidder passes
    (psi >= F there; ``_order_stat``).
    """
    if n < 2:
        raise ValueError("need n >= 2 (uses the second-highest value)")
    _need_support_at_least_0(pd)
    m = pd.m

    def accept(x):
        return (x.upper**m - x.F**m) / m

    return _item_sum(pd.marginals, lambda d: _order_stat(d, n, lambda x: x.F, k=2, accept=accept))


def _phi_at_experiment(pd: ProductDist, law) -> Bracket:
    """Sum over items of E[phi_bar_j(X)] for an experiment quantile X of
    ``law`` (an ``XL`` or ``XB``), exact; no positive part. Every item's
    support_lo must be >= 0 (``_need_support_at_least_0``).

    ``revenue._stieltjes`` walks each distinct item's ``revenue._Grid``
    from 0 to u_K = 1 - 2^-53 (points spread by sqrt(dF dphi_bar) from
    ``_COARSE_U`` and the item's ironing knots and breakpoints, with the
    floats beside them) with g = phi_bar and W = F = ``law.cdf``, whose
    running maximum gives every cell a mass dF_k >= 0. X has no atoms and
    phi_bar is nondecreasing, so on cell (u_k, u_k+1) phi_bar(X) lies
    between phi_bar(u_k) and phi_bar(u_k+1), wherever it jumps: a jump costs
    its size times the F-mass of the one-ulp cells beside it. The items'
    brackets add end by end in item order (``revenue._item_sum``).

    The top cell (u_K, 1), of mass law.cdf(1) - F_K, reads phi_bar(u_K)
    and phi_bar(1). phi_bar(1) is infinite only for ``Exponential``, where
    phi_bar is Q - 1/rate; there the upper end takes phi_bar(u_K) dF_K plus
    integral_{s > Q(u_K)} Pr[Q(X) > s] ds <= D * tail_integral(Q(u_K)),
    D = ``law.tail_constant``.
    Working set: the grid's table and the temporaries of one piece.
    """
    _need_support_at_least_0(pd)

    def item(d: SingleDist):
        u_K = np.nextafter(1.0, 0.0)
        grid = _Grid(_COARSE_U, np.append(d.knots, d.quantile_breakpoints()), 0.0, u_K, law.cdf, d.phi_bar)
        lower, upper, F_K = _stieltjes(grid, d.phi_bar, law.cdf)
        top = max(float(law.cdf(1.0)), F_K) - F_K
        at_top, at_one = d.phi_bar([u_K, 1.0]).tolist()
        lower += top * at_top
        if math.isfinite(d.support_hi):
            upper += top * at_one
        else:
            upper += top * at_top + law.tail_constant * d.tail_integral(float(d.quantile(u_K)))
        return Bracket(lower, upper)

    return _item_sum(pd.marginals, item)


def xl_chain_bound(pd: ProductDist, n: int, N: int = 0, seed: int = 0) -> Bracket:
    """Sum over items of E[phi_bar_j at X_L(n, m)], exact (``_phi_at_experiment``),
    for n >= 2: the chain's first link, ``obs1_bound``, needs a second
    bidder."""
    if n < 2:
        raise ValueError("need n >= 2 for the little-n chain")
    return _phi_at_experiment(pd, XL(n, pd.m))


def xb_chain_bound(pd: ProductDist, n: int, ell: int) -> Bracket:
    """Sum over items of E[phi_bar_j at X_B(n', ell)] with n' = n + (m-1)(ell-1),
    exact (``_phi_at_experiment``). It keeps its ell <= n: ``XB`` takes ell up to n'."""
    if ell > n:
        raise ValueError("need 2 <= ell <= n")
    return _phi_at_experiment(pd, XB(n + (pd.m - 1) * (ell - 1), ell))
