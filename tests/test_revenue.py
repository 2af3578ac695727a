import math
import tracemalloc
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy import stats

from auctioncomp import benchmark as benchmark_mod
from auctioncomp import distributions as distributions_mod
from auctioncomp import revenue as revenue_mod
from auctioncomp.benchmark import _region_score_cdf, efftw_bound, obs1_bound
from auctioncomp.distributions import (
    Exponential,
    ProductDist,
    TruncatedEqualRevenue,
    Uniform,
    parse_dist,
)
from auctioncomp.experiments import top_order_walk
from auctioncomp.repro import er_offregion_items, er_order_stat, two_item_sum_tail
from auctioncomp.revenue import (
    Bracket,
    _order_stat,
    _score_estimate,
    er2_sum_tail,
    feldman_params,
    _FELDMAN_WIDTH,
    feldman_posted_price,
    myerson_item_revenue,
    srev,
    three_tier_mechanism,
    three_tier_params,
    three_tier_revenue,
    vcg,
    vcg_item_revenue,
)
from auctioncomp.rng import BLOCK, batch_sizes, substream
from oracles import (
    MechanismOutcome,
    bulow_klemperer_check,
    er2_sum_tail_truncated,
    er_order_stat_poly,
    er_score_mean,
    er_site_polys,
    feldman_full_matrix,
    feldman_one_shot,
    feldman_one_shot_sold,
    feldman_run_once,
    holds_er_score_mean,
    myerson_cdf,
    obs1_cdf,
    raw_virtual,
    region_max_cdf,
    sample_estimate,
    three_tier_mc,
    vcg_cdf,
)
from test_grid import ZOO

# ---------------------------------------------------------------------------
# Oracle: the other side of Myerson's identity, its samples held at once.
# ---------------------------------------------------------------------------


def virtual_max_estimate(d, n, N, seed):
    """Monte Carlo E[phi(max of n draws)]; the other side of Myerson's identity."""
    chunks = []
    for bi, b in enumerate(batch_sizes(N, 1_000_000)):
        rng = substream(seed, "virt-max", bi)
        u1 = rng.random(b) ** (1.0 / n)
        chunks.append(raw_virtual(d, d.quantile(u1)))
    return sample_estimate(np.concatenate(chunks))


def _posted_price_oracle(d, lo, hi):
    """Best posted-price revenue max_r r*(1 - F(r)) by grid search."""
    r = np.linspace(lo, hi, 20001)
    return float(np.max(r * (1.0 - np.asarray(d.cdf(np.nextafter(r, -np.inf))))))  # r Pr[X >= r]


def test_bracket_adds_end_by_end():
    assert Bracket(1.0, 2.0) + Bracket(-0.5, 4.0) == Bracket(0.5, 6.0)
    assert sum([Bracket(1.0, 3.0)] * 3, Bracket.point(0.0)) == Bracket(3.0, 9.0)
    assert Bracket.point(2.5) == Bracket(2.5, 2.5)
    b = Bracket(1.0, 3.0)
    assert (b.mid, b.half) == (2.0, 1.0)


@pytest.mark.parametrize(
    "a, b, want",
    [
        ((0.0, 1.0), (2.0, 3.0), True),  # wholly below
        ((0.0, 1.0), (1.0, 3.0), True),  # touching ends: hi == other.lo
        ((1.0, 1.0), (1.0, 1.0), True),  # one point
        ((2.0, 3.0), (0.0, 1.0), False),  # wholly above
        ((0.0, 2.0), (1.0, 3.0), None),  # overlapping
        ((1.0, 3.0), (0.0, 1.0), None),  # touching from above: lo == other.hi
        # a NaN end refutes whatever the other ends read, so a check fails closed
        ((math.nan, 1.0), (2.0, 3.0), False),
        ((math.nan, 1.0), (0.5, 3.0), False),
        ((0.0, 1.0), (math.nan, 0.5), False),
        ((-math.inf, math.inf), (0.0, 1.0), None),  # unbounded, yet no NaN
        ((0.0, math.nan), (2.0, 3.0), False),
        ((0.0, 1.0), (math.nan, 3.0), False),
        ((0.0, 1.0), (2.0, math.nan), False),
        ((math.nan, math.nan), (math.nan, math.nan), False),
    ],
)
def test_bracket_le_reads_true_false_or_undecided(a, b, want):
    assert Bracket(*a).le(Bracket(*b)) is want


def test_myerson_uniform_matches_posted_price_oracle():
    # oracle: max over r of r*(1-r) = 0.25 at r = 0.5
    oracle = _posted_price_oracle(Uniform(0, 1), 0.0, 1.0)
    assert oracle == pytest.approx(0.25, abs=1e-6)
    est = myerson_item_revenue(Uniform(0, 1), 1)
    assert est.mid == pytest.approx(oracle, abs=1e-4)
    assert est.lo <= 0.25 <= est.hi and est.half <= 1e-5


@pytest.mark.parametrize("rate", [1.0, 2.0])
def test_myerson_exponential_within_its_half_width(rate):
    # exact value e^-1 / rate: the posted price 1/rate sells with probability
    # e^-1; the integral reaches the log-singular top of the quantile range
    est = myerson_item_revenue(Exponential(rate), 1)
    assert est.lo <= math.exp(-1.0) / rate <= est.hi
    assert est.half <= 1e-4 / rate


def test_myerson_exponential_single_bidder():
    # oracle: max r*exp(-r) = 1/e at r = 1
    oracle = _posted_price_oracle(Exponential(1.0), 0.0, 20.0)
    assert oracle == pytest.approx(math.exp(-1.0), abs=1e-6)
    est = myerson_item_revenue(Exponential(1.0), 1)
    assert est.mid == pytest.approx(oracle, abs=2e-3)


def _ulps(b: Bracket) -> float:
    """The bracket's width in ulps of its larger end (0 for [0, 0])."""
    return (b.hi - b.lo) / math.ulp(max(abs(b.lo), abs(b.hi)))


@pytest.mark.parametrize("n", [1, 3, 6])
def test_myerson_er_near_n(n):
    # the truncated curve's revenue p (1 - (1 - 1/p)^n), in exact rationals:
    # the bracket holds it within 4 ulps
    for p in (2.5, 1e4, 1e16):
        est = myerson_item_revenue(TruncatedEqualRevenue(p), n)
        exact = Fraction(p) * (1 - (1 - 1 / Fraction(p)) ** n)
        assert Fraction(est.lo) <= exact <= Fraction(est.hi) and _ulps(est) <= 4, (p, est)


def test_myerson_monotone_in_n():
    d = Exponential(1.0)
    means = [myerson_item_revenue(d, n).mid for n in range(1, 8)]
    assert all(b >= a - 1e-9 for a, b in zip(means, means[1:]))


def _vcg2_uniform_oracle():
    # E[min of 2 uniforms]... second-highest of 2 = min; numeric integration
    t = np.linspace(0.0, 1.0, 200001)
    # density of min of 2: 2*(1-t)
    return float(np.trapezoid(t * 2.0 * (1.0 - t), t))


def test_vcg_uniform_two_bidders():
    oracle = _vcg2_uniform_oracle()
    assert oracle == pytest.approx(1.0 / 3.0, abs=1e-8)
    est = vcg_item_revenue(Uniform(0, 1), 2)
    assert abs(est.mid - oracle) <= 3 * est.half


def test_vcg_single_bidder_is_zero():
    est = vcg_item_revenue(TruncatedEqualRevenue(1e4), 1)
    assert est == Bracket(0.0, 0.0)


def test_vcg_er_second_highest_mean():
    # the second-highest of n truncated equal-revenue draws has mean
    # 1 + (p - 1)(1 - (1 - 1/p)^(n - 1)), near n for large p, in exact
    # rationals: the bracket holds it within 4 ulps
    for p in (2.5, 1e4, 1e16):
        for n in (2, 6, 32):
            est = vcg_item_revenue(TruncatedEqualRevenue(p), n)
            exact = 1 + (Fraction(p) - 1) * (1 - (1 - 1 / Fraction(p)) ** (n - 1))
            assert Fraction(est.lo) <= exact <= Fraction(est.hi) and _ulps(est) <= 4, (p, n, est)


def test_virtual_max_cross_check():
    # E[phi(max)] is the revenue of always awarding to the highest bidder,
    # i.e. second-price with no reserve, for regular d
    for d in [Uniform(0, 1), Exponential(1.0)]:
        for n in (1, 3):
            mc, se = virtual_max_estimate(d, n, 400_000, seed=4)
            second = vcg_item_revenue(d, n)
            assert abs(mc - second.mid) <= 3 * math.hypot(se, second.half)


def test_srev_sums_items():
    pd = ProductDist((Uniform(0, 1), Uniform(0, 1)))
    est = srev(pd, 1)
    assert est.mid == pytest.approx(0.5, abs=2e-4)


def test_srev_dominates_vcg():
    pd = ProductDist((Uniform(0, 1), Exponential(1.0)))
    for n in (2, 4):
        s = srev(pd, n)
        v = vcg(pd, n)
        assert s.mid >= v.mid - 3 * v.half


def test_vcg_product_n1_zero():
    pd = ProductDist((Uniform(0, 1), Exponential(1.0)))
    assert vcg(pd, 1) == Bracket(0.0, 0.0)


@pytest.mark.parametrize("n", [1, 2, 5])
@pytest.mark.parametrize(
    "spec", ["uniform:0,1", "exp:1", "er:p=10000", "discrete:v=1,3,4,20;p=0.4,0.3,0.25,0.05"]
)
def test_vcg_single_item_product_equals_item_revenue(spec, n):
    # the CLI runs `--mech vcg` through vcg() for every m, m = 1 included
    d = parse_dist(spec)
    assert vcg(ProductDist((d,)), n) == vcg_item_revenue(d, n)


def test_vcg_er_product_scales_with_bidders():
    m, n = 3, 8
    pd = ProductDist(tuple(TruncatedEqualRevenue(1e4) for _ in range(m)))
    est = vcg(pd, n)
    assert abs(est.mid - m * n) <= 0.02 * m * n


# ---------------------------------------------------------------------------
# The one order-statistic rule against the score CDFs as each site wrote them
# ---------------------------------------------------------------------------


# the exact path's cap (``distributions._EXACT_DEGREE``): n and the degree
# of H in F at most 32
CAP = 32


def _closed_form(d, n):
    """Whether the sites of ``_score_sites`` read the equal-revenue closed
    form, not the grid: the pin's n are at most 5, where every H on two
    items has degree at most 2n <= CAP, or past CAP."""
    return isinstance(d, TruncatedEqualRevenue) and n <= CAP


def _one_item(bound, pd, n):
    """The bracket of ``bound`` (efftw or obs1) on the first item of pd
    alone: the items' sum is not formed, so no rounding of it enters."""
    with mock.patch.object(benchmark_mod, "_item_sum", lambda marginals, fn: fn(marginals[0])):
        return bound(pd, n)


def _score_sites(d, n):
    """(site, the package's bracket, the bracket of the site's own CDF on
    the grid) for every exact score on item d with n bidders; the benchmark
    and obs1 on (d, d), which integrates d once and adds it twice, but one
    item's bracket on an equal-revenue item, whose closed form the caller
    checks against the oracle's one-item value."""
    pd = ProductDist((d, d))
    er = _closed_form(d, n)
    step = lambda t: (t >= 0).astype(float)  # the off-region term's psi: region terms are 0
    yield "myerson", myerson_item_revenue(d, n), _score_estimate(d, n, myerson_cdf(d, n))
    if n > 1:
        yield "vcg", vcg_item_revenue(d, n), _score_estimate(d, n, vcg_cdf(d, n))
    one = _score_estimate(d, n, region_max_cdf(d, 2, n, d.psi))
    yield "efftw", _one_item(efftw_bound, pd, n) if er else efftw_bound(pd, n), Bracket.point(0.0) + one + one
    off = (er_offregion_items(n, 2, d.p)[0] if isinstance(d, TruncatedEqualRevenue)
           else _order_stat(d, n, _region_score_cdf(2), psi="step"))
    yield "off-region", off, _score_estimate(d, n, region_max_cdf(d, 2, n, step))
    if n > 1 and d.support_lo >= 0:
        one = _score_estimate(d, n, obs1_cdf(d, 2, n))
        yield "obs1", _one_item(obs1_bound, pd, n) if er else obs1_bound(pd, n), Bracket.point(0.0) + one + one


@pytest.mark.parametrize("n", [1, 2, 5, 4096])
@pytest.mark.parametrize("spec", ZOO)
def test_order_stat_rule_keeps_every_site_bit_for_bit(spec, n):
    # every score keeps the bits of its site's own CDF on the grid, but on
    # an equal-revenue item below the size cap, whose closed form holds the
    # exact rational value within 4 ulps instead
    d = parse_dist(spec)
    for site, got, want in _score_sites(d, n):
        if _closed_form(d, n):
            exact = er_score_mean(d.p, er_site_polys(2, n, 1 - 1 / Fraction(d.p))[site])
            assert holds_er_score_mean(got, d.p, exact) and _ulps(got) <= 4, (site, got)
        else:
            assert (got.lo.hex(), got.hi.hex()) == (want.lo.hex(), want.hi.hex()), site


@pytest.mark.parametrize("p", [1e4, 1e6])
@pytest.mark.parametrize("x, y", [(2, 5), (4, 12), (12, 12)])
def test_er_order_stat_rule_matches_the_binomial_sum(x, y, p):
    # the binomial sum C(y, j) (1 - F)^j F^(y-j), each (1 - F)^j expanded,
    # integrated in exact rationals: the closed form holds it within 4 ulps
    got = er_order_stat(x, y, p)
    assert holds_er_score_mean(got, p, er_score_mean(p, er_order_stat_poly(x, y))) and _ulps(got) <= 4, got


def _er_sites(d, m):
    """Each exact score on ER(p) among m items: (site, the least n, n -> one
    item's bracket, n -> the degree of its H in F)."""
    pd = ProductDist((d,) * m)
    return [
        ("myerson", 1, lambda n: myerson_item_revenue(d, n), lambda n: 0),
        ("efftw", 1, lambda n: _one_item(efftw_bound, pd, n), lambda n: n * m),
        ("off-region", 1, lambda n: er_offregion_items(n, m, d.p)[0], lambda n: n * m),
        ("vcg", 2, lambda n: vcg_item_revenue(d, n), lambda n: n),
        ("obs1", 2, lambda n: _one_item(obs1_bound, pd, n), lambda n: n - 1 + m),
    ]


@pytest.mark.parametrize("p", [1.0, 2.5, 1e2, 1e4, 1e6, 1e16])
def test_er_brackets_hold_the_exact_value(p):
    # every site's closed form holds the exact rational value, with ln p to
    # 40 digits, within 4 ulps, for n from 1 up to the cap; one past the cap
    # the site walks the grid and keeps the bits of its own CDF there
    d = TruncatedEqualRevenue(p)
    step = lambda t: (t >= 0).astype(float)
    for m in (1, 2, 4):
        for site, least, bracket, degree in _er_sites(d, m):
            top = max(n for n in range(least, CAP + 1) if degree(n) <= CAP)
            for n in sorted({least, 2, 3, 5, top, top + 1}):
                got = bracket(n)
                if n <= top:
                    H = er_site_polys(m, n, 1 - 1 / Fraction(p))[site]
                    assert holds_er_score_mean(got, p, er_score_mean(p, H)), (site, m, n, got)
                    assert _ulps(got) <= 4, (site, m, n, got)
                else:
                    cdf = {"myerson": myerson_cdf(d, n), "vcg": vcg_cdf(d, n), "obs1": obs1_cdf(d, m, n),
                           "efftw": region_max_cdf(d, m, n, d.psi), "off-region": region_max_cdf(d, m, n, step)}
                    want = _score_estimate(d, n, cdf[site])
                    assert (got.lo.hex(), got.hi.hex()) == (want.lo.hex(), want.hi.hex()), (site, m, n)
    for y in (2, 3, 5, CAP):
        for x in range(2, y + 1, 3):
            got = er_order_stat(x, y, p)
            assert holds_er_score_mean(got, p, er_score_mean(p, er_order_stat_poly(x, y))), (x, y, got)
            assert _ulps(got) <= 4, (x, y, got)


@pytest.mark.parametrize("p", [2.5, 3.3, 1e4, 10000.1, 1e16])
def test_sums_over_er_items_hold_the_exact_sum(p):
    # each item's bracket holds its exact value within a few ulps, and the
    # items' sum rounds each end outward; to nearest, an end rounded inward
    # in 46 of 196 such efftw sums (ER(3.3)^3 at n = 10 read one point)
    d = TruncatedEqualRevenue(p)
    for m in (3, 4, 5, 7):
        pd = ProductDist((d,) * m)
        for n in range(2, CAP // m + 1, 3):
            polys = er_site_polys(m, n, 1 - 1 / Fraction(p))
            for site, got in (("efftw", efftw_bound(pd, n)), ("myerson", srev(pd, n)), ("vcg", vcg(pd, n))):
                A, B = er_score_mean(p, polys[site])
                assert holds_er_score_mean(got, p, (m * A, m * B)), (site, m, n, got)


def test_bracket_sum_rounds_outward_only_where_nearest_went_inward():
    # 0.1 + 0.2 rounds up to nearest: the lower end steps down, the upper
    # end keeps it; a doubling and a sum that is exact keep their bits
    got = Bracket.point(0.1) + Bracket.point(0.2)
    assert (got.lo, got.hi) == (math.nextafter(0.1 + 0.2, 0.0), 0.1 + 0.2)
    assert Bracket(0.1, 0.3) + Bracket(0.1, 0.3) == Bracket(0.2, 0.6)
    assert Bracket(1.0, 2.0) + Bracket(0.5, 0.25) == Bracket(1.5, 2.25)
    assert Bracket(-math.inf, 1.0) + Bracket(1.0, math.inf) == Bracket(-math.inf, math.inf)


def test_er_closed_form_stops_at_the_cap(monkeypatch):
    # n <= 32 and H of degree <= 32 are read in integers; past either the grid
    walks = []
    score_estimate = revenue_mod._score_estimate
    monkeypatch.setattr(revenue_mod, "_score_estimate", lambda *a: walks.append(a[1]) or score_estimate(*a))
    d = TruncatedEqualRevenue(1e4)
    for n, m in [(32, 1), (16, 2), (8, 4), (33, 1), (17, 2), (9, 4)]:
        efftw_bound(ProductDist((d,) * m), n)
    for n, m in [(31, 2), (29, 4), (30, 4)]:  # H of degree n - 1 + m
        obs1_bound(ProductDist((d,) * m), n)
    myerson_item_revenue(d, 32)
    myerson_item_revenue(d, 33)
    assert walks == [33, 17, 9, 30, 33]


def test_er_oracle_check_catches_a_dropped_log_term(monkeypatch):
    # obs1's rule is the one whose 1 - H has a w^1 term: without r_1 ln p
    # its bracket misses the exact value
    p, m, n = 1e4, 2, 4
    d = TruncatedEqualRevenue(p)
    exact = er_score_mean(p, er_site_polys(m, n, 1 - 1 / Fraction(p))["obs1"])
    assert exact[1] != 0
    assert holds_er_score_mean(_one_item(obs1_bound, ProductDist((d,) * m), n), p, exact)
    monkeypatch.setattr(distributions_mod, "_log_bracket", lambda p, N: (0, 0, 1))
    assert not holds_er_score_mean(_one_item(obs1_bound, ProductDist((d,) * m), n), p, exact)


def test_order_stat_rule_checks_n_once():
    d = Uniform(0.0, 1.0)
    for call in (lambda: myerson_item_revenue(d, 0), lambda: vcg_item_revenue(d, 0),
                 lambda: efftw_bound(ProductDist((d,)), 0), lambda: _order_stat(d, -1, d.cdf, k=2)):
        with pytest.raises(ValueError, match="need n >= 1"):
            call()


@pytest.mark.parametrize("d,n", [(Uniform(0, 1), 1), (Exponential(1.0), 1),
                                 (TruncatedEqualRevenue(1e4), 3)])
def test_bulow_klemperer(d, n):
    vcg_est, rev_est, margin = bulow_klemperer_check(d, n)
    assert rev_est.le(vcg_est) is not False, margin


def test_bulow_klemperer_rejects_irregular():
    from auctioncomp.distributions import FiniteDiscrete

    d = FiniteDiscrete((1.0, 1.2, 10.0), (0.5, 0.4, 0.1))
    with pytest.raises(ValueError):
        bulow_klemperer_check(d, 2)


# ---------------------------------------------------------------------------
# Explicit mechanisms
# ---------------------------------------------------------------------------


def test_feldman_params():
    bundle, price = feldman_params(2, 64)
    assert bundle == 8
    assert price == pytest.approx((64 / 8) * (math.log(32) + 1))
    with pytest.raises(ValueError):
        feldman_params(2, 7)


def test_feldman_revenue_window():
    n, m = 2, 64
    _, price = feldman_params(n, m)
    mean, _ = feldman_posted_price(n, m, 20_000, seed=8)
    assert mean <= n * price + 1e-9
    assert mean >= n * price / 2  # per-buyer purchase probability >= 1/2


def test_feldman_huge_price_gives_zero():
    assert feldman_posted_price(1, 4, 1000, seed=9, p=1e4, price=1e9) == (0.0, 0.0)


def test_feldman_run_once_trace():
    values = np.array([[5.0, 1.0, 0.5, 0.2], [4.0, 3.0, 0.1, 0.1]])
    out = feldman_run_once(values, bundle_size=1, price=2.0)
    assert isinstance(out, MechanismOutcome)
    assert out.revenue == 4.0
    assert out.payments == (2.0, 2.0)
    assert out.winners[0] == 0  # first bidder takes her top item
    assert out.winners[1] == 1  # second bidder's best remaining item


def test_feldman_posted_price_matches_per_profile_oracle():
    # the same draws as feldman_posted_price (one block: n k arrays of N
    # uniforms in turn), each profile's walk replayed in Python floats; at
    # this price about one bundle in ten goes unsold, so a bidder after a
    # sale walks the order statistics of fewer items
    n, m, N, seed, price = 2, 16, 400, 12, 12.0
    bundle, _ = feldman_params(n, m)
    mean, _ = feldman_posted_price(n, m, N, seed, p=1e4, price=price)
    draws = substream(seed, "feldman").random((n, bundle, N))
    dist = TruncatedEqualRevenue(1e4)
    revs = []
    for run in range(N):
        unsold, revenue = m, 0.0
        for i in range(n):
            u, value = 1.0, 0.0
            for j in range(bundle):
                u *= draws[i, j, run] ** (1.0 / (unsold - j))
                value += float(dist.quantile(u))
            if value >= price:
                revenue += price
                unsold -= bundle
        revs.append(revenue)
    assert 0 < np.mean(revs) < n * price
    assert mean == pytest.approx(np.mean(revs), rel=1e-12)


def test_feldman_full_matrix_oracle_matches_run_once():
    # the law oracle's vectorized greedy choice, one traced run at a time
    n, m, N, seed, price = 2, 16, 400, 12, 12.0
    bundle, _ = feldman_params(n, m)
    ref, _ = feldman_full_matrix(n, m, N, seed, p=1e4, price=price)
    vals = TruncatedEqualRevenue(1e4).quantile(
        substream(seed, "feldman-full-matrix").random((N, n, m)))
    revs = [feldman_run_once(v, bundle, price).revenue for v in vals]
    assert 0 < ref < n * price
    assert ref == pytest.approx(np.mean(revs), rel=1e-12)


@pytest.mark.parametrize("n, m, price", [(2, 64, 60.0), (2, 64, 75.0), (1, 8, 12.0), (3, 48, 30.0),
                                         (2, 16, 12.0)])
def test_feldman_walk_has_the_full_matrix_law(n, m, price):
    # the walk draws n k uniforms per run, the oracle all n m values, from
    # independent streams; at these prices some bundles sell and some do not
    est, se = feldman_posted_price(n, m, 40_000, seed=5, price=price)
    ref, ref_se = feldman_full_matrix(n, m, 40_000, seed=5, price=price)
    assert 0 < ref < n * price
    assert abs(est - ref) <= 4 * math.hypot(se, ref_se)


def test_top_order_walk_has_the_sorted_law():
    # two counts R in one walk: each row's j-th value against the j-th
    # largest of R uniforms sorted
    size, k = 20_000, 5
    R = np.repeat([7.0, 40.0], size)
    walk = [u.copy() for u in top_order_walk(substream(6, "walk"), R, k, len(R))]
    rng = substream(6, "walk-sorted")
    for half, r in enumerate((7, 40)):
        ref = np.sort(rng.random((size, r)), axis=1)[:, ::-1]
        rows = slice(half * size, (half + 1) * size)
        for j in range(k):
            assert np.all(walk[j][rows] <= (walk[j - 1][rows] if j else 1.0))
            _, pval = stats.ks_2samp(walk[j][rows], ref[:, j])
            assert pval > 1e-3, (r, j, pval)


@pytest.mark.parametrize("n, m, price", [(2, 64, 60.0), (4, 1024, 6000.0)])
def test_feldman_blocks_keep_the_one_shot_bits(n, m, price):
    # three full blocks and a partial one; at these prices only some bundles
    # sell (at (4, 1024) and price 700 every run sells all four)
    N = 3 * (BLOCK // _FELDMAN_WIDTH) + 5
    est = feldman_posted_price(n, m, N, seed=3, price=price)
    assert 0 < est[0] < n * price
    assert est == feldman_one_shot(n, m, N, seed=3, price=price)


def test_feldman_estimate_is_exact_in_its_integer_totals():
    # every run of this seed sells both bundles at the default price, so
    # the revenue is 2 price in every run and its stderr exactly 0
    _, price = feldman_params(2, 64)
    assert feldman_posted_price(2, 64, 20_000, seed=12345) == (2 * price, 0.0)
    # where runs sell one bundle or two, the totals (S1, S2) give the mean
    # and np.std(ddof=1) / sqrt(N) of the whole sample's revenues
    N = BLOCK // _FELDMAN_WIDTH + 5
    price, sold = feldman_one_shot_sold(2, 64, N, seed=3, price=60.0)
    assert set(np.unique(sold)) == {1.0, 2.0}
    est, ref = feldman_posted_price(2, 64, N, seed=3, price=60.0), sample_estimate(price * sold)
    assert est[0] == pytest.approx(ref[0], rel=1e-14, abs=0)
    assert est[1] == pytest.approx(ref[1], rel=1e-12, abs=0)


def test_feldman_keeps_the_bits_of_the_ci_artifact():
    # the posted-bundle artifact that CI replays on one CPU (n 4, m 1024,
    # price 6000, 200 000 runs, seed 3): price times the one estimate rule
    assert feldman_posted_price(4, 1024, 200_000, seed=3, price=6000.0) == (11290.44, 12.450823191540017)


def test_feldman_peak_memory_independent_of_N():
    # a constant number of run-length arrays per block, whatever N and m:
    # about 0.6 MiB here. Drawing and masking each run's n m values peaked
    # at 2.1 MiB at m = 64, and at 4.1 MiB for a single run at m = 2^16,
    # whose values alone fill 1 MiB
    feldman_posted_price(2, 64, 100, seed=4)
    for n, m, N in [(2, 64, 200_000), (2, 2**16, 64)]:
        tracemalloc.start()
        try:
            feldman_posted_price(n, m, N, seed=4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2**20, (m, peak / 2**20)


def test_mechanism_outcome_invariants():
    with pytest.raises(ValueError):
        MechanismOutcome(revenue=1.0, winners=(None,), payments=(-1.0,))
    with pytest.raises(ValueError):
        MechanismOutcome(revenue=5.0, winners=(None,), payments=(1.0,))


def test_er2_sum_tail_is_one_up_to_two():
    assert er2_sum_tail(1.5) == er2_sum_tail(2.0) == 1.0
    # and the closed form leaves 2 continuously
    assert er2_sum_tail(math.nextafter(2.0, 3.0)) == pytest.approx(1.0, abs=1e-15)


def test_er2_sum_tail_truncated_vs_mc():
    # a direct Monte Carlo oracle on the truncated square: at t <= P + 1 a
    # draw at the atom P already reaches t, so the untruncated form holds
    P = 100.0
    d = TruncatedEqualRevenue(P)
    rng = substream(10, "tail-oracle")
    v = np.asarray(d.quantile(rng.random((400_000, 2))))
    for t in (3.0, 10.0, 50.0, 101.0):
        mc = float(np.mean(v.sum(axis=1) >= t))
        closed = er2_sum_tail(t)
        se = math.sqrt(max(mc * (1 - mc), 1e-12) / len(v))
        assert abs(closed - mc) <= 4 * se + 1e-6


def test_er2_sum_tail_equals_the_papers_form():
    # 2/t + 2 ln(t - 1)/t^2 against repro's printed form at q = t/2, past
    # t = 2^53 where t - 1 rounds to t
    for t in np.geomspace(2.5, 1e20, 300):
        t = float(t)
        assert er2_sum_tail(t) == pytest.approx(two_item_sum_tail(t / 2.0), rel=1e-15, abs=0)


@pytest.mark.parametrize("scale", [1.0, 1e4, 1e6])
def test_er2_sum_tail_truncated_equals_closed_form_below_the_atom(scale):
    # for t <= P + 1 a draw at the atom P already reaches t, so truncation
    # leaves the event unchanged and the untruncated form the three-tier
    # mechanism reads is the truncated square's tail; past t = 2^53, t - 1
    # rounds to t and the gaps t - x must not be taken from rounded ends
    for t in np.geomspace(2.5, 1e20, 300):
        t = float(t)
        assert er2_sum_tail_truncated(t, scale * t) == pytest.approx(er2_sum_tail(t), rel=1e-15, abs=0)


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_three_tier_thresholds_lie_below_the_truncation_atom(data):
    # values are truncated at P = 10^4 p; the tiers read the untruncated
    # tail, which is the truncated one at t <= P + 1
    n = data.draw(st.integers(10_000, 10**12))
    q = data.draw(st.floats(100.0, math.sqrt(n)))
    p = data.draw(st.floats(100.0 * q, 1.7e304))
    k = n / q + n * math.log(q) / (8.0 * q**2)
    assume(math.isfinite(1e4 * p * k / (k - 1.0)))
    revenue_mod._check_three_tier(n, q, p)
    read = []

    def record(t):
        read.append(t)
        return er2_sum_tail(t)

    with mock.patch.object(revenue_mod, "er2_sum_tail", record):
        three_tier_params(n, q, p)
    assert len(read) == 2 and max(read) <= 1e4 * p + 1.0, (n, q, p, read)


@pytest.mark.parametrize("p", [1e155, 1e160, 1e200, 1e300])
def test_three_tier_finite_past_the_square_of_the_high_price(p):
    # t**2 raised OverflowError past t ~ 1.3e154; t * t reads inf there, and
    # the terms it divides fall below the smallest normal float
    n, q = 1_000_000, 100.0
    k = three_tier_params(n, q, p)["k"]
    assert er2_sum_tail(p * k / (k - 1)) == pytest.approx(2 * (k - 1) / (k * p), rel=1e-12)
    est = three_tier_mechanism(n, q, p)
    assert est.lo == est.hi == pytest.approx(three_tier_revenue(n, q, 1e100), rel=1e-12)


@pytest.mark.parametrize("p", [1e305, 1.7e308, math.inf, math.nan])
def test_three_tier_rejects_a_high_price_whose_threshold_overflows(p):
    # 10^4 p or p k/(k-1) past the largest float made the tier law NaN
    with pytest.raises(ValueError, match="high price p must be finite"):
        three_tier_mechanism(1_000_000, 100.0, p)


def test_three_tier_validates_window():
    with pytest.raises(ValueError):
        three_tier_mechanism(100, 100.0, 1e8)  # q > sqrt(n)
    with pytest.raises(ValueError):
        three_tier_mechanism(10_000, 99.0, 1e8)  # q < 100
    with pytest.raises(ValueError):
        three_tier_mechanism(10_000, 100.0, 500.0)  # p not >> q


@pytest.mark.parametrize("n", [0, -4])
def test_three_tier_rejects_n_below_one(n):
    # the message names n, not the domain error of sqrt(n)
    with pytest.raises(ValueError, match=r"need n >= 1"):
        three_tier_mechanism(n, 100.0, 1e8)


def test_three_tier_medium_count_concentrates():
    # expected medium count is n * P_med, near the k-value n/q + n ln(q)/(8q^2)
    n, q, p = 10_000, 100.0, 1e8
    params = three_tier_params(n, q, p)
    assert n * params["p_med"] == pytest.approx(params["k"], rel=0.05)


def test_three_tier_exact_matches_mechanism():
    n, q, p = 10_000, 100.0, 1e8
    exact = three_tier_revenue(n, q, p)
    assert three_tier_mechanism(n, q, p) == Bracket(exact, exact)
    mc, se = three_tier_mc(n, q, p, 1_000_000, seed=13)
    assert abs(mc - exact) <= 4 * se, (exact, mc, se)
    with pytest.raises(ValueError):
        three_tier_revenue(100, 100.0, 1e8)  # q > sqrt(n)


def test_three_tier_revenue_cap():
    n, q, p = 10_000, 100.0, 1e8
    est = three_tier_mechanism(n, q, p)
    assert est.hi <= n * max(p, 2 * q)
