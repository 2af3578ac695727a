import math
import tracemalloc

import numpy as np
import pytest
from scipy import stats

from auctioncomp.distributions import (
    Exponential,
    ProductDist,
    TruncatedEqualRevenue,
    Uniform,
    parse_dist,
)
from auctioncomp.experiments import top_order_walk
from auctioncomp.repro import two_item_sum_tail
from auctioncomp.revenue import (
    RevenueEstimate,
    er2_sum_tail_truncated,
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
    feldman_full_matrix,
    feldman_one_shot,
    feldman_one_shot_sold,
    feldman_run_once,
    sample_estimate,
    three_tier_mc,
)

# ---------------------------------------------------------------------------
# Oracle: the other side of Myerson's identity, its samples held at once.
# ---------------------------------------------------------------------------


def virtual_max_estimate(d, n, N, seed):
    """Monte Carlo E[phi(max of n draws)]; the other side of Myerson's identity."""
    chunks = []
    for bi, b in enumerate(batch_sizes(N, 1_000_000)):
        rng = substream(seed, "virt-max", bi)
        u1 = rng.random(b) ** (1.0 / n)
        chunks.append(d.raw_virtual(d.quantile(u1)))
    return sample_estimate(np.concatenate(chunks))


def _posted_price_oracle(d, lo, hi):
    """Best posted-price revenue max_r r*(1 - F(r)) by grid search."""
    r = np.linspace(lo, hi, 20001)
    return float(np.max(r * (1.0 - np.asarray(d.cdf(np.nextafter(r, -np.inf))))))  # r Pr[X >= r]


def test_myerson_uniform_matches_posted_price_oracle():
    # oracle: max over r of r*(1-r) = 0.25 at r = 0.5
    oracle = _posted_price_oracle(Uniform(0, 1), 0.0, 1.0)
    assert oracle == pytest.approx(0.25, abs=1e-6)
    est = myerson_item_revenue(Uniform(0, 1), 1)
    assert est.mean == pytest.approx(oracle, abs=1e-4)
    assert abs(est.mean - 0.25) <= est.stderr <= 1e-5


@pytest.mark.parametrize("rate", [1.0, 2.0])
def test_myerson_exponential_within_its_half_width(rate):
    # exact value e^-1 / rate: the posted price 1/rate sells with probability
    # e^-1; the integral reaches the log-singular top of the quantile range
    est = myerson_item_revenue(Exponential(rate), 1)
    assert abs(est.mean - math.exp(-1.0) / rate) <= est.stderr
    assert est.stderr <= 1e-4 / rate


def test_myerson_exponential_single_bidder():
    # oracle: max r*exp(-r) = 1/e at r = 1
    oracle = _posted_price_oracle(Exponential(1.0), 0.0, 20.0)
    assert oracle == pytest.approx(math.exp(-1.0), abs=1e-6)
    est = myerson_item_revenue(Exponential(1.0), 1)
    assert est.mean == pytest.approx(oracle, abs=2e-3)


@pytest.mark.parametrize("n", [1, 3, 6])
def test_myerson_er_near_n(n):
    # exact value for the truncated curve is p*(1 - (1-1/p)^n)
    p = 1e4
    exact = p * (1.0 - (1.0 - 1.0 / p) ** n)
    est = myerson_item_revenue(TruncatedEqualRevenue(p), n)
    assert est.mean == pytest.approx(exact, rel=1e-6)


def test_myerson_monotone_in_n():
    d = Exponential(1.0)
    means = [myerson_item_revenue(d, n).mean for n in range(1, 8)]
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
    assert abs(est.mean - oracle) <= 3 * est.stderr


def test_vcg_single_bidder_is_zero():
    est = vcg_item_revenue(TruncatedEqualRevenue(1e4), 1)
    assert est.mean == 0.0 and est.stderr == 0.0


def test_vcg_er_second_highest_mean():
    # second-highest of n equal-revenue draws has mean n (x=2, y=n identity)
    est = vcg_item_revenue(TruncatedEqualRevenue(1e4), 6)
    assert abs(est.mean - 6.0) <= 0.02 * 6.0


def test_virtual_max_cross_check():
    # E[phi(max)] is the revenue of always awarding to the highest bidder,
    # i.e. second-price with no reserve, for regular d
    for d in [Uniform(0, 1), Exponential(1.0)]:
        for n in (1, 3):
            mc = virtual_max_estimate(d, n, 400_000, seed=4)
            second = vcg_item_revenue(d, n)
            assert abs(mc.mean - second.mean) <= 3 * mc.combined_stderr(second)


def test_srev_sums_items():
    pd = ProductDist((Uniform(0, 1), Uniform(0, 1)))
    est = srev(pd, 1)
    assert est.mean == pytest.approx(0.5, abs=2e-4)


def test_srev_dominates_vcg():
    pd = ProductDist((Uniform(0, 1), Exponential(1.0)))
    for n in (2, 4):
        s = srev(pd, n)
        v = vcg(pd, n)
        assert s.mean >= v.mean - 3 * v.stderr


def test_vcg_product_n1_zero():
    pd = ProductDist((Uniform(0, 1), Exponential(1.0)))
    assert vcg(pd, 1).mean == 0.0


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
    assert abs(est.mean - m * n) <= 0.02 * m * n


@pytest.mark.parametrize("d,n", [(Uniform(0, 1), 1), (Exponential(1.0), 1),
                                 (TruncatedEqualRevenue(1e4), 3)])
def test_bulow_klemperer(d, n):
    vcg_est, rev_est, margin = bulow_klemperer_check(d, n)
    assert margin >= -(vcg_est.stderr + rev_est.stderr)


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
    est = feldman_posted_price(n, m, 20_000, seed=8)
    assert est.mean <= n * price + 1e-9
    assert est.mean >= n * price / 2  # per-buyer purchase probability >= 1/2


def test_feldman_huge_price_gives_zero():
    est = feldman_posted_price(1, 4, 1000, seed=9, p=1e4, price=1e9)
    assert est.mean == 0.0


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
    est = feldman_posted_price(n, m, N, seed, p=1e4, price=price)
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
    assert est.mean == pytest.approx(np.mean(revs), rel=1e-12)


def test_feldman_full_matrix_oracle_matches_run_once():
    # the law oracle's vectorized greedy choice, one traced run at a time
    n, m, N, seed, price = 2, 16, 400, 12, 12.0
    bundle, _ = feldman_params(n, m)
    ref = feldman_full_matrix(n, m, N, seed, p=1e4, price=price)
    vals = TruncatedEqualRevenue(1e4).quantile(
        substream(seed, "feldman-full-matrix").random((N, n, m)))
    revs = [feldman_run_once(v, bundle, price).revenue for v in vals]
    assert 0 < ref.mean < n * price
    assert ref.mean == pytest.approx(np.mean(revs), rel=1e-12)


@pytest.mark.parametrize("n, m, price", [(2, 64, 60.0), (2, 64, 75.0), (1, 8, 12.0), (3, 48, 30.0),
                                         (2, 16, 12.0)])
def test_feldman_walk_has_the_full_matrix_law(n, m, price):
    # the walk draws n k uniforms per run, the oracle all n m values, from
    # independent streams; at these prices some bundles sell and some do not
    est = feldman_posted_price(n, m, 40_000, seed=5, price=price)
    ref = feldman_full_matrix(n, m, 40_000, seed=5, price=price)
    assert 0 < ref.mean < n * price
    assert abs(est.mean - ref.mean) <= 4 * est.combined_stderr(ref)


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
    assert 0 < est.mean < n * price
    assert est == feldman_one_shot(n, m, N, seed=3, price=price)


def test_feldman_estimate_is_exact_in_its_integer_totals():
    # every run of this seed sells both bundles at the default price, so
    # the revenue is 2 price in every run and its stderr exactly 0
    _, price = feldman_params(2, 64)
    assert feldman_posted_price(2, 64, 20_000, seed=12345) == RevenueEstimate(mean=2 * price, stderr=0.0)
    # where runs sell one bundle or two, the totals (S1, S2) give the mean
    # and np.std(ddof=1) / sqrt(N) of the whole sample's revenues
    N = BLOCK // _FELDMAN_WIDTH + 5
    price, sold = feldman_one_shot_sold(2, 64, N, seed=3, price=60.0)
    assert set(np.unique(sold)) == {1.0, 2.0}
    est, ref = feldman_posted_price(2, 64, N, seed=3, price=60.0), sample_estimate(price * sold)
    assert est.mean == pytest.approx(ref.mean, rel=1e-14, abs=0)
    assert est.stderr == pytest.approx(ref.stderr, rel=1e-12, abs=0)


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


def test_er2_sum_tail_truncated_endpoints():
    assert er2_sum_tail_truncated(2.0, 100.0) == 1.0
    assert er2_sum_tail_truncated(201.0, 100.0) == 0.0


def test_er2_sum_tail_truncated_vs_mc():
    # direct Monte Carlo oracle on the truncated square
    from auctioncomp.rng import substream

    P = 100.0
    d = TruncatedEqualRevenue(P)
    rng = substream(10, "tail-oracle")
    v = np.asarray(d.quantile(rng.random((400_000, 2))))
    for t in (3.0, 10.0, 50.0, 150.0):
        mc = float(np.mean(v.sum(axis=1) >= t))
        closed = er2_sum_tail_truncated(t, P)
        se = math.sqrt(max(mc * (1 - mc), 1e-12) / len(v))
        assert abs(closed - mc) <= 4 * se + 1e-6


@pytest.mark.parametrize("scale", [1.0, 1e4, 1e6])
def test_er2_sum_tail_truncated_equals_closed_form_below_the_atom(scale):
    # for t <= P + 1 a draw at the atom P already reaches t, so truncation
    # leaves the event unchanged; past t = 2^53, t - 1 rounds to t and the
    # gaps t - x must not be taken from rounded ends
    for t in np.geomspace(2.5, 1e20, 300):
        t = float(t)
        closed = two_item_sum_tail(t / 2.0)
        assert er2_sum_tail_truncated(t, scale * t) == pytest.approx(closed, rel=1e-15, abs=0)


def test_three_tier_validates_window():
    with pytest.raises(ValueError):
        three_tier_mechanism(100, 100.0, 1e8)  # q > sqrt(n)
    with pytest.raises(ValueError):
        three_tier_mechanism(10_000, 99.0, 1e8)  # q < 100
    with pytest.raises(ValueError):
        three_tier_mechanism(10_000, 100.0, 500.0)  # p not >> q


def test_three_tier_medium_count_concentrates():
    # expected medium count is n * P_med, near the k-value n/q + n ln(q)/(8q^2)
    n, q, p = 10_000, 100.0, 1e8
    params = three_tier_params(n, q, p)
    assert n * params["p_med"] == pytest.approx(params["k"], rel=0.05)


def test_three_tier_exact_matches_mechanism():
    n, q, p = 10_000, 100.0, 1e8
    exact = three_tier_revenue(n, q, p)
    assert three_tier_mechanism(n, q, p) == RevenueEstimate(mean=exact, stderr=0.0)
    mc = three_tier_mc(n, q, p, 1_000_000, seed=13)
    assert abs(mc.mean - exact) <= 4 * mc.stderr, (exact, mc.mean, mc.stderr)
    with pytest.raises(ValueError):
        three_tier_revenue(100, 100.0, 1e8)  # q > sqrt(n)


def test_three_tier_revenue_cap():
    n, q, p = 10_000, 100.0, 1e8
    est = three_tier_mechanism(n, q, p)
    assert est.mean <= n * max(p, 2 * q)
