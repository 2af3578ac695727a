import math
from dataclasses import dataclass

import numpy as np
import pytest

from auctioncomp.distributions import (
    Exponential,
    ProductDist,
    TruncatedEqualRevenue,
    Uniform,
)
from auctioncomp.revenue import (
    RevenueEstimate,
    bulow_klemperer_check,
    er2_sum_tail_truncated,
    feldman_params,
    feldman_posted_price,
    myerson_item_revenue,
    srev,
    three_tier_mechanism,
    three_tier_params,
    three_tier_revenue,
    vcg,
    vcg_item_revenue,
)
from auctioncomp.rng import batch_sizes, substream

# ---------------------------------------------------------------------------
# Oracles: the mean of all samples held at once, the other side of Myerson's
# identity, and one traced run of the sequential posted-bundle mechanism.
# ---------------------------------------------------------------------------


def _mc_estimate(values: np.ndarray, samples: int, seed: int) -> RevenueEstimate:
    """Mean and standard error of the whole sample, held in memory at once."""
    mean = float(np.mean(values))
    stderr = float(np.std(values, ddof=1) / math.sqrt(len(values))) if len(values) > 1 else 0.0
    return RevenueEstimate(mean=mean, stderr=stderr, samples=samples, seed=seed)


def virtual_max_estimate(d, n, N, seed):
    """Monte Carlo E[phi(max of n draws)]; the other side of Myerson's identity."""
    chunks = []
    for bi, b in enumerate(batch_sizes(N, 1_000_000)):
        rng = substream(seed, "virt-max", bi)
        u1 = rng.random(b) ** (1.0 / n)
        chunks.append(d.raw_virtual(d.quantile(u1)))
    return _mc_estimate(np.concatenate(chunks), N, seed)


@dataclass(frozen=True)
class MechanismOutcome:
    """Allocation trace of one mechanism run; revenue equals total payments."""

    revenue: float
    winners: tuple  # per item: bidder index or None
    payments: tuple  # per bidder

    def __post_init__(self):
        if any(p < 0 for p in self.payments):
            raise ValueError("payments must be nonnegative")
        if abs(self.revenue - sum(self.payments)) > 1e-9 * max(1.0, abs(self.revenue)):
            raise ValueError("revenue must equal the sum of payments")


def feldman_run_once(values, bundle_size, price):
    """One pass of the sequential mechanism on an (n, m) value matrix.

    Bidders are visited in row order; each takes their ``bundle_size``
    highest-value remaining items iff their total value meets the price.
    """
    n, m = values.shape
    avail = np.ones(m, dtype=bool)
    winners = [None] * m
    payments = [0.0] * n
    for i in range(n):
        masked = np.where(avail, values[i], -np.inf)
        idx = np.argpartition(masked, m - bundle_size)[m - bundle_size:]
        if masked[idx].sum() >= price:
            payments[i] = price
            avail[idx] = False
            for j in idx:
                winners[j] = i
    return MechanismOutcome(revenue=sum(payments), winners=tuple(winners), payments=tuple(payments))


def _posted_price_oracle(d, lo, hi):
    """Best posted-price revenue max_r r*(1 - F(r)) by grid search."""
    r = np.linspace(lo, hi, 20001)
    return float(np.max(r * (1.0 - np.asarray(d.cdf_left(r)))))


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
    est = vcg_item_revenue(Uniform(0, 1), 2, 300_000, seed=1)
    assert abs(est.mean - oracle) <= 3 * est.stderr


def test_vcg_single_bidder_is_zero():
    est = vcg_item_revenue(TruncatedEqualRevenue(1e4), 1, 1000, seed=0)
    assert est.mean == 0.0 and est.stderr == 0.0


def test_shortcut_estimates_still_need_samples():
    # the n = 1 answer needs no draws, but N < 1 is still an error, as it is
    # for the Monte Carlo mechanism
    with pytest.raises(ValueError, match="need N >= 1 samples"):
        vcg_item_revenue(Uniform(0, 1), 1, 0, seed=0)
    with pytest.raises(ValueError, match="need N >= 1 samples"):
        three_tier_mechanism(10_000, 100.0, 1e8, 0, seed=0)


def test_vcg_er_second_highest_mean():
    # second-highest of n equal-revenue draws has mean n (x=2, y=n identity)
    est = vcg_item_revenue(TruncatedEqualRevenue(1e4), 6, 400_000, seed=2)
    assert abs(est.mean - 6.0) <= 0.02 * 6.0


def test_virtual_max_cross_check():
    # E[phi(max)] is the revenue of always awarding to the highest bidder,
    # i.e. second-price with no reserve, for regular d
    for d in [Uniform(0, 1), Exponential(1.0)]:
        for n in (1, 3):
            mc = virtual_max_estimate(d, n, 400_000, seed=4)
            second = vcg_item_revenue(d, n, 400_000, seed=4)
            assert abs(mc.mean - second.mean) <= 3 * mc.combined_stderr(second)


def test_srev_sums_items():
    pd = ProductDist((Uniform(0, 1), Uniform(0, 1)))
    est = srev(pd, 1)
    assert est.mean == pytest.approx(0.5, abs=2e-4)


def test_srev_dominates_vcg():
    pd = ProductDist((Uniform(0, 1), Exponential(1.0)))
    for n in (2, 4):
        s = srev(pd, n)
        v = vcg(pd, n, 200_000, seed=5)
        assert s.mean >= v.mean - 3 * v.stderr


def test_vcg_product_n1_zero():
    pd = ProductDist((Uniform(0, 1), Exponential(1.0)))
    assert vcg(pd, 1, 1000, seed=0).mean == 0.0


def test_vcg_er_product_scales_with_bidders():
    m, n = 3, 8
    pd = ProductDist(tuple(TruncatedEqualRevenue(1e4) for _ in range(m)))
    est = vcg(pd, n, 400_000, seed=6)
    assert abs(est.mean - m * n) <= 0.02 * m * n


@pytest.mark.parametrize("d,n", [(Uniform(0, 1), 1), (Exponential(1.0), 1),
                                 (TruncatedEqualRevenue(1e4), 3)])
def test_bulow_klemperer(d, n):
    vcg_est, rev_est, margin = bulow_klemperer_check(d, n, 400_000, seed=7)
    assert margin >= -3 * vcg_est.combined_stderr(rev_est)


def test_bulow_klemperer_rejects_irregular():
    from auctioncomp.distributions import FiniteDiscrete

    d = FiniteDiscrete((1.0, 1.2, 10.0), (0.5, 0.4, 0.1))
    with pytest.raises(ValueError):
        bulow_klemperer_check(d, 2, 1000, seed=0)


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
    # same draws as feldman_posted_price, replayed one profile at a time
    n, m, N, seed = 2, 16, 400, 12
    bundle, price = feldman_params(n, m)
    est = feldman_posted_price(n, m, N, seed, p=1e4)
    vals = TruncatedEqualRevenue(1e4).quantile(substream(seed, "feldman", 0).random((N, n, m)))
    revs = [feldman_run_once(v, bundle, price).revenue for v in vals]
    assert est.mean == pytest.approx(np.mean(revs), rel=1e-12)


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


def test_three_tier_validates_window():
    with pytest.raises(ValueError):
        three_tier_mechanism(100, 100.0, 1e8, 100, seed=0)  # q > sqrt(n)
    with pytest.raises(ValueError):
        three_tier_mechanism(10_000, 99.0, 1e8, 100, seed=0)  # q < 100
    with pytest.raises(ValueError):
        three_tier_mechanism(10_000, 100.0, 500.0, 100, seed=0)  # p not >> q


def test_three_tier_medium_count_concentrates():
    # expected medium count is n * P_med, near the k-value n/q + n ln(q)/(8q^2)
    n, q, p = 10_000, 100.0, 1e8
    params = three_tier_params(n, q, p)
    assert n * params["p_med"] == pytest.approx(params["k"], rel=0.05)


def test_three_tier_exact_matches_mechanism():
    n, q, p = 10_000, 100.0, 1e8
    exact = three_tier_revenue(n, q, p)
    est = three_tier_mechanism(n, q, p, 1_000_000, seed=13)
    assert abs(est.mean - exact) <= 4 * est.stderr, (exact, est.mean, est.stderr)
    with pytest.raises(ValueError):
        three_tier_revenue(100, 100.0, 1e8)  # q > sqrt(n)


def test_three_tier_revenue_cap():
    n, q, p = 10_000, 100.0, 1e8
    est = three_tier_mechanism(n, q, p, 20_000, seed=11)
    assert est.mean <= n * max(p, 2 * q)
