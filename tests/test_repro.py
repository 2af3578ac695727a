import math
import tracemalloc

import numpy as np
import pytest

from auctioncomp import revenue
from auctioncomp.distributions import TruncatedEqualRevenue
from auctioncomp.repro import (
    CLAIMS,
    appendix_b_revenue,
    bign_tightness,
    er_benchmark_decomposition,
    er_offregion_items,
    er_order_stat,
    little_n_tightness,
    run_all,
    run_claim,
    two_item_sum_tail,
)
from auctioncomp.rng import BLOCK, substream
from oracles import two_item_sum_tail_mc


def test_er_order_stat_identity():
    # E[x-th highest of y] = y/(x-1)
    est = er_order_stat(4, 12, p=1e6)
    assert abs(est.mid - 4.0) <= 3 * est.half


def test_er_order_stat_minimum():
    # x=y is the minimum; mean y/(y-1)
    est = er_order_stat(12, 12, p=1e6)
    assert abs(est.mid - 12.0 / 11.0) <= 3 * est.half


def test_er_order_stat_peak_memory_independent_of_N():
    # an exact integral takes no sample count and draws nothing: its peak is
    # a piece of the score integral's temporaries, whatever p or y
    er_order_stat(4, 12)  # build the grid outside the measurement
    peaks = []
    for x, y, p in ((4, 12, 1e4), (4, 12, 1e9), (12, 48, 1e4)):
        tracemalloc.start()
        try:
            er_order_stat(x, y, p=p)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert max(peaks) <= 4 * 2**20, [p / 2**20 for p in peaks]


def test_er_order_stat_heavy_tail_flagged():
    with pytest.raises(ValueError):
        er_order_stat(1, 5)
    # the second highest has infinite variance but a finite mean; truncation
    # at p lowers it by at most C(5, 2) / p
    for p in (1e4, 1e9):
        est = er_order_stat(2, 5, p=p)
        assert est.lo <= 5.0 <= est.hi + 10.0 / p, (p, est)
        assert est.half < 1e-3


@pytest.mark.parametrize("x, y", [(4, 12), (12, 12)])
def test_er_order_claim_rejects_the_next_order_statistic(x, y):
    # one binomial term too few integrates the (x-1)-th highest: 6.0 against
    # 4, and 1.2 against 12/11, each far outside the claim's tolerance
    res = run_claim(f"er-order-stat-{x}-{y}", seed=42)
    assert res.passed
    wrong = er_order_stat(x - 1, y, p=1e6)
    assert wrong.lo - 1e-9 <= y / (x - 2) <= wrong.hi + 1e-9
    assert abs(wrong.mid - res.target) > 100 * res.tolerance


def test_benchmark_decomposition_gap_shrinks_with_p():
    # exact: the benchmark falls short of nm + off-region by 2.54/p relative
    # (2.569, 2.545, 2.543 and 2.543 times 1/p at p = 1e2 .. 1e5)
    for p in (1e3, 1e4):
        bench, approx, gap = er_benchmark_decomposition(4, 2, p=p)
        signed = (bench.mid - approx.mid) / bench.mid
        assert 2.5 <= -signed * p <= 2.6, (p, signed * p)
        assert gap == abs(signed)
        assert bench.half + approx.half < 0.2 * abs(bench.mid - approx.mid)
        assert bench.le(approx) is True  # the brackets decide the sign


def test_decomposition_claim_tolerance_fits_the_effect():
    # 3 bench/p plus the half-widths: the claim fails once the gap grows
    # by a third
    res = run_claim("er-benchmark-decomposition", seed=42)
    assert res.passed
    assert 0.5 <= abs(res.computed - res.target) / res.tolerance <= 0.8


def test_decomposition_single_item_degenerates():
    bench, approx, _ = er_benchmark_decomposition(3, 1, p=1e4)
    # off-region term vanishes with one item; benchmark is the n*1 structure
    assert approx.mid == pytest.approx(3.0)
    assert abs(bench.mid - 3.0) <= 3 * bench.half + 0.05


def test_offregion_items_positive_and_symmetric():
    ests = er_offregion_items(16, 4, p=1e5)
    assert all(e.lo > 0 for e in ests)
    # i.i.d. items: no two per-item brackets refute their equality
    for a, b in zip(ests, ests[1:]):
        assert a.le(b) is not False and b.le(a) is not False


def test_bign_tightness_pass_and_fail_branches():
    # the exact benchmark on ER(1e4)^4 at n = 16 is 97.49: VCG_25 = 99.88
    # covers it, VCG_24 = 95.89 does not
    ok = bign_tightness(16, 4, 9)
    assert ok.passed
    assert ok.computed == pytest.approx(99.88, abs=0.01)
    assert ok.target == pytest.approx(97.487, abs=0.001)
    assert ok.tolerance == ok.details["vcg_half"] + ok.details["benchmark_half"]
    assert set(ok.details) == {"vcg_half", "benchmark_half"}
    low_c = bign_tightness(16, 4, 8)
    assert not low_c.passed  # VCG_24 < benchmark: direction check exercised
    assert low_c.computed == pytest.approx(95.89, abs=0.01)


@pytest.mark.parametrize(
    "c, covers", [(130, False), (137, False), (138, False), (139, True), (145, True)]
)
def test_bign_tightness_judges_the_exact_values_at_large_n(c, covers):
    # at n = 4096 near p = 1e4 VCG_{n+c} sits far below m(n + c) (13 808
    # against 16 936 at c = 138), so only the exact values judge coverage;
    # they cross between c = 138 and c = 139: at c = 138 VCG is 13 807.888,
    # 0.874 below the benchmark against a tolerance of 0.299
    res = bign_tightness(4096, 4, c)
    assert res.passed is covers
    assert res.target == pytest.approx(13808.76, abs=0.01)


def test_two_item_sum_tail_closed_form():
    with pytest.raises(ValueError):
        two_item_sum_tail(1.0)
    for q in (1.5, 5.0, 20.0, 100.0):
        mc, se = two_item_sum_tail_mc(q, 400_000, seed=38)
        assert abs(two_item_sum_tail(q) - mc) <= 4 * se + 1e-5


def test_two_item_sum_tail_mc_blocks_count_the_one_shot_draw():
    # reference: all N pairs drawn and counted at once
    q, N, seed = 2.5, 30 * (BLOCK // 2) + 70_001, 41  # ends in a partial block
    dist = TruncatedEqualRevenue(1e6)
    v = dist.quantile(substream(seed, "sum-tail").random((N, 2)))
    hits = int(np.count_nonzero(v.sum(axis=1) >= 2.0 * q))
    assert two_item_sum_tail_mc(q, N, seed, p=1e6)[0] == hits / N


def test_two_item_sum_tail_mc_memory_bounded_by_blocks():
    # 10^6 pairs are counted in 64k-float blocks: 2.6 MB measured; quantiles
    # of the whole (10^6, 2) draw took 63 MB
    two_item_sum_tail_mc(3.0, 1_000, seed=0)
    tracemalloc.start()
    try:
        two_item_sum_tail_mc(3.0, 1_000_000, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3.0 * 2**20, peak / 2**20


def test_two_item_sum_tail_near_one():
    # q -> 1+ pushes the probability toward 1
    mc, se = two_item_sum_tail_mc(1.01, 200_000, seed=39)
    assert abs(two_item_sum_tail(1.01) - mc) <= 4 * se + 1e-5
    assert two_item_sum_tail(1.01) > 0.95


def test_two_item_sum_tail_exceeds_downstream_structure():
    q = 100.0
    assert two_item_sum_tail(q) >= 1.0 / q + math.log(q) / (4.0 * q**2)


def test_appendix_b_identity():
    res = appendix_b_revenue(10_000)
    assert res.passed
    assert "surplus_over_2n" in res.details
    with pytest.raises(ValueError):
        appendix_b_revenue(100)


@pytest.mark.parametrize("n,gap,tol", [(10_000, -1.996, 3.92), (250_000, -1248.0, 2490.0)])
def test_appendix_b_exact_gap_within_dropped_terms(n, gap, tol):
    res = appendix_b_revenue(n)
    assert res.passed
    assert res.computed - res.target == pytest.approx(gap, rel=1e-3)
    assert res.tolerance == pytest.approx(tol, rel=1e-3)
    assert res.tolerance / res.target < 1e-2  # the claim can fail


def test_appendix_b_fails_with_doubled_high_tier_probability(monkeypatch):
    true_params = revenue.three_tier_params

    def doubled(*args, **kwargs):
        params = dict(true_params(*args, **kwargs))
        params["p_high"] *= 2.0
        return params

    monkeypatch.setattr(revenue, "three_tier_params", doubled)
    assert not appendix_b_revenue(10_000).passed


def test_little_n_tightness_monotone_in_m():
    implied = []
    for m in (32, 64, 128):
        res = little_n_tightness(2, m, 20_000, seed=41)
        assert res.passed  # revenue respects the n*price cap
        implied.append(res.details["implied_min_c"])
    assert implied[0] <= implied[1] <= implied[2]
    assert implied[-1] > implied[0]


def test_claim_registry_runs_and_is_deterministic():
    res1 = run_claim("er-order-stat-4-12", seed=42)
    res2 = run_claim("er-order-stat-4-12", seed=42)
    assert res1.computed == res2.computed
    with pytest.raises(KeyError):
        run_claim("no-such-claim", seed=0)


@pytest.mark.parametrize("name", sorted(set(CLAIMS) - {"little-n-tightness"}))
def test_exact_claims_do_not_depend_on_the_seed(name):
    # every claim but the posted-bundle Monte Carlo is exact or closed form
    a, b = run_claim(name, seed=1), run_claim(name, seed=2)
    assert a.passed and b.passed
    assert a.computed == b.computed


def test_run_all_covers_registry():
    results = run_all(seed=43)
    assert len(results) == len(CLAIMS)
    assert all(np.isfinite(r.computed) for r in results)
