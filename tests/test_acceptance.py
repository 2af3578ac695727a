"""Acceptance suite: one test per published criterion, one PASS line each.

Tolerances are pinned to the criterion statements (3 sigma for Monte Carlo
identities, the certified half-widths for exact brackets, 2% for the
equal-revenue folklore values, DKW bands for empirical CDF comparisons). All
seeds are fixed, so a pass here is replayable. The Monte Carlo oracles come
from ``oracles``.
"""

import json
import math

import numpy as np

from auctioncomp.benchmark import efftw_bound, obs1_bound, xb_chain_bound, xl_chain_bound
from auctioncomp.cli import main as cli_main
from auctioncomp.distributions import (
    Exponential,
    ProductDist,
    TruncatedEqualRevenue,
    Uniform,
)
from auctioncomp.experiments import (
    XB,
    XL,
    dkw_epsilon,
    dominance_test,
    sample_xs,
    ystar_conditional_mc,
    ystar_tail,
)
from auctioncomp.repro import er_offregion_items, er_order_stat, two_item_sum_tail
from auctioncomp.revenue import (
    myerson_item_revenue,
    srev,
    three_tier_mechanism,
    three_tier_params,
    vcg,
)
from oracles import bulow_klemperer_check, fact1_check, three_tier_mc, two_item_sum_tail_mc


def _report(criterion: str, detail: str):
    print(f"PASS {criterion}: {detail}")


def test_criterion_01_fact1_identity():
    # |E[phi(w) | w >= v] - v| <= 3 stderr at N=1e5, 20 conditioning values each
    worst = 0.0
    for d, name in [(Uniform(0, 1), "uniform"), (TruncatedEqualRevenue(100.0), "er100")]:
        qs = np.linspace(0.04, 0.92, 20)
        for i, q in enumerate(qs):
            v = float(np.asarray(d.quantile(q)))
            est, se = fact1_check(d, v, 100_000, seed=1000 + i)
            assert abs(est - v) <= 3 * se, (name, v, est, se)
            worst = max(worst, abs(est - v) / (3 * se))
    _report("criterion 1 (conditional virtual-value identity)",
            f"40 conditioning values, worst |err|/3se = {worst:.2f}")


def test_criterion_02_bulow_klemperer():
    dists = [Uniform(0, 1), Exponential(1.0), TruncatedEqualRevenue(1e4)]
    for d in dists:
        for n in (1, 2, 5):
            vcg_est, rev_est, margin = bulow_klemperer_check(d, n)
            # both are exact brackets: the slack is the sum of their half-widths
            assert margin >= -(vcg_est.stderr + rev_est.stderr), (d.spec(), n, margin)
    _report("criterion 2 (one extra bidder beats optimal)",
            "3 distributions x n in {1,2,5}, exact brackets")


def test_criterion_03_er_folklore_revenue():
    for n in (1, 5, 10):
        est = myerson_item_revenue(TruncatedEqualRevenue(1e4), n)
        assert abs(est.mean - n) <= 0.02 * n, (n, est.mean)
    _report("criterion 3 (equal-revenue optimal revenue = n)",
            "n in {1,5,10} within 2%")


def test_criterion_04_er_order_statistics():
    for x, y in [(4, 12), (5, 20), (12, 12)]:
        p = 1e6
        est = er_order_stat(x, y, p=p)
        target = y / (x - 1)
        # the exact bracket's half-width plus the truncation bias bound
        bias = math.comb(y, x) * p ** (1 - x) / (x - 1)
        assert abs(est.mean - target) <= est.stderr + bias, (x, y, est.mean)
    _report("criterion 4 (x-th highest of y equal-revenue draws)",
            "(4,12), (5,20), (12,12) within half-width + truncation bias at p=1e6")


def test_criterion_05_dominance_extra_bidders_vs_xb():
    N = 1_000_000
    for n, ell in [(10, 3), (20, 5), (50, 11)]:
        c = math.ceil(4 * n / (ell - 1))
        rep = dominance_test(
            lambda rng, b: sample_xs(n, c, rng, b),
            XB(n, ell),
            N, seed=5000 + n,
        )
        assert rep.dominates, (n, ell, c, rep.max_violation)
    # threshold is meaningful: far below it the verdict flips
    rep = dominance_test(
        lambda rng, b: sample_xs(10, 1, rng, b),
        XB(10, 3),
        N, seed=5100,
    )
    assert not rep.dominates
    _report("criterion 5 (dominance at c >= 4n/(l-1))",
            "3 settings true at N=1e6; c=1 control is false")


def test_criterion_06_dominance_extra_bidders_vs_xl():
    N = 1_000_000
    for n, m in [(1, 4), (2, 8), (3, 16)]:
        c = math.ceil(n * (2 + math.log(1 + m / n)))
        rep = dominance_test(
            lambda rng, b: sample_xs(n, c, rng, b),
            XL(n, m),
            N, seed=6000 + n,
        )
        assert rep.dominates, (n, m, c, rep.max_violation)
    for m in (2, 8, 32):
        c = math.ceil(2 + math.log(m + 1))
        rep = dominance_test(
            lambda rng, b: sample_xs(1, c, rng, b),
            XL(1, m),
            N, seed=6100 + m,
        )
        assert rep.dominates, (m, c, rep.max_violation)
    _report("criterion 6 (dominance at c >= n(2+ln(1+m/n)))",
            "3 multi-bidder + 3 single-bidder settings true at N=1e6")


def test_criterion_07_ystar_closed_form():
    N = 10_000_000
    eps = dkw_epsilon(N, 1e-3)
    probes = np.linspace(0.1, 0.9, 9)
    worst = 0.0
    for n, m in [(2, 3), (5, 4)]:
        for i, p in enumerate(probes):
            mc, _ = ystar_conditional_mc(n, m, float(p), N, seed=7000 + 10 * n + i)
            closed = ystar_tail(n, m, float(p))
            assert abs(mc - closed) <= eps, (n, m, p, mc, closed)
            worst = max(worst, abs(mc - closed) / eps)
    _report("criterion 7 (conditional exceedance closed form)",
            f"18 probes at N=1e7, worst |err|/band = {worst:.2f}")


def test_criterion_08_inequality_chains():
    def link(lo, hi, label):
        # every bound is an exact bracket: the slack is the sum of half-widths
        assert lo.mean <= hi.mean + lo.stderr + hi.stderr, (label, lo.mean, hi.mean)

    # little-n chain on U(0,1)^4 with n=2
    pd = ProductDist(tuple(Uniform(0, 1) for _ in range(4)))
    n, m = 2, 4
    c = math.ceil(n * (2 + math.log(1 + m / n)))
    e = efftw_bound(pd, n)
    o = obs1_bound(pd, n)
    x = xl_chain_bound(pd, n)
    s = srev(pd, n + c)
    link(e, o, "efftw<=obs1")
    link(o, x, "obs1<=xl")
    link(x, s, f"xl<=srev_{n + c}")

    # big-n chain on U(0,1)^2 with n=16
    pd2 = ProductDist((Uniform(0, 1), Uniform(0, 1)))
    n2, m2 = 16, 2
    ell = math.ceil(math.sqrt(n2 / m2)) + 1
    c2 = math.ceil(5 * math.sqrt(n2 * m2) + 4 * (m2 - 1))
    e2 = efftw_bound(pd2, n2)
    xb = xb_chain_bound(pd2, n2, ell)
    s2 = srev(pd2, n2 + c2)
    link(e2, xb, "efftw<=xb")
    link(xb, s2, f"xb<=srev_{n2 + c2}")
    _report("criterion 8 (benchmark relaxation chains)",
            f"little-n (c={c}) and big-n (l={ell}, c={c2}) links hold within the half-widths")


def test_criterion_09_er_benchmark_tightness():
    n, m, p = 16, 4, 1e5
    bound = math.sqrt(n * m) / 14.0
    ests = er_offregion_items(n, m, p=p)
    for est in ests:
        assert est.mean >= bound - 3 * est.stderr, (est.mean, bound)
    c = 8
    vcg_est = vcg(ProductDist(tuple(TruncatedEqualRevenue(p) for _ in range(m))), n + c)
    target = m * (n + c)
    assert abs(vcg_est.mean - target) <= 0.02 * target, (vcg_est.mean, target)
    _report("criterion 9 (off-region term and VCG scaling)",
            f"per-item off-region >= sqrt(nm)/14 = {bound:.3f}; VCG_{n + c} within 2% of {target}")


def test_criterion_10_three_tier_identity_and_sum_tail():
    n, q, p, N = 10_000, 100.0, 1e8, 100_000
    exact = three_tier_mechanism(n, q, p).mean
    mc = three_tier_mc(n, q, p, N, seed=10_000)
    params = three_tier_params(n, q, p)
    k = params["k"]
    target = 2 * n * (1 - 1 / k) + 2 * q
    assert abs(mc.mean - target) <= 3 * mc.stderr, (mc.mean, target, mc.stderr)
    assert abs(mc.mean - exact) <= 3 * mc.stderr, (mc.mean, exact, mc.stderr)
    # the target drops the second-order high-tier terms, p (n p_high)^2
    assert abs(exact - target) <= p * (n * params["p_high"]) ** 2, (exact, target)
    Nmc = 10_000_000
    eps = dkw_epsilon(Nmc, 1e-3)
    for i, qq in enumerate((1.5, 5.0, 20.0, 100.0)):
        mc, _ = two_item_sum_tail_mc(qq, Nmc, seed=10_100 + i)
        assert abs(two_item_sum_tail(qq) - mc) <= eps, (qq, mc)
    _report("criterion 10 (three-tier revenue identity + sum tail)",
            f"exact revenue {exact:.0f} vs {target:.0f} and Monte Carlo within 3 sigma; "
            "4 tail probes in band")


def test_criterion_11_reproduce_determinism(tmp_path):
    paths = [tmp_path / "a.json", tmp_path / "b.json"]
    for path in paths:
        code = cli_main(["reproduce", "--all", "--seed", "42", "--output", str(path)])
        assert code == 0
    b1, b2 = (p.read_bytes() for p in paths)
    assert b1 == b2
    doc = json.loads(b1)
    assert all(r["passed"] for r in doc["results"])
    _report("criterion 11 (byte-identical replay)",
            f"reproduce --all --seed 42 twice: {len(doc['results'])} claims, identical artifacts")
