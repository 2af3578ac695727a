import math
import os
import subprocess
import sys
import tracemalloc
from itertools import groupby

import numpy as np
import pytest
from scipy import stats

from auctioncomp import benchmark as benchmark_mod
from auctioncomp import distributions as distributions_mod
from auctioncomp import experiments as experiments_mod
from auctioncomp import revenue as revenue_mod
from auctioncomp.benchmark import (
    assign_regions,
    efftw_bound,
    obs1_bound,
    xb_chain_bound,
    xl_chain_bound,
)
from auctioncomp.distributions import (
    Exponential,
    ProductDist,
    SingleDist,
    TruncatedEqualRevenue,
    Uniform,
    parse_dist,
)
from auctioncomp.experiments import XB, XL
from auctioncomp.repro import er_offregion_items
from auctioncomp.revenue import Bracket, _item_sum, myerson_item_revenue, srev, vcg
from auctioncomp.rng import BLOCK, batch_sizes, substream
from oracles import assign_regions_loop, jump_allowance, raw_virtual, sample_estimate
from test_virtual import _brute_force_ironed

REF_BATCH = 1_000_000  # floats per reference batch of profiles
IRREGULAR = "discrete:v=1,3,4,20;p=0.4,0.3,0.25,0.05"


# ---------------------------------------------------------------------------
# Monte Carlo oracles: profile-major (b, n, m) batches reduced with argmax,
# partition and gathers, and the brute-force hull for ironed items. The
# package's exact efftw_bound, obs1_bound and er_offregion_items must agree
# with them within 4 sigma; the item-major profile draw, the region rule and
# the ironed lookup left in the package must reproduce their batches.
# ---------------------------------------------------------------------------


def _ref_batches(pd, n, N, seed):
    for bi, b in enumerate(batch_sizes(N, max(1, REF_BATCH // (n * pd.m)))):
        q = substream(seed, "profiles", bi).random((b, n, pd.m))
        v = np.empty_like(q)
        for j, d in enumerate(pd.marginals):
            v[:, :, j] = d.quantile(q[:, :, j])
        yield v, q, np.argmax(q, axis=2)


def _ref_at_quantile(d, u):
    if isinstance(d, (Uniform, Exponential, TruncatedEqualRevenue)):
        return raw_virtual(d, d.quantile(u))
    return _brute_force_ironed(d, u.ravel()).reshape(u.shape)


def _ref_efftw(items, values, quantiles, region):
    total = np.zeros(values.shape[0])
    for j, d in enumerate(items):
        phi_plus = np.maximum(_ref_at_quantile(d, quantiles[:, :, j]), 0.0)
        total += np.where(region == j, phi_plus, values[:, :, j]).max(axis=1)
    return total


def _ref_obs1(items, values, quantiles, region):
    n = values.shape[1]
    rows = np.arange(values.shape[0])
    total = np.zeros(values.shape[0])
    for j, d in enumerate(items):
        vj = values[:, :, j]
        i1 = np.argmax(quantiles[:, :, j], axis=1)  # the top bidder holds v_(1)
        v1 = vj[rows, i1]
        v2 = np.partition(vj, n - 2, axis=1)[:, n - 2]
        off_region = region[rows, i1] != j
        phi1 = _ref_at_quantile(d, quantiles[rows, i1, j])
        total += np.maximum(np.maximum(np.where(off_region, v1, 0.0), phi1), v2)
    return total


def _ref_offregion(items, values, quantiles, region):
    # summed over the items
    return sum(np.where(region != j, values[:, :, j], 0.0).max(axis=1) for j in range(len(items)))


def _ref_estimates(pd, n, N, seed, kernels):
    """Monte Carlo estimates of each kernel's mean, all on one profile stream."""
    chunks = {key: [] for key in kernels}
    for batch in _ref_batches(pd, n, N, seed):
        for key, kernel in kernels.items():
            chunks[key].append(kernel(pd.marginals, *batch))
    return {key: sample_estimate(np.concatenate(c)) for key, c in chunks.items()}


@pytest.mark.parametrize("m", [1, 2, 3, 4])
@pytest.mark.parametrize("n", [1, 2, 4, 16])
@pytest.mark.parametrize("kind", ["er", "irregular"])
def test_profile_kernels_match_reference_bit_for_bit(kind, n, m):
    # the profile kernels left in the package, ProductDist.sample_profiles,
    # assign_regions and the step-form ironed lookup, against the reference
    specs = ["er:p=10000"] * m if kind == "er" else [IRREGULAR, "exp:1", "uniform:0,1", "er:p=100"][:m]
    pd = ProductDist(tuple(parse_dist(s) for s in specs))
    samples = 20_001  # two batches at n=16, m=4, the last one partial
    seed = 50 + 7 * n + m
    for bi, (v_ref, q_ref, r_ref) in enumerate(_ref_batches(pd, n, samples, seed)):
        values, quantiles = pd.sample_profiles(substream(seed, "profiles", bi), n, len(v_ref))
        assert np.array_equal(values, v_ref.transpose(2, 1, 0))
        assert np.array_equal(quantiles, q_ref.transpose(2, 1, 0))
        assert np.array_equal(assign_regions(quantiles), r_ref.T)
        for j, d in enumerate(pd.marginals):
            got = d.phi_bar(quantiles[j])
            assert np.array_equal(got, _ref_at_quantile(d, q_ref[:, :, j]).T)


# (specs, n): ER^2, ER^4 with many bidders, the irregular product (ironed
# grid path, atoms, an unbounded item), a support below 0, and atoms below 0,
# where the top value is often tied and obs1's top bidder is the one with the
# highest quantile
ORACLE_CASES = {
    "er2": (["er:p=10000"] * 2, 4),
    "er4-n16": (["er:p=10000"] * 4, 16),
    "irregular": ([IRREGULAR, "exp:1", "uniform:0,1"], 4),
    "negative": (["uniform:-1,1"] * 2, 3),
    "negative-atoms": (["discrete:v=-2,-1,1;p=0.3,0.3,0.4"] * 2, 3),
}


@pytest.mark.parametrize("case", list(ORACLE_CASES))
def test_exact_bounds_agree_with_monte_carlo_oracles(case):
    specs, n = ORACLE_CASES[case]
    pd = ProductDist(tuple(parse_dist(s) for s in specs))
    samples, seed = 1_000_000, 70 + len(case)
    kernels = {"efftw": _ref_efftw}
    got = {"efftw": efftw_bound(pd, n)}
    if not case.startswith("negative"):  # obs1 takes no item below 0
        kernels["obs1"] = _ref_obs1
        got["obs1"] = obs1_bound(pd, n)
    if case.startswith("er"):
        kernels["off"] = _ref_offregion
        got["off"] = _item_sum(er_offregion_items(n, pd.m, 1e4), lambda b: b)
    ref = _ref_estimates(pd, n, samples, seed, kernels)
    for key, b in got.items():
        assert b.half < 1e-4 * abs(b.mid)  # the certified half-width
        mean, se = ref[key]
        assert abs(b.mid - mean) <= 4 * se, (key, b, mean, se)


# The chain bounds' Monte Carlo oracle: the per-item estimator they replaced,
# where every item draws its own N experiment quantiles.


def _ref_phi_at_experiment(pd, sampler, N, seed, label):
    # the items draw independent streams, substream(seed, label, j) in blocks
    # of BLOCK rows, so their stderrs add in quadrature; returns (mean, stderr)
    mean = var = 0.0
    for j, d in enumerate(pd.marginals):
        rng = substream(seed, label, j)
        phi = [d.phi_bar(sampler(rng, b)) for b in batch_sizes(N, BLOCK)]
        item_mean, item_se = sample_estimate(np.concatenate(phi))
        mean += item_mean
        var += item_se**2
    return mean, math.sqrt(var)


# (specs, chain, n, ell): wide uniform, ER^2 (phi_bar jumps from 0 to p at
# the atom's breakpoint), the irregular product (ironed steps, atoms) and an
# unbounded exponential item
CHAIN_CASES = {
    "u16-xl": (["uniform:0,1"] * 16, "xl", 2, None),
    "er2-xl": (["er:p=10000"] * 2, "xl", 2, None),
    "irregular-xl": ([IRREGULAR, "uniform:0,1", "uniform:0,2"], "xl", 3, None),
    "exp-m1-xl": (["exp:1"], "xl", 2, None),
    "u2-xb": (["uniform:0,1"] * 2, "xb", 16, 4),
    "er2-xb": (["er:p=10000"] * 2, "xb", 4, 2),
    "irregular-xb": ([IRREGULAR, "uniform:0,1", "uniform:0,2"], "xb", 3, 2),
    "exp-m1-xb": (["exp:1"], "xb", 4, 2),
}


@pytest.mark.parametrize("case", list(CHAIN_CASES))
def test_chain_bounds_agree_with_monte_carlo_oracle(case):
    specs, chain, n, ell = CHAIN_CASES[case]
    pd = ProductDist(tuple(parse_dist(s) for s in specs))
    samples, seed = 1_000_000, 80 + len(case)
    if chain == "xl":
        est = xl_chain_bound(pd, n)
        sampler = XL(n, pd.m)
    else:
        n_prime = n + (pd.m - 1) * (ell - 1)
        est = xb_chain_bound(pd, n, ell)
        sampler = XB(n_prime, ell)
    mean, se = _ref_phi_at_experiment(pd, sampler, samples, seed, f"{chain}-chain")
    # the certified half-width is below the oracle's noise at the same N
    assert est.half <= se, (est, se)
    assert abs(est.mid - mean) <= 4 * se, (est, mean, se)


def test_chain_bounds_exact_on_step_items():
    # phi_bar of ER and of discrete items only jumps at knots and breakpoints,
    # which the grid holds with the float on each side, so it is constant on
    # every cell but the one-ulp cells beside a jump; a rounded breakpoint
    # (ER's 1 - 1/p) moves the float jump by at most one ulp
    n, ell = 3, 2
    for specs in (["er:p=10000"] * 2, [IRREGULAR, "discrete:v=1,1.2,10;p=0.5,0.4,0.1"]):
        pd = ProductDist(tuple(parse_dist(s) for s in specs))
        n_prime = n + (pd.m - 1) * (ell - 1)
        for est, cdf in [(xl_chain_bound(pd, n), XL(n, pd.m).cdf),
                         (xb_chain_bound(pd, n, ell), XB(n_prime, ell).cdf)]:
            allowance = jump_allowance(pd, cdf)
            assert 0.0 < allowance < 1e-10, allowance  # a grid without the cells reads ~2
            assert est.half <= allowance + 4 * math.ulp(est.mid), (est, allowance)


def test_xl_chain_brackets_the_er_closed_form():
    # one ER(p) item at n = 2: E[phi_bar(X_L)] = p Pr[X_L > 1 - 1/p]
    # = 4 - 3/p - 2 ln(p)/p. The two-read bracket missed it by 1.2e-14 at
    # p = 100. F_X's error, times p, must stay inside the width: the
    # quadrature's missed it by 7.1e-12 at p = 1e4; the closed form's is
    # 1.2e-12 inside at p = 1e4 and 1.9e-8 inside at p = 1e8
    for p in (100.0, 1e4, 1e8):
        est = xl_chain_bound(ProductDist((TruncatedEqualRevenue(p),)), 2)
        exact = 4.0 - 3.0 / p - 2.0 * math.log(p) / p
        assert est.half < 1e-15 * p
        assert est.lo <= exact <= est.hi, (p, est, exact)


def test_chain_bracket_ordered_on_a_cell_with_no_float_inside():
    # ER(1e16) breaks at 1 - 1e-16, which rounds to 1 - 2^-53: the grid's top
    # cell (1 - 2^-53, 1) holds no float, and phi_bar jumps from 0 to p in it.
    # Read at its ends, 0 at the breakpoint and p at 1, the bracket holds
    # the jump; read at the inner floats, the two reads would swap and the
    # bracket would turn over.
    pd = ProductDist((parse_dist("er:1e16"),))
    for est in (xl_chain_bound(pd, 2), xb_chain_bound(pd, 6, 2)):
        assert est.hi > 0.0 and est.lo == 0.0  # phi_bar >= 0


def _traced_peak(fn):
    fn()  # build what a first call builds outside the measurement
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("chain", ["xl", "xb"])
def test_chain_working_set_does_not_depend_on_the_point_count(chain, monkeypatch):
    # the chain is walked piece by piece: its grid's table and one piece of
    # temporaries, whatever the count of points (a whole-grid u and F table
    # grew 2.5x from 50 000 to 200 000 cells)
    pd = ProductDist((Uniform(0, 1),) * 4)
    bound = (lambda: xl_chain_bound(pd, 2)) if chain == "xl" else (lambda: xb_chain_bound(pd, 2, 2))
    peaks = []
    for cells in (50_000, 200_000):
        monkeypatch.setattr(revenue_mod, "_QUAD_CELLS", cells)
        peaks.append(_traced_peak(bound))
    assert peaks[1] <= 1.1 * peaks[0], [p / 2**20 for p in peaks]


def test_xl_chain_peak_memory():
    # the grid's table and the temporaries of one piece of PIECE points;
    # 10^6 Monte Carlo draws per item peaked at 39 MB
    pd = ProductDist((Uniform(0, 1),) * 16)
    peak = _traced_peak(lambda: xl_chain_bound(pd, 2))
    assert peak <= 2 * 2**20, peak / 2**20


def test_exact_estimates_same_bits_for_any_blas_thread_count():
    # a BLAS dot sums in an order that follows its thread count, which would
    # make the artifact depend on the CPU count
    code = (
        "from auctioncomp.benchmark import efftw_bound; from auctioncomp.revenue import vcg; "
        "from auctioncomp.distributions import ProductDist, TruncatedEqualRevenue; "
        "pd = ProductDist((TruncatedEqualRevenue(1e4),) * 4); "
        "print(repr(efftw_bound(pd, 16)), repr(vcg(pd, 25)))"
    )
    outs = [
        subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, check=True,
            env={**os.environ, "OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads},
        ).stdout
        for threads in ("1", "4")
    ]
    assert outs[0] == outs[1] and "Bracket" in outs[0]


def test_bounds_keep_the_names_bench_reads():
    # bench/workloads.py reads mean, stderr and combined_stderr on the
    # bounds' results: the midpoint, the half-width and hypot of two of them
    pd = ProductDist((parse_dist(IRREGULAR), Exponential(1.0)))
    e, s = efftw_bound(pd, 4), srev(pd, 4)
    assert (e.mean, e.stderr) == (e.mid, e.half) and e.half > 0.0
    assert e.combined_stderr(s) == math.hypot(e.half, s.half)


def test_obs1_region_quantile_dominates_value_quantile():
    # phi_bar <= v, so psi(t) >= F(t) for t >= 0: obs1's CDF drops no
    # min(psi, F) term there
    t = np.concatenate([np.linspace(-2.0, 25.0, 2701), np.geomspace(1.0, 1e4, 2000)])
    for spec in [IRREGULAR, "exp:1", "uniform:0,1", "uniform:-1,1", "er:p=10000", "point:5",
                 "discrete:v=1,1.2,10;p=0.5,0.4,0.1"]:
        d = parse_dist(spec)
        psi, F = d.psi(t), d.cdf(t)
        assert np.all(psi[t >= 0] >= F[t >= 0]), spec
        assert np.all(psi[t < 0] == 0.0)


def test_assign_regions_basics():
    # item-major: rows are items, columns are bidders
    q = np.array([[0.2, 0.9, 0.5], [0.7, 0.1, 0.3]]).T
    assert np.array_equal(assign_regions(q), [1, 0])
    # single item: everyone in region 0
    assert np.array_equal(assign_regions(np.array([[0.4], [0.9]]).T), [0, 0])
    # ties go to the first item, as with argmax
    q = np.array([[0.5, 0.5, 0.2], [0.1, 0.7, 0.7], [0.3, 0.3, 0.3]]).T
    assert np.array_equal(assign_regions(q), np.argmax(q, axis=0))
    assert np.array_equal(assign_regions(q), [0, 1, 0])
    with pytest.raises(ValueError):
        assign_regions(np.empty((0, 3)))


def test_assign_regions_is_the_running_maximum_loop():
    # 4 items x 3 bidders x 1000 profiles of quantiles on a coarse lattice,
    # so many bidders tie between items
    q = np.floor(substream(21, "ties").random((4, 3, 1000)) * 4.0) / 4.0
    assert np.array_equal(assign_regions(q), assign_regions_loop(q))
    assert np.count_nonzero(np.sum(q == q.max(axis=0), axis=0) > 1) > 1000


def test_regions_uniform_under_iid_marginals():
    # chi-square at significance 1e-3 over m equiprobable regions
    m, n = 4, 3
    pd = ProductDist(tuple(TruncatedEqualRevenue(100.0) for _ in range(m)))
    _, q = pd.sample_profiles(substream(20, "chi"), n, 100_000)
    regions = assign_regions(q).ravel()
    counts = np.bincount(regions, minlength=m)
    _, pval = stats.chisquare(counts)
    assert pval > 1e-3


# Repeated marginals of mixed kinds: U(0, 1) three times, and U(0, 2) shares
# its kind but not its law.
REPEATS = ProductDist((Uniform(0, 1), Exponential(1.0), Uniform(0, 2), parse_dist(IRREGULAR),
                       Uniform(0, 1)))
PER_ITEM_SUMS = {
    "srev": lambda pd: srev(pd, 3),
    "vcg": lambda pd: vcg(pd, 3),
    "efftw": lambda pd: efftw_bound(pd, 3),
    "obs1": lambda pd: obs1_bound(pd, 3),
    "xl_chain": lambda pd: xl_chain_bound(pd, 3),
    "xb_chain": lambda pd: xb_chain_bound(pd, 3, 2),
}


@pytest.mark.parametrize("name", list(PER_ITEM_SUMS))
def test_repeated_marginals_keep_the_in_order_sum(name, monkeypatch):
    # one estimate per distinct marginal, added once per item in item order:
    # the same bits as estimating every item
    got = PER_ITEM_SUMS[name](REPEATS)

    def every_item(marginals, fn):
        total = Bracket(0.0, 0.0)
        for d in marginals:
            total += fn(d)
        return total

    monkeypatch.setattr(revenue_mod, "_item_sum", every_item)
    monkeypatch.setattr(benchmark_mod, "_item_sum", every_item)
    assert PER_ITEM_SUMS[name](REPEATS) == got


def _count_reads(monkeypatch, reads):
    """Append the item of each ``_score_estimate`` call and of each phi_bar
    read to ``reads``."""
    score_estimate = revenue_mod._score_estimate

    def counted_score_estimate(d, *args):
        reads.append(d)
        return score_estimate(d, *args)

    monkeypatch.setattr(revenue_mod, "_score_estimate", counted_score_estimate)
    for kind in SingleDist.__subclasses__():
        phi_bar = kind.phi_bar

        def counted_phi_bar(d, u, phi_bar=phi_bar):
            reads.append(d)
            return phi_bar(d, u)

        monkeypatch.setattr(kind, "phi_bar", counted_phi_bar)


def test_each_distinct_marginal_estimated_once(monkeypatch):
    distinct = list(dict.fromkeys(REPEATS.marginals))
    assert len(distinct) == 4
    calls = []  # the marginal of each estimate made or phi_bar read
    _count_reads(monkeypatch, calls)
    for name in PER_ITEM_SUMS:
        calls.clear()
        PER_ITEM_SUMS[name](REPEATS)
        # one unbroken run of reads per distinct marginal
        assert [d for d, _ in groupby(calls)] == distinct, name
        if not name.endswith("_chain"):  # one score integral per distinct marginal
            assert calls == distinct, name


def test_each_distinct_item_ironed_once_per_call(monkeypatch):
    # a discrete item builds its hull once, when it is made; a sum over items
    # then reads each item's own psi or phi_bar and builds no hull
    hulls = []
    envelope = distributions_mod._upper_concave_envelope

    def counted_envelope(u, r):
        hulls.append(len(u))
        return envelope(u, r)

    monkeypatch.setattr(distributions_mod, "_upper_concave_envelope", counted_envelope)
    pd = ProductDist(tuple(parse_dist(s) for s in (IRREGULAR, "exp:1", "uniform:0,1")))
    assert len(hulls) == 1
    reads = []
    _count_reads(monkeypatch, reads)
    calls = {"efftw": lambda: efftw_bound(pd, 4), "obs1": lambda: obs1_bound(pd, 4), "srev": lambda: srev(pd, 4),
             "vcg": lambda: vcg(pd, 4), "xl_chain": lambda: xl_chain_bound(pd, 4),
             "xb_chain": lambda: xb_chain_bound(pd, 4, 2)}
    for name, call in calls.items():
        hulls.clear()
        reads.clear()
        call()
        assert hulls == [], name
        assert [d for d, _ in groupby(reads)] == list(pd.marginals), name


def test_efftw_single_item_equals_myerson():
    for d, n in [(Uniform(0, 1), 3), (Exponential(1.0), 2), (TruncatedEqualRevenue(100.0), 4)]:
        pd = ProductDist((d,))
        bench = efftw_bound(pd, n)
        quad = myerson_item_revenue(d, n)
        assert bench.le(quad) is not False and quad.le(bench) is not False


def test_efftw_upper_bounds_srev():
    pd = ProductDist((Uniform(0, 1), Uniform(0, 1)))
    n = 1
    bench = efftw_bound(pd, n)
    s = srev(pd, n)
    assert s.le(bench) is not False


def test_efftw_item_permutation_invariant():
    pd1 = ProductDist((Uniform(0, 1), Exponential(1.0)))
    pd2 = ProductDist((Exponential(1.0), Uniform(0, 1)))
    b1 = efftw_bound(pd1, 3)
    b2 = efftw_bound(pd2, 3)
    assert b1.le(b2) is not False and b2.le(b1) is not False


def test_obs1_dominates_efftw():
    for pd in [
        ProductDist((Uniform(0, 1), Uniform(0, 1), Uniform(0, 1))),
        ProductDist((TruncatedEqualRevenue(100.0), TruncatedEqualRevenue(100.0))),
    ]:
        e = efftw_bound(pd, 2)
        o = obs1_bound(pd, 2)
        assert e.le(o) is not False


def test_obs1_requires_two_bidders():
    pd = ProductDist((Uniform(0, 1),))
    with pytest.raises(ValueError):
        obs1_bound(pd, 1)


@pytest.mark.parametrize("spec", ["uniform:-1,1", "discrete:v=-2,-1,1;p=0.3,0.3,0.4", "uniform:-8,-7"])
def test_obs1_rejects_an_item_below_0(spec):
    # below 0 obs1 need not bound the benchmark: on the discrete item squared
    # at n = 3 the benchmark is 1.38666 and the obs1 quantity 1.28855
    pd = ProductDist((Uniform(0, 1), parse_dist(spec)))
    with pytest.raises(ValueError, match="support_lo >= 0"):
        obs1_bound(pd, 3)


@pytest.mark.parametrize("spec", ["uniform:-8,-7", "uniform:-1,1", "discrete:v=-8,8;p=0.9,0.1"])
@pytest.mark.parametrize("chain", ["xl", "xb"])
def test_chain_bounds_reject_an_item_below_0(spec, chain):
    # on uniform:-8,-7 squared at n = 2 they read [-14.722, -14.722], below
    # the benchmark's -3.77: no bound; one check serves the whole chain
    pd = ProductDist((parse_dist(spec), Uniform(0, 1)))
    bound = (lambda: xl_chain_bound(pd, 2)) if chain == "xl" else (lambda: xb_chain_bound(pd, 2, 2))
    with pytest.raises(ValueError, match="support_lo >= 0"):
        bound()


def test_xl_builds_its_coefficient_tables_once_per_law(monkeypatch):
    # the chain reads X_L's CDF on every piece of every item; the series
    # coefficients are one table per law, not one per read
    built = []
    coefficients = experiments_mod._xl_coefficients

    def counted(n, m):
        built.append((n, m))
        return coefficients(n, m)

    pd = ProductDist(tuple(parse_dist(s) for s in (IRREGULAR, "exp:1", "uniform:0,1")))
    want = xl_chain_bound(pd, 4)
    monkeypatch.setattr(experiments_mod, "_xl_coefficients", counted)
    assert xl_chain_bound(pd, 4) == want
    assert built == [(4, 3)]


def test_efftw_peak_memory_independent_of_N():
    # exact: a grid of ~10^5 points per item, and the trailing N is unread
    # (N = 10^12 profiles would be 64 TB as Monte Carlo draws)
    pd = ProductDist((TruncatedEqualRevenue(1e4), TruncatedEqualRevenue(1e4)))
    efftw_bound(pd, 4)  # the first call outside the measurement
    tracemalloc.start()
    try:
        est = efftw_bound(pd, 4, 10**12, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert est == efftw_bound(pd, 4)
    assert peak < 16 * 2**20, peak / 2**20


def test_xl_chain_peak_memory_independent_of_N():
    # exact: one CDF table per call, and the trailing N is unread
    pd = ProductDist((Uniform(0, 1),))
    xl_chain_bound(pd, 2)  # the first call outside the measurement
    peaks = []
    for samples in (10**6, 4 * 10**6):
        tracemalloc.start()
        try:
            xl_chain_bound(pd, 2, samples, 0)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.25 * peaks[0], [p / 2**20 for p in peaks]


def test_obs1_direct_resimulation_oracle():
    # independent evaluation of the Observation-1 quantity for U(0,1)^3, n=2:
    # per item, max{v1*I(off), 2*v1-1, v2} with uniform values == quantiles
    pd = ProductDist(tuple(Uniform(0, 1) for _ in range(3)))
    est = obs1_bound(pd, 2)
    rng = substream(99, "oracle")
    v = rng.random((400_000, 2, 3))
    region = np.argmax(v, axis=2)
    rows = np.arange(len(v))
    total = np.zeros(len(v))
    for j in range(3):
        vj = v[:, :, j]
        i1 = np.argmax(vj, axis=1)
        v1 = vj[rows, i1]
        v2 = np.min(vj, axis=1)
        off = region[rows, i1] != j
        total += np.maximum(np.maximum(np.where(off, v1, 0.0), 2 * v1 - 1), v2)
    oracle = total.mean()
    se = total.std(ddof=1) / np.sqrt(len(v))
    assert abs(est.mid - oracle) <= 3 * np.hypot(est.half, se)


def test_xl_chain_m1_bounds_myerson():
    d = Uniform(0, 1)
    pd = ProductDist((d,))
    n = 3
    x = xl_chain_bound(pd, n)
    quad = myerson_item_revenue(d, n)
    assert quad.le(x) is not False


def test_xl_chain_dominates_efftw_er():
    pd = ProductDist((TruncatedEqualRevenue(1e4), TruncatedEqualRevenue(1e4)))
    e = efftw_bound(pd, 2)
    x = xl_chain_bound(pd, 2)
    assert e.le(x) is not False


def test_xb_chain_m1_bounds_myerson():
    d = Exponential(1.0)
    pd = ProductDist((d,))
    n, ell = 4, 2
    x = xb_chain_bound(pd, n, ell)
    quad = myerson_item_revenue(d, n)
    assert quad.le(x) is not False


def test_xb_chain_dominates_efftw():
    pd = ProductDist((Uniform(0, 1), Uniform(0, 1)))
    n, ell = 4, 2  # n' = 5
    e = efftw_bound(pd, n)
    x = xb_chain_bound(pd, n, ell)
    assert e.le(x) is not False


def test_xb_chain_validates_ell():
    pd = ProductDist((Uniform(0, 1),))
    with pytest.raises(ValueError):
        xb_chain_bound(pd, 4, 1)
    with pytest.raises(ValueError):
        xb_chain_bound(pd, 4, 5)
