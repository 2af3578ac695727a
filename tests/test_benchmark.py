import tracemalloc

import numpy as np
import pytest
from scipy import stats

from auctioncomp import benchmark as benchmark_mod
from auctioncomp import repro as repro_mod
from auctioncomp import rng as rng_mod
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
    TruncatedEqualRevenue,
    Uniform,
    parse_dist,
)
from auctioncomp.repro import er_offregion_items
from auctioncomp.revenue import _mc_estimate, myerson_item_revenue, srev
from auctioncomp.rng import BATCH, BLOCK, batch_sizes, substream
from auctioncomp.virtual import iron

N = 100_000
IRREGULAR = "discrete:v=1,3,4,20;p=0.4,0.3,0.25,0.05"


# ---------------------------------------------------------------------------
# Reference kernels: profile-major (b, n, m) batches reduced with argmax,
# partition and gathers, and the full-grid ironed lookup. The package's
# item-major kernels must reproduce them bit for bit.
# ---------------------------------------------------------------------------


def _ref_batches(pd, n, N, seed):
    for bi, b in enumerate(batch_sizes(N, max(1, BATCH // (n * pd.m)))):
        q = substream(seed, "profiles", bi).random((b, n, pd.m))
        v = np.empty_like(q)
        for j, d in enumerate(pd.marginals):
            v[:, :, j] = d.quantile(q[:, :, j])
        yield v, q, np.argmax(q, axis=2)


def _ref_at_quantile(imap, u):
    d = imap.dist
    if imap.regular and isinstance(d, (Uniform, Exponential, TruncatedEqualRevenue)):
        return d.raw_virtual(d.quantile(u))
    cell = np.clip(np.searchsorted(imap.grid, u, side="right") - 1, 0, len(imap.phi_bar) - 1)
    return imap.phi_bar[cell]


def _ref_efftw(pd, n, N, seed):
    imaps = [iron(d) for d in pd.marginals]
    totals = []
    for values, quantiles, region in _ref_batches(pd, n, N, seed):
        total = np.zeros(values.shape[0])
        for j, imap in enumerate(imaps):
            phi_plus = np.maximum(_ref_at_quantile(imap, quantiles[:, :, j]), 0.0)
            total += np.where(region == j, phi_plus, values[:, :, j]).max(axis=1)
        totals.append(total)
    return _mc_estimate(np.concatenate(totals), N, seed)


def _ref_obs1(pd, n, N, seed):
    imaps = [iron(d) for d in pd.marginals]
    totals = []
    for values, quantiles, region in _ref_batches(pd, n, N, seed):
        rows = np.arange(values.shape[0])
        total = np.zeros(values.shape[0])
        for j, imap in enumerate(imaps):
            vj = values[:, :, j]
            i1 = np.argmax(vj, axis=1)
            v1 = vj[rows, i1]
            v2 = np.partition(vj, n - 2, axis=1)[:, n - 2]
            off_region = region[rows, i1] != j
            phi1 = _ref_at_quantile(imap, quantiles[rows, i1, j])
            total += np.maximum(np.maximum(np.where(off_region, v1, 0.0), phi1), v2)
        totals.append(total)
    return _mc_estimate(np.concatenate(totals), N, seed)


def _ref_offregion(n, m, N, seed, p):
    pd = ProductDist(tuple(TruncatedEqualRevenue(p) for _ in range(m)))
    chunks = [[] for _ in range(m)]
    for values, _, region in _ref_batches(pd, n, N, seed):
        for j in range(m):
            chunks[j].append(np.where(region != j, values[:, :, j], 0.0).max(axis=1))
    return [_mc_estimate(np.concatenate(c), N, seed) for c in chunks]


@pytest.mark.parametrize("m", [1, 2, 3, 4])
@pytest.mark.parametrize("n", [1, 2, 4, 16])
@pytest.mark.parametrize("kind", ["er", "irregular"])
def test_profile_kernels_match_reference_bit_for_bit(kind, n, m):
    specs = ["er:p=10000"] * m if kind == "er" else [IRREGULAR, "exp:1", "uniform:0,1", "er:p=100"][:m]
    pd = ProductDist(tuple(parse_dist(s) for s in specs))
    samples = 20_001  # two batches at n=16, m=4, the last one partial
    seed = 50 + 7 * n + m

    def same(a, b):
        return (a.mean, a.stderr) == (b.mean, b.stderr)

    assert same(efftw_bound(pd, n, samples, seed), _ref_efftw(pd, n, samples, seed))
    if n >= 2:
        assert same(obs1_bound(pd, n, samples, seed), _ref_obs1(pd, n, samples, seed))
    if kind == "er":
        got = er_offregion_items(n, m, samples, seed, 1e4)
        assert all(same(a, b) for a, b in zip(got, _ref_offregion(n, m, samples, seed, 1e4)))


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


def test_regions_uniform_under_iid_marginals():
    # chi-square at significance 1e-3 over m equiprobable regions
    m, n = 4, 3
    pd = ProductDist(tuple(TruncatedEqualRevenue(100.0) for _ in range(m)))
    _, q = pd.sample_profiles(substream(20, "chi"), n, N)
    regions = assign_regions(q).ravel()
    counts = np.bincount(regions, minlength=m)
    _, pval = stats.chisquare(counts)
    assert pval > 1e-3


def test_efftw_single_item_equals_myerson():
    for d, n in [(Uniform(0, 1), 3), (Exponential(1.0), 2), (TruncatedEqualRevenue(100.0), 4)]:
        pd = ProductDist((d,))
        bench = efftw_bound(pd, n, N, seed=21)
        quad = myerson_item_revenue(d, n)
        assert abs(bench.mean - quad.mean) <= 3 * bench.stderr + 2e-3


def test_efftw_upper_bounds_srev():
    pd = ProductDist((Uniform(0, 1), Uniform(0, 1)))
    n = 1
    bench = efftw_bound(pd, n, N, seed=22)
    s = srev(pd, n)
    assert bench.mean >= s.mean - 3 * bench.stderr


def test_efftw_item_permutation_invariant():
    pd1 = ProductDist((Uniform(0, 1), Exponential(1.0)))
    pd2 = ProductDist((Exponential(1.0), Uniform(0, 1)))
    b1 = efftw_bound(pd1, 3, N, seed=23)
    b2 = efftw_bound(pd2, 3, N, seed=24)  # fresh seed: invariance within noise
    assert abs(b1.mean - b2.mean) <= 3 * b1.combined_stderr(b2)


def test_obs1_dominates_efftw():
    for pd in [
        ProductDist((Uniform(0, 1), Uniform(0, 1), Uniform(0, 1))),
        ProductDist((TruncatedEqualRevenue(100.0), TruncatedEqualRevenue(100.0))),
    ]:
        e = efftw_bound(pd, 2, N, seed=25)
        o = obs1_bound(pd, 2, N, seed=25)  # common random numbers
        assert o.mean >= e.mean - 3 * e.combined_stderr(o)


def test_obs1_requires_two_bidders():
    pd = ProductDist((Uniform(0, 1),))
    with pytest.raises(ValueError):
        obs1_bound(pd, 1, 1000, seed=0)


@pytest.mark.parametrize("bound", [efftw_bound, obs1_bound])
@pytest.mark.parametrize("samples", [0, -5])
def test_profile_bounds_need_samples(bound, samples):
    pd = ProductDist((Uniform(0, 1), Uniform(0, 1)))
    with pytest.raises(ValueError, match="N >= 1"):
        bound(pd, 2, samples, seed=0)


def test_chain_bounds_need_samples():
    pd = ProductDist((Uniform(0, 1), Uniform(0, 1)))
    with pytest.raises(ValueError, match="need N >= 1 samples"):
        xl_chain_bound(pd, 2, 0, seed=0)
    with pytest.raises(ValueError, match="need N >= 1 samples"):
        xb_chain_bound(pd, 2, 2, 0, seed=0)


def test_efftw_peak_memory_bounded_by_one_batch(monkeypatch):
    # two batches on two lanes, each holding one 64k-float block's draw, its
    # item-major copy, the values and item-slab temporaries, plus the
    # per-profile totals (8 bytes per profile, 1.6 MB): 7.1 MB measured.
    # Whole 1M-float batches took 31.5 MB, profile-major kernels ~44 MB.
    monkeypatch.setattr(rng_mod, "usable_cpus", lambda: 2)
    pd = ProductDist((TruncatedEqualRevenue(1e4), TruncatedEqualRevenue(1e4)))
    efftw_bound(pd, 4, 1000, seed=0)  # iron outside the measurement
    tracemalloc.start()
    try:
        efftw_bound(pd, 4, 200_000, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8.2 * 2**20, peak / 2**20


# ---------------------------------------------------------------------------
# Blocks and lanes: the profile path gives the same bits for any lane count
# ---------------------------------------------------------------------------


def _profile_outputs(monkeypatch, lanes, pd, n, samples, seed, with_obs1):
    """Estimates and per-profile arrays of the three profile-path estimators."""
    monkeypatch.setattr(rng_mod, "usable_cpus", lambda: lanes)
    arrays = []

    def keep(values, samples, seed):
        arrays.append(values.copy())
        return _mc_estimate(values, samples, seed)

    monkeypatch.setattr(benchmark_mod, "_mc_estimate", keep)
    monkeypatch.setattr(repro_mod, "_mc_estimate", keep)
    ests = [efftw_bound(pd, n, samples, seed)]
    if with_obs1:
        ests.append(obs1_bound(pd, n, samples, seed))
    if all(isinstance(d, TruncatedEqualRevenue) for d in pd.marginals):
        ests += er_offregion_items(n, pd.m, samples, seed, pd.marginals[0].p)
    return [(e.mean, e.stderr) for e in ests], arrays


@pytest.mark.parametrize(
    "specs,n,samples",
    [
        # three batches of 125 000 and 50 001 profiles, blocks of 8 192
        (["er:p=10000"] * 2, 4, 300_001),
        # three batches of 83 333 and 1 profiles, blocks of 5 461
        ([IRREGULAR, "exp:1", "uniform:0,1"], 4, 166_667),
        # BLOCK // (n * m) = 1 024 < MIN_BLOCK_PROFILES: three batches of
        # 15 625 and 1 profiles, blocks of 4 096
        (["er:p=10000"] * 4, 16, 31_251),
        # n * m > BLOCK: each block is a whole batch, four batches of 15, 15,
        # 15 and 5 profiles; obs1's pass over n bidders would take seconds
        (["er:p=10000"] * 2, BLOCK // 2 + 1, 50),
    ],
    ids=["er2", "irregular", "er4-min-rows", "wide"],
)
def test_profile_path_same_bits_for_any_lane_count(monkeypatch, specs, n, samples):
    pd = ProductDist(tuple(parse_dist(s) for s in specs))
    seed = 61
    with_obs1 = n <= 16
    base = _profile_outputs(monkeypatch, 1, pd, n, samples, seed, with_obs1)
    for lanes in (2, 3):
        got = _profile_outputs(monkeypatch, lanes, pd, n, samples, seed, with_obs1)
        assert got[0] == base[0]
        assert len(got[1]) == len(base[1])
        assert all(np.array_equal(a, b) for a, b in zip(got[1], base[1]))
    # and the unblocked, single-threaded reference kernels agree bit for bit
    want = [_ref_efftw(pd, n, samples, seed)]
    if with_obs1:
        want.append(_ref_obs1(pd, n, samples, seed))
    if specs[0].startswith("er"):
        want += _ref_offregion(n, pd.m, samples, seed, 1e4)
    assert base[0] == [(e.mean, e.stderr) for e in want]


def test_obs1_direct_resimulation_oracle():
    # independent evaluation of the Observation-1 quantity for U(0,1)^3, n=2:
    # per item, max{v1*I(off), 2*v1-1, v2} with uniform values == quantiles
    pd = ProductDist(tuple(Uniform(0, 1) for _ in range(3)))
    est = obs1_bound(pd, 2, 400_000, seed=26)
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
    assert abs(est.mean - oracle) <= 3 * np.hypot(est.stderr, se)


def test_xl_chain_m1_bounds_myerson():
    d = Uniform(0, 1)
    pd = ProductDist((d,))
    n = 3
    x = xl_chain_bound(pd, n, N, seed=27)
    quad = myerson_item_revenue(d, n)
    assert x.mean >= quad.mean - 3 * x.stderr


def test_xl_chain_dominates_efftw_er():
    pd = ProductDist((TruncatedEqualRevenue(1e4), TruncatedEqualRevenue(1e4)))
    e = efftw_bound(pd, 2, 400_000, seed=28)
    x = xl_chain_bound(pd, 2, 400_000, seed=28)
    assert x.mean >= e.mean - 3 * e.combined_stderr(x)


def test_xb_chain_m1_bounds_myerson():
    d = Exponential(1.0)
    pd = ProductDist((d,))
    n, ell = 4, 2
    x = xb_chain_bound(pd, n, ell, N, seed=29)
    quad = myerson_item_revenue(d, n)
    assert x.mean >= quad.mean - 3 * x.stderr


def test_xb_chain_dominates_efftw():
    pd = ProductDist((Uniform(0, 1), Uniform(0, 1)))
    n, ell = 4, 2  # n' = 5
    e = efftw_bound(pd, n, N, seed=30)
    x = xb_chain_bound(pd, n, ell, N, seed=30)
    assert x.mean >= e.mean - 3 * e.combined_stderr(x)


def test_xb_chain_validates_ell():
    pd = ProductDist((Uniform(0, 1),))
    with pytest.raises(ValueError):
        xb_chain_bound(pd, 4, 1, 1000, seed=0)
    with pytest.raises(ValueError):
        xb_chain_bound(pd, 4, 5, 1000, seed=0)
