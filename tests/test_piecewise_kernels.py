"""The exact kernels evaluate their integrands piece by piece. They must
return the bits of the one-shot references in ``oracles`` (for X_L's CDF,
a closed form or a series per point, the bits of its scalar calls), and
keep a working set of a few grid-length arrays whatever the grid size (the
score kernel: no grid-length array but its grid). The one-pass score
bracket must be as tight as the two-pass one and hold the exact means of
atomic items."""

import functools
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from auctioncomp import benchmark as benchmark_mod
from auctioncomp import revenue as revenue_mod
from auctioncomp.benchmark import efftw_bound, obs1_bound, xb_chain_bound, xl_chain_bound
from auctioncomp.distributions import ProductDist, TruncatedEqualRevenue, Uniform, parse_dist
from auctioncomp.experiments import XB, XL
from auctioncomp.repro import er_order_stat
from auctioncomp.revenue import Bracket, _score_estimate, myerson_item_revenue, srev, vcg, vcg_item_revenue
from auctioncomp.rng import PIECE
from oracles import (
    jump_allowance,
    phi_at_experiment_one_shot,
    phi_at_experiment_two_read,
    score_estimate_one_shot,
    score_estimate_two_pass,
)

IRREGULAR = "discrete:v=1,3,4,20;p=0.4,0.3,0.25,0.05"
ZOO = ["uniform:0,1", "uniform:-1,1", "exp:1", "exp:0.3", "er:p=10000", "er:p=100", "point:5",
       IRREGULAR, "discrete:v=-2,-1,1;p=0.3,0.3,0.4", "discrete:v=1,1.2,10;p=0.5,0.4,0.1"]
PRODUCTS = {
    "irregular": [IRREGULAR, "exp:1", "uniform:0,1"],
    "er2": ["er:p=10000"] * 2,
    "u2": ["uniform:0,1"] * 2,
    "mixed": ["exp:0.3", "er:p=100", "point:5", "discrete:v=1,1.2,10;p=0.5,0.4,0.1"],
}


def _bits(estimates):
    return [(e.lo.hex(), e.hi.hex()) for e in estimates]


@pytest.fixture(params=[64, revenue_mod._QUAD_CELLS], ids=["short-grid", "default-grid"])
def cells(request, monkeypatch):
    # every grid reads the count at the call, so one patch sets them all
    monkeypatch.setattr(revenue_mod, "_QUAD_CELLS", request.param)
    return request.param


@pytest.mark.parametrize("spec", ZOO)
def test_score_estimates_same_bits_as_one_shot(spec, cells, monkeypatch):
    d = parse_dist(spec)
    pd = ProductDist((d, parse_dist(IRREGULAR)))
    for n in (1, 2, 5):
        grid = revenue_mod._score_grid(d, lambda t: d.psi(t) ** n)
        if spec.startswith(("er:", "point:", "discrete:")):
            # psi^n is a step function: its weight sits in one-ulp cells, so
            # its grid is its table
            assert grid[:].tobytes() == grid.x.tobytes()
        else:
            # 64 cells: shorter than one piece; the default: several, the last one partial
            areas = grid.size - 1
            assert (areas < PIECE) == (cells < PIECE) and areas % PIECE != 0

    def estimates():
        out = []
        for n in (1, 2, 5):
            out += [efftw_bound(pd, n), srev(pd, n), vcg(pd, n)]
            if n > 1 and d.support_lo >= 0:
                out.append(obs1_bound(pd, n))
        if spec.startswith("er:"):
            out += [er_order_stat(x, y, d.p) for x, y in ((2, 5), (4, 12), (12, 12))]
        return out

    got = estimates()
    with monkeypatch.context() as mp:
        # every score reaches the integrator through the rule in revenue
        mp.setattr(revenue_mod, "_score_estimate", score_estimate_one_shot)
        want = estimates()
    assert _bits(got) == _bits(want)


def _item_estimates(d):
    """Every score kernel on item d alone: (d, d) integrates d once."""
    pd = ProductDist((d, d))
    out = []
    for n in (1, 2, 5):
        out += [efftw_bound(pd, n), myerson_item_revenue(d, n), vcg_item_revenue(d, n)]
        if n > 1 and d.support_lo >= 0:
            out.append(obs1_bound(pd, n))
    if isinstance(d, TruncatedEqualRevenue):
        out += [er_order_stat(x, y, d.p) for x, y in ((2, 5), (4, 12), (12, 12))]
    return out


@pytest.mark.parametrize("spec", ZOO)
def test_one_pass_bracket_as_tight_as_two_pass(spec, cells, monkeypatch):
    # the lower end reads H(t_k+1), not its left limit; the one-ulp cells left
    # of the known jumps keep the width that of the two-pass bracket
    d = parse_dist(spec)
    got = _item_estimates(d)
    with monkeypatch.context() as mp:
        mp.setattr(revenue_mod, "_score_estimate", score_estimate_two_pass)
        want = _item_estimates(d)
    for g, w in zip(got, want):
        rounding = 8 * math.ulp(g.mid)
        assert g.half <= (1 + 1e-9) * w.half + rounding, (g, w)
        assert g.lo - rounding <= w.hi and w.lo <= g.hi + rounding, (g, w)


def _exact_law(d):
    """(values, CDF at each value) of an atomic item, as the decimals written."""
    values = [Fraction(repr(float(v))) for v in d.values]
    probs = [Fraction(repr(float(p))) for p in d.probs]
    assert sum(probs) == 1
    return values, [sum(probs[:i + 1]) for i in range(len(probs))]


class _WithoutUlpCells(revenue_mod._Grid):
    """The grid with the jumps as plain points of its table, without the
    floats beside them: the score CDF's jumps are then known to the grid
    only as nodes, and the lower end reads each one a cell late."""

    def __init__(self, x, jumps, lo, hi, W, g):
        super().__init__(np.concatenate([x, jumps]), np.empty(0), lo, hi, W, g)


@pytest.mark.parametrize("thin", [False, True], ids=["grid", "jumps-unknown"])
@pytest.mark.parametrize("spec", ["point:5", "point:-2"] + [s for s in ZOO if s.startswith("discrete:")])
def test_atomic_brackets_hold_exact_order_stats(spec, thin, cells, monkeypatch):
    # a bracket read at H(t_k+1) holds wherever H jumps; the allowance is
    # the float CDF's and the sums' rounding (the worst miss seen is 1.7 ulp)
    if thin:
        monkeypatch.setattr(revenue_mod, "_Grid", _WithoutUlpCells)
    d = parse_dist(spec)
    values, cum = _exact_law(d)
    rounding = 4 * Fraction(math.ulp(max(abs(v) for v in values)))

    def mean_of(law):
        out, prev = Fraction(0), Fraction(0)
        for v, F in zip(values, cum):
            out += v * (law(F) - prev)
            prev = law(F)
        return out

    widths = []
    for n in (1, 2, 5):
        cases = [(lambda F: F**n, _score_estimate(d, n, lambda t: d.cdf(t) ** n))]
        if n > 1:
            cases.append((lambda F: F**n + n * F ** (n - 1) * (1 - F), vcg_item_revenue(d, n)))
        for law, est in cases:
            exact = mean_of(law)
            assert Fraction(est.lo) - rounding <= exact <= Fraction(est.hi) + rounding, (n, float(exact), est)
            widths.append(est.half)
    if thin and len(values) > 1:
        assert max(widths) > 1e-6  # the thinned grid does read the jumps late


@pytest.mark.parametrize("name", list(PRODUCTS) + ["er:1e16"])
def test_chain_bounds_same_bits_as_one_shot(name, cells, monkeypatch):
    # the chain walks its grid piece by piece up to u_K = 1 - 2^-53, carrying
    # F's running maximum; the whole-grid rule makes u on [0, 1] and its F
    # table at once: the brackets are equal, bit for bit
    pd = ProductDist(tuple(parse_dist(s) for s in PRODUCTS.get(name, [name])))

    def estimates():
        return ([xl_chain_bound(pd, n) for n in (2, 9, 64, 4096)]
                + [xb_chain_bound(pd, n, ell) for n, ell in [(3, 2), (6, 6), (6, 2), (20, 3), (4096, 47)]])

    got = estimates()
    with monkeypatch.context() as mp:
        mp.setattr(benchmark_mod, "_phi_at_experiment", phi_at_experiment_one_shot)
        want = estimates()
    assert _bits(got) == _bits(want)


@pytest.mark.parametrize("name", list(PRODUCTS))
def test_chain_bounds_are_the_in_order_sum_of_one_item_chains(name):
    # each item is tabulated on its own grid: the product's bracket has the
    # bits of adding its items' one-item brackets in item order
    pd = ProductDist(tuple(parse_dist(s) for s in PRODUCTS[name]))
    chains = [(xl_chain_bound(pd, n), XL(n, pd.m)) for n in (2, 9)]
    chains += [(xb_chain_bound(pd, n, ell), XB(n + (pd.m - 1) * (ell - 1), ell)) for n, ell in [(3, 2), (6, 6)]]
    for got, law in chains:
        want = Bracket.point(0.0)
        for d in pd.marginals:
            want += benchmark_mod._phi_at_experiment(ProductDist((d,)), law)
        assert _bits([got]) == _bits([want]), law


@pytest.mark.parametrize("name", list(PRODUCTS))
def test_one_read_chain_bracket_as_tight_as_two_read(name, cells, monkeypatch):
    # phi_bar read once per point, at the cells' own ends, keeps the width of
    # reading the float inside each end, but for the one-ulp cells beside
    # each jump, which the grid adds
    pd = ProductDist(tuple(parse_dist(s) for s in PRODUCTS[name]))
    phi_at_experiment = benchmark_mod._phi_at_experiment
    pairs = []

    def both(pd, law):
        got = phi_at_experiment(pd, law)
        pairs.append((got, phi_at_experiment_two_read(pd, law), jump_allowance(pd, law.cdf)))
        return got

    monkeypatch.setattr(benchmark_mod, "_phi_at_experiment", both)
    xl_chain_bound(pd, 2), xl_chain_bound(pd, 9)
    xb_chain_bound(pd, 3, 2), xb_chain_bound(pd, 6, 6)
    assert len(pairs) == 4
    for got, want, allowance in pairs:
        slack = allowance + 4 * math.ulp(got.mid)
        assert got.half <= (1 + 1e-9) * want.half + slack, (got, want, allowance)
        assert got.lo - slack <= want.hi and want.lo <= got.hi + slack, (got, want)


def _probes():
    rng = np.random.default_rng(3)
    grid = np.linspace(0.0, 1.0, 5_001)  # every branch of each CDF
    near_one = 1.0 - np.geomspace(0.5, 1e-15, 3_001)  # the branches within 1/(n + 1) of 1
    edges = np.array([0.7, np.nan, -0.0, 0.0, 1.0, 1.5, -0.5, 5e-324, np.nextafter(1.0, 0.0)])
    return {
        "single": 0.7,
        "one": np.array([0.7]),
        "ascending": grid,
        "descending": grid[::-1].copy(),
        "shuffled": rng.permutation(grid),
        "near-one": near_one,
        "near-one-shuffled": rng.permutation(near_one),
        "2d-with-edges": np.concatenate([grid[:991], edges]).reshape(20, 50),
    }


@pytest.mark.parametrize("probe", list(_probes()))
@pytest.mark.parametrize(
    "law,n,k", [(XL, 2, 16), (XL, 200, 4), (XL, 3, 1), (XB, 19, 4), (XB, 2000, 2)],
    ids=["xl-2-16", "xl-200-4", "xl-3-1", "xb-19-4", "xb-2000-2"],
)
def test_exact_cdfs_same_bits_as_one_shot(law, n, k, probe):
    # a series, a closed form or a recurrence per point: its bits are the
    # scalar call's
    t = _probes()[probe]
    got = law(n, k).cdf(t)
    want = _cdf_point_by_point(law, n, k, t)
    assert type(got) is type(want)
    assert np.asarray(got).tobytes() == np.asarray(want).tobytes()


@functools.lru_cache(maxsize=None)
def _cdf_at(law, n, k, t):
    return law(n, k).cdf(t)


def _cdf_point_by_point(law, n, k, t):
    if np.ndim(t) == 0:
        return _cdf_at(law, n, k, float(t))
    return np.array([_cdf_at(law, n, k, float(x)) for x in np.ravel(t)]).reshape(np.shape(t))


IRREGULAR_PRODUCT = ProductDist(tuple(parse_dist(s) for s in PRODUCTS["irregular"]))
U16 = ProductDist((Uniform(0, 1),) * 16)
U2 = ProductDist((Uniform(0, 1),) * 2)


# tracemalloc peaks measured on numpy 2.4 with a bound about 25% above. The
# one-shot kernels peak at 4.1 and 32.2 MB (efftw) and 1.3 and 10.0 MB (xl).
# efftw peaks at 0.45 MB at both sizes: a grid-length buffer (1.03 MB at 2^15
# cells, 4.98 MB at 2^18) fails both rows. xl peaks at 1.09 and 4.58 MB; a
# third grid-length array (6.32 MB at 2^18) fails its 2^18 row. xb (X_B at
# n' = 19, ell = 4) peaks at 1.16 and 4.72 MB, and peaked at 0.90 and 4.39 MB
# when X_B's CDF was a quadrature.
@pytest.mark.parametrize(
    "bound,cells,limit_mb",
    [("efftw", 1 << 15, 0.6), ("efftw", 1 << 18, 0.6), ("xl", 1 << 15, 1.4), ("xl", 1 << 18, 5.8),
     ("xb", 1 << 15, 1.4), ("xb", 1 << 18, 5.8)],
)
def test_exact_kernel_working_set(bound, cells, limit_mb, monkeypatch):
    # a first call makes the imports and first-use allocations outside the
    # measurement
    monkeypatch.setattr(revenue_mod, "_QUAD_CELLS", cells)
    if bound == "efftw":
        call = lambda: efftw_bound(IRREGULAR_PRODUCT, 4)
    elif bound == "xl":
        call = lambda: xl_chain_bound(U16, 2)
    else:
        call = lambda: xb_chain_bound(U2, 16, 4)
    call()
    tracemalloc.start()
    try:
        call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= limit_mb * 2**20, peak / 2**20
