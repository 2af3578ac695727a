"""The one grid of every exact bracket (``revenue._Grid``): its points, their
count, their lookup, and the widths it reaches where the integrand lives
near u = 1."""

import functools
import math
import struct

import numpy as np
import pytest

from auctioncomp import benchmark as benchmark_mod
from auctioncomp import revenue as revenue_mod
from auctioncomp.benchmark import efftw_bound, xl_chain_bound
from auctioncomp.distributions import Exponential, FiniteDiscrete, ProductDist, Uniform, parse_dist
from auctioncomp.experiments import XB, XL
from auctioncomp.revenue import _COARSE_U, _QUAD_CELLS, _Grid, _score_grid, _stieltjes, myerson_item_revenue
from auctioncomp.rng import PIECE
from oracles import _fold_pieces, grid_points_by_search, myerson_cdf, region_max_cdf, vcg_cdf

ZOO = ["uniform:0,1", "uniform:-1,1", "exp:1", "exp:0.3", "er:p=10000", "er:p=100", "point:5",
       "discrete:v=1,3,4,20;p=0.4,0.3,0.25,0.05", "discrete:v=-2,-1,1;p=0.3,0.3,0.4",
       "discrete:v=1,1.2,10;p=0.5,0.4,0.1"]
PRODUCTS = {
    "irregular": ["discrete:v=1,3,4,20;p=0.4,0.3,0.25,0.05", "exp:1", "uniform:0,1"],
    "er2": ["er:p=10000"] * 2,
    "mixed": ["exp:0.3", "er:p=100", "point:5", "discrete:v=1,1.2,10;p=0.5,0.4,0.1"],
}


def _score_cdfs(d, n):
    """The score CDFs of the benchmark on two items, of Myerson and of VCG."""
    return {"efftw": region_max_cdf(d, 2, n, d.psi), "myerson": myerson_cdf(d, n), "vcg": vcg_cdf(d, n)}


def _score_grids():
    for spec in ZOO:
        d = parse_dist(spec)
        for n in (1, 2, 5, 4096):
            for name, cdf in _score_cdfs(d, n).items():
                yield (spec, n, name), d, cdf, _score_grid(d, cdf)


def _chain_grid(d, law):
    """The ``_Grid`` that ``benchmark._phi_at_experiment`` makes for item d
    under ``law``."""
    made = []

    class Kept(_Grid):
        def __init__(self, *args):
            super().__init__(*args)
            made.append(self)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(benchmark_mod, "_Grid", Kept)
        benchmark_mod._phi_at_experiment(ProductDist((d,)), law)
    (grid,) = made
    return grid


@functools.cache
def _chain_grids():
    """((product, item, law), grid): the chain ``_Grid`` of each distinct
    item of ``PRODUCTS`` under X_L(2, m), X_L(4096, m) and X_B(19, 4)."""
    made = []
    for name, specs in PRODUCTS.items():
        for d in dict.fromkeys(parse_dist(s) for s in specs):
            for law in (XL(2, len(specs)), XL(4096, len(specs)), XB(19, 4)):
                made.append(((name, d.spec(), law), _chain_grid(d, law)))
    return tuple(made)


def _score_jumps(d):
    """Where a score's CDF may jump: 0, the ironed levels and the atoms."""
    bps = d.quantile_breakpoints()
    return np.concatenate([[0.0], d.levels, d.quantile(np.concatenate([bps, np.nextafter(bps, 1.0)]))])


def _holds_with_neighbours(points, jumps, lo, hi):
    want = np.concatenate([jumps, np.nextafter(jumps, -np.inf), np.nextafter(jumps, np.inf)])
    want = want[(want >= lo) & (want <= hi)]
    return bool(np.all(np.isin(want, points)))


def test_score_grids_are_nondecreasing_and_hold_every_jump():
    for label, d, _, grid in _score_grids():
        t = grid[:]
        assert np.all(np.diff(t) >= 0.0), label
        assert t[0] == min(0.0, d.support_lo) and np.isfinite(t[-1]), label
        assert _holds_with_neighbours(t, _score_jumps(d), t[0], t[-1]), label


@pytest.mark.parametrize("name", list(PRODUCTS))
def test_chain_grids_are_nondecreasing_and_hold_every_jump(name):
    pd = ProductDist(tuple(parse_dist(s) for s in PRODUCTS[name]))
    u_K = np.nextafter(1.0, 0.0)
    for d in dict.fromkeys(pd.marginals):
        steps = np.append(d.knots, d.quantile_breakpoints())
        for law in (XL(2, pd.m), XL(4096, pd.m), XB(19, 4)):
            u = _chain_grid(d, law)[:]
            assert u[0] == 0.0 and u[-1] == u_K  # the walk stops below the top cell
            assert np.all(np.diff(u) >= 0.0)
            assert _holds_with_neighbours(u, steps, 0.0, u_K), (name, d.spec(), law)


@pytest.mark.parametrize("size", [64, PIECE])
def test_point_bits_do_not_depend_on_the_piece_size(size):
    for label, _, _, grid in _score_grids():
        pieces = np.concatenate([grid[i:i + size] for i in range(0, grid.size, size)])
        assert pieces.tobytes() == grid[:].tobytes(), label


def _slices(grid):
    """Empty, one point, the last point, slices from and up to a middle
    cell's first point f, pieces of 1 about f, and pieces of 64 and
    ``PIECE`` over the whole grid."""
    size = grid.size
    f = int(grid._first[(grid.x.size - 1) // 2])
    out = [slice(f, f), slice(f, f + 1), slice(size - 1, size), slice(f, size), slice(0, f), slice(0, f + 1),
           slice(None)]
    out += [slice(i, i + 1) for i in range(max(f - 64, 0), min(f + 64, size))]
    return out + [slice(i, i + piece) for piece in (64, PIECE) for i in range(0, size, piece)]


def test_run_length_lookup_same_bits_as_binary_search():
    grids = [(label, grid) for label, _, _, grid in _score_grids()] + list(_chain_grids())
    for label, grid in grids:
        want = grid_points_by_search(grid, slice(None))  # each point by itself
        for s in _slices(grid):
            assert grid[s].tobytes() == want[s].tobytes(), (label, s)


def test_no_grid_repeats_a_point():
    # a cell holds at most as many points as floats: a step-function score
    # (an atomic item's) has all of its weight in one-ulp cells, so its grid
    # is its table
    for label, d, _, grid in _score_grids():
        t = grid[:]
        assert np.all(np.diff(t) > 0.0), label
        if isinstance(d, FiniteDiscrete):
            assert t.tobytes() == grid.x.tobytes(), label
    for label, grid in _chain_grids():
        assert np.all(np.diff(grid[:]) > 0.0), label


def test_myerson_on_er_reads_its_score_cdf_once_per_table_point(monkeypatch):
    # psi^n of ER is a step function, so its grid is its table: the CDF is
    # read on the table to spread the points, then once per point to bracket
    # them (52 256 reads when the one-ulp cells held 50 000 repeated points)
    d, n = parse_dist("er:p=10000"), 5
    reads, tables = [], []
    score_estimate = revenue_mod._score_estimate

    def counted(d, n, cdf):
        tables.append(_score_grid(d, cdf).x.size)

        def read(t):
            reads.append(np.size(t))
            return cdf(t)

        return score_estimate(d, n, read)

    monkeypatch.setattr(revenue_mod, "_score_estimate", counted)
    myerson_item_revenue(d, n)
    assert sum(reads) <= 2 * tables[0], (sum(reads), tables)


def _floats_inside(a: float, b: float) -> int:
    """The count of floats strictly between a < b, from their IEEE bits."""

    def key(x):
        i = struct.unpack("<q", struct.pack("<d", x))[0]
        return i if i >= 0 else -(i & (2**63 - 1))

    return key(b) - key(a) - 1


def test_point_count_is_the_cells_plus_the_table():
    # each cell adds its share of _QUAD_CELLS points in sqrt(dW dg), or the
    # floats inside it where they are fewer, and none moves to another cell
    for label, d, cdf, grid in _score_grids():
        x = grid.x
        cum = np.cumsum(np.append(0.0, np.sqrt(np.abs(np.diff(x) * np.diff(cdf(x))))))
        scale = _QUAD_CELLS / cum[-1] if 0.0 < cum[-1] < math.inf else 0.0
        share = np.diff(np.floor(cum * scale))
        added = sum(min(int(k), _floats_inside(a, b)) for k, a, b in zip(share, x[:-1].tolist(), x[1:].tolist()))
        assert grid.size == x.size + added, (label, grid.size, x.size, added)
        # a continuous item's cells hold floats enough for their share
        if isinstance(d, (Uniform, Exponential)) and cum[-1] > 0.0:
            assert abs(grid.size - x.size - _QUAD_CELLS) <= 1, (label, grid.size, x.size)
    # a constant g has no weight to share: the table's nodes alone
    flat = _Grid(_COARSE_U, np.empty(0), 0.0, 1.0, lambda u: u, np.zeros_like)
    assert flat.size == flat.x.size and flat[:].tobytes() == flat.x.tobytes()


def test_stieltjes_over_a_whole_number_of_pieces_equals_one_shot():
    # W is made monotone by its running maximum, carried across the pieces:
    # the sums and W_K of reading it on the whole array at once
    rng = np.random.default_rng(5)
    x = np.sort(rng.random(2 * PIECE + 1))
    W = lambda t: np.sin(40.0 * t) + t
    want_W = np.maximum.accumulate(W(x))
    assert np.any(np.diff(W(x)) < 0.0)
    assert _stieltjes(x, np.exp, W) == _fold_pieces(np.diff(want_W), np.exp(x)) + (want_W[-1],)
    # the identity, as the score integrals pass it: a nondecreasing grid is its own maximum
    assert _stieltjes(x, np.exp, lambda t: t) == _fold_pieces(np.diff(x), np.exp(x)) + (x[-1],)


def _pd(spec, m):
    return ProductDist((parse_dist(spec),) * m)


# (bound, half-width at most): the width-driven grid's table; each bound is
# at most the width an earlier equal-mass prototype reached, and the fixed
# grids it replaces read +-0.84, 11.1, 325, 5.7e-4, 2.3e-3, 1.2e-4, 1.2e-4
# and 0.97 on these rows
WIDTHS = {
    "efftw ER(1e8)^4 n=16384": (lambda: efftw_bound(_pd("er:p=1e8", 4), 16384), 0.25),
    "efftw ER(1e9)^4 n=65536": (lambda: efftw_bound(_pd("er:p=1e9", 4), 65536), 0.59),
    "efftw ER(1e10)^4 n=2^20": (lambda: efftw_bound(_pd("er:p=1e10", 4), 2**20), 2.74),
    "xl exp:1 n=2 m=1": (lambda: xl_chain_bound(_pd("exp:1", 1), 2), 1.4e-4),
    "xl exp:1^2 n=4": (lambda: xl_chain_bound(_pd("exp:1", 2), 4), 3.4e-4),
    "xl U(0,1)^4 n=64": (lambda: xl_chain_bound(_pd("uniform:0,1", 4), 64), 1.1e-5),
    "xl U(0,1)^4 n=4096": (lambda: xl_chain_bound(_pd("uniform:0,1", 4), 4096), 2.9e-7),
    "xl exp:1^4 n=4096": (lambda: xl_chain_bound(_pd("exp:1", 4), 4096), 1.4e-3),
}


@pytest.mark.parametrize("row", list(WIDTHS))
def test_large_n_widths(row):
    bound, width = WIDTHS[row]
    assert bound().half <= width


@pytest.mark.parametrize("spec", ["uniform:0,1", "exp:1"])
def test_chain_width_near_the_cauchy_schwarz_floor(spec):
    # a K-cell rectangle bracket of the integral of phi_bar dF is at least
    # (integral of sqrt(dF dphi_bar))^2 / K wide, here summed on 2^20 cells
    # and 256 per octave of 1 - u; the grid's cells below 1 come within 5%
    n, m = 4096, 4
    law, phi = XL(n, m), parse_dist(spec).phi_bar
    u = np.concatenate([np.linspace(0.0, 1.0, 2**20 + 1), 1.0 - np.exp2(-np.arange(53 * 256 + 1) / 256)])
    u = np.unique(u)[:-1]
    floor = m * np.sum(np.sqrt(np.diff(law.cdf(u)) * np.diff(phi(u)))) ** 2
    cells = _chain_grid(parse_dist(spec), law).size - 1
    half_width = xl_chain_bound(_pd(spec, m), n).half
    assert floor / (2 * cells) <= half_width <= 1.05 * floor / (2 * cells)
