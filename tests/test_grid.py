"""The one grid of every exact bracket (``revenue._Grid``): its points, their
count, and the widths it reaches where the integrand lives near u = 1."""

import numpy as np
import pytest

from auctioncomp import benchmark as benchmark_mod
from auctioncomp import revenue as revenue_mod
from auctioncomp.benchmark import _region_max_cdf, efftw_bound, xl_chain_bound
from auctioncomp.distributions import ProductDist, parse_dist
from auctioncomp.experiments import XB, XL
from auctioncomp.revenue import _COARSE_U, _QUAD_CELLS, _Grid, _score_grid, _stieltjes
from auctioncomp.rng import PIECE
from auctioncomp.virtual import iron
from oracles import _fold_pieces

ZOO = ["uniform:0,1", "uniform:-1,1", "exp:1", "exp:0.3", "er:p=10000", "er:p=100", "point:5",
       "discrete:v=1,3,4,20;p=0.4,0.3,0.25,0.05", "discrete:v=-2,-1,1;p=0.3,0.3,0.4",
       "discrete:v=1,1.2,10;p=0.5,0.4,0.1"]
PRODUCTS = {
    "irregular": ["discrete:v=1,3,4,20;p=0.4,0.3,0.25,0.05", "exp:1", "uniform:0,1"],
    "er2": ["er:p=10000"] * 2,
    "mixed": ["exp:0.3", "er:p=100", "point:5", "discrete:v=1,1.2,10;p=0.5,0.4,0.1"],
}


def _score_grids():
    for spec in ZOO:
        d = parse_dist(spec)
        for n in (1, 2, 5):
            yield spec, n, d, _score_grid(d, _region_max_cdf(d, 2, n, iron(d).psi))


def _score_jumps(d):
    """Where a score's CDF may jump: 0, the ironed levels and the atoms."""
    bps = d.quantile_breakpoints()
    return np.concatenate([[0.0], iron(d).levels, d.quantile(np.concatenate([bps, np.nextafter(bps, 1.0)]))])


def _holds_with_neighbours(points, jumps, lo, hi):
    want = np.concatenate([jumps, np.nextafter(jumps, -np.inf), np.nextafter(jumps, np.inf)])
    want = want[(want >= lo) & (want <= hi)]
    return bool(np.all(np.isin(want, points)))


def test_score_grids_are_nondecreasing_and_hold_every_jump():
    for spec, n, d, grid in _score_grids():
        t = grid[:]
        assert np.all(np.diff(t) >= 0.0), (spec, n)
        assert t[0] == min(0.0, d.support_lo) and np.isfinite(t[-1]), (spec, n)
        assert _holds_with_neighbours(t, _score_jumps(d), t[0], t[-1]), (spec, n)


@pytest.mark.parametrize("name", list(PRODUCTS))
def test_chain_grids_are_nondecreasing_and_hold_every_jump(name):
    pd = ProductDist(tuple(parse_dist(s) for s in PRODUCTS[name]))
    steps = np.concatenate([np.append(iron(d).knots, d.quantile_breakpoints()) for d in pd.marginals])
    for law in (XL(2, pd.m), XL(4096, pd.m), XB(19, 4)):
        u, F = benchmark_mod._chain_grid(pd.marginals, law)
        assert u[0] == 0.0 and u[-2] == np.nextafter(1.0, 0.0) and u[-1] == 1.0
        assert np.all(np.diff(u) >= 0.0) and np.all(np.diff(F) >= 0.0)
        assert _holds_with_neighbours(u, steps, 0.0, 1.0), (name, law)


@pytest.mark.parametrize("size", [64, PIECE])
def test_point_bits_do_not_depend_on_the_piece_size(size):
    for spec, n, _, grid in _score_grids():
        pieces = np.concatenate([grid[i:i + size] for i in range(0, grid.size, size)])
        assert pieces.tobytes() == grid[:].tobytes(), (spec, n)


def test_point_count_is_the_cells_plus_the_table():
    for spec, n, _, grid in _score_grids():
        assert abs(grid.size - grid.x.size - _QUAD_CELLS) <= 1, (spec, n, grid.size, grid.x.size)
    # a constant g has no weight to share: the table's nodes alone
    flat = _Grid(_COARSE_U, np.empty(0), 0.0, 1.0, lambda u: u, np.zeros_like)
    assert flat.size == flat.x.size and flat[:].tobytes() == flat.x.tobytes()


def test_stieltjes_over_a_whole_number_of_pieces_equals_one_shot():
    rng = np.random.default_rng(5)
    x = np.sort(rng.random(2 * PIECE + 1))
    W = np.cumsum(rng.random(x.size))
    got = _stieltjes(x, np.exp, W)
    assert got == _fold_pieces(np.diff(W), np.exp(x))


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
    assert bound().stderr <= width


@pytest.mark.parametrize("spec", ["uniform:0,1", "exp:1"])
def test_chain_width_near_the_cauchy_schwarz_floor(spec):
    # a K-cell rectangle bracket of the integral of phi_bar dF is at least
    # (integral of sqrt(dF dphi_bar))^2 / K wide, here summed on 2^20 cells
    # and 256 per octave of 1 - u; the grid's cells below 1 come within 5%
    n, m = 4096, 4
    law, phi = XL(n, m), iron(parse_dist(spec)).at_quantile
    u = np.concatenate([np.linspace(0.0, 1.0, 2**20 + 1), 1.0 - np.exp2(-np.arange(53 * 256 + 1) / 256)])
    u = np.unique(u)[:-1]
    floor = m * np.sum(np.sqrt(np.diff(law.cdf(u)) * np.diff(phi(u)))) ** 2
    cells = len(benchmark_mod._chain_grid((parse_dist(spec),), law)[0]) - 2
    half_width = xl_chain_bound(_pd(spec, m), n).stderr
    assert floor / (2 * cells) <= half_width <= 1.05 * floor / (2 * cells)
