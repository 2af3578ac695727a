import itertools
from fractions import Fraction

import numpy as np
import pytest

from auctioncomp.distributions import (
    Exponential,
    FiniteDiscrete,
    TruncatedEqualRevenue,
    Uniform,
    parse_dist,
)
from auctioncomp.revenue import _COARSE_U
from auctioncomp.virtual import _sorted_distinct, _upper_concave_envelope, iron
from oracles import (
    fact1_check,
    iron_on_grid,
    iron_reference,
    revenue_curve,
    upper_concave_envelope_indexed,
)

# regular and irregular, continuous, atomic and mixed, heavy-tailed, negative
IRON_ZOO = [
    "uniform:0,1",
    "exp:1",
    "er:1e4",
    "er:1e16",
    "point:5",
    "discrete:v=1,3,4,20;p=0.4,0.3,0.25,0.05",
    "discrete:v=-2,-1,1;p=0.3,0.3,0.4",
]


def test_raw_virtual_closed_forms():
    assert Uniform(0, 1).raw_virtual(0.75) == pytest.approx(0.5)
    assert Exponential(1.0).raw_virtual(1.0) == pytest.approx(0.0)
    assert Exponential(2.0).raw_virtual(3.0) == pytest.approx(2.5)
    er = TruncatedEqualRevenue(100.0)
    assert er.raw_virtual(50.0) == 0.0
    assert er.raw_virtual(100.0) == 100.0


def test_raw_virtual_rejects_atoms_and_out_of_support():
    for d in (FiniteDiscrete((1.0, 2.0), (0.5, 0.5)), FiniteDiscrete((5.0,), (1.0,))):
        with pytest.raises(ValueError, match="undefined at atoms"):
            d.raw_virtual(np.asarray(1.0))
    with pytest.raises(ValueError):
        Uniform(0, 1).raw_virtual(2.0)


@pytest.mark.parametrize(
    "d", [Uniform(0, 1), Exponential(1.0), TruncatedEqualRevenue(100.0)],
    ids=lambda d: d.spec(),
)
def test_regular_distributions_detected(d):
    assert iron(d).regular


def test_irregular_discrete_detected():
    # revenue vertices (0,1), (0.5,0.6), (0.9,1), (1,0): dips then rises
    d = FiniteDiscrete((1.0, 1.2, 10.0), (0.5, 0.4, 0.1))
    imap = iron(d)
    assert not imap.regular


def test_two_point_mass_is_regular():
    # discrete virtual values 1 - (0.3/0.7)*9 < 10 are monotone
    d = FiniteDiscrete((1.0, 10.0), (0.7, 0.3))
    assert iron(d).regular


def test_iron_rejects_a_hull_slope_that_overflows():
    # the first hull segment climbs by 1e300 over a quantile width of 1e-10:
    # its slope, an ironed virtual value, would be 1e310
    d = FiniteDiscrete((0.0, 1e300), (1e-10, 1.0 - 1e-10))
    with pytest.raises(ValueError, match="ironing .*1e\\+300.* overflows"):
        iron(d)


def _brute_force_ironed(d, u) -> np.ndarray:
    """Independent oracle for a purely atomic d: gift-wrap the concave hull of
    the exact revenue vertices (b_j, (1-b_j)*values[j]) plus (1, 0), then read
    off -slope at each u, right-continuously. Below the first segment (u < 0)
    the first slope applies; past the last (u >= 1, inf, NaN) the last one."""
    values, probs = (d.values, d.probs) if isinstance(d, FiniteDiscrete) else ((d.v,), (1.0,))
    cum = np.concatenate([[0.0], np.cumsum(probs)])
    pts = [(float(cum[j]), (1.0 - float(cum[j])) * v) for j, v in enumerate(values)]
    pts.append((1.0, 0.0))
    hull = [pts[0]]
    while hull[-1][0] < 1.0:
        u0, r0 = hull[-1]
        cand = [p for p in pts if p[0] > u0 + 1e-15]
        hull.append(max(cand, key=lambda p: ((p[1] - r0) / (p[0] - u0), p[0])))
    segments = [(u0, -(r1 - r0) / (u1 - u0)) for (u0, r0), (u1, r1) in itertools.pairwise(hull)]
    out = []
    for x in np.atleast_1d(np.asarray(u, dtype=float)):
        slope = segments[0][1]
        for u0, seg_slope in segments:
            if not x < u0:  # NaN passes every segment start
                slope = seg_slope
        out.append(slope)
    return np.array(out)


@pytest.mark.parametrize(
    "vals,probs",
    [
        ((1.0, 10.0), (0.7, 0.3)),
        ((1.0, 2.0, 4.0), (0.25, 0.5, 0.25)),
        ((1.0, 3.0, 5.0, 20.0), (0.4, 0.3, 0.2, 0.1)),
        ((2.0, 3.0, 7.0, 8.0, 30.0), (0.1, 0.3, 0.3, 0.2, 0.1)),
    ],
)
def test_ironed_discrete_matches_brute_force_hull(vals, probs):
    d = FiniteDiscrete(vals, probs)
    imap = iron(d)
    u = np.array([0.05, 0.2, 0.33, 0.5, 0.66, 0.8, 0.95])
    assert np.allclose(imap.at_quantile(u), _brute_force_ironed(d, u), rtol=0, atol=1e-8)


@pytest.mark.parametrize(
    "d",
    [
        Uniform(0, 1),
        Exponential(1.0),
        TruncatedEqualRevenue(100.0),
        FiniteDiscrete((1.0, 10.0), (0.7, 0.3)),
        FiniteDiscrete((1.0, 3.0, 5.0, 20.0), (0.4, 0.3, 0.2, 0.1)),
    ],
    ids=lambda d: d.spec(),
)
def test_ironed_map_monotone(d):
    imap = iron(d)
    u = np.linspace(0.0, 0.999999, 2000)
    phi = np.asarray(imap.at_quantile(u))
    assert np.all(np.diff(phi) >= -1e-9)


def test_iron_memoized_read_only():
    # a frozen map's arrays are read-only; a kind with a density has no steps
    imap = iron(FiniteDiscrete((1.0, 1.2, 10.0), (0.5, 0.4, 0.1)))
    for arr in (imap.knots, imap.levels):
        with pytest.raises(ValueError):
            arr[0] = 0.0
    smooth = iron(Exponential(2.0))
    assert smooth.regular
    for arr in (smooth.knots, smooth.levels):
        assert arr.size == 0 and not arr.flags.writeable


@pytest.mark.parametrize(
    "d,K",
    [
        (FiniteDiscrete((1.0, 3.0, 4.0, 20.0), (0.4, 0.3, 0.25, 0.05)), 4096),
        (FiniteDiscrete((1.0, 3.0, 4.0, 20.0), (0.4, 0.3, 0.25, 0.05)), 64),
        (FiniteDiscrete((2.0, 3.0, 7.0, 8.0, 30.0), (0.1, 0.3, 0.3, 0.2, 0.1)), 4096),
        (FiniteDiscrete((1.0, 2.0), (0.5, 0.5)), 7),
        (FiniteDiscrete((-2.0, -1.0, 1.0), (0.3, 0.3, 0.4)), 4096),
        (FiniteDiscrete((1.0, 1.2, 10.0), (0.5, 0.4, 0.1)), 64),
        pytest.param(FiniteDiscrete((5.0,), (1.0,)), 4096, id="point:5-4096"),
    ],
    ids=lambda x: x.spec() if hasattr(x, "spec") else str(x),
)
def test_at_quantile_equals_brute_force_ironing(d, K):
    # the steps against the brute-force hull, not against the map's own
    # arrays, probed densely and on a K-cell grid of quantiles
    imap = iron(d)
    knots, levels = imap.knots, imap.levels
    assert len(levels) == len(knots) + 1 <= len(d.values)
    assert np.all(np.diff(knots) > 0) and np.all(np.diff(levels) > 0)
    for arr in (knots, levels):
        with pytest.raises(ValueError):
            arr[0] = 0.0
    bps = d.quantile_breakpoints()
    u = np.concatenate([
        np.linspace(0.0, 1.0, 20_001),
        np.linspace(0.0, 1.0, K + 1),
        bps,
        np.nextafter(bps, 0.0),
        np.nextafter(bps, 1.0),
        knots,
        np.nextafter(knots, 0.0),
        np.nextafter(knots, 1.0),
        [0.0, 1.0, -0.5, 1.5, np.nan, np.inf, -np.inf],
        np.random.default_rng(0).random(20_000),
    ])
    assert np.allclose(imap.at_quantile(u), _brute_force_ironed(d, u), rtol=0, atol=1e-8)


def test_ironed_uniform_matches_raw():
    imap = iron(Uniform(0, 1))
    u = np.linspace(0.0, 1.0, 11)
    assert np.allclose(np.asarray(imap.at_quantile(u)), 2.0 * u - 1.0)


def test_fact1_uniform_grid():
    # E[phi(w) | w >= v] = v for regular distributions
    d = Uniform(0, 1)
    for i, v in enumerate(np.linspace(0.05, 0.9, 10)):
        est, se = fact1_check(d, float(v), 50_000, seed=100 + i)
        assert abs(est - v) <= 3 * se


def test_fact1_er_exact_structure():
    # conditional mean is p * Pr[atom | w >= v] = v exactly
    d = TruncatedEqualRevenue(100.0)
    est, se = fact1_check(d, 20.0, 100_000, seed=3)
    assert abs(est - 20.0) <= 3 * se


def test_fact1_rejects_degenerate_conditioning():
    with pytest.raises(ValueError):
        fact1_check(Uniform(0, 1), 2.0, 1000, seed=0)


def _random_point_sets():
    rng = np.random.default_rng(20)
    for size in (1, 2, 3, 50, 2000):
        u = np.sort(rng.random(size))
        yield u, rng.standard_normal(size)  # noise: many pops
        yield u, u * (1.0 - u) + 1e-13 * rng.standard_normal(size)  # near-ties
        yield np.sort(rng.integers(0, 8, size) / 8.0), rng.random(size)  # repeated u


def _collinear_point_sets():
    for size in (2, 3, 5, 1000):
        k = np.arange(size, dtype=float)
        yield k, 3.0 - 2.0 * k  # exact in binary: every cross product is 0
        yield k, np.zeros(size)
        u = np.linspace(0.0, 1.0, size)
        yield u, 0.1 * u + 0.3  # rounded, so some cross products are not 0
        yield u, 1.0 - u


@pytest.mark.parametrize("spec", IRON_ZOO)
@pytest.mark.parametrize("K", [17, 4096])
def test_hull_matches_indexed_loop_on_revenue_curves(spec, K):
    grid, revenue = revenue_curve(parse_dist(spec), K)
    assert _upper_concave_envelope(grid, revenue) == upper_concave_envelope_indexed(grid, revenue)


@pytest.mark.parametrize(
    "points", [*_random_point_sets(), *_collinear_point_sets()],
)
def test_hull_matches_indexed_loop_on_point_sets(points):
    u, r = points
    assert _upper_concave_envelope(u, r) == upper_concave_envelope_indexed(u, r)


@pytest.mark.parametrize(
    "points",
    [revenue_curve(parse_dist(spec), 4096) for spec in IRON_ZOO]
    + [*_random_point_sets(), *_collinear_point_sets()],
)
def test_hull_is_a_least_concave_majorant(points):
    # no reference: every point on or below the hull, every interior vertex a turn
    u, r = points
    hull = _upper_concave_envelope(u, r)
    assert hull[0] == 0 and hull[-1] == len(u) - 1
    assert all(a < b for a, b in itertools.pairwise(hull))
    hu, hr = u[hull], r[hull]
    if len(np.unique(u)) == len(u):  # interp needs one height per u
        slack = 1e-12 * max(1.0, float(np.max(np.abs(r))))
        assert np.all(r <= np.interp(u, hu, hr) + slack)
    for i0, i1, i2 in zip(hull, hull[1:], hull[2:]):
        cross = (u[i1] - u[i0]) * (r[i2] - r[i0]) - (u[i2] - u[i0]) * (r[i1] - r[i0])
        assert cross < 0


@pytest.mark.parametrize("spec", IRON_ZOO)
@pytest.mark.parametrize("K", [2, 3, 17, 4096])
def test_iron_bit_equal_to_reference_construction(spec, K):
    # bit for bit against the reference construction; the hull of the
    # revenue tabulated on a K-cell grid reads the same phi_bar up to rounding
    d = parse_dist(spec)
    imap = iron(d)
    knots, levels, regular = iron_reference(d)
    assert imap.knots.tobytes() == knots.tobytes()
    assert imap.levels.tobytes() == levels.tobytes()
    assert imap.regular is regular
    grid = revenue_curve(d, K)[0]
    grid_knots, grid_levels, grid_regular = iron_on_grid(d, K)
    tol = 1e-9 * max(1.0, float(np.max(np.abs(grid_levels))))
    if d.purely_atomic:
        # the grid adds only points on the linear pieces between the corners
        assert grid_regular is regular
        u = np.concatenate([np.linspace(0.0, 1.0, 20_001), grid])
        on_grid = grid_levels[np.searchsorted(grid_knots, u, side="right")]
        assert np.allclose(imap.at_quantile(u), on_grid, rtol=0, atol=tol)
    else:
        # R is concave, so the chord over a cell has a slope between phi_bar
        # at the cell's two ends
        on_cell = grid_levels[np.searchsorted(grid_knots, 0.5 * (grid[:-1] + grid[1:]), "right")]
        assert np.all(imap.at_quantile(grid[:-1]) - tol <= on_cell)
        assert np.all(on_cell <= imap.at_quantile(grid[1:]) + tol)


def _dedupe_inputs():
    # grids at several sizes, the tables that ``revenue._Grid`` dedupes,
    # and the corners that ``iron`` dedupes
    dists = [parse_dist(spec) for spec in IRON_ZOO]
    for d in dists:
        bps = d.quantile_breakpoints()
        for K in (2, 3, 17, 4096):
            yield np.concatenate([np.linspace(0.0, 1.0, K + 1), bps[(bps > 0) & (bps < 1)]])
    steps = np.concatenate([iron(d).knots for d in dists] + [d.quantile_breakpoints() for d in dists])
    yield np.concatenate([_COARSE_U, steps, np.nextafter(steps, -np.inf), np.nextafter(steps, np.inf)])
    yield np.concatenate([d.quantile(_COARSE_U) for d in dists])
    yield np.array([])
    yield np.array([0.5])
    yield np.full(7, 0.25)
    yield np.array([1.0, -0.0, 0.0, 1.0, 0.5])
    for d in dists:
        if d.purely_atomic:
            bps = d.quantile_breakpoints()
            yield np.concatenate([[0.0, 1.0], bps[(bps > 0) & (bps < 1)]])


@pytest.mark.parametrize("x", [*_dedupe_inputs()], ids=lambda x: f"size{x.size}")
def test_sorted_distinct_equals_np_unique(x):
    got, want = _sorted_distinct(x), np.unique(x)
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


# (knots, levels) of the atomic items as the tabulated construction on its
# default 4096-cell grid built them, little-endian float64 bytes in hex
GRID_MAPS = {
    "point:5": ("", "0000000000001440"),
    "discrete:v=1,3,4,20;p=0.4,0.3,0.25,0.05": (
        "9a9999999999d93f666666666666ee3f",
        "feffffffffffffbf3e175d74d145f73f0000000000003440",
    ),
    "discrete:v=-2,-1,1;p=0.3,0.3,0.4": (
        "333333333333d33f333333333333e33f",
        "56555555555511c05655555555550dc0000000000000f03f",
    ),
    "discrete:v=1,1.2,10;p=0.5,0.4,0.1": ("cdccccccccccec3f", "721cc7711cc7b13c0000000000002440"),
    "discrete:v=2,3,7,8,30;p=0.1,0.3,0.3,0.2,0.1": (
        "9a9999999999b93f9a9999999999d93fccccccccccccec3f",
        "0200000000001cc0ffffffffffff13c029333333333303400000000000003e40",
    ),
}


@pytest.mark.parametrize("spec", list(GRID_MAPS))
def test_atomic_maps_equal_recorded_grid_maps(spec):
    imap = iron(parse_dist(spec))
    assert (imap.knots.tobytes().hex(), imap.levels.tobytes().hex()) == GRID_MAPS[spec]


def _random_discrete_specs(count: int):
    """Seeded ``discrete:`` specs of 1 to 8 atoms, values in [-10, 30]."""
    rng = np.random.default_rng(2017)
    specs = ["point:-3", "discrete:v=-2.5;p=1"]
    while len(specs) < count:
        k = int(rng.integers(1, 9))
        values = np.unique(rng.uniform(-10.0, 30.0, k))
        if rng.random() < 0.3:  # short decimals: ties between revenue corners are likelier
            values = np.unique(np.round(values, 1))
        probs = rng.dirichlet(np.ones(values.size))
        specs.append(
            "discrete:v=" + ",".join(repr(float(v)) for v in values)
            + ";p=" + ",".join(repr(float(q)) for q in probs / probs.sum())
        )
    return specs


def _exact_upper_hull(points):
    """Vertices of the upper hull of (u, r) points sorted by u, by brute
    force in exact arithmetic: a point is a vertex unless it lies on or
    below the chord of some point to its left and some point to its right."""
    hull = []
    for i, (ui, ri) in enumerate(points):
        covered = any(
            (ub - ua) * (ri - ra) <= (ui - ua) * (rb - ra)
            for ua, ra in points[:i]
            for ub, rb in points[i + 1:]
        )
        if not covered:
            hull.append((ui, ri))
    return hull


@pytest.mark.parametrize("spec", _random_discrete_specs(320))
def test_iron_matches_exact_hull_of_revenue_corners(spec):
    # the corners in exact arithmetic: u the float breakpoints as the
    # distribution sums them, R = (1 - u) v with no rounding
    d = parse_dist(spec)
    values = d.values if isinstance(d, FiniteDiscrete) else (d.v,)
    probs = d.probs if isinstance(d, FiniteDiscrete) else (1.0,)
    cum = np.cumsum(probs)[:-1].tolist()
    corners = [(Fraction(0), Fraction(values[0]))]
    for u, v in zip(cum, values[1:]):
        if 0.0 < u < 1.0:
            corners.append((Fraction(u), (1 - Fraction(u)) * Fraction(v)))
    corners.append((Fraction(1), Fraction(0)))
    hull = _exact_upper_hull(corners)
    slopes = [-(r1 - r0) / (u1 - u0) for (u0, r0), (u1, r1) in itertools.pairwise(hull)]

    imap = iron(d)
    assert imap.knots.tolist() == [float(u) for u, _ in hull[1:-1]]
    assert np.all(np.diff(imap.levels) > 0) and len(imap.levels) <= len(values)
    assert np.allclose(imap.levels, [float(s) for s in slopes], rtol=1e-12, atol=1e-12)
    below = max(
        (r1 - r0) / (u1 - u0) * (u - u0) + r0 - r
        for (u0, r0), (u1, r1) in itertools.pairwise(hull)
        for u, r in corners if u0 <= u <= u1
    )
    assert imap.regular is (below <= 1e-9)
