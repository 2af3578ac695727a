import itertools

import numpy as np
import pytest

from auctioncomp.distributions import (
    Exponential,
    FiniteDiscrete,
    PointMass,
    TruncatedEqualRevenue,
    Uniform,
)
from auctioncomp.virtual import DEFAULT_GRID, fact1_check, iron


def test_raw_virtual_closed_forms():
    assert Uniform(0, 1).raw_virtual(0.75) == pytest.approx(0.5)
    assert Exponential(1.0).raw_virtual(1.0) == pytest.approx(0.0)
    assert Exponential(2.0).raw_virtual(3.0) == pytest.approx(2.5)
    er = TruncatedEqualRevenue(100.0)
    assert er.raw_virtual(50.0) == 0.0
    assert er.raw_virtual(100.0) == 100.0


def test_raw_virtual_rejects_atoms_and_out_of_support():
    for d in (FiniteDiscrete((1.0, 2.0), (0.5, 0.5)), PointMass(5.0)):
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
    # equal distributions share one map, whatever form K is passed in
    d = FiniteDiscrete((1.0, 1.2, 10.0), (0.5, 0.4, 0.1))
    imap = iron(d)
    assert iron(FiniteDiscrete((1.0, 1.2, 10.0), (0.5, 0.4, 0.1)), K=DEFAULT_GRID) is imap
    assert iron(d, 64) is not imap and iron(d, 64) is iron(d, 64)
    for arr in (imap.knots, imap.levels):
        with pytest.raises(ValueError):
            arr[0] = 0.0


@pytest.mark.parametrize(
    "d,K",
    [
        (FiniteDiscrete((1.0, 3.0, 4.0, 20.0), (0.4, 0.3, 0.25, 0.05)), DEFAULT_GRID),
        (FiniteDiscrete((1.0, 3.0, 4.0, 20.0), (0.4, 0.3, 0.25, 0.05)), 64),
        (FiniteDiscrete((2.0, 3.0, 7.0, 8.0, 30.0), (0.1, 0.3, 0.3, 0.2, 0.1)), DEFAULT_GRID),
        (FiniteDiscrete((1.0, 2.0), (0.5, 0.5)), 7),
        (FiniteDiscrete((-2.0, -1.0, 1.0), (0.3, 0.3, 0.4)), DEFAULT_GRID),
        (FiniteDiscrete((1.0, 1.2, 10.0), (0.5, 0.4, 0.1)), 64),
        (PointMass(5.0), DEFAULT_GRID),
    ],
    ids=lambda x: x.spec() if hasattr(x, "spec") else str(x),
)
def test_step_lookup_equals_full_grid_lookup(d, K):
    # the steps against the brute-force hull, not against the map's own arrays
    imap = iron(d, K)
    knots, levels = imap.knots, imap.levels
    assert len(levels) == len(knots) + 1
    assert np.all(np.diff(knots) > 0) and np.all(np.diff(levels) > 0)
    for arr in (knots, levels):
        with pytest.raises(ValueError):
            arr[0] = 0.0
    bps = d.quantile_breakpoints()
    u = np.concatenate([
        np.linspace(0.0, 1.0, 20_001),
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
