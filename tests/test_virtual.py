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
from auctioncomp.virtual import DEFAULT_GRID, fact1_check, iron, raw_virtual


def test_raw_virtual_closed_forms():
    assert raw_virtual(Uniform(0, 1), 0.75) == pytest.approx(0.5)
    assert raw_virtual(Exponential(1.0), 1.0) == pytest.approx(0.0)
    assert raw_virtual(Exponential(2.0), 3.0) == pytest.approx(2.5)
    er = TruncatedEqualRevenue(100.0)
    assert raw_virtual(er, 50.0) == 0.0
    assert raw_virtual(er, 100.0) == 100.0


def test_raw_virtual_rejects_atoms_and_out_of_support():
    with pytest.raises(ValueError):
        raw_virtual(FiniteDiscrete((1.0, 2.0), (0.5, 0.5)), 1.0)
    with pytest.raises(ValueError):
        raw_virtual(Uniform(0, 1), 2.0)


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


def _brute_force_ironed(d: FiniteDiscrete, u: float) -> float:
    """Independent oracle: gift-wrap the concave hull of the exact revenue
    vertices (b_j, (1-b_j)*values[j]) plus (1, 0), then read off -slope at u."""
    cum = np.concatenate([[0.0], np.cumsum(d.probs)])
    pts = [(float(cum[j]), (1.0 - float(cum[j])) * v) for j, v in enumerate(d.values)]
    pts.append((1.0, 0.0))
    hull = [pts[0]]
    while hull[-1][0] < 1.0:
        u0, r0 = hull[-1]
        cand = [p for p in pts if p[0] > u0 + 1e-15]
        hull.append(max(cand, key=lambda p: ((p[1] - r0) / (p[0] - u0), p[0])))
    for (u0, r0), (u1, r1) in itertools.pairwise(hull):
        if u0 <= u < u1 or (u1 == 1.0 and u >= u0):
            return -(r1 - r0) / (u1 - u0)
    raise AssertionError("unreachable")


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
    for u in [0.05, 0.2, 0.33, 0.5, 0.66, 0.8, 0.95]:
        expect = _brute_force_ironed(d, u)
        assert float(np.asarray(imap.at_quantile(u))) == pytest.approx(expect, abs=1e-8)


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
    assert iron(d, 64) is not imap and len(iron(d, 64).phi_bar) < len(imap.phi_bar)
    for arr in (imap.grid, imap.phi_bar):
        with pytest.raises(ValueError):
            arr[0] = 0.0


def _bits(x):
    return np.asarray(x, dtype=float).view(np.int64)


@pytest.mark.parametrize(
    "d,K",
    [
        (FiniteDiscrete((1.0, 3.0, 4.0, 20.0), (0.4, 0.3, 0.25, 0.05)), DEFAULT_GRID),
        (FiniteDiscrete((1.0, 3.0, 4.0, 20.0), (0.4, 0.3, 0.25, 0.05)), 64),
        (FiniteDiscrete((2.0, 3.0, 7.0, 8.0, 30.0), (0.1, 0.3, 0.3, 0.2, 0.1)), DEFAULT_GRID),
        (FiniteDiscrete((1.0, 2.0), (0.5, 0.5)), 7),
        (PointMass(5.0), DEFAULT_GRID),
    ],
    ids=lambda x: x.spec() if hasattr(x, "spec") else str(x),
)
def test_step_lookup_equals_full_grid_lookup(d, K):
    imap = iron(d, K)
    knots, levels = imap.steps
    assert imap.steps is imap.steps  # built once per map
    assert len(levels) == len(knots) + 1 <= len(imap.phi_bar)
    for arr in (knots, levels):
        with pytest.raises(ValueError):
            arr[0] = 0.0
    bps = d.quantile_breakpoints()
    u = np.concatenate([
        imap.grid,
        bps,
        np.nextafter(bps, 0.0),
        np.nextafter(bps, 1.0),
        knots,
        [0.0, 1.0, -0.5, 1.5, np.nan, np.inf, -np.inf],
        np.random.default_rng(0).random(20_000),
    ])
    cell = np.clip(np.searchsorted(imap.grid, u, side="right") - 1, 0, len(imap.phi_bar) - 1)
    assert np.array_equal(_bits(imap.at_quantile(u)), _bits(imap.phi_bar[cell]))


@pytest.mark.parametrize(
    "d", [Uniform(0, 1), Exponential(2.0), TruncatedEqualRevenue(100.0)], ids=lambda d: d.spec()
)
def test_at_quantile_reuses_given_values(d):
    imap = iron(d)
    u = np.concatenate([[0.0, 1.0 - 1.0 / 100.0, 0.999], np.random.default_rng(1).random(1000)])
    assert np.array_equal(_bits(imap.at_quantile(u, d.quantile(u))), _bits(imap.at_quantile(u)))


def test_ironed_uniform_matches_raw():
    imap = iron(Uniform(0, 1))
    u = np.linspace(0.0, 1.0, 11)
    assert np.allclose(np.asarray(imap.at_quantile(u)), 2.0 * u - 1.0)


def test_at_value_consistent_with_at_quantile():
    d = Exponential(1.0)
    imap = iron(d)
    v = 2.0
    assert float(np.asarray(imap.at_value(v))) == pytest.approx(
        float(np.asarray(imap.at_quantile(d.cdf(v))))
    )


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
