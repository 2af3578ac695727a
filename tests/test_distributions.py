import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from auctioncomp.distributions import (
    Exponential,
    FiniteDiscrete,
    PointMass,
    ProductDist,
    TruncatedEqualRevenue,
    Uniform,
    parse_dist,
)
from auctioncomp.experiments import dkw_epsilon
from auctioncomp.rng import substream

DISTS = [
    Uniform(0.0, 1.0),
    Uniform(2.0, 5.0),
    Exponential(1.0),
    Exponential(0.5),
    TruncatedEqualRevenue(100.0),
    TruncatedEqualRevenue(1e4),
    PointMass(3.0),
    FiniteDiscrete((1.0, 2.0, 4.0), (0.25, 0.5, 0.25)),
]


@pytest.mark.parametrize("d", DISTS, ids=lambda d: d.spec())
def test_quantile_cdf_identity(d):
    # cdf(quantile(q)) >= q with equality on the continuum, on a fine grid
    q = np.linspace(1e-6, 1.0 - 1e-6, 1000)
    v = d.quantile(q)
    c = d.cdf(v)
    assert np.all(c >= q - 1e-9)
    if isinstance(d, (Uniform, Exponential)):  # no atoms
        assert np.max(np.abs(c - q)) <= 1e-9


@pytest.mark.parametrize("d", DISTS, ids=lambda d: d.spec())
def test_quantile_of_uniform_draws_follows_the_cdf(d):
    # DKW band: values drawn as quantile(U) for uniform U follow the CDF
    N = 100_000
    v = d.quantile(substream(11, "unif", d.spec()).random(N))
    x = d.quantile(np.linspace(0.05, 0.95, 19))
    emp = np.searchsorted(np.sort(v), x, side="right") / N
    assert np.max(np.abs(emp - d.cdf(x))) <= dkw_epsilon(N, 1e-3)


@pytest.mark.parametrize("d", DISTS, ids=lambda d: d.spec())
def test_drawing_uniform_is_a_quantile_of_its_value(d):
    # the uniform that drew a value is a quantile of it, also at atoms:
    # Pr[X < v] <= u <= Pr[X <= v]
    u = substream(12, "couple", d.spec()).random(1000)
    v = d.quantile(u)
    assert np.all(d.cdf_left(v) <= u + 1e-12) and np.all(u <= d.cdf(v) + 1e-12)
    assert np.all(v >= d.support_lo) and np.all(v <= d.support_hi)


def test_sampling_is_seed_reproducible():
    d = TruncatedEqualRevenue(1e4)
    v1 = d.quantile(substream(5, "x").random(1000))
    v2 = d.quantile(substream(5, "x").random(1000))
    assert np.array_equal(v1, v2)
    v3 = d.quantile(substream(6, "x").random(1000))
    assert not np.array_equal(v1, v3)


def test_er_atom_mass():
    d = TruncatedEqualRevenue(4.0)
    N = 100_000
    v = d.quantile(substream(7, "atom").random(N))
    freq = np.count_nonzero(v == 4.0) / N
    assert abs(freq - 0.25) <= 3 * np.sqrt(0.25 * 0.75 / N)
    assert d.cdf(4.0) == 1.0
    assert d.cdf_left(4.0) == 0.75


def test_er_body_cdf():
    d = TruncatedEqualRevenue(100.0)
    x = np.array([1.0, 2.0, 50.0])
    assert np.allclose(d.cdf(x), 1.0 - 1.0 / x)


def test_discrete_quantile_breaks_ties_toward_smaller_value():
    d = FiniteDiscrete((1.0, 2.0), (0.5, 0.5))
    assert float(np.asarray(d.quantile(0.5))) == 1.0
    assert float(np.asarray(d.quantile(0.5 + 1e-12))) == 2.0
    assert np.array_equal(d.quantile_breakpoints(), [0.5])


@pytest.mark.parametrize("d", DISTS, ids=lambda d: d.spec())
def test_quantile_rejects_out_of_range_and_nan(d):
    for q in (np.nan, [0.2, np.nan, 0.7], -1e-300, 1.0 + 1e-15, [0.5, np.inf]):
        with pytest.raises(ValueError, match=r"must lie in \[0, 1\]"):
            d.quantile(q)


@pytest.mark.parametrize("d", DISTS, ids=lambda d: d.spec())
def test_quantile_accepts_empty_and_endpoints(d):
    assert d.quantile(np.array([])).shape == (0,)
    assert d.quantile(np.empty((0, 3))).shape == (0, 3)
    assert d.quantile([0.0, 1.0]).shape == (2,)


def test_product_profiles_shape_and_coupling():
    pd = ProductDist((Uniform(0, 1), TruncatedEqualRevenue(10.0)))
    v, q = pd.sample_profiles(substream(9, "prof"), 3, 50)
    assert v.shape == q.shape == (2, 3, 50)  # item-major: (m, bidders, profiles)
    assert v.flags.c_contiguous and q.flags.c_contiguous
    assert np.allclose(v[0], q[0])  # uniform: value == quantile
    assert np.allclose(v[1], np.asarray(pd.marginals[1].quantile(q[1])))
    # each cell keeps the uniform of a profile-major (profiles, bidders, m) draw
    drawn = substream(9, "prof").random((50, 3, 2))
    assert np.array_equal(q, drawn.transpose(2, 1, 0))


def test_quantile_domain_validated():
    with pytest.raises(ValueError):
        Uniform(0, 1).quantile(1.5)
    with pytest.raises(ValueError):
        Uniform(0, 1).quantile(np.array([0.2, -0.1]))


@pytest.mark.parametrize(
    "spec,cls",
    [
        ("uniform:0,1", Uniform),
        ("exp:1", Exponential),
        ("er:p=10000", TruncatedEqualRevenue),
        ("er:100", TruncatedEqualRevenue),
        ("point:5", PointMass),
        ("discrete:v=1,2;p=0.5,0.5", FiniteDiscrete),
    ],
)
def test_parse_dist_roundtrip(spec, cls):
    d = parse_dist(spec)
    assert isinstance(d, cls)
    assert parse_dist(d.spec()).spec() == d.spec()


@pytest.mark.parametrize("bad", ["gamma:1", "uniform:1", "er:p=0.5", "discrete:v=1;p=2"])
def test_parse_dist_rejects(bad):
    with pytest.raises(ValueError):
        parse_dist(bad)


NON_FINITE_SPECS = ["point:nan", "point:inf", "uniform:0,inf", "exp:inf", "uniform:-inf,0",
                    "discrete:v=1,nan;p=0.5,0.5"]


@pytest.mark.parametrize("bad", NON_FINITE_SPECS)
def test_parse_dist_rejects_non_finite_parameters(bad):
    with pytest.raises(ValueError, match="bad distribution spec") as info:
        parse_dist(bad)
    assert "must be finite" in str(info.value.__cause__)


@pytest.mark.parametrize(
    "make",
    [
        lambda x: Uniform(0.0, x),
        lambda x: Uniform(-x, 0.0),
        lambda x: Exponential(x),
        lambda x: TruncatedEqualRevenue(x),
        lambda x: PointMass(x),
        lambda x: PointMass(-x),
        lambda x: FiniteDiscrete((1.0, x), (0.5, 0.5)),
        lambda x: FiniteDiscrete((1.0, 2.0), (x, 0.5)),
    ],
)
@pytest.mark.parametrize("x", [np.nan, np.inf])
def test_constructors_reject_non_finite_parameters(make, x):
    # an infinite bound or rate used to build a distribution of NaN rows
    with pytest.raises(ValueError, match="must be finite"):
        make(x)


@given(st.floats(1.5, 1e6), st.floats(0.0, 1.0))
@settings(max_examples=50, deadline=None)
def test_er_quantile_in_support(p, q):
    d = TruncatedEqualRevenue(p)
    v = float(np.asarray(d.quantile(q)))
    assert 1.0 <= v <= p


@given(st.lists(st.floats(0.01, 10.0), min_size=1, max_size=6))
@settings(max_examples=50, deadline=None)
def test_discrete_cdf_left_le_cdf(weights):
    w = np.asarray(weights)
    probs = tuple(w / w.sum())
    vals = tuple(float(x) for x in range(1, len(weights) + 1))
    try:
        d = FiniteDiscrete(vals, probs)
    except ValueError:
        return  # fp normalization can miss the tolerance; not the property under test
    x = np.linspace(0.0, len(weights) + 1.0, 57)
    assert np.all(np.asarray(d.cdf_left(x)) <= np.asarray(d.cdf(x)) + 1e-12)
