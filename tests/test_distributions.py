import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from auctioncomp.distributions import (
    Exponential,
    FiniteDiscrete,
    ProductDist,
    TruncatedEqualRevenue,
    Uniform,
    parse_dist,
)
from auctioncomp.benchmark import efftw_bound, obs1_bound, xl_chain_bound
from auctioncomp.experiments import dkw_epsilon
from auctioncomp.revenue import myerson_item_revenue, srev, vcg, vcg_item_revenue
from auctioncomp.rng import substream

DISTS = [
    Uniform(0.0, 1.0),
    Uniform(2.0, 5.0),
    Exponential(1.0),
    Exponential(0.5),
    TruncatedEqualRevenue(100.0),
    TruncatedEqualRevenue(1e4),
    pytest.param(FiniteDiscrete((3.0,), (1.0,)), id="point:3"),
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
    # Pr[X < v] <= u <= Pr[X <= v], Pr[X < v] read at the float below v
    u = substream(12, "couple", d.spec()).random(1000)
    v = d.quantile(u)
    assert np.all(d.cdf(np.nextafter(v, -np.inf)) <= u + 1e-12) and np.all(u <= d.cdf(v) + 1e-12)
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
    assert d.cdf(np.nextafter(4.0, -np.inf)) == 0.75  # Pr[X < 4]


def test_er_rejects_p_where_the_jump_to_the_atom_rounds_to_1():
    # from p = 2^54 on, 1 - 1/p is 1.0: no quantile reached the atom, psi
    # dropped it, and Myerson read [0, 0] on ER(1e300) against about 3
    for p in (2.0**54, 1e17, 1e300):
        with pytest.raises(ValueError, match="1 - 1/p rounds to 1"):
            TruncatedEqualRevenue(p)
        with pytest.raises(ValueError, match="bad distribution spec"):
            parse_dist(f"er:p={p!r}")
    # just below the cap the jump is the float below 1, and the top quantile
    # reaches the atom
    for p in (float(np.nextafter(2.0**54, 0.0)), 1e16):
        d = TruncatedEqualRevenue(p)
        jump = float(d.quantile_breakpoints()[0])
        assert jump == 1.0 - 1.0 / p < 1.0
        assert float(d.psi(0.0)) == jump
        assert float(d.quantile(np.nextafter(jump, 2.0))) == p


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
        ("point:5", FiniteDiscrete),
        ("discrete:v=1,2;p=0.5,0.5", FiniteDiscrete),
    ],
)
def test_parse_dist_roundtrip(spec, cls):
    d = parse_dist(spec)
    assert isinstance(d, cls)
    assert parse_dist(d.spec()).spec() == d.spec()


@pytest.mark.parametrize("v", ["5", "-2", "0", "3.7"])
def test_point_spec_is_the_one_atom_discrete(v):
    # point:v parses to the discrete law with one atom, and so reads the
    # same bits wherever the discrete spec is read
    point, discrete = parse_dist(f"point:{v}"), parse_dist(f"discrete:v={v};p=1")
    assert point == discrete == FiniteDiscrete((float(v),), (1.0,))
    for n in (1, 2, 5):
        for fn in (srev, vcg, efftw_bound):
            got, want = (fn(ProductDist((d, Uniform(0.0, 1.0))), n) for d in (point, discrete))
            bits = [float(x).hex() for x in (got.lo, got.hi, want.lo, want.hi)]
            assert bits[:2] == bits[2:], (fn.__name__, n)


@pytest.mark.parametrize(
    "spec", ["discrete:v=1,2;p=1,0", "discrete:v=0,1;p=0,1", "discrete:v=-5,1;p=0,1", "discrete:v=0,1,2;p=0,1,0"]
)
def test_zero_mass_atoms_leave_the_support(spec):
    # an atom of mass 0 is no value of the law: its support, its quantile at
    # either end, and every exact bracket, are those of the point mass at 1
    # (a top atom of mass 0 made the tail past the grid, and so each upper
    # end, infinite)
    d, point = parse_dist(spec), parse_dist("point:1")
    assert (d.support_lo, d.support_hi) == (1.0, 1.0)
    assert d.quantile(np.array([0.0, 0.5, 1.0])).tolist() == [1.0, 1.0, 1.0]
    for n in (1, 3):
        assert myerson_item_revenue(d, n) == myerson_item_revenue(point, n)
        assert vcg_item_revenue(d, n) == vcg_item_revenue(point, n)
        product, point_product = (ProductDist((x, Exponential(1.0))) for x in (d, point))
        for fn in (efftw_bound, obs1_bound, xl_chain_bound) if n > 1 else (efftw_bound,):
            assert fn(product, n) == fn(point_product, n), (fn.__name__, n)
    assert myerson_item_revenue(d, 3).lo <= 1.0 <= myerson_item_revenue(d, 3).hi
    assert vcg_item_revenue(d, 3).lo <= 1.0 <= vcg_item_revenue(d, 3).hi


@pytest.mark.parametrize("bad", ["gamma:1", "uniform:1", "er:p=0.5", "discrete:v=1;p=2"])
def test_parse_dist_rejects(bad):
    with pytest.raises(ValueError):
        parse_dist(bad)


@pytest.mark.parametrize(
    "bad", ["discrete:v=1,2;p=0.5,0.5;p=0.4,0.6", "discrete:v=1,2;p=0.5,0.5;extra=3",
            "discrete:v=1,2;v=1,2;p=0.5,0.5", "discrete:v=1,2"],
)
def test_parse_dist_rejects_a_discrete_key_unknown_repeated_or_missing(bad):
    # a repeated key was read as its last value, an unknown one ignored
    with pytest.raises(ValueError, match=re.escape(f"bad distribution spec {bad!r}")) as info:
        parse_dist(bad)
    assert "keys v and p once each" in str(info.value.__cause__)


def test_parse_dist_reads_the_discrete_keys_in_either_order():
    d = FiniteDiscrete((1.0, 2.0), (0.25, 0.75))
    assert parse_dist("discrete:v=1,2;p=0.25,0.75") == d == parse_dist("discrete:p=0.25,0.75;v=1,2")


@pytest.mark.parametrize(
    "bad",
    ["exp:1e-310", "exp:1e-307", "uniform:-1e308,1e308", "uniform:1e308,1.7e308",
     "uniform:-8e307,8e307", "discrete:v=-1e308,1e308;p=0.5,0.5", "point:1e308"],
)
def test_parse_dist_rejects_a_scale_that_overflows(bad):
    # finite parameters whose exact integrals would overflow: 53 ln(2)/rate,
    # the virtual value 2v - hi at either end, twice the largest |value|
    with pytest.raises(ValueError, match=re.escape(f"bad distribution spec {bad!r}")):
        parse_dist(bad)


@pytest.mark.parametrize(
    "good", ["exp:1e-306", "uniform:0,8e307", "uniform:-5e307,5e307", "discrete:v=-8e307,8e307;p=0.9,0.1"]
)
def test_parse_dist_keeps_the_largest_scales_that_fit(good):
    parse_dist(good)


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
        lambda x: FiniteDiscrete((x,), (1.0,)),
        lambda x: FiniteDiscrete((-x,), (1.0,)),
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
