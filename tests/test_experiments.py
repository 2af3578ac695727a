import decimal
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from scipy import integrate, stats

from auctioncomp.experiments import (
    DominanceReport,
    XB,
    XL,
    _hyp,
    _psi_minus_log,
    _top_or_exceeder,
    _uniform_above,
    dkw_epsilon,
    dominance_test,
    sample_xb,
    sample_xl,
    sample_xs,
    top_order_stats,
    ystar_conditional_mc,
    ystar_tail,
)
from auctioncomp.benchmark import xl_chain_bound
from auctioncomp.distributions import ProductDist, Uniform
from auctioncomp.rng import BLOCK, estimate, substream
from oracles import (
    j_tail_decimal,
    prop_key_conditional,
    xb_cdf_near_one_decimal,
    xb_cdf_quadrature,
    xl_cdf_quadrature,
)

N = 200_000
N_XL = 400_000
XL_CASES = [(1, 4), (2, 2), (2, 5), (3, 16), (2, 64)]


def ref_top_order_stats(n, k, rng, size):
    """Top-k order statistics as a (size, k) matrix, by the same ratio recursion."""
    out = np.empty((size, k))
    out[:, 0] = rng.random(size) ** (1.0 / n)
    for j in range(1, k):
        out[:, j] = out[:, j - 1] * rng.random(size) ** (1.0 / (n - j))
    return out


# Reference samplers for X_L: the m - 1 item draws are materialized and
# sorted, and a uniform index into the exceeders is taken. The library samples
# X_L conditionally on X_(1) instead and must agree in law.


def _ref_pick_exceeder(y, x1, rng):
    k = np.count_nonzero(y > x1[:, None], axis=1)
    y_sorted = -np.sort(-y, axis=1)
    idx = np.minimum((rng.random(len(x1)) * np.maximum(k, 1)).astype(np.int64), y.shape[1] - 1)
    chosen = y_sorted[np.arange(len(x1)), idx]
    return chosen, k > 0


def _pick_exceeder(y, x1, rng):
    """Uniformly random element of {y_j : y_j > x1} per row, by a scan.

    Returns (chosen, any_exceed); ``chosen`` is undefined where none exceed.
    A uniform rank r < k among the k exceeders is drawn, and the exceeder
    whose running count first passes r is taken.
    """
    exceed = y > x1[:, None]
    running = np.cumsum(exceed, axis=1, dtype=np.min_scalar_type(y.shape[1]))
    k = running[:, -1]
    rank = (rng.random(len(x1)) * np.maximum(k, 1)).astype(running.dtype)
    idx = np.argmax(running > rank[:, None], axis=1)
    chosen = y[np.arange(len(x1)), idx]
    return chosen, k > 0


def ref_sample_xl_prime(n, m, rng, size):
    x1 = ref_top_order_stats(n, 1, rng, size)[:, 0]
    if m == 1:
        return x1
    y = rng.random((size, m - 1))
    chosen, has = _ref_pick_exceeder(y, x1, rng)
    return np.where(has, chosen, x1)


def ref_sample_xl(n, m, rng, size):
    if n == 1:
        return ref_sample_xl_prime(1, m, rng, size)
    tops = ref_top_order_stats(n, 2, rng, size)
    x1 = tops[:, 0]
    w2 = tops[:, 1] + rng.random(size) * (1.0 - tops[:, 1])
    if m == 1:
        return np.maximum(x1, w2)
    y = rng.random((size, m - 1))
    chosen, has = _ref_pick_exceeder(y, x1, rng)
    return np.maximum(np.where(has, chosen, x1), w2)


# The pieces of the laws: X'_L, the little-n experiment before its max with
# W_2, and W_{ell,n}, uniform on [X_(ell), 1], which X_B maxes with X_(1).


def xl_prime(n, m, rng, size):
    return _top_or_exceeder(top_order_stats(n, 1, rng, size)[0], m, rng)


def draw_w(n, ell, rng, size):
    """(W_{ell,n}, X_(1), X_(ell)), the draws of XB(n, ell) in its order."""
    x1, xl = top_order_stats(n, ell, rng, size)
    return _uniform_above(xl, rng), x1, xl


# The samplers as plain expressions, before they computed in place. The
# in-place samplers must reproduce them bit for bit.


def _plain_top_order_stats(n, k, rng, size):
    top = kth = rng.random(size) ** (1.0 / n)
    for j in range(1, k):
        kth = kth * rng.random(size) ** (1.0 / (n - j))
    return top, kth


def _plain_sample_w(n, ell, rng, size):
    x1, xl = _plain_top_order_stats(n, ell, rng, size)
    w = xl + rng.random(size) * (1.0 - xl)
    return w, x1, xl


def _plain_top_or_exceeder(x1, m, rng):
    if m == 1:
        return x1
    has = rng.random(len(x1)) >= x1 ** (m - 1)
    chosen = x1 + rng.random(len(x1)) * (1.0 - x1)
    return np.where(has, chosen, x1)


def _plain_sample_xl(n, m, rng, size):
    if n == 1:
        return _plain_top_or_exceeder(_plain_top_order_stats(1, 1, rng, size)[0], m, rng)
    x1, x2 = _plain_top_order_stats(n, 2, rng, size)
    w2 = x2 + rng.random(size) * (1.0 - x2)
    return np.maximum(_plain_top_or_exceeder(x1, m, rng), w2)


def _draw_chunked(sampler, n, m, rng, size, chunk=50_000):
    """size draws in chunks, so a reference sampler's (chunk, m-1) matrix stays small."""
    return np.concatenate(
        [sampler(n, m, rng, min(chunk, size - lo)) for lo in range(0, size, chunk)]
    )


def _xl_prime_wrong_exponent(n, m, rng, size):
    """Mutant X'_L that keeps X_(1) with probability x^m instead of x^(m-1)."""
    x1 = ref_top_order_stats(n, 1, rng, size)[:, 0]
    has = rng.random(size) >= x1**m
    return np.where(has, x1 + rng.random(size) * (1.0 - x1), x1)


def _xl_prime_cdf(n, m, t):
    """P(X'_L <= t) = int_0^t n x^(n-1) [x^(m-1) + (1 - x^(m-1)) (t - x)/(1 - x)] dx."""
    integrand = lambda x: n * x ** (n - 1) * (x ** (m - 1) + (1 - x ** (m - 1)) * (t - x) / (1 - x))
    return integrate.quad(integrand, 0.0, t)[0]


def _xl_prime_cdf_gap(x, n, m):
    """Largest |empirical - closed-form| CDF gap of X'_L samples on a probe grid."""
    x = np.sort(x)
    return max(
        abs(np.searchsorted(x, t, side="right") / len(x) - _xl_prime_cdf(n, m, t))
        for t in np.linspace(0.05, 0.95, 19)
    )


def test_xs_mean_and_cdf():
    n, c = 3, 4
    x = sample_xs(n, c, substream(1, "xs"), N)
    assert np.all((x >= 0) & (x <= 1))
    # E[max of n+c uniforms] = 1 - 1/(n+c+1)
    assert abs(x.mean() - (1 - 1 / (n + c + 1))) <= 3 * x.std() / math.sqrt(N)
    # CDF at p is p^(n+c), within a DKW band
    for p in (0.3, 0.6, 0.9):
        emp = np.count_nonzero(x <= p) / N
        assert abs(emp - p ** (n + c)) <= dkw_epsilon(N, 1e-3)


def test_w_mean_and_bounds():
    n, ell = 7, 3
    w, x1, xl = draw_w(n, ell, substream(2, "w"), N)
    assert np.all(w >= xl) and np.all(x1 >= xl)
    # E[W_{l,n}] = 1 - l/(2(n+1))
    assert abs(w.mean() - (1 - ell / (2 * (n + 1)))) <= 3 * w.std() / math.sqrt(N)


def test_w2_identically_distributed_as_top():
    # marginal of W_{2,n} equals the law of the maximum (two-sample KS)
    n = 5
    w, x1, _ = draw_w(n, 2, substream(4, "w2"), N)
    x_other = sample_xs(n, 0, substream(5, "w2b"), N)
    _, pval = stats.ks_2samp(w, x_other)
    assert pval > 1e-3


def test_xb_pathwise_and_ell2_law():
    n = 5
    rng = substream(6, "xb")
    w, x1, _ = draw_w(n, 2, rng, N)
    xb = np.maximum(x1, w)
    assert np.all(xb >= x1)
    # W2 and X_(1) are dependent, so the CDF of their max is NOT p^(2n); the
    # exact law integrates the order-statistic density against the W2 kernel:
    # Pr[X_B(n,2) <= p] = n(n-1) * int_0^p s^(n-2) (p-s)^2 / (1-s) ds
    from scipy import integrate

    xb2 = XB(n, 2)(substream(7, "xb2"), N)
    for p in (0.5, 0.8, 0.95):
        exact, _ = integrate.quad(
            lambda s: n * (n - 1) * s ** (n - 2) * (p - s) ** 2 / (1 - s), 0, p
        )
        emp = np.count_nonzero(xb2 <= p) / N
        assert abs(emp - exact) <= dkw_epsilon(N, 1e-3)
        # the dependent max sits below the independent one
        assert exact > p ** (2 * n)


def test_xb_mean_lower_bound():
    n, ell = 10, 4
    xb = XB(n, ell)(substream(8, "xbm"), N)
    jensen = max(1 - 1 / (n + 1), 1 - ell / (2 * (n + 1)))
    assert xb.mean() >= jensen - 3 * xb.std() / math.sqrt(N)


def test_xl_m1_degenerates():
    for n in (2, 4, 5, 64):
        xl = XL(n, 1)(substream(9, "xl1"), N)
        # an identically-seeded generator replays the same draws: X_L(n,1) = max{X_(1), W_2} = X_B(n, 2)
        assert xl.tobytes() == XB(n, 2)(substream(9, "xl1"), N).tobytes()
        assert XL(n, 1).tail_constant == XB(n, 2).tail_constant
        # one law, one CDF: XL(n, 1).cdf is XB(n, 2)'s kernel
        assert XL(n, 1).cdf(XL_GRID).tobytes() == XB(n, 2).cdf(XL_GRID).tobytes()


def test_xl_bounds_and_n1_variant():
    xl = XL(1, 4)(substream(10, "xln1"), N)
    assert np.all((xl >= 0) & (xl <= 1))
    xlp = xl_prime(1, 4, substream(10, "xln1"), N)
    assert np.array_equal(xl, xlp)  # n=1 has no W draw


@pytest.mark.parametrize("n,m", XL_CASES)
@pytest.mark.parametrize(
    "sampler,reference",
    [(xl_prime, ref_sample_xl_prime), (lambda n, m, rng, size: XL(n, m)(rng, size), ref_sample_xl)],
    ids=["xl_prime", "xl"],
)
def test_xl_matches_sort_reference(sampler, reference, n, m):
    x = sampler(n, m, substream(18, "xl-new", n, m), N_XL)
    ref = _draw_chunked(reference, n, m, substream(18, "xl-ref", n, m), N_XL)
    _, pval = stats.ks_2samp(x, ref)
    assert pval > 1e-3


@pytest.mark.parametrize("n,m", XL_CASES)
def test_xl_prime_closed_form_cdf(n, m):
    x = xl_prime(n, m, substream(19, "xl-cdf", n, m), N_XL)
    assert _xl_prime_cdf_gap(x, n, m) <= dkw_epsilon(N_XL, 1e-3)


def test_xl_oracles_reject_wrong_exponent():
    # negative control: keeping X_(1) with probability x^m (one item too many)
    # must fail both the closed-form CDF check and the KS test against the reference
    n, m = 2, 5
    bad = _xl_prime_wrong_exponent(n, m, substream(20, "xl-bad"), N_XL)
    assert _xl_prime_cdf_gap(bad, n, m) > dkw_epsilon(N_XL, 1e-3)
    ref = _draw_chunked(ref_sample_xl_prime, n, m, substream(20, "xl-ref"), N_XL)
    _, pval = stats.ks_2samp(bad, ref)
    assert pval <= 1e-3


def test_xl_memory_independent_of_m():
    # materializing the (size, m-1) item draws, as the sort-based reference
    # does, peaks at ~235 MB here
    rng = substream(21, "xl-mem")
    tracemalloc.start()
    try:
        XL(2, 512)(rng, 20_000)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 5 * 2**20


@pytest.mark.parametrize("n,k", [(1, 1), (5, 1), (5, 2), (7, 5), (40, 40)])
def test_top_order_stats_match_matrix_reference(n, k):
    top, kth = top_order_stats(n, k, substream(22, "tos", n, k), 1000)
    ref = ref_top_order_stats(n, k, substream(22, "tos", n, k), 1000)
    assert np.array_equal(top, ref[:, 0]) and np.array_equal(kth, ref[:, k - 1])


@pytest.mark.parametrize("n,m", [(2, 16), (3, 1), (5, 4), (2, 2), (1, 4)])
def test_in_place_samplers_same_bits_as_plain_expressions(n, m):
    size = 10_001
    draw = lambda label: substream(24, label, n, m)
    # sample_xl and sample_xb, the names bench/ binds, draw the laws' bits
    ref = _plain_sample_xl(n, m, draw("xl"), size)
    assert np.array_equal(XL(n, m)(draw("xl"), size), ref)
    assert np.array_equal(sample_xl(n, m, draw("xl"), size), ref)
    got = draw_w(n, n, draw("w"), size)
    ref = _plain_sample_w(n, n, draw("w"), size)
    assert all(np.array_equal(a, b) for a, b in zip(got, ref))
    for ell in sorted({2, n}) if n >= 2 else []:
        ref = np.maximum(*_plain_sample_w(n, ell, draw("xb"), size)[1::-1])
        assert np.array_equal(XB(n, ell)(draw("xb"), size), ref)
        assert np.array_equal(sample_xb(n, ell, draw("xb"), size), ref)
    ref = draw("xs").random(size) ** (1.0 / (n + m))
    assert np.array_equal(sample_xs(n, m, draw("xs"), size), ref)
    # the last step of a full walk has exponent 1 / (n - (n - 1)) = 1
    got = top_order_stats(n, n, draw("tos"), size)
    ref = _plain_top_order_stats(n, n, draw("tos"), size)
    assert all(a.tobytes() == b.tobytes() for a, b in zip(got, ref))
    # kept rows add a zero offset: the same bits as copying X_(1), also at 0 and 1
    x1 = np.concatenate([[0.0, 1.0, 5e-324, np.nextafter(1.0, 0.0)], draw("x1").random(size)])
    got = _top_or_exceeder(x1, m, draw("or"))
    assert got.tobytes() == _plain_top_or_exceeder(x1, m, draw("or")).tobytes()


def test_xl_sampler_peak_memory():
    # X_(1), W_2 and two arrays of temporaries: 4 x 8 MB and a boolean mask;
    # the plain expressions peak at 39 MB
    rng = substream(25, "xl-peak")
    XL(2, 16)(rng, 10)
    tracemalloc.start()
    try:
        XL(2, 16)(rng, 1_000_000)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 33 * 2**20, peak / 2**20


# ---------------------------------------------------------------------------
# Exact CDFs of X_L and X_B against scipy quadrature of the defining
# integrals and against the samplers
# ---------------------------------------------------------------------------

CDF_PROBES = [0.2, 0.5, 0.9, 0.99, 0.999, 1.0 - 2.0**-15]


def _xl_cdf_dblquad(n, m, t):
    """Pr[X_L <= t]: the joint density of the top two uniforms times
    Pr[X'_L <= t | x1] Pr[W_2 <= t | x2], integrated over x2 < x1 <= t."""
    keep = lambda x1: x1 ** (m - 1) + (1 - x1 ** (m - 1)) * (t - x1) / (1 - x1)
    f = lambda x2, x1: n * (n - 1) * x2 ** (n - 2) * keep(x1) * (t - x2) / (1 - x2)
    return integrate.dblquad(f, 0.0, t, 0.0, lambda x1: x1, epsabs=1e-14, epsrel=1e-12)[0]


def _xb_cdf_quad(n, ell, t):
    """Pr[X_B <= t] = t^n E[(t - tY)/(1 - tY)], Y ~ Beta(n - ell + 1, ell)."""
    a, b = n - ell + 1, ell
    log_beta = math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)
    pdf = lambda y: math.exp((a - 1) * math.log(y) + (b - 1) * math.log1p(-y) - log_beta)
    f = lambda y: pdf(y) * (t - t * y) / (1 - t * y)
    mode = (a - 1) / (a + b - 2)
    quad = integrate.quad(f, 0.0, 1.0, points=[mode], epsabs=1e-14, epsrel=1e-12, limit=200)
    return t**n * quad[0]


@pytest.mark.parametrize("n,m", [(2, 16), (2, 4), (4, 4), (8, 2), (3, 1)])
def test_xl_cdf_matches_dblquad(n, m):
    got = XL(n, m).cdf(CDF_PROBES)
    ref = [_xl_cdf_dblquad(n, m, t) for t in CDF_PROBES]
    assert np.max(np.abs(got - ref)) <= 1e-10, got - ref


# 2^15 uniform cells, and 200 points up to 1 - 1e-12, where the quadrature
# takes up to 1024 nodes
UNIFORM_GRID = np.linspace(0.0, 1.0, 2**15 + 1)
XL_GRID = np.unique(np.concatenate([UNIFORM_GRID, 1.0 - np.geomspace(0.5, 1e-12, 200)]))


@pytest.mark.parametrize(
    "n,m", [(n, m) for n in (2, 3, 10, 64, 200, 1024) for m in (1, 2, 4, 16, 64, 256)] + [(4096, 4)]
)
def test_xl_cdf_closed_form_matches_quadrature(n, m):
    F = XL(n, m).cdf(XL_GRID)
    Q = xl_cdf_quadrature(n, m, XL_GRID)
    assert np.max(np.abs(F - Q)) <= 1e-13
    # X_L >= X_(1), the top of n uniforms, so 0 <= F(t) <= t^n <= 1
    assert np.all(F >= 0.0) and np.all(F <= XL_GRID**n)
    # monotone wherever the quadrature is, and steps back no further elsewhere
    dF, dQ = np.diff(F), np.diff(Q)
    assert np.all(dF[dQ >= 0.0] >= 0.0)
    assert np.min(dF) >= min(np.min(dQ), 0.0)


def _xl_cdf_fraction(n, m, t):
    """F(t) = t^n E[A B] over the top two (y1, y2) of n uniforms, with
    A = (t y1)^(m-1) + t (1 - y1) sum_{i<m-1} (t y1)^i and
    B = t (1 - y2) sum_k (t y2)^k, summed in exact rationals through the
    powers t^(n+150), from D(a, k) = E[y1^a y2^k (1 - y2)]."""

    def D(a, k):
        p, q = n - 1 + k, n + a + k
        return Fraction(n * (n - 1) * (p + q + 1), p * q * (p + 1) * (q + 1))

    top = 150
    coef = [Fraction(0)] * (top + 1)
    for k in range(top):
        if m == 1:
            coef[k + 1] += D(0, k)
            continue
        if k + m <= top:
            coef[k + m] += D(m - 1, k)
        for i in range(min(m - 1, top - k - 1)):
            coef[k + i + 2] += D(i, k) - D(i + 1, k)
    x = Fraction(t)
    acc = Fraction(0)
    for c in reversed(coef):
        acc = acc * x + c
    return float(x**n * acc)


@pytest.mark.parametrize("m", [1, 2, 3, 5, 16])
def test_xl_cdf_at_n1_matches_exact_rationals(m):
    # X_L(1, m) = X'_L: F = t^2 - (1 - t) sum_{i=1}^{m-2} t^(i+1)/(i+1), t at m = 1
    t = np.concatenate([np.geomspace(1e-6, 0.5, 13), np.linspace(0.55, 0.95, 9), 1.0 - np.geomspace(1e-3, 1e-15, 5)])

    def exact(x):
        x = Fraction(x)
        return float(x if m == 1 else x**2 - (1 - x) * sum(x ** (i + 1) / (i + 1) for i in range(1, m - 1)))

    want = np.array([exact(float(x)) for x in t])
    assert np.max(np.abs(XL(1, m).cdf(t) - want) / want) <= 1e-15


@pytest.mark.parametrize("n,m", [(2, 1), (2, 4), (3, 2), (3, 16), (5, 3), (8, 1), (8, 64)])
def test_xl_cdf_series_matches_exact_rationals(n, m):
    # below 1/2 the closed form's t^n terms cancel; the series keeps F to a
    # few ulps of itself (the quadrature is off by up to 3.1e-13 there)
    t = np.concatenate([np.geomspace(1e-3, 0.5, 13), [0.3, np.nextafter(0.5, 0.0)]])
    got = XL(n, m).cdf(t)
    want = np.array([_xl_cdf_fraction(n, m, float(x)) for x in t])
    assert np.max(np.abs(got - want) / want) <= 1e-14


@pytest.mark.parametrize("n,ell", [(19, 4), (10, 3), (5, 2), (200, 5), (4, 4)])
def test_xb_cdf_matches_quad(n, ell):
    # 1e-10, not tighter: scipy's own error is 1.4e-11 at (10, 3); the
    # rational series below is the tight reference
    got = XB(n, ell).cdf(CDF_PROBES)
    ref = [_xb_cdf_quad(n, ell, t) for t in CDF_PROBES]
    assert np.max(np.abs(got - ref)) <= 1e-10, got - ref


def _xb_cdf_fraction(n, ell, t):
    """F(t) = t^(n+1) sum_k c_k t^k, c_0 = ell/(n+1),
    c_(k+1) = c_k (n - ell + 1 + k)/(n + 2 + k), summed in exact rationals
    until the tail, at most c_K t^K / (1 - t) since the c_k fall, is below
    1e-20 of the sum."""
    x = Fraction(t)
    c, power, acc, k = Fraction(ell, n + 1), Fraction(1), Fraction(0), 0
    while c * power / (1 - x) > acc / 10**20:
        acc += c * power
        c, power, k = c * (n - ell + 1 + k) / (n + 2 + k), power * x, k + 1
    return float(x ** (n + 1) * acc)


XB_SMALL = [(2, 2), (3, 2), (3, 3), (5, 2), (5, 4), (8, 2), (8, 5), (8, 8)]


@pytest.mark.parametrize("n,ell", XB_SMALL)
def test_xb_cdf_series_matches_exact_rationals(n, ell):
    # the continued fraction where s = (n + 1)(1 - t) >= 1 and the series in
    # s below it, each to a few ulps of F itself, where the quadrature read
    # 8.4e-15
    t = np.concatenate([np.geomspace(1e-3, 0.5, 13), [0.3, np.nextafter(0.5, 0.0), 0.6, 0.75, 0.9]])
    got = XB(n, ell).cdf(t)
    want = np.array([_xb_cdf_fraction(n, ell, float(x)) for x in t])
    assert np.max(np.abs(got - want) / want) <= 2e-15


def test_xb_cdf_2_2_closed_form():
    # n = ell = 2: F = 1 - 4d + 3d^2 - 2d^2 log d, d = 1 - t; the fraction
    # takes t <= 2/3 and the series in s the rest (the quadrature read
    # 7.1e-15)
    t = np.concatenate([np.linspace(0.5, 1.0, 1001)[:-1], 1.0 - np.geomspace(1e-3, 1e-15, 25)])
    d = 1.0 - t  # exact for t >= 1/2
    want = np.array([math.fsum([1.0, -4.0 * e, 3.0 * e * e, -2.0 * e * e * math.log(e)]) for e in d])
    assert np.max(np.abs(XB(2, 2).cdf(t) - want)) <= 1e-15


@pytest.mark.parametrize("n,ell", [(3, 2), (19, 4), (64, 64), (200, 8), (4096, 33), (16384, 2)])
def test_xb_cdf_closed_form_matches_quadrature(n, ell):
    u = UNIFORM_GRID
    assert np.max(np.abs(XB(n, ell).cdf(u) - xb_cdf_quadrature(n, ell, u))) <= 1e-11


@pytest.mark.parametrize(
    "kind,n,k",
    [("xl", 1, 1), ("xl", 1, 2), ("xl", 1, 3), ("xl", 1, 5), ("xl", 1, 16),
     ("xl", 2, 16), ("xl", 2, 4), ("xl", 4, 4), ("xl", 8, 2), ("xl", 200, 4), ("xl", 50, 8),
     ("xb", 19, 4), ("xb", 10, 3), ("xb", 5, 2), ("xb", 2000, 2), ("xb", 200, 5)],
)
def test_exact_cdfs_within_dkw_of_samplers(kind, n, k):
    law = (XL if kind == "xl" else XB)(n, k)
    samples = 1_000_000
    x = np.sort(law(substream(26, kind, n, k), samples))
    probe = np.concatenate([np.linspace(0.005, 0.995, 199), 1.0 - np.geomspace(1e-2, 1e-5, 31)])
    gap = np.max(np.abs(np.searchsorted(x, probe, "right") / samples - law.cdf(probe)))
    assert gap <= dkw_epsilon(samples, 1e-3), gap


@pytest.mark.parametrize(
    "kind,n,k", [("xl", 1, 4), ("xl", 2, 16), ("xl", 2, 1), ("xl", 3, 1), ("xl", 200, 4), ("xl", 50, 8),
                 ("xb", 19, 4), ("xb", 2000, 2), ("xb", 4, 4)]
)
def test_exact_cdfs_monotone_with_linear_tail(kind, n, k):
    law = (XL if kind == "xl" else XB)(n, k)
    u = np.linspace(0.0, 1.0, 2**15 + 1)
    u = np.unique(np.concatenate([u, 1.0 - np.geomspace(0.5, 1e-9, 200)]))
    F = law.cdf(u)
    assert F[0] == 0.0 and F[-1] == 1.0
    # rounding: F is accurate to ~1e-13 at n = 200, below 1e-14 elsewhere
    assert np.all(np.diff(F) >= -1e-12)
    # 1 - F(u) <= D (1 - u), the bound that caps the chain's unbounded tail;
    # D is tight as u -> 1 for m <= 2 and for X_B
    assert law.tail_constant == (2 * n + k - 1 if kind == "xl" else n * k / (k - 1))
    g = 1.0 - np.geomspace(0.5, 1e-7, 60)
    assert np.max((1.0 - law.cdf(g)) / (1.0 - g)) <= law.tail_constant


def _j_tail_fsum(k, x):
    """sum_{i > k} x^i / i by math.fsum over 3000 terms: x^3000 < 2^-130 at x <= 0.97."""
    return math.fsum(x**i / i for i in range(k + 1, k + 3001))


@pytest.mark.parametrize("k", [1, 14, 30, 62, 198])
def test_j_tail_relative_error(k):
    # -log(1 - x) - sum_{i <= k} x^i / i alone loses 1e-6 relative at k = 30
    # and all of it at k = 62 (x = 0.55); the continued fraction holds a few
    # ulps, and the difference, kept where (k + 1)(1 - x) < 1, loses at most
    # 4 bits on these points
    x = np.concatenate([np.linspace(0.05, 0.97, 47), [0.5, np.nextafter(0.5, 1.0), 1.0 - 1.0 / (k + 1)]])
    x = np.unique(x[(x <= 0.97) & (x ** (k + 1) > 1e-280)])
    got = _hyp(k + 1, 0, x)
    want = np.array([_j_tail_fsum(k, float(xi)) for xi in x])
    assert np.max(np.abs(got - want) / want) <= 1e-14


@pytest.mark.parametrize("k", [1, 14, 255, 4094, 16382, 10**5])
def test_j_tail_near_one_matches_decimal(k):
    # where (k + 1)(1 - x) < 1, J_k is DLMF 15.8.10's series in s, with
    # log s and psi(k + 1) - log(k + 1) kept apart: 8.9e-16 relative at
    # worst up to k = 10^6 against 50-digit mpmath, where a sum of 28 power
    # sums over the k terms read 7.5e-15; the points stay below 1 in
    # floating point
    s = np.geomspace(max(1e-12, (k + 1) * 2.0**-52), 0.999, 12)
    x = 1.0 - s / (k + 1)
    assert np.all(x < 1.0)
    got = _hyp(k + 1, 0, x)
    want = np.array([j_tail_decimal(k, float(xi)) for xi in x])
    assert np.max(np.abs(got - want) / want) <= 5e-15


def _psi_minus_log_decimal(K):
    """psi(K) - log K = H_(K-1) - gamma - log K in 40-digit decimals."""
    with decimal.localcontext() as ctx:
        ctx.prec = 40
        gamma = decimal.Decimal("0.5772156649015328606065120900824024310422")
        harmonic = sum((decimal.Decimal(1) / i for i in range(1, K)), decimal.Decimal(0))
        return float(harmonic - gamma - decimal.Decimal(K).ln())


@pytest.mark.parametrize("K", [1, 2, 15, 16, 17, 4096, 10**5])
def test_psi_minus_log_matches_decimal(K):
    # the asymptotic series at 16 and above, shifted down below it
    assert _psi_minus_log(K) == pytest.approx(_psi_minus_log_decimal(K), rel=1e-15, abs=0.0)


XB_NEAR_ONE = [(3, 2), (19, 4), (268, 13)] + [(4096, ell) for ell in (2, 30, 31, 47, 4096)] + [(16384, 2), (16384, 16384)]


@pytest.mark.parametrize("n,ell", XB_NEAR_ONE)
def test_xb_cdf_near_one_matches_decimal(n, ell):
    # within 1/(n + 1) of 1, the series of DLMF 15.8.10: its finite sum,
    # and up to ell = 30 its log part, against the recurrence over ell in
    # decimals; ell = 30, 31 sit on either side of the log part's cut
    # (2.5e-16 at worst)
    s = np.array([1e-9, 1e-3, 0.5, 0.999])
    t = 1.0 - s / (n + 1)
    got = XB(n, ell).cdf(t)
    want = np.array([xb_cdf_near_one_decimal(n, ell, float(x)) for x in t])
    assert np.max(np.abs(got - want) / want) <= 2e-15


def test_xl_cdf_near_one_peak_memory():
    # J near 1 is a series of a few dozen terms whatever n is: no array of
    # length n, only the temporaries of one piece
    n = 10**7
    t = 1.0 - np.arange(1, 2**14 + 1) / (2**14 * (n - 1))
    tracemalloc.start()
    try:
        XL(n, 2).cdf(t)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20, peak / 2**20


@pytest.mark.parametrize("n,m", [(64, 4), (32, 4)])
def test_xl_cdf_below_top_order_cdf(n, m):
    # X_L >= x1 = max of n uniforms, so F(t) <= t^n; a cancelling J_{n-2}
    # read 4.6e-16 at (64, 4, 0.55), where the CDF is 1.53e-19 < t^64
    t = np.linspace(0.05, 0.95, 91)
    assert np.all(XL(n, m).cdf(t) <= t**n)
    assert XL(64, 4).cdf(0.55) == pytest.approx(1.5328e-19, rel=1e-4)


def test_exact_cdfs_reject_bad_sizes():
    # each law checks its sizes once, when it is made; X_L(1, m) has a CDF,
    # but the little-n chain starts from a second bidder
    for make, message in [(lambda: XL(0, 4), "need n >= 1, m >= 1"), (lambda: XL(2, 0), "need n >= 1, m >= 1"),
                          (lambda: XB(3, 1), "need 2 <= ell <= n"), (lambda: XB(3, 4), "need 2 <= ell <= n"),
                          (lambda: xl_chain_bound(ProductDist((Uniform(0.0, 1.0),)), 1), "need n >= 2")]:
        with pytest.raises(ValueError, match=message):
            make()
    assert XL(2, 3).cdf(-0.5) == 0.0 and XB(3, 2).cdf(1.5) == 1.0


def test_xb_memory_independent_of_ell():
    # the (size, ell) order-statistic matrix would be 2000 x 5000 floats, 80 MB
    rng = substream(23, "xb-mem")
    tracemalloc.start()
    try:
        XB(20_000, 5_000)(rng, 2_000)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_pick_exceeder_rank_uniform():
    # given k exceeders, the chosen one's rank among them (the number of
    # exceeders in earlier columns) is uniform on {0, ..., k-1}
    w = 7
    rng = substream(22, "rank")
    x1 = rng.random(N)
    y = rng.random((N, w))
    chosen, has = _pick_exceeder(y, x1, rng)
    exceed = y > x1[:, None]
    k = np.count_nonzero(exceed, axis=1)
    assert np.array_equal(has, k > 0)
    col = np.argmax(y == chosen[:, None], axis=1)
    rows = np.flatnonzero(has)
    assert np.all(y[rows, col[rows]] == chosen[rows]) and np.all(exceed[rows, col[rows]])
    rank = np.count_nonzero(exceed & (np.arange(w) < col[:, None]), axis=1)
    for kk in range(2, w + 1):
        counts = np.bincount(rank[k == kk], minlength=kk)
        assert len(counts) == kk
        _, pval = stats.chisquare(counts)
        assert pval > 1e-3


def test_xl_chosen_y_uniform_above_top():
    # conditioned on some item draw exceeding the top, the chosen draw is
    # uniform on [X_(1), 1]: transform to (y - x1)/(1 - x1) and KS against U(0,1)
    n, m = 2, 5
    rng = substream(11, "ksy")
    x1 = rng.random(N) ** (1.0 / n)
    y = rng.random((N, m - 1))
    chosen, has = _pick_exceeder(y, x1, rng)
    z = (chosen[has] - x1[has]) / (1.0 - x1[has])
    _, pval = stats.kstest(z, "uniform")
    assert pval > 1e-3


def test_ystar_tail_endpoints_and_m2():
    assert ystar_tail(3, 4, 1.0) == pytest.approx(0.0, abs=1e-12)
    assert ystar_tail(3, 4, 0.0) == pytest.approx(1.0)
    # m=2 collapses to 1-p for every n
    for n in (1, 2, 7):
        assert ystar_tail(n, 2, 0.4) == pytest.approx(0.6)
    with pytest.raises(ValueError):
        ystar_tail(2, 1, 0.5)
    with pytest.raises(ValueError):
        ystar_tail(2, 3, 1.5)


@pytest.mark.parametrize("n, m", [(2, 16), (3, 4), (64, 64), (4096, 4), (2, 512)])
def test_ystar_tail_matches_exact_rationals(n, m):
    # the polynomial on exact rationals at the float p: Horner's rule holds
    # it to a few ulps of 1, at a point and on an array alike
    ps = [0.0, 0.01, 0.3, 0.5, 0.9, 0.99, 1 - 1e-6, 1.0]
    got = ystar_tail(n, m, np.array(ps))
    for p, g in zip(ps, got):
        q = Fraction(p)
        want = 1 - Fraction(n) * q ** (m - 1) / (n + m - 2)
        want -= sum(Fraction(n) * q**i / ((n + i) * (n + i - 1)) for i in range(1, m - 1))
        assert abs(Fraction(float(g)) - want) <= 1e-15, (p, g, float(want))
        assert ystar_tail(n, m, p) == g


def test_ystar_tail_matches_conditional_mc():
    # the hit count is Bin(N, ystar_tail): a z-test with the exact variance,
    # also with p on a byte boundary (0.5) and with X_(1) mostly sharing the
    # byte of p (n = 400)
    N = 400_000
    for n, m, p in [(2, 3, 0.5), (2, 16, 0.5), (5, 4, 0.3), (400, 4, 0.5 + 1 / 512), (3, 300, 0.97)]:
        tail = ystar_tail(n, m, p)
        est, _ = ystar_conditional_mc(n, m, p, N, seed=12)
        assert abs(est - tail) <= 4 * math.sqrt(tail * (1 - tail) / N), (n, m, p, est, tail)


def _ref_pick_above_p(byte, rest, x1, p, rng):
    """Whether a uniformly ranked exceeder of x1 exceeds p, per row, by
    sorting: items are (byte, remainder) pairs of shape (rows, m - 1), and
    x1, p are compared as their (floor(256 x), 256 x - floor(256 x)) pairs,
    lexicographically."""
    a, x_rest = np.divmod(256.0 * x1, 1.0)
    p8, p_rest = divmod(256.0 * p, 1.0)
    above_x1 = (byte > a[:, None]) | ((byte == a[:, None]) & (rest > x_rest[:, None]))
    k = np.count_nonzero(above_x1, axis=1)
    order = np.lexsort((-rest, -byte.astype(np.int64)), axis=1)  # largest first
    rank = (rng.random(len(x1)) * np.maximum(k, 1)).astype(np.int64)
    rows = np.arange(len(x1))
    pick = order[rows, np.minimum(rank, byte.shape[1] - 1)]
    chosen_byte, chosen_rest = byte[rows, pick], rest[rows, pick]
    above_p = (chosen_byte > p8) | ((chosen_byte == p8) & (chosen_rest > p_rest))
    return (k > 0) & above_p


@pytest.mark.parametrize(
    "n, m, p", [(2, 16, 0.6), (5, 4, 0.6), (1, 3, 0.6), (3, 300, 0.6), (400, 4, 0.5 + 1 / 512)],
    ids=["2-16", "5-4", "1-3", "3-300", "400-4-shared-byte"],
)
def test_ystar_conditional_mc_equals_sort_based_pick(n, m, p):
    # replay the one stream block by block in the kernel's draw order: X_(1),
    # the item bytes item-major from raw words (eight to a word, little-endian),
    # a remainder per item whose byte ties X_(1)'s or p's, the rank uniforms;
    # then pick with the sorting reference on (byte, remainder) pairs: the hit
    # counts agree exactly
    seed, width = 5, m - 1
    rows = BLOCK // width
    N = 15 * rows + rows // 2  # fifteen full blocks and a short one
    rng = substream(seed, "ystar-mc")
    hits = shared = 0
    for start in range(0, N, rows):
        r = min(rows, N - start)
        x1 = p * rng.random(r) ** (1.0 / n)
        a, p8 = np.floor(256.0 * x1), math.floor(256.0 * p)
        raw = rng.bit_generator.random_raw(-(-width * r // 8))
        byte = np.frombuffer(raw.astype("<u8").tobytes(), np.uint8)[: width * r].reshape(width, r).T
        tie = (byte == a[:, None]) | (byte == p8)
        rest = np.full(byte.shape, 0.5)  # decides nothing: the byte differs from both
        rest.T[tie.T] = rng.random(np.count_nonzero(tie))  # item-major order
        hits += int(np.count_nonzero(_ref_pick_above_p(byte, rest, x1, p, rng)))
        shared += int(np.count_nonzero(a == p8))
    assert N % rows and 0 < hits < N
    if n == 400:
        assert shared > N // 2  # X_(1) and p mostly share a byte bucket
    # its stderr is the one estimate rule on the hit count, whose square is itself
    assert ystar_conditional_mc(n, m, p, N, seed) == (hits / N, estimate(hits, hits, N)[1])


def test_ystar_conditional_mc_with_no_hits_reads_stderr_zero():
    # an item draw passes p = 1 - 10^-9 about once in 10^9: no run of 1 000
    # hits, and a run of N equal outcomes has stderr 0
    assert ystar_conditional_mc(1, 2, 1 - 1e-9, 1_000, seed=1) == (0.0, 0.0)


@pytest.mark.parametrize("n, c", [(2, 9), (10, 20), (1, 3), (4096, 139)])
def test_sample_xs_is_one_uniform_to_the_one_over_n_plus_c(n, c):
    # the walk's first step draws the bits of the plain expression
    size = 10_001
    ref = substream(26, "xs", n, c).random(size) ** (1 / (n + c))
    assert np.array_equal(sample_xs(n, c, substream(26, "xs", n, c), size), ref)


@pytest.mark.parametrize("m", [3, 16, 200])
def test_ystar_conditional_mc_peak_memory(m):
    # the item draws are held one block at a time, whatever m
    tracemalloc.start()
    try:
        ystar_conditional_mc(2, m, 0.5, 10**6, 3)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 2 * 2**20


def test_dkw_epsilon_value():
    assert dkw_epsilon(10_000, 1e-3) == pytest.approx(math.sqrt(math.log(2000) / 20000))


def test_dominance_requires_sample_budget():
    s = lambda rng, b: rng.random(b)
    with pytest.raises(ValueError):
        dominance_test(s, s, 100)


def test_dominance_checks_sampler_b_before_sampler_a_runs():
    # B's argument check must not wait for a full pass of A
    calls = []

    def counting_a(rng, b):
        calls.append(b)
        return rng.random(b)

    with pytest.raises(ValueError, match="need 2 <= ell <= n"):
        dominance_test(counting_a, lambda rng, b: sample_xb(3, 1, rng, b), 10_000_000, seed=1)
    assert calls == []


def test_dominance_self_and_shifted():
    uni = lambda rng, b: rng.random(b)
    shifted = lambda rng, b: rng.random(b) ** 0.5  # stochastically larger
    rep = dominance_test(shifted, uni, 50_000, seed=13)
    assert rep.dominates
    assert rep.max_violation < 0  # A's CDF sits below B's wherever they differ
    rep2 = dominance_test(uni, shifted, 50_000, seed=13)
    assert not rep2.dominates
    assert rep2.max_violation > 0


def test_max_violation_skips_probes_where_both_cdfs_are_0_or_1():
    grid = np.array([0.1, 0.3, 0.5, 0.7, 0.9])
    report = lambda a, b: DominanceReport(grid, np.array(a), np.array(b), 0.01, True)
    assert report([0, 0, 0.2, 1, 1], [0, 0.1, 0.5, 1, 1]).max_violation == -0.1
    assert report([0, 0.4, 0.6, 0.9, 1], [0, 0.3, 0.5, 1, 1]).max_violation == pytest.approx(0.1)
    assert report([0, 0, 0, 1, 1], [0, 0, 0, 1, 1]).max_violation == 0.0  # no informative probe


# the last block is partial
N_BLOCKED = 33 * BLOCK + 17


def test_dominance_batching_invariance():
    # sample_xs makes one rng.random call, so the blocked counts are those of
    # one sorted draw of all N from substream(seed, "dom-a"), bit for bit
    n, c, seed = 2, 9, 14
    rep = dominance_test(
        lambda rng, b: sample_xs(n, c, rng, b), XL(n, 16), N_BLOCKED, seed=seed,
    )
    x = np.sort(sample_xs(n, c, substream(seed, "dom-a"), N_BLOCKED))
    assert np.array_equal(rep.cdf_a, np.searchsorted(x, rep.grid, "right") / N_BLOCKED)


@pytest.mark.parametrize("kind,n,k", [("xl", 2, 16), ("xb", 10, 3)])
def test_dominance_blocked_draws_follow_the_exact_law(kind, n, k):
    # X_L and X_B draw several arrays per block, so the blocked sample is a
    # new one; its CDF must still sit within the DKW band of the exact CDF
    law = (XL if kind == "xl" else XB)(n, k)
    rep = dominance_test(lambda rng, b: sample_xs(n, 1, rng, b), law, N_BLOCKED, seed=15)
    gap = np.max(np.abs(rep.cdf_b - law.cdf(rep.grid)))
    assert gap <= dkw_epsilon(N_BLOCKED, 1e-6), gap


def test_dominance_peak_memory_independent_of_N():
    # one block of X_L draws, four arrays of BLOCK // 4 rows (512 KiB), at a
    # time; blocks of BLOCK rows peak at 2.07 MiB, 10^6 rows at once at 31.5 MiB
    xs = lambda rng, b: sample_xs(2, 9, rng, b)
    xl = XL(2, 16)
    dominance_test(xs, xl, 10_000, seed=16)
    peaks = []
    for samples in (10**6, 4 * 10**6):
        tracemalloc.start()
        try:
            dominance_test(xs, xl, samples, seed=16)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    # 0.53 MiB measured: the four arrays, X_L's boolean mask and the counts
    assert max(peaks) <= 4 * (BLOCK // 4) * 8 + 2**17, [p / 2**20 for p in peaks]


def test_prop_key_conditional():
    # c at the 4n/(l-1) threshold: extra-bidder tail beats the W tail
    n, ell, c = 10, 5, 10
    for p in (0.5, 0.8, 0.95):
        lhs, rhs, (_, se) = prop_key_conditional(n, ell, c, p, 200_000, seed=15)
        assert lhs == pytest.approx(1.0 - p**c)
        assert lhs >= rhs - 3 * se


def test_prop_key_ell2_improved_threshold():
    # for l=2 the threshold improves to c >= n
    n = 5
    for p in (0.5, 0.9):
        lhs, rhs, (_, se) = prop_key_conditional(n, 2, n, p, 200_000, seed=16)
        assert lhs >= rhs - 3 * se


def test_prop_key_rejects_rare_conditioning():
    with pytest.raises(ValueError):
        prop_key_conditional(50, 5, 10, 0.5, 10_000, seed=0)
