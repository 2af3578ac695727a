"""Quantile-space random variables and empirical stochastic dominance.

The samplers here realize the coupling experiments that reduce the
competition-complexity analysis to comparing random variables on [0, 1]:

* ``X_S(n, c)``: the maximum of n + c i.i.d. uniforms (selling with c extra
  bidders).
* ``X_B(n, l)``: max of the top uniform and a fresh uniform draw from
  [X_(l), 1] (the big-n benchmark experiment).
* ``X_L(n, m)``: the little-n benchmark experiment, where a uniformly random
  one of the m - 1 "item" draws exceeding the top "bidder" draw (if any) is
  taken, maxed with a fresh draw from [X_(2), 1].

Order statistics of uniforms are generated top-down via the ratio recursion
X_(k+1) = X_(k) * U^(1/(n-k)), so only the needed top-k values are drawn and
only X_(1) and the current one are held.

``X_L`` is sampled conditionally on X_(1) = x, in O(1) per draw whatever m
is: the item draws are independent of x, so none of them exceeds x with
probability x^(m-1), and otherwise a uniformly chosen exceeder is uniform on
[x, 1]. ``ystar_conditional_mc`` still simulates all m - 1 item draws,
because it is the independent check of the closed form ``ystar_tail``. It
takes the rank-th exceeder, largest first, with a uniform rank; whether that
one exceeds p follows from two counts per row, so no exceeder is located.
Each item draw is read at its bit cost: its top byte, drawn item-major as
(m - 1, rows) from raw 64-bit words, eight to a word, and a uniform
remainder below it only when the byte ties the byte of X_(1) or of p.

The samplers compute in place (``out=`` arithmetic in the order of the plain
expressions, so the draws are the same bits), which keeps a call to
``sample_xl`` at four arrays of its size. ``dominance_test`` calls a sampler
once per block of ``BLOCK // 4`` rows, so ``sample_xl`` and ``sample_xb``
hold about ``BLOCK`` floats there.

``xl_cdf`` and ``xb_cdf`` are the exact CDFs of X_L and X_B, as 1-D integrals
over one order statistic taken by Gauss-Legendre quadrature in
v = log(1 - x). That variable turns the pole of (t - x)/(1 - x), a distance
1 - t past the end of [0, t], into a smooth boundary layer, so a rule whose
node count grows with -log(1 - t) holds ~1e-13 up to t = 1 - 2^-15 and
beyond.

Dominance between two samplers is decided empirically on a uniform probe
grid with a two-sided DKW allowance. Determinism model: each Monte Carlo
loop here is ``rng.map_batches``, one seeded stream drawn block by block,
with about ``BLOCK`` floats of draws alive at a time, whatever N and m.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .rng import BLOCK, PIECE, fill_pieces, hit_rate, map_batches

__all__ = [
    "DominanceReport",
    "sample_xs",
    "sample_w",
    "sample_xb",
    "sample_xl",
    "sample_xl_prime",
    "xl_cdf",
    "xb_cdf",
    "ystar_tail",
    "ystar_conditional_mc",
    "dominance_test",
    "dkw_epsilon",
]

DEFAULT_GRID_SIZE = 199


def top_order_stats(n: int, k: int, rng: np.random.Generator, size: int):
    """(X_(1), X_(k)) of n i.i.d. uniforms, each of shape (size,).

    The recursion walks down from the top carrying only the current order
    statistic, so memory does not grow with k.
    """
    if not 1 <= k <= n:
        raise ValueError("need 1 <= k <= n")
    top = rng.random(size)
    np.power(top, 1.0 / n, out=top)
    if k == 1:
        return top, top
    kth = np.empty_like(top)
    step = np.empty_like(top)
    for j in range(1, k):
        rng.random(out=step)
        if n - j > 1:  # U ** 1.0 is U
            np.power(step, 1.0 / (n - j), out=step)
        np.multiply(top if j == 1 else kth, step, out=kth)
    return top, kth


def _uniform_above(lo: np.ndarray, rng: np.random.Generator, where=None) -> np.ndarray:
    """lo + U * (1 - lo) with a fresh uniform U per row, in a new array; with
    a boolean ``where``, lo itself in the rows where it is False.

    The same bits as the plain expression, with one temporary: a row left
    out adds the offset times 0, and lo + 0.0 is lo for lo >= 0.
    """
    out = rng.random(len(lo))
    np.multiply(out, np.subtract(1.0, lo), out=out)
    if where is not None:
        np.multiply(out, where, out=out)
    return np.add(lo, out, out=out)


def sample_xs(n: int, c: int, rng: np.random.Generator, size: int) -> np.ndarray:
    """Max of n + c i.i.d. uniforms."""
    if n + c < 1:
        raise ValueError("need n + c >= 1")
    x = rng.random(size)
    return np.power(x, 1.0 / (n + c), out=x)


def sample_w(n: int, ell: int, rng: np.random.Generator, size: int):
    """Draw (W_{ell,n}, X_(1), X_(ell)); W is uniform on [X_(ell), 1]."""
    if not 1 <= ell <= n:
        raise ValueError("need 1 <= ell <= n")
    x1, xl = top_order_stats(n, ell, rng, size)
    return _uniform_above(xl, rng), x1, xl


def sample_xb(n: int, ell: int, rng: np.random.Generator, size: int) -> np.ndarray:
    """X_B(n, ell) = max(X_(1), W_{ell,n})."""
    if not 2 <= ell <= n:
        raise ValueError("need 2 <= ell <= n")
    w, x1, _ = sample_w(n, ell, rng, size)
    return np.maximum(x1, w, out=w)


def _top_or_exceeder(x1: np.ndarray, m: int, rng: np.random.Generator) -> np.ndarray:
    """X'_L given X_(1) = x1, from two uniforms per row (see ``sample_xl_prime``).

    m = 1 has no item draws and consumes no randomness.
    """
    if m == 1:
        return x1
    has = rng.random(len(x1)) >= x1 ** (m - 1)
    return _uniform_above(x1, rng, where=has)


def sample_xl_prime(n: int, m: int, rng: np.random.Generator, size: int) -> np.ndarray:
    """X'_L(n, m): X_(1) if no item draw exceeds it, else a random exceeder.

    The m - 1 item draws are not materialized: given X_(1) = x, the output
    is x with probability x^(m-1) and uniform on [x, 1] otherwise, so each
    draw costs O(1) whatever m is.
    """
    if n < 1 or m < 1:
        raise ValueError("need n >= 1, m >= 1")
    x1, _ = top_order_stats(n, 1, rng, size)
    return _top_or_exceeder(x1, m, rng)


def sample_xl(n: int, m: int, rng: np.random.Generator, size: int) -> np.ndarray:
    """The little-n benchmark experiment X_L(n, m) = max(X'_L(n, m), W_{2,n}).

    X'_L is sampled conditionally on X_(1) as in ``sample_xl_prime``, in O(1)
    per draw. For n = 1 there is no second order statistic and the
    single-bidder variant (no W draw) is used.
    """
    if n < 1 or m < 1:
        raise ValueError("need n >= 1, m >= 1")
    if n == 1:
        return sample_xl_prime(1, m, rng, size)
    x1, w2 = top_order_stats(n, 2, rng, size)
    w2 = _uniform_above(w2, rng)  # rebinding frees X_(2): four arrays at most
    out = _top_or_exceeder(x1, m, rng)
    return np.maximum(out, w2, out=out)


MIN_NODES = 48  # Gauss-Legendre nodes per CDF value, at the least
MAX_NODES = 1024  # built in ~0.05 s; beyond it accuracy degrades slowly
_SERIES_TERMS = 54  # J_k by its series for x <= 1/2: the rest is below 2^-53


@functools.lru_cache(maxsize=16)
def _gauss_legendre(k: int):
    """(r, 1 - r, w): k Gauss-Legendre nodes on [0, 1], their mirror images
    and weights, read-only.

    Newton's method on the Legendre recurrence from Tricomi's guesses, as in
    Numerical Recipes' gauleg: ``numpy.polynomial.legendre.leggauss`` gives
    the same nodes to 1e-16, but importing ``numpy.polynomial`` adds ~1.6 MB
    of resident memory to every process that builds a chain bound.
    """
    z = np.cos(np.pi * (np.arange(k) + 0.75) / (k + 0.5))
    for _ in range(100):
        p0, p1 = np.ones_like(z), z
        for j in range(2, k + 1):
            p0, p1 = p1, ((2 * j - 1) * z * p1 - (j - 1) * p0) / j
        slope = k * (z * p1 - p0) / (z * z - 1.0)  # P_k'(z)
        step = p1 / slope
        z = z - step
        if np.max(np.abs(step)) <= 1e-15:
            break
    w = 2.0 / ((1.0 - z * z) * slope * slope)
    nodes = ((1.0 + z) / 2.0, (1.0 - z) / 2.0, w / 2.0)
    for a in nodes:
        a.flags.writeable = False
    return nodes


def _node_count(t: float, sharpness: float) -> int:
    """Gauss-Legendre nodes for an interval of length L = -log(1 - t) in v:
    4 L sqrt(sharpness), within [MIN_NODES, MAX_NODES]. The integrands'
    narrowest features are about 1/sqrt(sharpness) wide in v."""
    return min(MAX_NODES, max(MIN_NODES, math.ceil(-4.0 * math.log1p(-t) * math.sqrt(sharpness))))


def _log_gap_cdf(t, sharpness: float, integrand) -> np.ndarray | float:
    """A CDF on [0, 1] given as F(t) = integral over v in [log(1 - t), 0] of
    ``integrand(d, v, g)``, with d = 1 - t, v the node and g = log(1 - t) - v.

    F is 0 for t <= 0 and 1 for t >= 1. The t are taken in ascending blocks
    of about ``BLOCK`` floats, each with the node count of its largest t.
    Nodes are summed with ``np.sum``, not a BLAS dot, whose threaded sum
    order follows the CPU count.

    Working set: the output, plus a sorting permutation and sorted copy of
    the t unless they are ascending already, plus temporaries the size of one
    piece: a block's rows are integrated in pieces of ``PIECE`` floats
    (``rng.fill_pieces``), and a row's value does not depend on the rows
    beside it.
    """
    t = np.asarray(t, dtype=float)
    out = np.where(t >= 1.0, 1.0, 0.0)
    flat_t, flat_out = t.ravel(), out.ravel()
    # ascending t (a grid) need no sort; NaN fails the test and sorts last
    order = None if np.all(flat_t[1:] >= flat_t[:-1]) else np.argsort(flat_t, kind="stable")
    ts = flat_t if order is None else flat_t[order]
    start, end = int(np.searchsorted(ts, 0.0, "right")), int(np.searchsorted(ts, 1.0, "left"))
    while start < end:
        # as many rows as the node count of a full-size block's last t allows
        widest = ts[min(start + BLOCK // MIN_NODES, end) - 1]
        stop = min(end, start + max(1, BLOCK // _node_count(widest, sharpness)))
        tb = ts[start:stop]
        k = _node_count(tb[-1], sharpness)
        r, rc, w = _gauss_legendre(k)

        def rows(x):
            lo = np.log1p(-x)[:, None]
            return -lo[:, 0] * np.sum(integrand((1.0 - x)[:, None], lo * r, lo * rc) * w, axis=1)

        dest = slice(start, stop) if order is None else order[start:stop]
        flat_out[dest] = fill_pieces(np.empty(len(tb)), rows, tb, size=max(1, PIECE // k))
        start = stop
    return out if out.ndim else float(out)


def _j_tail(k: int, x: np.ndarray, v: np.ndarray) -> np.ndarray:
    """J_k(x) = integral_0^x y^k / (1 - y) dy = sum_{i > k} x^i / i, v = log(1 - x).

    The difference -log(1 - x) - sum_{i <= k} x^i / i cancels where J_k is
    small against -log(1 - x). So for x <= 1/2 the series
    x^(k+1) sum_j x^j / (k + 1 + j) is summed, and above 1/2, where
    s = (k + 1)(1 - x) >= 1 and the difference is below -log(1 - x) / 256,
    J_k = x^(k+1) Phi(x, 1, k + 1), with 1/Phi from ``_lerch_cf``. Where the
    difference stays it loses at most 8 bits: J_k >= -log(1 - x) / 256 there,
    or s < 1, where J_k >= E_1((k + 1) log(1/x)), about E_1(1) = 0.22, while
    -log(1 - x) < log(k + 1) (8 bits at k = 10^20).

    The fraction converges at a rate set by sqrt(1 - x) = sqrt(s / (k + 1)),
    so it is taken in bands of s, [1, 4), [4, 16), ..., each at the depth
    16 sqrt((k + 1) / s_lo) of its lowest s: a pure function of k and the
    point, so a point's bits do not depend on the points beside it.
    """
    if k == 0:
        return -v
    head = np.full_like(x, 1.0 / k)
    for i in range(k - 1, 0, -1):
        head *= x
        head += 1.0 / i
    out = -v - x * head
    small = x <= 0.5
    xs = x[small]
    tail = np.full_like(xs, 1.0 / (k + _SERIES_TERMS))
    for j in range(_SERIES_TERMS - 2, -1, -1):
        tail *= xs
        tail += 1.0 / (k + 1 + j)
    out[small] = xs ** (k + 1) * tail
    if k > 1:  # at k = 1, s >= 1 means x <= 1/2
        s = (k + 1) * (1.0 - x)
        left = (x > 0.5) & (s >= 1.0) & (256.0 * out < -v)
        s_lo = 1.0
        while left.any():
            band = left & (s < 4.0 * s_lo)
            xb = x[band]
            out[band] = xb ** (k + 1) / _lerch_cf(k + 1, xb, math.ceil(16.0 * math.sqrt((k + 1) / s_lo)))
            left &= ~band
            s_lo *= 4.0
    return out


def _lerch_cf(a: int, x: np.ndarray, depth: int) -> np.ndarray:
    """1 / Phi(x, 1, a) = 1 / sum_j x^j / (a + j), by Gauss's continued
    fraction for the hypergeometric 2F1(1, a; a + 1; x) = a Phi:
    a - u_1 x / (a + 1 - u_2 x / (a + 2 - ...)), u_2i+1 = (a + i)^2,
    u_2i = i^2, cut at ``depth`` and evaluated from the bottom. Its error
    falls geometrically in depth sqrt(1 - x): against a ``math.fsum``
    series, 14 sqrt(a) levels reach rounding at x = 1 - 1/a for a = 2 to
    1001, and 12 sqrt(a) leave 7e-13.
    """
    out = np.full_like(x, float(a + depth))
    for j in range(depth, 0, -1):
        u = (a + j // 2) ** 2 if j % 2 else (j // 2) ** 2
        np.divide(x, out, out=out)
        out *= -u
        out += a + j - 1
    return out


def xl_cdf(n: int, m: int, t) -> np.ndarray | float:
    """Exact CDF of X_L(n, m) for n >= 2 (the law ``sample_xl`` draws).

    With (x1, x2) the top two of n uniforms (joint density
    n (n-1) x2^(n-2)), X_L <= t when x1 <= t, X'_L <= t and W_2 <= t:

        F(t) = integral_0^t a_t(x1) g_t(x1) dx1,
        a_t(x) = x^(m-1) + (1 - x^(m-1)) (t - x) / (1 - x)
                 (X'_L is x1, or uniform on [x1, 1]),
        g_t(x) = n x^(n-1) - n (n-1) (1 - t) J_{n-2}(x)
                 (the x2 integral of (t - x2)/(1 - x2) below x1),

    with J_k from ``_j_tail``. The integral is taken in v = log(1 - x1).
    """
    if n < 2 or m < 1:
        raise ValueError("need n >= 2, m >= 1")

    def integrand(d, v, g):
        x = -np.expm1(v)
        xm = x ** (m - 1)
        a = xm + (1.0 - xm) * -np.expm1(g)  # (t - x)/(1 - x) = 1 - e^g
        top = n * x ** (n - 1) - n * (n - 1) * d * _j_tail(n - 2, x, v)
        return a * top * np.exp(v)  # dx1 = e^v dv

    return _log_gap_cdf(t, 2.0, integrand)


def xb_cdf(n: int, ell: int, t) -> np.ndarray | float:
    """Exact CDF of X_B(n, ell) (the law ``sample_xb`` draws).

    Given X_(1) <= t the n draws are i.i.d. on [0, t], so X_(ell) = t Y with
    Y ~ Beta(n - ell + 1, ell), and F(t) = t^n E[(t - tY)/(1 - tY)]. With
    s = tY this is C integral_0^t s^(n-ell) (t - s)^ell / (1 - s) ds,
    C = n! / ((n-ell)! (ell-1)!), taken in v = log(1 - s), where it reads
    C integral (1 - e^v)^(n-ell) (e^v - (1 - t))^ell dv, in logs.
    """
    if not 2 <= ell <= n:
        raise ValueError("need 2 <= ell <= n")
    log_c = math.lgamma(n + 1) - math.lgamma(n - ell + 1) - math.lgamma(ell)

    def integrand(d, v, g):
        # e^v - (1 - t) = (1 - t) expm1(-g) >= 0, exact near the end of [0, t]
        log_gap = np.log(d) + np.log(np.expm1(-g))
        return np.exp(log_c + (n - ell) * np.log(-np.expm1(v)) + ell * log_gap)

    return _log_gap_cdf(t, float(ell), integrand)


def ystar_tail(n: int, m: int, p) -> np.ndarray | float:
    """Closed-form Pr[Y* > p | X_(1),n < p].

    Y* is 0 when no item draw exceeds X_(1), and otherwise a uniformly random
    exceeding item draw. Equals
    1 - n p^(m-1)/(n+m-2) - sum_{i=1}^{m-2} n p^i / ((n+i)(n+i-1)).
    """
    if m < 2:
        raise ValueError("need m >= 2")
    p = np.asarray(p, dtype=float)
    if np.any(p < 0) or np.any(p > 1):
        raise ValueError("p must lie in [0, 1]")
    out = 1.0 - n * p ** (m - 1) / (n + m - 2)
    for i in range(1, m - 1):
        out = out - n * p**i / ((n + i) * (n + i - 1))
    return out if out.ndim else float(out)


def ystar_conditional_mc(n: int, m: int, p: float, N: int, seed: int) -> tuple[float, float]:
    """Monte Carlo Pr[Y* > p | X_(1),n < p] by direct conditional sampling.

    Conditioned on X_(1),n < p the bidder draws are i.i.d. uniform on [0, p],
    so the conditional law is sampled exactly (no rejection). The m - 1 item
    draws are simulated directly, so this stays independent of both
    ``ystar_tail`` and the conditional construction in ``sample_xl``.

    Y* is the exceeder of rank floor(U k) among the k item draws above X_(1),
    taken largest first; the h draws above p > X_(1) lead that order, so
    Y* > p iff floor(U k) < h, i.e. U k < h. Only k and h are counted.

    An item draw is (B + V) / 256: its top byte B, then a uniform remainder
    V, which given B is uniform. Each block of ``BLOCK // (m - 1)`` rows
    draws X_(1), then the item bytes item-major as (m - 1, rows), eight to a
    ``random_raw`` word read little-endian, then one remainder V per item
    whose byte is a = floor(256 X_(1)) or p8 = floor(256 p), in item-major
    order (one V serves both when a == p8), then the rank uniforms U. A
    byte above a (above p8) counts in k (in h); a byte equal to a (to p8)
    counts when V > 256 X_(1) - a (V > 256 p - p8), and both differences
    are exact in binary floating point. So only about 2/256 of the items
    draw a float.
    """
    if not 0 < p < 1:
        raise ValueError("p must lie in (0, 1)")
    if m < 2:
        raise ValueError("need m >= 2")
    width = m - 1
    count = np.min_scalar_type(width)  # the narrowest integer that holds k
    p8 = int(256.0 * p)
    p_rest = 256.0 * p - p8

    def block(rng, r):
        x1 = p * rng.random(r) ** (1.0 / n)
        x_scaled = 256.0 * x1
        a = x_scaled.astype(np.uint8)  # floor: 0 <= 256 x1 < 256
        words = rng.bit_generator.random_raw(-(-width * r // 8))
        y = words.astype("<u8", copy=False).view(np.uint8)[: width * r].reshape(width, r)
        k = np.add.reduce(y > a, axis=0, dtype=count)
        h = np.add.reduce(y > p8, axis=0, dtype=count)
        tie = y == a
        tie |= y == p8
        at = np.flatnonzero(tie)
        v = rng.random(len(at))
        row, byte = at % r, y.ravel()[at]
        k = k + np.bincount(row[(byte == a[row]) & (v > x_scaled[row] - a[row])], minlength=r)
        h = h + np.bincount(row[(byte == p8) & (v > p_rest)], minlength=r)
        return int(np.count_nonzero(rng.random(r) * k < h))

    return hit_rate(sum(map_batches(seed, "ystar-mc", N, block, width)), N)


def dkw_epsilon(N: int, delta: float) -> float:
    """Half-width of the DKW uniform confidence band for an empirical CDF."""
    return math.sqrt(math.log(2.0 / delta) / (2.0 * N))


@dataclass(frozen=True)
class DominanceReport:
    """Paired empirical CDFs on a probe grid with a DKW budget and a verdict.

    ``dominates`` is true iff cdf_a(p) <= cdf_b(p) + 2 * epsilon at every
    probe point, i.e. A first-order stochastically dominates B up to the
    two-sided sampling allowance.
    """

    grid: np.ndarray
    cdf_a: np.ndarray
    cdf_b: np.ndarray
    epsilon: float
    dominates: bool

    @property
    def max_violation(self) -> float:
        """Largest cdf_a - cdf_b over the probes where the two CDFs are not
        both 0 and not both 1 (there the gap is 0 whatever the laws); below
        0 when A's CDF sits under B's at every informative probe, and 0.0
        when no probe is informative."""
        a, b = self.cdf_a, self.cdf_b
        gaps = (a - b)[((a > 0) | (b > 0)) & ((a < 1) | (b < 1))]
        return float(np.max(gaps)) if len(gaps) else 0.0


Sampler = Callable[[np.random.Generator, int], np.ndarray]


def dominance_test(
    sampler_a: Sampler,
    sampler_b: Sampler,
    N: int,
    grid_size: int = DEFAULT_GRID_SIZE,
    delta: float = 1e-3,
    seed: int = 0,
) -> DominanceReport:
    """Empirical first-order stochastic dominance of A over B.

    Each sampler draws its own stream (``rng.map_batches``, labels ``dom-a``
    and ``dom-b``), called once per block of ``BLOCK // 4`` rows, since
    ``sample_xl`` and ``sample_xb`` compute in four arrays of their size: a
    block holds about ``BLOCK`` floats. The block is sorted in place, so a
    sampler must return a fresh array, and its counts at or below the grid
    are added up as integers. Sampler B is first called for zero draws, so
    its argument checks fire before sampler A's pass rather than after it.
    """
    if N < 10_000:
        raise ValueError("need N >= 10^4 for a meaningful DKW band")
    if not 0 < delta < 1:
        raise ValueError("delta must lie in (0, 1)")
    grid = np.arange(1, grid_size + 1) / (grid_size + 1)

    def cdf(sampler, label):
        def block(rng, r):
            x = sampler(rng, r)
            x.sort()  # in place: a copy would be one more block-sized array
            return np.searchsorted(x, grid, "right")

        return sum(map_batches(seed, label, N, block, width=4)) / N

    sampler_b(np.random.default_rng(0), 0)  # draws nothing; only its checks run
    cdf_a = cdf(sampler_a, "dom-a")
    cdf_b = cdf(sampler_b, "dom-b")
    eps = dkw_epsilon(N, delta)
    dominates = bool(np.all(cdf_a <= cdf_b + 2 * eps))
    return DominanceReport(grid=grid, cdf_a=cdf_a, cdf_b=cdf_b, epsilon=eps, dominates=dominates)
