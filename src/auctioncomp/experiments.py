"""Quantile-space random variables and empirical stochastic dominance.

The samplers here realize the coupling experiments that reduce the
competition-complexity analysis to comparing random variables on [0, 1]:

* ``X_S(n, c)``: the maximum of n + c i.i.d. uniforms (selling with c extra
  bidders).
* ``XB(n, l)``: max of the top uniform and a fresh uniform draw from
  [X_(l), 1] (the big-n benchmark experiment).
* ``XL(n, m)``: the little-n benchmark experiment, where a uniformly random
  one of the m - 1 "item" draws exceeding the top "bidder" draw (if any) is
  taken, maxed with a fresh draw from [X_(2), 1].

Order statistics of uniforms are generated top-down via the ratio recursion
X_(k+1) = X_(k) * U^(1/(n-k)) (``top_order_walk``), so only the needed top-k
values are drawn and only X_(1) and the current one are held; X_S and
every sampler's X_(1) are its first step. The same walk,
with one count per row, draws the bidders' bundles of the sequential
posted-bundle mechanism (``revenue.feldman_posted_price``).

``XL`` is sampled conditionally on X_(1) = x, in O(1) per draw whatever m
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
expressions, so the draws are the same bits), which keeps a draw of ``XL``
or ``XB`` at four arrays of its size (see ``dominance_test``).

``XB`` and ``XL`` each hold their law's parameter check, sampler
(``law(rng, size)``), exact CDF (``law.cdf``) and tail constant D. The CDFs
need no quadrature, and both stand on one kernel, ``_hyp(K, ell, x)``, of
x^K 2F1(1, K - ell; K + 1; x): J_k(t) = sum_{i > k} t^i / i at ell = 0,
and X_B's CDF at ell >= 2. Where s = K (1 - x) >= 1 it is Gauss's
continued fraction with positive terms (``_gauss_cf``), and nearer 1 one
series in s (DLMF 15.8.10) of a few dozen terms, whatever K and ell are.
``XB.cdf`` is the kernel alone. ``XL.cdf`` sums a power series in t with
nonnegative coefficients below t = 1/2, which gains a bit per term there,
and above it a closed form in one J_{n-2}(t), whose terms would cancel
below 1/2. X_L(n, 1) is X_B(n, 2), so for n >= 2 ``XL(n, 1).cdf`` is
``XB(n, 2).cdf``. Each point's value is a pure function of the point
(``_piecewise_cdf``).

Dominance between two samplers is decided empirically on a uniform probe
grid with a two-sided DKW allowance. Determinism model: each Monte Carlo
loop here is ``rng.map_batches``, one seeded stream drawn block by block,
with about ``BLOCK`` floats of draws alive at a time, whatever N and m; each
block returns integer counts, which the loop adds (``rng.estimate``).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .rng import BLOCK, estimate, map_batches

__all__ = [
    "DominanceReport",
    "XB",
    "XL",
    "sample_xs",
    "ystar_tail",
    "ystar_conditional_mc",
    "dominance_test",
    "dkw_epsilon",
]

DEFAULT_GRID_SIZE = 199


def top_order_walk(rng: np.random.Generator, R: int | np.ndarray, k: int, size: int):
    """Yield U_(1) >= ... >= U_(k), the top k of R i.i.d. uniforms, each of
    shape (size,), by U_(1) = V^(1/R), U_(j+1) = U_(j) V^(1/(R-j)). R is one
    count, whose exponents stay scalar (numpy's power with an array of one
    exponent can differ in the last bit), or an array of one count per row.
    Each value is yielded in one buffer, which the next step overwrites.
    """
    u = rng.random(size)
    u **= 1.0 / R
    yield u
    step = np.empty_like(u)
    for j in range(1, k):
        rng.random(out=step)
        step **= 1.0 / (R - j)
        np.multiply(u, step, out=u)
        yield u


def top_order_stats(n: int, k: int, rng: np.random.Generator, size: int):
    """(X_(1), X_(k)) of n i.i.d. uniforms, each of shape (size,), the first
    and last values of ``top_order_walk``."""
    if not 1 <= k <= n:
        raise ValueError("need 1 <= k <= n")
    walk = top_order_walk(rng, n, k, size)
    top = next(walk)
    if k == 1:
        return top, top
    top = top.copy()  # the walk steps in place
    *_, kth = walk
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
    """Max of n + c i.i.d. uniforms, the walk's first value (``top_order_stats``)."""
    if n + c < 1:
        raise ValueError("need n + c >= 1")
    return top_order_stats(n + c, 1, rng, size)[0]


def _top_or_exceeder(x1: np.ndarray, m: int, rng: np.random.Generator) -> np.ndarray:
    """X'_L given X_(1) = x1, from two uniforms per row (see ``XL``).

    m = 1 has no item draws and consumes no randomness.
    """
    if m == 1:
        return x1
    has = rng.random(len(x1)) >= x1 ** (m - 1)
    return _uniform_above(x1, rng, where=has)


_SERIES_TERMS = 54  # a series in t <= 1/2 whose terms fall like 2^-j: the rest is below 2^-53
_LOG_TERMS = 30  # past it a term of _hyp's finite sum, and its log part beside the sum, is below 1/30!


def _horner(c, x: np.ndarray) -> np.ndarray:
    """sum_j c[j] x^j by Horner's rule, in a new array."""
    out = np.full_like(x, c[-1])
    for a in c[-2::-1]:
        out *= x
        out += a
    return out


def _psi_minus_log(K: int) -> float:
    """psi(K) - log K for an integer K >= 1: psi's asymptotic series at
    z = max(K, 16) (DLMF 5.11.2, through z^-14, below 2^-60 of it there),
    shifted down to K by psi(z) = psi(K) + sum_{K <= i < z} 1/i."""
    z = max(K, 16)
    w = 1.0 / (z * z)
    series = -0.5 / z - w * (1 / 12 - w * (1 / 120 - w * (1 / 252 - w * (1 / 240 - w * (1 / 132 - w * (691 / 32760 - w / 12))))))
    return math.fsum([series, math.log(z / K)] + [-1.0 / i for i in range(K, z)])


def _hyp(K: int, ell: int, x: np.ndarray) -> np.ndarray:
    """max(ell, 1)/K x^K 2F1(1, K - ell; K + 1; x) for 0 < x < 1 and
    0 <= ell < K: J_(K-1)(x) = sum_{i >= K} x^i / i at ell = 0, and the CDF
    of X_B(K - 1, ell) at ell >= 2 (see ``XB.cdf``).

    J_0 is -log(1 - x). Otherwise, with d = 1 - x and s = K d:

    * s >= 1: by Pfaff, max(ell, 1) x^K 2F1(1, ell + 1; K + 1; -x/d) / s,
      Gauss's fraction with positive terms (``_gauss_cf``).
    * s < 1: c - a - b = ell is an integer, and DLMF 15.8.10 gives
      x^K [P - (K - ell)_ell / (ell - 1)! (-d)^ell S] (at ell = 0 the
      prefactor is 1 and P = 0), with
      P = sum_{k < ell} T_k, T_0 = 1, T_(k+1) = -T_k (K - ell + k) d / (ell - 1 - k),
      S = sum_j (K)_j d^j / j! [L + sum_{i<j} 1/(K+i) - H_j],
      L = log s + gamma + (psi(K) - log K),
      each by Horner's rule in s. The terms of S fall like s^j / j! for
      large K and like j 2^-j at K = 2, and are summed until below 2^-60.
      L keeps log s apart from the small psi(K) - log K
      (``_psi_minus_log``): log d and H_(K-1) added apart cancel to it
      and lose about log2(log K) bits, 3 at K = 16383. Past ell = 30 the terms of P past
      T_29 and the whole log part are below 1/30! of P and are dropped.
      J is within 8.9e-16 relative of 50-digit mpmath here for K up to 10^7.

    Each point's value is a pure function of (K, ell) and the point.
    """
    if K == 1:
        return -np.log1p(-x)
    out = np.empty_like(x)
    s = K * (1.0 - x)
    far = s >= 1.0  # every x <= 1/2 at K = 2
    if far.any():
        out[far] = max(ell, 1) * _gauss_cf(ell + 1, K + 1, x[far], s[far])
    near = ~far
    if not near.any():
        return out
    x, s = x[near], s[near]
    T = [1.0]  # T_k / s^k
    for k in range(min(ell, _LOG_TERMS) - 1):
        T.append(-T[-1] * (K - ell + k) / (K * (ell - 1 - k)))
    P = _horner(T, s) if ell else np.zeros_like(s)
    if ell <= _LOG_TERMS:
        L = np.log(s) + (np.euler_gamma + _psi_minus_log(K))
        terms, a, h, j = [(1.0, 0.0)], 1.0, 0.0, 0  # a = (K)_j / (j! K^j), h = sum_{i<j} 1/(K+i) - H_j
        while a * (1.0 + abs(h)) >= 2.0**-60:
            j += 1
            a *= (K + j - 1) / (K * j)
            h += 1.0 / (K + j - 1) - 1.0 / j
            terms.append((a, a * h))
        S = np.zeros_like(s)
        for a, ah in reversed(terms):
            S *= s
            S += a * L + ah
        prefactor = math.prod((K - ell + i) / K for i in range(ell)) / math.factorial(max(ell - 1, 0))
        P -= prefactor * (-s) ** ell * S
    out[near] = x**K * P
    return out


def _gauss_cf(alpha: int, gamma: int, x: np.ndarray, s: np.ndarray) -> np.ndarray:
    """x^(gamma-1) 2F1(1, alpha; gamma; -w) / s for w = x / (1 - x) and
    s = (gamma - 1)(1 - x) >= 1, with 1 <= alpha < gamma.

    Gauss's continued fraction gives 2F1(1, alpha; gamma; -w) = 1 / D,
    D = 1 + k_1 w / (1 + k_2 w / (1 + ...)),
    k_(2i+1) = (alpha + i)(gamma - 1 + i) / ((gamma - 1 + 2i)(gamma + 2i)),
    k_(2i+2) = (i + 1)(gamma - alpha + i) / ((gamma + 2i)(gamma + 1 + 2i)),
    evaluated from the bottom. Every level adds positive terms, so none
    cancels, and the depth that reaches rounding falls with s, not with
    gamma alone. So the points are taken in bands of s, [1, 4), [4, 16),
    ..., each cut at the depth 16 sqrt(min(gamma - 1, 256) / s_lo) of its
    lowest s: a pure function of (alpha, gamma) and the point, so a point's
    bits do not depend on the points beside it.
    """
    out = np.empty_like(x)
    left = np.ones(len(x), dtype=bool)
    s_lo = 1.0
    while left.any():
        band = left & (s < 4.0 * s_lo)
        if band.any():
            xb = x[band]
            w, D = xb / (1.0 - xb), np.ones_like(xb)
            for j in range(math.ceil(16.0 * math.sqrt(min(gamma - 1, 256) / s_lo)), 0, -1):
                i, even = divmod(j - 1, 2)
                top = (i + 1) * (gamma - alpha + i) if even else (alpha + i) * (gamma - 1 + i)
                np.divide(w, D, out=D)
                D *= top / ((gamma + j - 2) * (gamma + j - 1))
                D += 1.0
            D *= s[band]  # in place: the bits of xb^(gamma-1) / (s D), two temporaries fewer
            out[band] = np.divide(xb ** (gamma - 1), D, out=D)
            left &= ~band
        s_lo *= 4.0
    return out


def _piecewise_cdf(t, branches) -> np.ndarray | float:
    """A CDF of the shape of t (a float for a scalar): 0 for t <= 0 (and
    NaN), 1 for t >= 1, and at 0 < x < 1 fn(x) of the first (test, fn) of
    ``branches`` whose test(x) holds. All points are read in one call, each
    by its own branch, so a point's bits are those of the point alone."""
    t = np.asarray(t, dtype=float)
    x = t.ravel()
    out = np.where(x >= 1.0, 1.0, 0.0)
    left = (x > 0.0) & (x < 1.0)
    for test, fn in branches:
        part = left & test(x)
        if part.any():  # a Horner loop over no points still costs its numpy calls
            out[part] = fn(x[part])
        left &= ~part
    out = out.reshape(t.shape)
    return out if out.ndim else float(out)


def _xl_coefficients(n: int, m: int):
    """(C, h1, h2, g) for ``XL.cdf`` at n, m >= 2: the series
    F(t) = t^(n + 2) sum_j C[j] t^j below 1/2, and the polynomials
    h1, h2 and g of the closed form above it.

    C[j] is the coefficient of t^(n + 2 + j), a sum of expectations of
    nonnegative quantities over the top two (y1, y2) of n uniforms:
    E[y1^i (1 - y1) y2^k (1 - y2)] = n (n-1) (2p + q + 2) / (p (p+1) q (q+1) (q+2))
    with p = n - 1 + k, q = n + i + k, for each i + k = j, i <= m - 2;
    and D(m - 1, k) = E[y1^(m-1) y2^k (1 - y2)]
    = n (n-1) (p + q + 1) / (p q (p+1) (q+1)) with q = n + m - 1 + k,
    for k = j + 2 - m. Every coefficient is at most (m - 1) C[0] + D(0, 0)
    and from t^m on they do not grow, so the terms dropped past
    t^(_SERIES_TERMS + 14 + bit_length(n + m)) weigh below 2^-60 of the sum
    at t = 1/2, and less below it.
    """
    nn = float(n * (n - 1))
    e = np.arange(2, _SERIES_TERMS + 14 + (n + m).bit_length(), dtype=float)
    i = np.arange(min(m - 1, len(e)), dtype=float)[:, None]
    k = e - 2 - i
    p, q = n - 1 + np.maximum(k, 0.0), n - 2 + e
    C = np.sum(np.where(k >= 0, nn * (2 * p + q + 2) / (p * (p + 1) * q * (q + 1) * (q + 2)), 0.0), axis=0)
    k = np.maximum(e - m, 0.0)
    p, q = n - 1 + k, n + m - 1 + k
    C += np.where(e >= m, nn * (p + q + 1) / (p * q * (p + 1) * (q + 1)), 0.0)
    # r[l] = sum of 1/s over max(2, l + 1) <= s <= m - 1
    tails = np.cumsum(1.0 / np.arange(m - 1, 1, -1))
    r = np.concatenate((tails[-1:], tails[::-1])) if m > 2 else np.zeros(m - 1)
    h1 = 1.0 / (n + np.arange(m - 1, dtype=float))
    h1[:1] = 1.0
    return C, h1, r / (n - 1 + np.arange(m - 1, dtype=float)), r


@dataclass(frozen=True)
class XL:
    """X_L(n, m) = max(X'_L, W_2) over the top two X_(1) >= X_(2) of n uniforms:
    X'_L is a random one of m - 1 item draws above X_(1), or X_(1) if none is
    (``_top_or_exceeder``), and W_2 is uniform on [X_(2), 1]; at n = 1, X'_L."""

    n: int
    m: int

    def __post_init__(self):
        if self.n < 1 or self.m < 1:
            raise ValueError("need n >= 1, m >= 1")

    @property
    def tail_constant(self) -> int:
        """D = 2n + m - 1, so that 1 - F(u) <= D (1 - u) for every u: X_L > u
        needs x1 > u (probability 1 - u^n <= n (1 - u)), or x1 <= u with
        X'_L > u (at most (1 - x1^(m-1)) (1 - u)/(1 - x1) <= (m - 1)(1 - u)),
        or x1 <= u with W_2 > u (at most E[(1 - u)/(1 - X_(2))] = n (1 - u))."""
        return 2 * self.n + self.m - 1

    @functools.cached_property
    def _coefficients(self):
        """``_xl_coefficients(n, m)``, built once per law."""
        return _xl_coefficients(self.n, self.m)

    def __call__(self, rng: np.random.Generator, size: int) -> np.ndarray:
        if self.n == 1:
            return _top_or_exceeder(top_order_stats(1, 1, rng, size)[0], self.m, rng)
        x1, w2 = top_order_stats(self.n, 2, rng, size)
        w2 = _uniform_above(w2, rng)  # rebinding frees X_(2): four arrays at most
        return np.maximum(_top_or_exceeder(x1, self.m, rng), w2, out=w2)

    def cdf(self, t) -> np.ndarray | float:
        """Exact CDF of X_L(n, m).

        At n = 1, X_L = X'_L over one uniform x1, so F(t) is the integral
        over x1 <= t of a_t(x1) below,

            F = t^m/m + sum_{i=0}^{m-2} t^(i+2) / ((i+1) (i+2))
              = t^2 - (1 - t) sum_{i=1}^{m-2} t^(i+1) / (i+1),

        a polynomial with nonnegative coefficients (t at m = 1), summed by
        Horner's rule. X_L(n, 1) is X_B(n, 2): for n >= 2 and m = 1, X'_L is
        X_(1), so X_L = max(X_(1), W_2), and F is ``XB(n, 2).cdf``. For
        n, m >= 2, with (x1, x2) the top two of n uniforms
        (joint density n (n-1) x2^(n-2)), X_L <= t when x1 <= t, X'_L <= t
        and W_2 <= t:

            F(t) = integral_0^t a_t(x1) g_t(x1) dx1,
            a_t(x) = x^(m-1) + (1 - x^(m-1)) (t - x) / (1 - x)
                   = t - (1 - t) sum_{i=1}^{m-2} x^i
                     (X'_L is x1, or uniform on [x1, 1]),
            g_t(x) = n x^(n-1) - n (n-1) (1 - t) J_{n-2}(x)
                     (the x2 integral of (t - x2)/(1 - x2) below x1),

        with J_k = ``_hyp(k + 1, 0, .)``. No quadrature is needed: swapping
        the two integrals leaves, with J = J_{n-2}(t), d = 1 - t and the
        polynomials of ``_xl_coefficients``,

            F = t^n (t - n d h1(t)) + n (n-1) d^2 (t^(n-1) h2(t) + J (t - d g(t))),

        h1 = 1 + sum_{i=1}^{m-2} t^i / (n+i), h2 = sum_j r_j t^j / (n-1+j),
        g = sum_j r_j t^j, r_j = sum of 1/s over max(2, j+1) <= s <= m - 1.
        Its terms are of order n d t^n at most, so it holds F to a few ulps of
        1 (within 2.2e-16 above 1/2 for n = 64 to 4096, against 60-digit
        mpmath), but they cancel to a far smaller F as t falls. Below 1/2 F
        is summed instead from a series with no cancellation: with x = t y,
        F = t^n E[A B] over the top two (y1, y2) of n uniforms,
        A = (t y1)^(m-1) + t (1 - y1) sum_{i<m-1} (t y1)^i and
        B = t (1 - y2) sum_k (t y2)^k, a power series in t whose coefficients
        (``_xl_coefficients``) are all nonnegative, so Horner's rule holds F to
        a few ulps of itself. The split sits at 1/2 because there the series
        still gains a bit per term, so ~70 terms reach rounding, while that
        count grows like 1/(1 - t) above it. The series also takes the t above
        1/2 where t^(n-1) is below the smallest normal float: there F < t^n is
        too, and the closed form's rounding is no longer relative.

        F is 0 for t <= 0 (and NaN), 1 for t >= 1 (``_piecewise_cdf``).
        """
        n, m = self.n, self.m
        if n == 1:
            k = np.arange(2.0, m + 1.0)
            c = np.append([0.0, 0.0], 1.0 / (k * (k - 1.0)))
            c[m] = 1.0 / max(m - 1, 1)  # t^m/m + t^m/(m (m-1)) = t^m/(m-1); t at m = 1
            return _piecewise_cdf(t, ((lambda x: x > 0.0, lambda x: _horner(c, x)),))
        if m == 1:
            return XB(n, 2).cdf(t)
        C, h1, h2, g = self._coefficients
        split = max(0.5, 2.0 ** (-1022.0 / (n - 1)))  # t^(n-1) is normal above it

        def series(x):
            return x ** (n + 2) * _horner(C, x)

        def closed_form(x):
            d, xn1 = 1.0 - x, x ** (n - 1)
            w, J = n * (n - 1) * d * d, _hyp(n - 1, 0, x)
            return xn1 * x * (x - n * d * _horner(h1, x)) + w * (xn1 * _horner(h2, x) + J * (x - d * _horner(g, x)))

        return _piecewise_cdf(t, ((lambda x: x <= split, series), (lambda x: x > split, closed_form)))


def sample_xl(n: int, m: int, rng: np.random.Generator, size: int) -> np.ndarray:
    """``XL(n, m)(rng, size)`` (README, "Pinned by `bench/`")."""
    return XL(n, m)(rng, size)


@dataclass(frozen=True)
class XB:
    """X_B(n, ell) = max(X_(1), W) over the top X_(1) and the ell-th X_(ell)
    of n uniforms, with W uniform on [X_(ell), 1]."""

    n: int
    ell: int

    def __post_init__(self):
        if not 2 <= self.ell <= self.n:
            raise ValueError("need 2 <= ell <= n")

    @property
    def tail_constant(self) -> float:
        """D = n ell / (ell - 1), so that 1 - F(u) <= D (1 - u) for every u:
        X_B > u needs X_(1) > u (at most n (1 - u)) or W > u >= X_(1) (at
        most E[(1 - u)/(1 - X_(ell))] = n (1 - u) / (ell - 1))."""
        return self.n * self.ell / (self.ell - 1)

    def __call__(self, rng: np.random.Generator, size: int) -> np.ndarray:
        x1, xl = top_order_stats(self.n, self.ell, rng, size)
        return np.maximum(x1, _uniform_above(xl, rng), out=x1)

    def cdf(self, t) -> np.ndarray | float:
        """Exact CDF of X_B(n, ell).

        Given X_(1) <= t the n draws are i.i.d. on [0, t], so X_(ell) = t Y with
        Y ~ Beta(a + 1, ell), a = n - ell, and with d = 1 - t

            F(t) = t^n E[(t - tY)/(1 - tY)] = t^(n+1) (ell/(n+1)) 2F1(1, a + 1; n + 2; t),

        taken with no quadrature as ``_hyp(n + 1, ell, t)``, each point on its
        own (``_piecewise_cdf``). Where s = (n + 1) d >= 1, by Pfaff,
        F = ell t^(n+1) 2F1(1, ell + 1; n + 2; -t/d) / s, Gauss's fraction
        with positive terms; where s < 1, where the fraction would need its
        greatest depth, a series in s whose length does not grow with n or
        ell. Against 40-digit mpmath it holds 4.2e-16 relative for n up to
        16384 and t from 0.01 to 1 - 1e-8/(n + 1). Where t^(n+1) is
        subnormal, F is too, and is held to absolute, not relative, rounding.
        """
        n, ell = self.n, self.ell
        return _piecewise_cdf(t, ((lambda x: True, lambda x: _hyp(n + 1, ell, x)),))


def sample_xb(n: int, ell: int, rng: np.random.Generator, size: int) -> np.ndarray:
    """``XB(n, ell)(rng, size)`` (README, "Pinned by `bench/`")."""
    return XB(n, ell)(rng, size)


def ystar_tail(n: int, m: int, p) -> np.ndarray | float:
    """Closed-form Pr[Y* > p | X_(1),n < p].

    Y* is 0 when no item draw exceeds X_(1), and otherwise a uniformly random
    exceeding item draw. Equals
    1 - n p^(m-1)/(n+m-2) - sum_{i=1}^{m-2} n p^i / ((n+i)(n+i-1)),
    a polynomial in p summed by Horner's rule (``_horner``).
    """
    if m < 2:
        raise ValueError("need m >= 2")
    p = np.asarray(p, dtype=float)
    if np.any(p < 0) or np.any(p > 1):
        raise ValueError("p must lie in [0, 1]")
    c = [1.0] + [-n / ((n + i) * (n + i - 1)) for i in range(1, m - 1)] + [-n / (n + m - 2)]
    out = _horner(c, p)
    return out if out.ndim else float(out)


def ystar_conditional_mc(n: int, m: int, p: float, N: int, seed: int) -> tuple[float, float]:
    """Monte Carlo Pr[Y* > p | X_(1),n < p] by direct conditional sampling.

    Conditioned on X_(1),n < p the bidder draws are i.i.d. uniform on [0, p],
    so the conditional law is sampled exactly (no rejection). The m - 1 item
    draws are simulated directly, so this stays independent of both
    ``ystar_tail`` and the conditional construction in ``XL``.

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

    Returns (rate, stderr) by ``rng.estimate``, with the hit count as both
    totals (a hit is its own square): stderr 0 when no run hits, or all do.
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
        x1 = p * top_order_stats(n, 1, rng, r)[0]
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

    hits = sum(map_batches(seed, "ystar-mc", N, block, width))
    return estimate(hits, hits, N)


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
    ``XL`` and ``XB``, themselves samplers, compute in four arrays of their
    size: a block holds about ``BLOCK`` floats. The block is sorted in place,
    so a sampler must return a fresh array, and its counts at or below the
    grid are added up as integers. Sampler B is first called for zero draws, so
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
