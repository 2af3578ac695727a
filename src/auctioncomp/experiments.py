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
because it is the independent check of the closed form ``ystar_tail``.

Dominance between two samplers is decided empirically on a uniform probe
grid with a two-sided DKW allowance. Every Monte Carlo loop here runs through
``rng.map_batches``, and the hit-rate estimators share one binomial stderr.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .rng import hit_rate, map_batches

__all__ = [
    "DominanceReport",
    "sample_xs",
    "sample_w",
    "sample_xb",
    "sample_xl",
    "sample_xl_prime",
    "ystar_tail",
    "ystar_conditional_mc",
    "dominance_test",
    "prop_key_conditional",
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
    top = kth = rng.random(size) ** (1.0 / n)
    for j in range(1, k):
        kth = kth * rng.random(size) ** (1.0 / (n - j))
    return top, kth


def sample_xs(n: int, c: int, rng: np.random.Generator, size: int) -> np.ndarray:
    """Max of n + c i.i.d. uniforms."""
    if n + c < 1:
        raise ValueError("need n + c >= 1")
    return rng.random(size) ** (1.0 / (n + c))


def sample_w(n: int, ell: int, rng: np.random.Generator, size: int):
    """Draw (W_{ell,n}, X_(1), X_(ell)); W is uniform on [X_(ell), 1]."""
    if not 1 <= ell <= n:
        raise ValueError("need 1 <= ell <= n")
    x1, xl = top_order_stats(n, ell, rng, size)
    w = xl + rng.random(size) * (1.0 - xl)
    return w, x1, xl


def sample_xb(n: int, ell: int, rng: np.random.Generator, size: int) -> np.ndarray:
    """X_B(n, ell) = max(X_(1), W_{ell,n})."""
    if not 2 <= ell <= n:
        raise ValueError("need 2 <= ell <= n")
    w, x1, _ = sample_w(n, ell, rng, size)
    return np.maximum(x1, w)


def _pick_exceeder(y: np.ndarray, x1: np.ndarray, rng: np.random.Generator):
    """Uniformly random element of {y_j : y_j > x1} per row.

    Returns (chosen, any_exceed); ``chosen`` is undefined where none exceed.
    A uniform rank r < k among the k exceeders is drawn, and the exceeder
    whose running count first passes r is taken.
    """
    exceed = y > x1[:, None]
    # the narrowest integer that holds a row's count keeps the scan cheap
    running = np.cumsum(exceed, axis=1, dtype=np.min_scalar_type(y.shape[1]))
    k = running[:, -1]
    rank = (rng.random(len(x1)) * np.maximum(k, 1)).astype(running.dtype)
    idx = np.argmax(running > rank[:, None], axis=1)
    chosen = y[np.arange(len(x1)), idx]
    return chosen, k > 0


def _top_or_exceeder(x1: np.ndarray, m: int, rng: np.random.Generator) -> np.ndarray:
    """X'_L given X_(1) = x1, from two uniforms per row (see ``sample_xl_prime``).

    m = 1 has no item draws and consumes no randomness.
    """
    if m == 1:
        return x1
    has = rng.random(len(x1)) >= x1 ** (m - 1)
    chosen = x1 + rng.random(len(x1)) * (1.0 - x1)
    return np.where(has, chosen, x1)


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
    x1, x2 = top_order_stats(n, 2, rng, size)
    w2 = x2 + rng.random(size) * (1.0 - x2)
    return np.maximum(_top_or_exceeder(x1, m, rng), w2)


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
    """
    if not 0 < p < 1:
        raise ValueError("p must lie in (0, 1)")
    if m < 2:
        raise ValueError("need m >= 2")

    def batch(rng, b):
        x1 = p * rng.random(b) ** (1.0 / n)
        chosen, has = _pick_exceeder(rng.random((b, m - 1)), x1, rng)
        return int(np.count_nonzero(has & (chosen > p)))

    return hit_rate(sum(map_batches(seed, "ystar-mc", N, batch, m - 1)), N)


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
        return float(np.max(self.cdf_a - self.cdf_b))


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

    Each sampler runs over its own batches (``rng.map_batches``, labels
    ``dom-a`` and ``dom-b``); the per-batch counts are summed, so they do not
    depend on how batches are scheduled, and one sampler's batch is alive at
    a time. Sampler B is first called for zero draws, so its argument checks
    fire before sampler A's pass rather than after it.
    """
    if N < 10_000:
        raise ValueError("need N >= 10^4 for a meaningful DKW band")
    if not 0 < delta < 1:
        raise ValueError("delta must lie in (0, 1)")
    grid = np.arange(1, grid_size + 1) / (grid_size + 1)

    def cdf(sampler, label):
        counts = map_batches(
            seed, label, N, lambda rng, b: np.searchsorted(np.sort(sampler(rng, b)), grid, "right")
        )
        return sum(counts) / N

    sampler_b(np.random.default_rng(0), 0)  # draws nothing; only its checks run
    cdf_a = cdf(sampler_a, "dom-a")
    cdf_b = cdf(sampler_b, "dom-b")
    eps = dkw_epsilon(N, delta)
    dominates = bool(np.all(cdf_a <= cdf_b + 2 * eps))
    return DominanceReport(grid=grid, cdf_a=cdf_a, cdf_b=cdf_b, epsilon=eps, dominates=dominates)


def prop_key_conditional(n: int, ell: int, c: int, p: float, N: int, seed: int):
    """Compare Pr[Z_(1),c > p | X_(1),n < p] with Pr[W_{ell,n} > p | X_(1),n < p].

    The left side is analytic (1 - p^c, independence). The right side is
    estimated by sampling the conditional law directly: given X_(1),n < p the
    draws are i.i.d. uniform on [0, p]. Returns (lhs, rhs, (0, stderr_rhs)).
    """
    if not 0 < p < 1:
        raise ValueError("p must lie in (0, 1)")
    if p**n < 1e-4:
        raise ValueError("conditioning event too rare (p^n < 1e-4)")
    if not 2 <= ell <= n:
        raise ValueError("need 2 <= ell <= n")
    lhs = 1.0 - p**c

    def batch(rng, b):
        xl = p * top_order_stats(n, ell, rng, b)[1]
        w = xl + rng.random(b) * (1.0 - xl)
        return int(np.count_nonzero(w > p))

    rhs, stderr = hit_rate(sum(map_batches(seed, "prop-key", N, batch)), N)
    return lhs, rhs, (0.0, stderr)
