"""Drivers reproducing the appendix-level lower-bound computations.

Each driver produces a ReproResult: a named claim, the computed and target
values, the tolerance used, and a verdict. Asymptotic statements are realized
as finite-parameter identity checks (the proofs' intermediate formulas) plus
monotone trend checks; the limits themselves are not desk-verifiable. Every
value with a closed form is computed exactly: the equal-revenue order
statistics and the benchmark-side values (benchmark, off-region terms, VCG)
are exact brackets of the one order-statistic rule (``revenue._order_stat``),
so their claims carry certified half-widths, not 3-sigma
noise, and the two-item sum tail and the three-tier revenue are closed forms.
Only the sequential posted-bundle revenue (``little-n-tightness``) is seeded
Monte Carlo: each of its runs walks down every bidder's top k order
statistics of the unsold items, n k uniforms a run, in blocks of a constant
number of runs.

The registry at the bottom maps claim identifiers to self-contained drivers
used by the ``reproduce`` CLI subcommand.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, replace

from .benchmark import _region_score_cdf, efftw_bound
from .distributions import ProductDist, TruncatedEqualRevenue
from .revenue import (
    Bracket,
    _order_stat,
    er2_sum_tail,
    feldman_params,
    feldman_posted_price,
    three_tier_params,
    three_tier_revenue,
    vcg,
)
from .rng import substream

__all__ = [
    "ReproResult",
    "er_order_stat",
    "er_offregion_items",
    "er_benchmark_decomposition",
    "bign_tightness",
    "two_item_sum_tail",
    "appendix_b_revenue",
    "little_n_tightness",
    "CLAIMS",
    "run_claim",
    "run_all",
]


@dataclass(frozen=True)
class ReproResult:
    """Outcome of one reproduction driver."""

    name: str
    computed: float
    target: float
    tolerance: float
    passed: bool
    runtime: float = 0.0  # wall seconds, set by run_claim; never in the artifact
    details: dict = field(default_factory=dict)


def er_order_stat(x: int, y: int, p: float = 1e4) -> Bracket:
    """E[x-th highest of y i.i.d. ER(p) draws], exact; the untruncated mean is y/(x-1).

    The x-th highest is below t iff fewer than x draws exceed t, so its CDF
    is Pr[Bin(y, 1 - F(t)) < x], the order-statistic rule at rank x
    (``revenue._order_stat``). The highest draw has infinite untruncated
    mean (rejected).
    """
    if x == 1:
        raise ValueError("the highest equal-revenue draw has infinite expectation")
    if not 2 <= x <= y:
        raise ValueError("need 2 <= x <= y")
    d = TruncatedEqualRevenue(p)
    return _order_stat(d, y, d.cdf, k=x)


def er_offregion_items(n: int, m: int, p: float) -> list[Bracket]:
    """Per-item E[max_i v_ij * I(bidder i not in region j)] on ER(p)^m, exact.

    The off-region term is the highest of n benchmark scores with 0 as the
    region term (psi = 1 on t >= 0). The items are i.i.d., so all m
    brackets are one.
    """
    d = TruncatedEqualRevenue(p)
    return [_order_stat(d, n, _region_score_cdf(d, m, lambda t: (t >= 0).astype(float)))] * m


def er_benchmark_decomposition(n: int, m: int, p: float):
    """(benchmark, nm + off-region sum, relative gap) for ER(p)^m; the
    first two are brackets, the gap is of their midpoints.

    The benchmark decomposes, as p grows, into n*m (the in-region virtual
    contribution) plus the sum over items of the off-region expected maximum;
    the benchmark falls short of it by about 2.54/p relative.
    """
    if n < 1 or m < 1:
        raise ValueError("need n >= 1, m >= 1")
    pd = ProductDist(tuple(TruncatedEqualRevenue(p) for _ in range(m)))
    bench = efftw_bound(pd, n, N=0)  # N=0 for the tracer (README, "Pinned by `bench/`")
    approx = sum(er_offregion_items(n, m, p), Bracket.point(0.0)) + Bracket.point(n * m)
    gap = abs(bench.mid - approx.mid) / max(abs(bench.mid), 1e-12)
    return bench, approx, gap


def bign_tightness(n: int, m: int, c: int, p: float = 1e4) -> ReproResult:
    """Check that VCG with c extra bidders covers the benchmark on ER(p)^m.

    Both are exact brackets, so the claim passes unless they refute
    benchmark <= VCG_{n+c} (``Bracket.le``): the tolerance is the sum of the
    two half-widths, which the details report. At (n, m, p) =
    (4096, 4, 1e4), VCG_{n+c} first covers the benchmark at c = 139.
    """
    if n < 4 * m:
        raise ValueError("need n >= 4m")
    pd = ProductDist(tuple(TruncatedEqualRevenue(p) for _ in range(m)))
    vcg_c = vcg(pd, n + c)
    bench = efftw_bound(pd, n, N=0)  # N=0 for the tracer (README, "Pinned by `bench/`")
    return ReproResult(
        name=f"bign-tightness-n{n}-m{m}-c{c}",
        computed=vcg_c.mid,
        target=bench.mid,
        tolerance=vcg_c.half + bench.half,
        passed=bench.le(vcg_c) is not False,
        details={"benchmark_half": bench.half, "vcg_half": vcg_c.half},
    )


def two_item_sum_tail(q: float) -> float:
    """Closed-form Pr[v1 + v2 >= 2q] for two untruncated equal-revenue draws.

    Equals 2/(2q-1) + ((q - 1/2) ln(2q-1) - q) / (q^2 (2q-1)).
    """
    if q <= 1:
        raise ValueError("need q > 1")
    t = 2.0 * q
    return 2.0 / (t - 1.0) + ((q - 0.5) * math.log(t - 1.0) - q) / (q**2 * (t - 1.0))


def appendix_b_revenue(n: int) -> ReproResult:
    """Exact three-tier revenue at q = sqrt(n), p = 10^8 against 2n(1 - 1/k) + 2q.

    The computed value is the exact expectation (``three_tier_revenue``). The
    target drops the second-order binomial terms of the high tier, so the
    tolerance is their size, p * (n * p_high)^2. The surplus over 2n is
    reported against ln(n)/10 but not asserted (that comparison is asymptotic).
    """
    if n < 10_000:
        raise ValueError("need n >= 10^4 so q = sqrt(n) >= 100")
    q = math.sqrt(n)
    p = 1e8
    exact = three_tier_revenue(n, q, p)
    params = three_tier_params(n, q, p)
    k = params["k"]
    return _within(
        f"appendix-b-revenue-n{n}", Bracket.point(exact), Bracket.point(2.0 * n * (1.0 - 1.0 / k) + 2.0 * q),
        p * (n * params["p_high"]) ** 2,
        k=k, surplus_over_2n=exact - 2.0 * n, log_n_over_10=math.log(n) / 10.0,
    )


def little_n_tightness(n: int, m: int, N: int, seed: int, p: float = 1e4) -> ReproResult:
    """Sequential posted-bundle revenue and the number of extra VCG bidders it implies.

    Reports the c at which m*(n+c) matches the mechanism revenue (each extra
    VCG bidder on ER^m is worth m); report-only, the hard assertion is the
    trivial cap revenue <= n * price. The revenue is the Monte Carlo mean of
    ``feldman_posted_price`` over N runs, each of which draws the top k =
    m//(4n) order statistics of every bidder's values on the unsold items,
    never all n m values.
    """
    _, price = feldman_params(n, m)
    mean, stderr = feldman_posted_price(n, m, N, seed, p=p)
    cap = n * price
    return ReproResult(
        name=f"little-n-tightness-n{n}-m{m}",
        computed=mean,
        target=cap,
        tolerance=0.0,
        passed=bool(mean <= cap + 1e-9),
        # raw (possibly negative) so the growth trend in m stays visible
        details={"implied_min_c": mean / m - n, "price": price, "stderr": stderr},
    )


# ---------------------------------------------------------------------------
# Claim registry for the `reproduce` subcommand
# ---------------------------------------------------------------------------


def _within(name: str, computed: Bracket, target: Bracket, slack: float, **details) -> ReproResult:
    """computed = target up to ``slack``: it passes unless the brackets
    refute it, that is unless computed widened by slack on each side lies
    wholly above or wholly below target (``Bracket.le`` reads False). The
    row reports the midpoints, and slack plus the two half-widths."""
    wide = computed + Bracket(-slack, slack)
    return ReproResult(
        name=name,
        computed=computed.mid,
        target=target.mid,
        tolerance=slack + computed.half + target.half,
        passed=wide.le(target) is not False and target.le(wide) is not False,
        details=details,
    )


def _claim_er_order(x: int, y: int, p: float):
    def run(seed: int) -> ReproResult:
        est = er_order_stat(x, y, p=p)
        # truncation at p lowers the mean by at most the integral over s > p
        # of Pr[X_(x) > s] <= C(y, x) s^-x for the untruncated draws
        bias = math.comb(y, x) * p ** (1 - x) / (x - 1)
        return _within(f"er-order-stat-{x}-{y}", est, Bracket.point(y / (x - 1)), bias, half=est.half)
    return run


def _claim_decomposition(seed: int) -> ReproResult:
    # the exact relative gap is 2.54/p, so 3/p sits 18% above the effect; with
    # the two certified half-widths added, |gap| / tolerance reads 0.76
    p = 1e4
    bench, approx, gap = er_benchmark_decomposition(4, 2, p=p)
    return _within("er-benchmark-decomposition-n4-m2", bench, approx, 3.0 * bench.mid / p, relative_gap=gap)


def _claim_sum_tail(seed: int) -> ReproResult:
    # the three-tier mechanism's tail, 2/t + 2 ln(t - 1)/t^2 at t = 2q,
    # against the paper's printed form; only rounding separates the two
    q = 5.0
    target = Bracket.point(two_item_sum_tail(q))
    computed = Bracket.point(er2_sum_tail(2.0 * q))
    return _within(f"two-item-sum-tail-q{q:g}", computed, target, 1e-12 * target.mid)


CLAIMS = {
    "er-order-stat-4-12": _claim_er_order(4, 12, 1e6),
    "er-order-stat-12-12": _claim_er_order(12, 12, 1e6),
    "er-benchmark-decomposition": _claim_decomposition,
    "bign-tightness": lambda seed: bign_tightness(16, 4, 9),
    "two-item-sum-tail": _claim_sum_tail,
    "appendix-b-revenue": lambda seed: appendix_b_revenue(10_000),
    "little-n-tightness": lambda seed: little_n_tightness(2, 64, 20_000, seed),
}


def run_claim(name: str, seed: int) -> ReproResult:
    """Run one registered claim; the only place a claim's runtime is measured."""
    if name not in CLAIMS:
        raise KeyError(f"unknown claim {name!r}; known: {', '.join(sorted(CLAIMS))}")
    start = time.perf_counter()
    result = CLAIMS[name](seed)
    return replace(result, runtime=time.perf_counter() - start)


def run_all(seed: int) -> list[ReproResult]:
    """Run every registered claim with an isolated per-claim seed."""
    return [
        run_claim(name, int(substream(seed, "claim", name).integers(2**63)))
        for name in sorted(CLAIMS)
    ]
