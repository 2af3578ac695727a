"""Single-variate value distributions.

Each distribution exposes an exact CDF and the generalized inverse CDF
(``quantile``). A value drawn as ``quantile(U)`` for a uniform U is coupled
with its quantile U: at point masses U lies in ``[Pr[X < x], Pr[X <= x]]``,
so quantiles are randomized at atoms and stay uniform on [0, 1].

Supported kinds: uniform, exponential, equal-revenue truncated at p (CDF
1 - 1/x on [1, p) with an atom of mass 1/p at p), and finite discrete, of
which a point mass (``point:v``) is the one-atom case. Instances are
immutable and safe to share across threads.

An equal-revenue item also integrates a score in closed form
(``TruncatedEqualRevenue.exact_score_mean``): below p its score CDF is a
polynomial in F = 1 - 1/t, whose integral Python integers give exactly
(``_Poly``, up to a size cap), with ln p bracketed by a series.

Each kind also carries its ironed Myerson virtual value in quantile space,
``phi_bar(u)``, and ``psi(t)``, the CDF of phi_bar(U)^+ for a uniform U,
which the exact revenue and benchmark integrals read. Kinds with a density
are regular in closed form: phi_bar is their nondecreasing raw virtual
value v - (1 - F(v)) / f(v) at v = Q(u), and psi inverts it. A finite
discrete kind has a revenue curve R(u) = (1 - u) * Q(u) that is linear
between its breakpoints, so its least concave majorant is the hull of the
corners {0, interior breakpoints, 1}, built once by the constructor, and
phi_bar is the (negated) slope of the hull's segments: a step function with
at most one level per atom, ``levels[searchsorted(knots, u, "right")]``.
Corners are deduplicated by ``_sorted_distinct``, not ``np.unique``, whose
first call imports all of ``numpy.ma``.

``ProductDist.sample_profiles`` returns valuation profiles item-major, with
shape (m, n_bidders, n_profiles): each item's (bidder, profile) slab is
contiguous, so per-item work and reductions over bidders run on whole rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from types import SimpleNamespace

import numpy as np

__all__ = [
    "SingleDist",
    "Uniform",
    "Exponential",
    "TruncatedEqualRevenue",
    "FiniteDiscrete",
    "ProductDist",
    "parse_dist",
]

_PROB_TOL = 1e-12
REGULARITY_TOL = 1e-9

_NO_STEPS = np.empty(0)
_NO_STEPS.flags.writeable = False


def _need_finite(*params) -> None:
    """Reject a NaN or infinite distribution parameter."""
    if not all(math.isfinite(x) for x in params):
        raise ValueError("distribution parameters must be finite")


class SingleDist:
    """Base class for one-dimensional value distributions.

    ``knots`` and ``levels`` are the steps of phi_bar, read-only, and
    ``regular`` says whether the revenue curve is concave; a kind with a
    density has no steps and is regular.
    """

    support_lo: float
    support_hi: float
    knots = levels = _NO_STEPS
    regular = True

    def cdf(self, x):
        """Pr[X <= x]; clamps to 0/1 outside the support."""
        raise NotImplementedError

    def quantile(self, q):
        """Generalized inverse: inf{x : cdf(x) >= q}. Requires q in [0, 1]."""
        q = np.asarray(q, dtype=float)
        # min and max propagate NaN, which then fails both comparisons
        if q.size and not (q.min() >= 0 and q.max() <= 1):
            raise ValueError("quantile argument must lie in [0, 1]")
        return self._quantile(q)

    def _quantile(self, q):
        raise NotImplementedError

    def phi_bar(self, u):
        """Ironed virtual value of the value at quantile u."""
        raise NotImplementedError

    def psi(self, t):
        """sup{u : phi_bar(u)^+ <= t}, the CDF of phi_bar(U)^+ for uniform U."""
        t = np.asarray(t, dtype=float)
        return np.where(t < 0, 0.0, self._psi(t))

    def _psi(self, t):
        raise NotImplementedError

    def tail_integral(self, t: float) -> float:
        """Integral of Pr[X > s] over s >= t; unbounded kinds override it."""
        return 0.0 if t >= self.support_hi else math.inf

    def exact_score_mean(self, H, psi: str):
        """E[S] as a (lo, hi) pair of floats around its exact value, for a
        score S >= 0 with CDF H(x) at t, where x.F = F(t), x.psi = psi(t),
        the item's own ("item") or 1 on t >= 0 ("step"), and x.upper =
        max(F, psi); None where the kind has no exact form, and the caller
        walks the score grid (``revenue._order_stat``)."""
        return None

    def quantile_breakpoints(self):
        """Where the quantile jumps: Pr[X < a] for each atom a above support_lo."""
        return np.array([])

    def spec(self) -> str:
        raise NotImplementedError

    def __repr__(self):  # pragma: no cover
        return self.spec()


@dataclass(frozen=True)
class Uniform(SingleDist):
    lo: float
    hi: float

    def __post_init__(self):
        _need_finite(self.lo, self.hi)
        if not self.hi > self.lo:
            raise ValueError("uniform needs hi > lo")
        # the virtual value 2v - hi, at v = lo and at v = hi, and so hi - lo
        if not (math.isfinite(2.0 * self.lo - self.hi) and math.isfinite(2.0 * self.hi)):
            raise ValueError("uniform's virtual value 2v - hi overflows on [lo, hi]")
        object.__setattr__(self, "support_lo", self.lo)
        object.__setattr__(self, "support_hi", self.hi)

    def cdf(self, x):
        x = np.asarray(x, dtype=float)
        return np.clip((x - self.lo) / (self.hi - self.lo), 0.0, 1.0)

    def _quantile(self, q):
        return self.lo + q * (self.hi - self.lo)

    def phi_bar(self, u):
        return 2.0 * self.quantile(u) - self.hi

    def _psi(self, t):
        return self.cdf((t + self.hi) / 2.0)

    def spec(self):
        return f"uniform:{_fmt(self.lo)},{_fmt(self.hi)}"


@dataclass(frozen=True)
class Exponential(SingleDist):
    rate: float

    def __post_init__(self):
        _need_finite(self.rate)
        if not self.rate > 0:
            raise ValueError("exponential rate must be positive")
        # the exact integrals read Q(1 - 2^-53) = 53 ln(2) / rate
        if not math.isfinite(53.0 * math.log(2.0) / self.rate):
            raise ValueError("exponential rate too small: 53 ln(2) / rate overflows")
        object.__setattr__(self, "support_lo", 0.0)
        object.__setattr__(self, "support_hi", math.inf)

    def cdf(self, x):
        x = np.asarray(x, dtype=float)
        return np.where(x <= 0, 0.0, -np.expm1(-self.rate * np.maximum(x, 0)))

    def _quantile(self, q):
        with np.errstate(divide="ignore"):
            return -np.log1p(-q) / self.rate

    def phi_bar(self, u):
        return self.quantile(u) - 1.0 / self.rate

    def _psi(self, t):
        return self.cdf(t + 1.0 / self.rate)

    def tail_integral(self, t: float) -> float:  # for t >= 0
        return math.exp(-self.rate * t) / self.rate

    def spec(self):
        return f"exp:{_fmt(self.rate)}"


@dataclass(frozen=True)
class TruncatedEqualRevenue(SingleDist):
    """Equal-revenue curve truncated at p: CDF 1 - 1/x on [1, p), atom 1/p at
    p, which the quantile jumps to at 1 - 1/p. From p = 2^54 on that rounds
    to 1 and no quantile reaches the atom, so such p is rejected."""

    p: float

    def __post_init__(self):
        _need_finite(self.p)
        if not self.p >= 1:
            raise ValueError("truncation point must be >= 1")
        object.__setattr__(self, "_jump", 1.0 - 1.0 / self.p)
        if self._jump == 1.0:
            raise ValueError("truncation point too large: 1 - 1/p rounds to 1 (need p < 2^54)")
        object.__setattr__(self, "support_lo", 1.0)
        object.__setattr__(self, "support_hi", self.p)

    def cdf(self, x):
        x = np.asarray(x, dtype=float)
        out = np.where(x < 1, 0.0, 1.0 - 1.0 / np.maximum(x, 1.0))
        return np.where(x >= self.p, 1.0, out)

    def _quantile(self, q):
        with np.errstate(divide="ignore"):
            body = 1.0 / (1.0 - np.minimum(q, self._jump))
        return np.where(q > self._jump, self.p, np.minimum(body, self.p))

    def phi_bar(self, u):
        # 0 on the continuous part, p at the truncation atom
        return np.where(self.quantile(u) >= self.p, self.p, 0.0)

    def _psi(self, t):
        return np.where(t >= self.p, 1.0, np.where(t >= 0, self._jump, 0.0))

    def exact_score_mean(self, H, psi: str):
        """E[S] in Python integers while n and the degree of H in F stay
        within ``_EXACT_DEGREE``, else None. psi is constant below p,
        c = 1 - 1/p (exact, from p's integer ratio a/b) or 1, so H is the
        constant H(0, c) on [0, 1), H(1 - w, c) at w = 1/t on [1, p) and 1
        past p; F = 1 - 1/t < 1 - 1/p <= c there, so max(F, psi) reads c.
        With 1 - H(1 - w, c) = sum_j r_j w^j,

            E[S] = 1 - H(0, c) + r_0 (p - 1) + r_1 ln p
                   + sum_{j >= 2} r_j (1 - p^(1 - j)) / (j - 1),

        all over one common denominator; ln p is bracketed by a series
        in integers (``_log_bracket``), and each end is rounded outward."""
        a, b = self.p.as_integer_ratio()
        s = _Poly([a - b], a) if psi == "item" else _Poly([1])
        try:
            body, below = (H(SimpleNamespace(F=F, psi=s, upper=s)) for F in (_Poly([1, -1]), _Poly([0])))
        except _TooLarge:
            return None
        h, D = body.num, body.den
        J = len(h) - 1
        L = math.lcm(*range(1, J))  # over every 1/(j - 1)
        apow, bpow = [a**i for i in range(J)] or [1], [b**i for i in range(J)]
        # the rational terms over D b L a^(J - 1)
        num = (D - h[0]) * (a - b) * L * apow[-1]
        for j in range(2, J + 1):
            num -= h[j] * b * (L // (j - 1)) * (apow[j - 1] - bpow[j - 1]) * apow[J - j]
        den = D * b * L * apow[-1]
        num, den = num * below.den + (below.den - below.num[0]) * den, den * below.den
        # r_1 ln p, r_1 = r1 / D, with ln p in [lo/d, hi/d] to about
        # 2^-70 / |r_1|, each end taken where it moves the value outward
        r1 = -h[1] if J else 0
        lo, hi, d = _log_bracket(self.p, (70 + (abs(r1) // D).bit_length()) // 3 + 1) if r1 else (0, 0, 1)
        if r1 < 0:
            lo, hi = hi, lo
        return tuple(_rounded(num * D * d + r1 * log * den, den * D * d, up) for log, up in ((lo, False), (hi, True)))

    def quantile_breakpoints(self):
        return np.array([self._jump])

    def spec(self):
        return f"er:p={_fmt(self.p)}"


@dataclass(frozen=True)
class FiniteDiscrete(SingleDist):
    values: tuple = field()
    probs: tuple = field()

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        pr = np.asarray(self.probs, dtype=float)
        if vals.ndim != 1 or pr.shape != vals.shape or vals.size == 0:
            raise ValueError("values and probs must be equal-length 1-d sequences")
        _need_finite(*vals, *pr)
        # so the span of the values, and the two ends of a bracket, add without overflow
        if not math.isfinite(2.0 * max(map(abs, vals.tolist()))):
            raise ValueError("discrete values need 2 max |v| finite")
        if np.any(np.diff(vals) <= 0):
            raise ValueError("values must be strictly ascending")
        if np.any(pr < 0) or abs(pr.sum() - 1.0) > _PROB_TOL:
            raise ValueError("probs must be nonnegative and sum to 1")
        object.__setattr__(self, "values", tuple(vals))
        object.__setattr__(self, "probs", tuple(pr))
        object.__setattr__(self, "_vals", vals)
        object.__setattr__(self, "_cum", np.cumsum(pr))
        # the atoms with mass: a top atom of mass 0 made tail_integral infinite
        held = np.flatnonzero(pr > 0)
        object.__setattr__(self, "_held", (held[0], held[-1]))
        object.__setattr__(self, "support_lo", float(vals[held[0]]))
        object.__setattr__(self, "support_hi", float(vals[held[-1]]))
        self._hull()

    def _hull(self) -> None:
        """Set ``knots``, ``levels`` and ``regular`` from the hull of the
        revenue corners; reject a hull slope that overflows."""
        bps = self.quantile_breakpoints()
        corners = _sorted_distinct(np.concatenate([[0.0, 1.0], bps[(bps > 0) & (bps < 1)]]))
        # the quantile read right-continuously: at a breakpoint the revenue point
        # is the upper corner of the jump, the one the hull must see
        revenue = (1.0 - corners) * self.quantile(np.nextafter(corners, 1.0))

        hull_idx = _upper_concave_envelope(corners, revenue)
        hull_u, hull_r = corners[hull_idx], revenue[hull_idx]
        regular = bool(np.max(np.interp(corners, hull_u, hull_r) - revenue) <= REGULARITY_TOL)

        # one slope per hull segment; bit-equal neighbours are one step
        with np.errstate(over="ignore"):  # an overflow is rejected below
            slopes = np.maximum.accumulate(-np.diff(hull_r) / np.diff(hull_u))  # absorb fp noise only
        if not np.isfinite(slopes).all():
            raise ValueError(f"ironing {self.spec()} overflows: a hull slope is not finite")
        bits = slopes.view(np.int64)
        change = np.flatnonzero(bits[1:] != bits[:-1]) + 1
        knots = hull_u[change]
        levels = np.concatenate([slopes[:1], slopes[change]])
        knots.flags.writeable = False
        levels.flags.writeable = False
        object.__setattr__(self, "knots", knots)
        object.__setattr__(self, "levels", levels)
        object.__setattr__(self, "regular", regular)

    def cdf(self, x):
        x = np.asarray(x, dtype=float)
        idx = np.searchsorted(self._vals, x, side="right")
        cum = np.concatenate([[0.0], self._cum])
        return cum[idx]

    def _quantile(self, q):
        # Right-continuous inverse; ties broken toward the smaller value.
        idx = np.searchsorted(self._cum, q, side="left")
        return self._vals[np.clip(idx, *self._held)]

    def phi_bar(self, u):
        return self.levels[np.searchsorted(self.knots, np.asarray(u, dtype=float), side="right")]

    def _psi(self, t):
        edges = np.concatenate([[0.0], self.knots, [1.0]])
        return edges[np.searchsorted(self.levels, t, side="right")]

    def quantile_breakpoints(self):
        # the atoms with mass above the lowest: an atom of mass 0 is no value
        held = np.flatnonzero(np.asarray(self.probs) > 0)
        return self._cum[held[1:] - 1]

    def spec(self):
        v = ",".join(_fmt(x) for x in self.values)
        p = ",".join(_fmt(x) for x in self.probs)
        return f"discrete:v={v};p={p}"


@dataclass(frozen=True)
class ProductDist:
    """An ordered list of item marginals; bidder values are independent across items."""

    marginals: tuple

    def __post_init__(self):
        marg = tuple(self.marginals)
        if len(marg) == 0:
            raise ValueError("need at least one marginal")
        object.__setattr__(self, "marginals", marg)

    @property
    def m(self) -> int:
        return len(self.marginals)

    def sample_profiles(self, rng: np.random.Generator, n_bidders: int, n_profiles: int):
        """Draw coupled valuation profiles, item-major.

        Returns (values, quantiles), each of shape (m, n_bidders, n_profiles)
        and C-contiguous. One shared uniform per (bidder, item) cell provides
        both the value and the randomized quantile at atoms. The uniforms are
        drawn profile-major, as an (n_profiles, n_bidders, m) block, and then
        transposed, so a cell's uniform does not depend on the layout.
        """
        q = np.ascontiguousarray(rng.random((n_profiles, n_bidders, self.m)).transpose(2, 1, 0))
        v = np.empty_like(q)
        for j, d in enumerate(self.marginals):
            v[j] = d.quantile(q[j])
        return v, q


def _sorted_distinct(x: np.ndarray) -> np.ndarray:
    """The sorted distinct values of a NaN-free x, as ``np.unique`` gives
    them, without the import of ``numpy.ma`` that ``np.unique`` makes."""
    x = np.sort(x)
    if x.size:
        x = x[np.concatenate([[True], x[1:] != x[:-1]])]
    return x


# The exact score path's size cap: no product of degree above it, and no
# power x**e with e * max(deg x, 1) above it, so n and the degree of H in F
# stay within it. Set by measurement: up to 32 the integers cost at most
# half the grid walk for every p (a 53-bit a in p = a/b is the worst case);
# at 64 the benchmark's score on 4 items at n = 16 costs 2-3 walks.
_EXACT_DEGREE = 32


class _TooLarge(Exception):
    """A polynomial of the exact score path would pass ``_EXACT_DEGREE``."""


class _Poly:
    """A polynomial in w with rational coefficients, held as Python ints
    over one denominator: sum_j num[j] w^j / den, den > 0. It takes the
    arithmetic a score rule writes (+, - and * with ints or polynomials,
    / by a positive int, ** by an int), and raises ``_TooLarge`` before a product or power passes
    ``_EXACT_DEGREE``."""

    __slots__ = ("num", "den")

    def __init__(self, num: list, den: int = 1):
        while len(num) > 1 and not num[-1]:
            num = num[:-1]
        self.num, self.den = num, den

    @staticmethod
    def of(x) -> "_Poly":
        if isinstance(x, _Poly):
            return x
        n, d = x.as_integer_ratio()
        return _Poly([n], d)

    def __add__(self, other):
        other = _Poly.of(other)
        g = math.gcd(self.den, other.den)
        x, y = other.den // g, self.den // g
        out = [c * x for c in self.num] + [0] * (len(other.num) - len(self.num))
        for i, c in enumerate(other.num):
            out[i] += c * y
        return _Poly(out, self.den * x)

    __radd__ = __add__

    def __neg__(self):
        return _Poly([-c for c in self.num], self.den)

    def __sub__(self, other):
        return self + -_Poly.of(other)

    def __rsub__(self, other):
        return _Poly.of(other) + -self

    def __mul__(self, other):
        other = _Poly.of(other)
        if len(self.num) + len(other.num) - 2 > _EXACT_DEGREE:
            raise _TooLarge
        out = [0] * (len(self.num) + len(other.num) - 1)
        for i, c in enumerate(self.num):
            for j, e in enumerate(other.num):
                out[i + j] += c * e
        return _Poly(out, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, k: int):
        return _Poly(self.num, self.den * k)

    def __pow__(self, e: int):
        if e * max(len(self.num) - 1, 1) > _EXACT_DEGREE:
            raise _TooLarge
        out, base = _Poly([1]), self
        while e:
            if e & 1:
                out = out * base
            e >>= 1
            if e:
                base = base * base
        return out


def _log_bracket(p: float, N: int) -> tuple[int, int, int]:
    """Integers lo, hi and d > 0 with lo/d <= ln p <= hi/d, hi - lo at most
    2 (k + 1) 9^-N d: p = 2^k r with r in [1, 2), and ln p = k ln 2 + ln r,
    each log 2 atanh(z) (z = (r - 1)/(r + 1) < 1/3, and 1/3 for ln 2),
    summed exactly to N terms; the tail of each sum lies below 9^-N."""
    a, b = p.as_integer_ratio()
    k = a.bit_length() - b.bit_length()
    if a < b << k:
        k -= 1
    b <<= k  # r = a/b

    def atanh(u, v):  # sum_{i < N} (u/v)^(2i+1) / (2i+1), as (numerator, denominator)
        L = math.lcm(*range(1, 2 * N, 2))
        return sum(u ** (2 * i + 1) * v ** (2 * (N - i) - 2) * (L // (2 * i + 1)) for i in range(N)), L * v ** (2 * N - 1)

    n2, d2 = atanh(1, 3)
    nr, dr = atanh(a - b, a + b)
    lo = 2 * (k * n2 * dr + nr * d2) * 9**N
    return lo, lo + 2 * (k + 1) * d2 * dr, d2 * dr * 9**N


def _rounded(num: int, den: int, up: bool) -> float:
    """The float at or above num/den (up) or at or below it, den > 0: the
    nearest float (int division rounds correctly), moved one step where it
    lies on the wrong side."""
    x = num / den
    xn, xd = x.as_integer_ratio()
    side = xn * den - num * xd  # the sign of x - num/den
    if (side < 0) if up else (side > 0):
        return math.nextafter(x, math.inf if up else -math.inf)
    return x


def _upper_concave_envelope(u: np.ndarray, r: np.ndarray) -> list[int]:
    """Indices of the vertices of the least concave majorant of (u, r).

    Runs over Python floats: the same IEEE-754 double arithmetic as numpy
    scalars, without the cost of indexing an array one element at a time.
    """
    u, r = u.tolist(), r.tolist()
    hull: list[int] = []
    for i, (ui, ri) in enumerate(zip(u, r)):
        while len(hull) >= 2:
            i0, i1 = hull[-2], hull[-1]
            # drop i1 if it lies (weakly) below chord i0 -> i
            cross = (u[i1] - u[i0]) * (ri - r[i0]) - (ui - u[i0]) * (r[i1] - r[i0])
            if cross >= 0:
                hull.pop()
            else:
                break
        hull.append(i)
    return hull


def _fmt(x) -> str:
    x = float(x)
    if x == int(x) and abs(x) < 1e15:
        return str(int(x))
    return repr(x)


def parse_dist(spec: str) -> SingleDist:
    """Parse a compact distribution spec string.

    Grammar: ``uniform:0,1``, ``er:p=10000``, ``exp:1``,
    ``discrete:v=1,2;p=0.5,0.5`` (the keys v and p, once each), and ``point:5``,
    which is ``discrete:v=5;p=1``.
    """
    spec = spec.strip()
    try:
        kind, _, arg = spec.partition(":")
        kind = kind.lower()
        if kind == "uniform":
            lo, hi = (float(t) for t in arg.split(","))
            return Uniform(lo, hi)
        if kind == "exp":
            return Exponential(float(arg))
        if kind == "er":
            if arg.startswith("p="):
                arg = arg[2:]
            return TruncatedEqualRevenue(float(arg))
        if kind == "point":
            return FiniteDiscrete((float(arg),), (1.0,))
        if kind == "discrete":
            pairs = [tok.split("=", 1) for tok in arg.split(";")]
            keys = sorted(key for key, *_ in pairs)
            if keys != ["p", "v"]:
                raise ValueError(f"discrete takes the keys v and p once each, not {keys}")
            parts = dict(pairs)
            vals = tuple(float(t) for t in parts["v"].split(","))
            probs = tuple(float(t) for t in parts["p"].split(","))
            return FiniteDiscrete(vals, probs)
    except (ValueError, KeyError) as exc:
        raise ValueError(f"bad distribution spec {spec!r}: {exc}") from exc
    raise ValueError(f"unknown distribution kind in {spec!r}")
