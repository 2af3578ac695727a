"""Single-variate value distributions.

Each distribution exposes an exact CDF and the generalized inverse CDF
(``quantile``). A value drawn as ``quantile(U)`` for a uniform U is coupled
with its quantile U: at point masses U lies in ``[Pr[X < x], Pr[X <= x]]``,
so quantiles are randomized at atoms and stay uniform on [0, 1].

Supported kinds: uniform, exponential, equal-revenue truncated at p (CDF
1 - 1/x on [1, p) with an atom of mass 1/p at p), and finite discrete, of
which a point mass (``point:v``) is the one-atom case. Instances are
immutable and safe to share across threads.

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
        return self._cum[:-1].copy()

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
