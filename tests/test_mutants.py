"""Every registered claim must be able to fail.

Each mutant breaks one formula the claims rest on, patched at every module
binding of it (``from .revenue import vcg`` copies ``vcg`` into ``repro``,
so patching only the defining module would miss that call), or on its class
for a method such as ``XL.cdf``. The table lists, per mutant, the claims of
``run_all(42)`` that must fail; a mutant that no claim catches is listed in
``UNCOVERED``, so a change that loses coverage, or gains it, fails here
until the table says so.
"""

import importlib
import pkgutil

import pytest

import auctioncomp
from auctioncomp.experiments import XB, XL
from auctioncomp.repro import CLAIMS, run_all
from auctioncomp.revenue import er2_sum_tail, feldman_params, three_tier_params, vcg

MODULES = [importlib.import_module(f"auctioncomp.{m.name}") for m in pkgutil.iter_modules(auctioncomp.__path__)]


def _region_score_cdf_u_m(m):
    # in the region with probability u^m, not u^(m-1)
    return lambda x: x.F - x.F ** (m + 1) / (m + 1) + x.psi ** (m + 1) / (m + 1)


# the replacements call the originals, bound here before any patch
def _sum_tail_raised(t):
    return 1.01 * er2_sum_tail(t)


def _vcg_one_bidder_short(pd, n):
    return vcg(pd, n - 1)


def _three_tier_params_p_high_doubled(n, q, p):
    params = dict(three_tier_params(n, q, p))
    params["p_high"] *= 2.0
    return params


def _feldman_params_price_raised(n, m):
    bundle, price = feldman_params(n, m)
    return bundle, 1.5 * price


_XL_CDF = XL.cdf


def _xl_cdf_one_item_more(law, t):
    return _XL_CDF(XL(law.n, law.m + 1), t)


_XB_CDF = XB.cdf


def _xb_cdf_ell_one_more(law, t):
    return _XB_CDF(XB(law.n, law.ell + 1), t)


# mutant id -> (patched name, defining module, replacement, claims that fail)
MUTANTS = {
    # the benchmark and the off-region terms both move, so the decomposition
    # holds; the raised benchmark is what VCG with c extra bidders misses
    "region-u^m": ("_region_score_cdf", "benchmark", _region_score_cdf_u_m, {"bign-tightness"}),
    "sum-tail-x1.01": ("er2_sum_tail", "revenue", _sum_tail_raised,
                       {"appendix-b-revenue", "two-item-sum-tail"}),
    "vcg-n-1": ("vcg", "revenue", _vcg_one_bidder_short, {"bign-tightness"}),
    "three-tier-p_high-x2": ("three_tier_params", "revenue", _three_tier_params_p_high_doubled,
                             {"appendix-b-revenue"}),
    "posted-price-x1.5": ("feldman_params", "revenue", _feldman_params_price_raised, set()),
    "xl_cdf-m+1": ("XL.cdf", "experiments", _xl_cdf_one_item_more, set()),
    "xb_cdf-ell+1": ("XB.cdf", "experiments", _xb_cdf_ell_one_more, set()),
    # the equal-revenue closed form without its r_1 ln p term
    "er-drop-log-term": ("_log_bracket", "distributions", lambda p, N: (0, 0, 1), set()),
    # every bracket verdict reads the one comparison; the posted-bundle cap
    # is a Monte Carlo mean, not a bracket
    "bracket-le-false": ("Bracket.le", "revenue", lambda self, other: False,
                         {"appendix-b-revenue", "bign-tightness", "er-benchmark-decomposition",
                          "er-order-stat-12-12", "er-order-stat-4-12", "two-item-sum-tail"}),
}

# no registered claim reads the posted price's size or the laws of X_L and
# X_B (ROADMAP item 11's exact dominance thresholds register claims that do);
# of the equal-revenue scores only obs1's has r_1 != 0, and no claim reads
# obs1_bound (``test_revenue`` catches that mutant against its oracle)
UNCOVERED = ["posted-price-x1.5", "xl_cdf-m+1", "xb_cdf-ell+1", "er-drop-log-term"]


def _failed_claims():
    return {name for name, r in zip(sorted(CLAIMS), run_all(42)) if not r.passed}


def test_unmutated_run_passes_every_claim():
    assert _failed_claims() == set()


@pytest.mark.parametrize("mutant", list(MUTANTS))
def test_mutant_fails_exactly_its_claims(mutant, monkeypatch):
    name, home, replacement, expected = MUTANTS[mutant]
    home = importlib.import_module(f"auctioncomp.{home}")
    if "." in name:  # a method: every binding of its class shares it
        cls, method = name.split(".")
        monkeypatch.setattr(getattr(home, cls), method, replacement)
    else:
        original = getattr(home, name)
        bindings = [mod for mod in MODULES if getattr(mod, name, None) is original]
        assert bindings, name
        for mod in bindings:
            monkeypatch.setattr(mod, name, replacement)
    assert _failed_claims() == expected


def test_uncovered_mutants_are_the_recorded_ones():
    assert [m for m, row in MUTANTS.items() if not row[3]] == UNCOVERED
