"""Simulation and verification toolkit for the competition complexity of
multi-item auctions with additive bidders.

Core pieces: value distributions with exact quantiles, Myerson virtual
values with ironing, revenue estimators (exact Myerson, VCG and per-item
Myerson; seeded explicit posted-price mechanisms), the exact quantile-region
revenue benchmark with its chain of upper bounds, quantile experiments with an
empirical stochastic-dominance tester, and reproduction drivers for the
lower-bound computations.
"""

from .distributions import (
    Exponential,
    FiniteDiscrete,
    PointMass,
    ProductDist,
    SingleDist,
    TruncatedEqualRevenue,
    Uniform,
    parse_dist,
)
from .virtual import IronedVirtualMap, fact1_check, iron
from .revenue import (
    RevenueEstimate,
    bulow_klemperer_check,
    feldman_posted_price,
    myerson_item_revenue,
    srev,
    three_tier_mechanism,
    three_tier_revenue,
    vcg,
    vcg_item_revenue,
)
from .benchmark import (
    assign_regions,
    efftw_bound,
    obs1_bound,
    xb_chain_bound,
    xl_chain_bound,
)
from .experiments import (
    DominanceReport,
    dominance_test,
    prop_key_conditional,
    sample_xb,
    sample_xl,
    sample_xs,
    sample_w,
    ystar_tail,
)
from .repro import (
    ReproResult,
    appendix_b_revenue,
    bign_tightness,
    er_benchmark_decomposition,
    er_order_stat,
    little_n_tightness,
    two_item_sum_tail,
)

__version__ = "0.1.0"
