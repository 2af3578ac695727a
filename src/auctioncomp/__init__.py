"""Simulation and verification toolkit for the competition complexity of
multi-item auctions with additive bidders.

Core pieces: value distributions with exact quantiles, Myerson virtual
values with ironing, revenue estimators (exact Myerson, VCG, per-item Myerson
and three-tier revenue; a seeded sequential posted-bundle mechanism), the
exact quantile-region revenue benchmark with its chain of upper bounds,
quantile experiments with an empirical stochastic-dominance tester, and
reproduction drivers for the lower-bound computations.
"""

from .distributions import (
    Exponential,
    FiniteDiscrete,
    ProductDist,
    SingleDist,
    TruncatedEqualRevenue,
    Uniform,
    parse_dist,
)
from .virtual import IronedVirtualMap, iron
from .revenue import (
    RevenueEstimate,
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
    XB,
    XL,
    dominance_test,
    sample_xs,
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
