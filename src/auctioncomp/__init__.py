"""Simulation and verification toolkit for the competition complexity of
multi-item auctions with additive bidders.

The root exports only ``__version__`` and imports nothing: each module is
imported by name (``from auctioncomp.distributions import parse_dist``) and
loads only the modules it depends on. ``distributions`` holds the value
distributions, each with its ironed virtual value; ``revenue`` the revenue
estimators and mechanisms; ``benchmark`` the quantile-region revenue
benchmark and its chain of upper bounds; ``experiments`` the quantile
experiments and the stochastic-dominance tester; ``repro`` the drivers for
the lower-bound computations; ``cli`` the command line.
"""

__version__ = "0.1.0"
