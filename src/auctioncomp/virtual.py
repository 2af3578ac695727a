"""A view of an item's ironed Myerson virtual value, as one object.

Each kind computes its own phi_bar and psi (``SingleDist.phi_bar``,
``SingleDist.psi``), and a finite discrete item irons its revenue curve
once, in its constructor. ``iron(d)`` gathers what d carries into an
``IronedVirtualMap``; it builds nothing and reads no kind. The package
calls the item's methods directly; the map is kept for the names the
benchmark harness binds (README, "Pinned by `bench/`").
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .distributions import SingleDist

__all__ = ["IronedVirtualMap", "iron"]


@dataclass(frozen=True)
class IronedVirtualMap:
    """The ironed virtual value phi_bar of ``dist`` in quantile space, with
    its steps (``knots``, ``levels``) and whether ``dist`` is regular."""

    dist: SingleDist
    knots: np.ndarray
    levels: np.ndarray
    regular: bool

    def at_quantile(self, u):
        """Ironed virtual value of the value at quantile u."""
        return self.dist.phi_bar(u)

    def psi(self, t):
        """The CDF of phi_bar(U)^+ for uniform U (``SingleDist.psi``)."""
        return self.dist.psi(t)


def iron(d: SingleDist) -> IronedVirtualMap:
    """The ironed virtual value map of d, read off d."""
    return IronedVirtualMap(dist=d, knots=d.knots, levels=d.levels, regular=d.regular)
