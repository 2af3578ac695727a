"""A view of an item's ironed Myerson virtual value.

Each kind computes its own phi_bar (``SingleDist.phi_bar``), and a finite
discrete item irons its revenue curve once, in its constructor. The package
calls the item's methods directly; ``iron`` and ``IronedVirtualMap`` are
kept for the names the benchmark harness binds (README, "Pinned by
`bench/`").
"""

from __future__ import annotations

from dataclasses import dataclass

from .distributions import SingleDist

__all__ = ["IronedVirtualMap", "iron"]


@dataclass(frozen=True)
class IronedVirtualMap:
    """The ironed virtual value phi_bar of ``dist`` in quantile space."""

    dist: SingleDist

    def at_quantile(self, u):
        """Ironed virtual value of the value at quantile u."""
        return self.dist.phi_bar(u)


def iron(d: SingleDist) -> IronedVirtualMap:
    """The ironed virtual value map of d."""
    return IronedVirtualMap(dist=d)
