"""Overlay topologies and the Internet underlay.

The paper evaluates MPIL over power-law graphs (generated with Inet),
random graphs where "each node has 100 neighbors, equally", complete
topologies (analysis), and the structured overlay of MSPastry; the MSPastry
simulations sit on a GT-ITM transit-stub Internet topology.  This package
provides all of them (Inet and GT-ITM are replaced by synthetic equivalents
— ``docs/ARCHITECTURE.md``, "Packages, bottom up", says what stands in for
what).
"""

from repro.overlay.complete import complete_graph
from repro.overlay.graph import OverlayGraph
from repro.overlay.power_law import power_law_graph
from repro.overlay.random_graphs import (
    fixed_degree_random_graph,
    gnp_random_graph,
    random_regular_graph,
    ring_lattice_graph,
)
from repro.overlay.transit_stub import TransitStubUnderlay

__all__ = [
    "OverlayGraph",
    "TransitStubUnderlay",
    "complete_graph",
    "fixed_degree_random_graph",
    "gnp_random_graph",
    "power_law_graph",
    "random_regular_graph",
    "ring_lattice_graph",
]
