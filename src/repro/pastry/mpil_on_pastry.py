"""MPIL over the Pastry overlay (paper Section 6.2).

"We run MPIL over the overlay of MSPastry by implementing the MPIL
algorithm in MSPastry ... we use the structured overlay of MSPastry, but
none of the overlay maintenance techniques."

A Pastry node's neighbor list, from MPIL's point of view, is its leaf set
plus its routing-table entries.  These links are directed (the union is
not symmetric), which the MPIL drivers handle natively.  No views/oracle
are involved: with maintenance disabled, neighbor lists never change, and
a message forwarded toward an offline node is simply lost.
"""

from __future__ import annotations

from repro.core.config import MPILConfig
from repro.core.timed import TimedMPILNetwork
from repro.overlay.graph import OverlayGraph
from repro.pastry.protocol import PastryNetwork
from repro.util.cache import BoundedCache

#: the neighbor overlay is a pure function of the Pastry structure; keyed
#: by identity of the (cached, entry-pinned) leaf sets and tables so every
#: run over one structure shares a single OverlayGraph
_NEIGHBOR_OVERLAY_CACHE: BoundedCache[tuple] = BoundedCache(maxsize=8)


def pastry_neighbor_overlay(pastry: PastryNetwork) -> OverlayGraph:
    """The directed overlay of Pastry neighbor lists (leaf set ∪ table)."""

    def build():
        adjacency = []
        for node in range(pastry.n):
            neighbors = set(pastry.leaf_sets[node])
            neighbors.update(pastry.tables[node].values())
            neighbors.discard(node)
            adjacency.append(sorted(neighbors))
        overlay = OverlayGraph(adjacency, name="pastry-neighbors", directed=True)
        return (pastry.leaf_sets, pastry.tables, overlay)

    return _NEIGHBOR_OVERLAY_CACHE.get_or_build(
        (id(pastry.leaf_sets), id(pastry.tables)), build
    )[2]


def make_mpil_over_pastry(
    pastry: PastryNetwork,
    config: MPILConfig = MPILConfig(),
    seed: object = 0,
) -> TimedMPILNetwork:
    """A :class:`TimedMPILNetwork` sharing the Pastry overlay's node IDs and
    latency model.

    The returned network has its own replica directory (MPIL replicas are
    placed by MPIL insertion, not at Pastry roots).
    """
    overlay = pastry_neighbor_overlay(pastry)
    return TimedMPILNetwork(
        overlay,
        space=pastry.space,
        ids=pastry.ids,
        config=config,
        latency=pastry.latency,
        seed=seed,
    )
