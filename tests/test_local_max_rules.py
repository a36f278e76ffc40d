"""The local-maximum rule end to end.

The paper's pseudo-code tests the current node against "all nodes in
neighbor list", including already-visited ones.  This pins the end-to-end
consequence: a downhill walk stores nowhere but at its start.
"""

from __future__ import annotations

from repro.core.config import MPILConfig
from repro.core.identifiers import IdSpace
from repro.core.network import MPILNetwork
from repro.overlay.graph import OverlayGraph

SPACE = IdSpace(bits=4, digit_bits=1)


def _path_network() -> MPILNetwork:
    """A 3-node path 0-1-2 with scores 3 > 2 > 1 against object 1111.

    Walking downhill from node 0, node 1's only unvisited neighbor (2) is
    worse than node 1, but its visited neighbor (0) is better.
    """
    ids = [
        SPACE.from_digits([1, 1, 1, 0]),  # node 0: 3 common with 1111
        SPACE.from_digits([1, 1, 0, 0]),  # node 1: 2 common
        SPACE.from_digits([1, 0, 0, 0]),  # node 2: 1 common
    ]
    overlay = OverlayGraph.from_edges(3, [(0, 1), (1, 2)])
    config = MPILConfig(max_flows=1, per_flow_replicas=3, tie_break="lowest-id")
    return MPILNetwork(overlay, space=SPACE, ids=ids, config=config, seed=0)


OBJECT = SPACE.from_digits([1, 1, 1, 1])


class TestAllNeighborsRule:
    def test_downhill_nodes_do_not_store(self):
        net = _path_network()
        result = net.insert(0, OBJECT)
        # node 0 is the only local max: walking downhill, node 1 sees the
        # better visited neighbor 0 behind it and node 2 sees the better
        # neighbor 1 — under the paper's rule neither stores.
        assert result.replicas == (0,)
        assert net.lookup(2, OBJECT).success
