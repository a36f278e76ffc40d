"""The paper's Figure 6 worked example, reproduced node by node.

Node 0001 inserts object 1011 with max_flows=2 and per-flow replicas=2:
0001 forwards only to 1001 (3 common digits beats 0000's 1) and the budget
drops to 1; 1001 is a local maximum, stores, and forwards to 1110; 1110 has
two 3-common neighbors (1111 and 0011) and splits to both; each stores and
stops (per-flow replicas exhausted).  Replicas: {1001, 1111, 0011}; flows:
2 (one additional flow created at 1110).
"""

from __future__ import annotations


OBJECT_DIGITS = [1, 0, 1, 1]


def _object(network):
    return network.space.from_digits(OBJECT_DIGITS)


class TestFigure6Insertion:
    def test_replica_placement(self, fig6_network):
        network, index, labels = fig6_network
        result = network.insert(index["0001"], _object(network))
        replica_labels = {labels[node] for node in result.replicas}
        assert replica_labels == {"1001", "1111", "0011"}

    def test_two_flows(self, fig6_network):
        network, index, _labels = fig6_network
        result = network.insert(index["0001"], _object(network))
        assert result.flows_created == 2

    def test_traffic_counts_each_neighbor_send(self, fig6_network):
        # sends: 0001->1001, 1001->1110, 1110->1111, 1110->0011
        network, index, _labels = fig6_network
        result = network.insert(index["0001"], _object(network))
        assert result.traffic == 4

    def test_max_hop(self, fig6_network):
        # 0001 -> 1001 (hop 1) -> 1110 (hop 2) -> {1111, 0011} (hop 3)
        network, index, _labels = fig6_network
        result = network.insert(index["0001"], _object(network))
        assert result.max_hop == 3

    def test_directory_holders(self, fig6_network):
        network, index, _labels = fig6_network
        obj = _object(network)
        network.insert(index["0001"], obj)
        holders = network.directory.holders(obj)
        assert holders == {index["1001"], index["1111"], index["0011"]}
        assert network.directory.replica_count(obj) == 3


class TestFigure6Lookup:
    def test_lookup_follows_same_steps_and_succeeds(self, fig6_network):
        network, index, _labels = fig6_network
        obj = _object(network)
        network.insert(index["0001"], obj)
        result = network.lookup(index["0001"], obj, max_flows=2, per_flow_replicas=2)
        assert result.success
        # the first reply comes from 1001, one hop away
        assert result.first_reply_hop == 1
        assert result.replies[0][0] == index["1001"]

    def test_lookup_from_far_node(self, fig6_network):
        network, index, _labels = fig6_network
        obj = _object(network)
        network.insert(index["0001"], obj)
        result = network.lookup(index["0100"], obj, max_flows=2, per_flow_replicas=2)
        assert result.success

    def test_lookup_before_insert_fails(self, fig6_network):
        network, index, _labels = fig6_network
        result = network.lookup(index["0100"], _object(network))
        assert not result.success
        assert result.first_reply_hop is None
        assert result.replies == []

    def test_lookup_at_holder_is_instant(self, fig6_network):
        network, index, _labels = fig6_network
        obj = _object(network)
        network.insert(index["0001"], obj)
        result = network.lookup(index["1001"], obj)
        assert result.success
        assert result.first_reply_hop == 0
        assert result.traffic_at_first_reply == 0
