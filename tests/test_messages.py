"""Tests for MPIL message copies and the request that makes them.

A copy carries four fields; everything else about it is the request's.
Children are built in exactly one place, ``MPILRequest.step``, so these
tests drive ``step`` directly on the paper's Figure 6 overlay: 0001 inserts
1011, forwards to 1001, which forwards to 1110, which splits to 1111 and
0011.
"""

from __future__ import annotations

import collections
import dataclasses
import sys

import pytest

import repro.core.protocol
import repro.sim.rng
from repro.core.config import MPILConfig
from repro.core.messages import KIND_INSERT, KIND_LOOKUP, MPILMessage
from repro.core.network import MPILNetwork
from repro.core.protocol import MPILRequest
from repro.core.timed import TimedMPILNetwork
from repro.overlay.graph import OverlayGraph
from repro.overlay.random_graphs import fixed_degree_random_graph
from repro.sim.latency import ConstantLatency
from repro.sim.rng import derive_rng

OBJECT_DIGITS = [1, 0, 1, 1]


def _request(network, origin, object_id, kind=KIND_INSERT, request_id=7):
    """A request whose forwarded copies land in the returned list."""
    forwarded: list[MPILMessage] = []
    request = MPILRequest(
        network,
        kind,
        request_id,
        object_id,
        origin,
        stream=(network.seed, "request", request_id),
        suppress=network.config.duplicate_suppression,
        forward=lambda item: forwarded.append(item[0]),
        reply=lambda hit: None,
        spans=None,
        trace_name=kind,
        start=0.0,
    )
    return request, forwarded


def _figure6_insert(fig6_network):
    """``(request, forwarded copies, index-by-label)`` of 0001 inserting 1011."""
    network, index, _labels = fig6_network
    object_id = network.space.from_digits(OBJECT_DIGITS)
    return *_request(network, index["0001"], object_id), index


def _propagate(request, forwarded):
    """Run the request hop-lockstep; ``[(parent copy, its children)]``."""
    generations = []
    queue = collections.deque([request.first_copy(None, None)])
    while queue:
        parent = queue.popleft()
        before = len(forwarded)
        request.step(parent, float(len(parent.route)), None)
        children = forwarded[before:]
        generations.append((parent, children))
        queue.extend(children)
    return generations


class TestChild:
    def test_child_extends_route_with_current_node(self, fig6_network):
        request, forwarded, index = _figure6_insert(fig6_network)
        at_1110 = MPILMessage(
            at=index["1110"], route=(index["0001"], index["1001"]), max_flows=1, replicas_left=2
        )
        request.step(at_1110, 2.0, None)
        assert {child.at for child in forwarded} == {index["1111"], index["0011"]}
        for child in forwarded:
            assert child.route == (index["0001"], index["1001"], index["1110"])

    def test_child_increments_hop_and_sets_given_flows(self, fig6_network, monkeypatch):
        """A copy's hop is the length of its route, and only the copy the
        originator processes (empty route) has ``given_flows`` 0."""
        given = []
        decide = repro.core.protocol.decide_forwarding

        def recording(ranked, excluded, max_flows, given_flows, *rest):
            given.append((len(excluded) - 1, given_flows))
            return decide(ranked, excluded, max_flows, given_flows, *rest)

        monkeypatch.setattr(repro.core.protocol, "decide_forwarding", recording)
        request, forwarded, _index = _figure6_insert(fig6_network)
        for parent, children in _propagate(request, forwarded):
            for child in children:
                assert len(child.route) == len(parent.route) + 1
        assert given == [(0, 0), (1, 1), (2, 1), (3, 1), (3, 1)]
        assert request.max_hop == 3

    def test_child_carries_budget_and_request_identity(self, fig6_network):
        network, index, _labels = fig6_network
        object_id = network.space.from_digits(OBJECT_DIGITS)
        request, forwarded = _request(network, index["0001"], object_id)
        generations = _propagate(request, forwarded)
        # "After node 0001, max_flows becomes 1"; 1110 splits what is left
        assert [[child.max_flows for child in children] for _, children in generations] == [
            [1], [1], [0, 0], [], [],
        ]
        # what identifies the request is held once, not copied per message
        assert [field.name for field in dataclasses.fields(MPILMessage)] == [
            "at", "route", "max_flows", "replicas_left",
        ]
        assert (request.request_id, request.object_id, request.origin) == (
            7, object_id, index["0001"],
        )
        assert not request.is_lookup
        assert _request(network, 0, object_id, kind=KIND_LOOKUP)[0].is_lookup

    def test_route_grows_monotonically_over_generations(self):
        """Each hop appends exactly the forwarding node — this is what
        guarantees per-flow route simplicity (no revisits within a flow)."""
        overlay = fixed_degree_random_graph(60, degree=6, seed=1)
        network = MPILNetwork(
            overlay, config=MPILConfig(max_flows=8, per_flow_replicas=3), seed=1
        )
        rng = derive_rng(1, "objects")
        copies = 0
        for request_id in range(5):
            request, forwarded = _request(
                network, rng.randrange(60), network.random_object_id(rng), request_id=request_id
            )
            for parent, children in _propagate(request, forwarded):
                for child in children:
                    copies += 1
                    assert child.route == parent.route + (parent.at,)
                    assert len(set(child.route)) == len(child.route)
                    assert child.at not in child.route
        assert copies > 20

    def test_replicas_left_copied_not_shared(self, fig6_network):
        request, forwarded, index = _figure6_insert(fig6_network)
        parent = MPILMessage(
            at=index["1110"], route=(index["0001"], index["1001"]), max_flows=1, replicas_left=3
        )
        request.step(parent, 2.0, None)
        first, second = forwarded
        first.replicas_left = 0
        assert second.replicas_left == 3
        assert parent.replicas_left == 3

    def test_exclusion_is_the_route_plus_the_current_node(self, fig6_network, monkeypatch):
        """'excluding the nodes in M.route and N': the decision sees every
        visited node and the deciding node itself."""
        seen = []
        decide = repro.core.protocol.decide_forwarding

        def recording(ranked, excluded, *rest):
            seen.append(tuple(excluded))
            return decide(ranked, excluded, *rest)

        monkeypatch.setattr(repro.core.protocol, "decide_forwarding", recording)
        request, forwarded, _index = _figure6_insert(fig6_network)
        generations = _propagate(request, forwarded)
        assert [set(excluded) for excluded in seen] == [
            set(parent.route) | {parent.at} for parent, _ in generations
        ]


def test_kinds():
    assert KIND_INSERT == "insert"
    assert KIND_LOOKUP == "lookup"


@pytest.fixture()
def derived(monkeypatch):
    """Label paths of every ``derive_rng`` call made while the test runs,
    whichever loaded ``repro`` module holds the name."""
    labels = []
    derive = repro.sim.rng.derive_rng

    def recording(*path):
        labels.append(path)
        return derive(*path)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "repro" and vars(module).get("derive_rng") is derive:
            monkeypatch.setattr(module, "derive_rng", recording)
    return labels


def _star(tiny_space):
    """Centre 0000 with four leaves that each share three digits with the
    object 1111: any budget under four makes the centre pick among ties."""
    labels = ["0000", "1110", "1101", "1011", "0111"]
    ids = [tiny_space.from_digits([int(c) for c in label]) for label in labels]
    overlay = OverlayGraph.from_edges(5, [(0, leaf) for leaf in range(1, 5)], name="star")
    config = MPILConfig(max_flows=2, per_flow_replicas=1)
    return overlay, ids, config, tiny_space.from_digits([1, 1, 1, 1])


class TestTieBreakStream:
    """The request's stream is derived on its first tie, under the label
    path its driver gave it, and not at all by a request that never ties."""

    def test_request_without_a_tie_derives_nothing(self, fig6_network, derived, tiny_space):
        figure6, index, _labels = fig6_network
        # random tie-break, but 1110's two tied neighbors fit its allowance
        config = dataclasses.replace(figure6.config, tie_break="random")
        timed = TimedMPILNetwork(
            figure6.overlay, space=tiny_space, ids=figure6.ids, config=config, seed=6
        )
        object_id = tiny_space.from_digits(OBJECT_DIGITS)
        assert timed.insert(index["0001"], object_id).flows_created == 2
        assert timed.lookup(index["0100"], object_id).success
        assert timed.lookup_at(index["0100"], object_id, start_time=0.0).success
        assert derived == []

    def test_synchronous_request_draws_from_its_request_stream(self, tiny_space, derived):
        overlay, ids, config, object_id = _star(tiny_space)
        network = MPILNetwork(overlay, space=tiny_space, ids=ids, config=config, seed=5)
        for request_id in range(3):
            result = network.insert(0, object_id)
            expected = derive_rng(5, "request", request_id).sample([1, 2, 3, 4], 2)
            assert result.replicas == tuple(sorted(expected))
        assert derived == [(5, "request", request_id) for request_id in range(3)]

    def test_timed_request_draws_from_its_timed_request_stream(self, tiny_space, derived):
        overlay, ids, config, object_id = _star(tiny_space)
        timed = TimedMPILNetwork(
            overlay, space=tiny_space, ids=ids, config=config, seed=5,
            latency=ConstantLatency(0.05),
        )
        for leaf in range(1, 5):
            timed.directory.store(leaf, object_id)
        for request_id in range(3):
            result = timed.lookup_at(0, object_id, start_time=0.0)
            expected = derive_rng(5, "timed-request", request_id).sample([1, 2, 3, 4], 2)
            assert [holder for holder, _hop in result.replies] == expected
        assert derived == [(5, "timed-request", request_id) for request_id in range(3)]
