"""Integration and property tests for the static MPIL driver."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import MPILConfig
from repro.core.identifiers import IdSpace
from repro.core.network import MPILNetwork
from repro.core.timed import TimedMPILNetwork
from repro.errors import ConfigurationError, RoutingError
from repro.overlay.complete import complete_graph
from repro.overlay.random_graphs import (
    fixed_degree_random_graph,
    ring_lattice_graph,
)
from repro.perturbation.flapping import FlappingConfig, FlappingSchedule
from repro.sim.rng import derive_rng
from repro.telemetry import Telemetry, use

SPACE = IdSpace(bits=32, digit_bits=4)


def _network(overlay, seed=0, **config_kwargs):
    config = MPILConfig(**{"max_flows": 10, "per_flow_replicas": 3, **config_kwargs})
    return MPILNetwork(overlay, space=SPACE, config=config, seed=seed)


class TestEndToEnd:
    @pytest.mark.parametrize(
        "overlay_factory,min_successes",
        [
            (lambda: complete_graph(30), 10),
            (lambda: ring_lattice_graph(40, k=3), 5),
            (lambda: fixed_degree_random_graph(60, degree=6, seed=1), 8),
        ],
        ids=["complete", "ring", "random-regular"],
    )
    def test_insert_then_lookup_succeeds(self, overlay_factory, min_successes):
        # MPIL "can never guarantee a 100% lookup success rate" on arbitrary
        # overlays (Section 4.4) — a sparse ring in a small digit space is
        # its hardest case (coarse scores make most nodes local maxima, so
        # flows stop early) — so the thresholds are per-topology.
        overlay = overlay_factory()
        net = _network(overlay, seed=2)
        rng = derive_rng(2, "objects")
        successes = 0
        for _trial in range(10):
            origin = rng.randrange(overlay.n)
            obj = net.random_object_id(rng)
            insert = net.insert(origin, obj)
            assert insert.replica_count >= 1
            successes += net.lookup(rng.randrange(overlay.n), obj).success
        assert successes >= min_successes

    def test_complete_graph_stores_at_global_maxima(self):
        """On a complete graph every node sees every other, so replicas are
        global metric maxima and the first lookup hop finds one."""
        overlay = complete_graph(25)
        net = _network(overlay, seed=3)
        rng = derive_rng(3, "objects")
        obj = net.random_object_id(rng)
        insert = net.insert(0, obj)
        scores = [net.ids[v].common_digits(obj) for v in range(overlay.n)]
        top = max(scores)
        for node in insert.replicas:
            assert scores[node] == top
        lookup = net.lookup(5, obj)
        assert lookup.success
        assert lookup.first_reply_hop <= 1

    def test_replica_bound_holds(self):
        overlay = fixed_degree_random_graph(80, degree=10, seed=4)
        config = MPILConfig(max_flows=4, per_flow_replicas=2)
        net = MPILNetwork(overlay, space=SPACE, config=config, seed=4)
        rng = derive_rng(4, "objects")
        for _ in range(15):
            result = net.insert(rng.randrange(overlay.n), net.random_object_id(rng))
            assert result.replica_count <= config.replica_bound
            assert result.flows_created <= config.max_flows

    def test_deterministic_given_seed(self):
        overlay = fixed_degree_random_graph(50, degree=6, seed=5)
        runs = []
        for _ in range(2):
            net = _network(overlay, seed=11)
            rng = derive_rng(11, "objects")
            obj = net.random_object_id(rng)
            insert = net.insert(3, obj)
            lookup = net.lookup(7, obj)
            runs.append((insert.replicas, insert.traffic, lookup.success, lookup.traffic))
        assert runs[0] == runs[1]

    def test_delete_removes_all_replicas(self):
        overlay = ring_lattice_graph(30, k=2)
        net = _network(overlay, seed=6)
        rng = derive_rng(6, "objects")
        obj = net.random_object_id(rng)
        insert = net.insert(0, obj)
        removed = net.delete(obj)
        assert removed == insert.replica_count
        assert not net.lookup(5, obj).success

    def test_delete_unknown_object_returns_zero(self):
        net = _network(ring_lattice_graph(20, k=2), seed=6)
        assert net.delete(net.random_object_id(derive_rng(6, "objects"))) == 0
        assert len(net.directory) == 0

    def test_delete_leaves_other_objects(self):
        net = _network(complete_graph(20), seed=7)
        rng = derive_rng(7, "objects")
        kept, deleted = net.random_object_id(rng), net.random_object_id(rng)
        kept_insert = net.insert(0, kept)
        net.insert(1, deleted)
        net.delete(deleted)
        assert net.directory.holders(kept) == set(kept_insert.replicas)
        assert net.lookup(5, kept).success
        assert not net.lookup(5, deleted).success


class TestValidation:
    def test_origin_out_of_range(self):
        net = _network(ring_lattice_graph(10, k=1))
        with pytest.raises(RoutingError):
            net.insert(10, SPACE.identifier(1))
        with pytest.raises(RoutingError):
            net.lookup(-1, SPACE.identifier(1))

    def test_id_count_mismatch(self):
        overlay = ring_lattice_graph(10, k=1)
        ids = SPACE.random_unique_identifiers(9, derive_rng(0, "x"))
        with pytest.raises(ConfigurationError):
            MPILNetwork(overlay, space=SPACE, ids=ids)

    def test_ids_must_match_space(self):
        overlay = ring_lattice_graph(4, k=1)
        other_space = IdSpace(bits=8, digit_bits=4)
        ids = other_space.random_unique_identifiers(4, derive_rng(0, "y"))
        with pytest.raises(ConfigurationError):
            MPILNetwork(overlay, space=SPACE, ids=ids)


class TestAccounting:
    def test_duplicates_counted_on_reconvergence(self):
        # On a dense graph with many equal-metric neighbors, flows reconverge
        # and duplicates must be visible in the accounting.
        overlay = complete_graph(40)
        net = _network(overlay, seed=7, max_flows=20, per_flow_replicas=3)
        rng = derive_rng(7, "objects")
        total_dups = sum(
            net.insert(rng.randrange(overlay.n), net.random_object_id(rng)).duplicates
            for _ in range(10)
        )
        assert total_dups > 0

    def test_traffic_matches_trace_sends(self):
        """Every counter the shared step bumps has exactly one span kind
        behind it, whichever schedule drove the request."""
        timed = TimedMPILNetwork(
            ring_lattice_graph(30, k=2),
            space=SPACE,
            config=MPILConfig(max_flows=5, per_flow_replicas=2),
            seed=8,
        )
        rng = derive_rng(8, "objects")
        obj = timed.random_object_id(rng)

        def traced(request):
            telemetry = Telemetry.with_spans()
            with use(telemetry):
                result = request()
            spans = telemetry.spans
            ids = {span.span_id for span in spans}
            roots = [span for span in spans if span.parent_id is None]
            assert len(roots) == 1
            assert all(span.parent_id in ids for span in spans if span.parent_id is not None)
            return result, lambda name: len(spans.spans(name=name))

        inserted, count = traced(lambda: timed.static.insert(0, obj))
        assert inserted.traffic == count("send") > 0
        assert inserted.replica_count == count("store") > 0
        assert inserted.duplicates == count("dup-drop")

        found, count = traced(lambda: timed.static.lookup(0, obj))
        assert found.traffic == count("send")
        assert len(found.replies) == count("reply") > 0

        found, count = traced(lambda: timed.lookup_at(0, obj, start_time=0.0))
        assert found.counters.messages_sent == count("send")
        assert len(found.replies) == count("reply") > 0
        assert count("store") == 0

    @pytest.mark.parametrize("suppress", [True, False])
    def test_span_counts_match_counters_under_flapping(self, suppress):
        n = 60
        timed = TimedMPILNetwork(
            fixed_degree_random_graph(n, degree=8, seed=3),
            space=SPACE,
            config=MPILConfig(
                max_flows=8, per_flow_replicas=4, duplicate_suppression=suppress
            ),
            seed=3,
        )
        rng = derive_rng(3, "objects")
        keys = [timed.random_object_id(rng) for _ in range(20)]
        for key in keys:
            timed.insert_static(rng.randrange(n), key)
        timed.availability = FlappingSchedule(
            FlappingConfig(30, 30, 0.5), n, seed=4, always_online={0}
        )
        telemetry = Telemetry.with_spans()
        with use(telemetry):
            results = [
                timed.lookup_at(0, key, start_time=100.0 + 60.0 * i)
                for i, key in enumerate(keys)
            ]
        spans = telemetry.spans

        def total(field):
            return sum(getattr(result.counters, field) for result in results)

        assert len(spans.spans(name="send")) == total("messages_sent")
        assert len(spans.spans(name="lost-offline")) == total("lost_offline") > 0
        assert len(spans.spans(name="dup-drop" if suppress else "dup")) == total("duplicates") > 0
        assert len(spans.spans(name="dup" if suppress else "dup-drop")) == 0
        replies = sum(len(result.replies) for result in results)
        assert len(spans.spans(name="reply")) == replies > 0
        ids = {span.span_id for span in spans}
        assert all(span.parent_id in ids for span in spans if span.parent_id is not None)

    def test_lookup_traffic_at_first_reply_le_total(self):
        overlay = fixed_degree_random_graph(60, degree=8, seed=9)
        net = _network(overlay, seed=9)
        rng = derive_rng(9, "objects")
        obj = net.random_object_id(rng)
        net.insert(0, obj)
        result = net.lookup(30, obj)
        if result.success:
            assert result.traffic_at_first_reply <= result.traffic


@settings(max_examples=15)
@given(
    max_flows=st.integers(1, 12),
    per_flow=st.integers(1, 4),
    seed=st.integers(0, 5),
)
def test_flow_and_replica_bounds_property(max_flows, per_flow, seed):
    overlay = ring_lattice_graph(24, k=2)
    config = MPILConfig(max_flows=max_flows, per_flow_replicas=per_flow)
    net = MPILNetwork(overlay, space=SPACE, config=config, seed=seed)
    rng = derive_rng(seed, "prop-objects")
    obj = net.random_object_id(rng)
    insert = net.insert(seed % overlay.n, obj)
    assert insert.flows_created <= max_flows
    assert insert.replica_count <= max_flows * per_flow
    lookup = net.lookup((seed + 7) % overlay.n, obj)
    assert lookup.flows_created <= max_flows
