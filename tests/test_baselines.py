"""Tests for the flooding / random-walk baselines and the 1/C hops
validation."""

from __future__ import annotations

import random

import pytest

from repro.analysis import expected_hops_to_local_maximum
from repro.baselines import (
    flood_lookup,
    random_walk_lookup,
    walk_hops_to_local_maximum,
)
from repro.core.config import MPILConfig
from repro.core.identifiers import IdSpace
from repro.core.metric import NeighborMetricTable
from repro.core.network import MPILNetwork
from repro.errors import RoutingError
from repro.overlay.random_graphs import (
    fixed_degree_random_graph,
    random_regular_graph,
    ring_lattice_graph,
)
from repro.sim.rng import derive_rng

SPACE = IdSpace(bits=16, digit_bits=4)


def _inserted_network(seed=0, n=80, degree=8):
    overlay = fixed_degree_random_graph(n, degree=degree, seed=seed)
    net = MPILNetwork(
        overlay, space=SPACE, config=MPILConfig(max_flows=10, per_flow_replicas=5),
        seed=seed,
    )
    rng = derive_rng(seed, "baseline-objects")
    obj = net.random_object_id(rng)
    net.insert(rng.randrange(n), obj)
    return net, obj


class TestFlooding:
    def test_full_ttl_flood_finds_object(self):
        net, obj = _inserted_network(seed=1)
        result = flood_lookup(net.overlay, net.directory, 0, obj, ttl=6)
        assert result.success
        assert result.first_reply_hop is not None
        assert result.traffic > 0

    def test_zero_ttl_only_checks_origin(self):
        net, obj = _inserted_network(seed=2)
        holder = next(iter(net.directory.holders(obj)))
        assert flood_lookup(net.overlay, net.directory, holder, obj, ttl=0).success
        non_holder = next(
            v for v in range(net.overlay.n) if v not in net.directory.holders(obj)
        )
        result = flood_lookup(net.overlay, net.directory, non_holder, obj, ttl=0)
        assert not result.success
        assert result.traffic == 0

    def test_ttl_bounds_reach(self):
        net, obj = _inserted_network(seed=3)
        origin = next(
            v for v in range(net.overlay.n) if v not in net.directory.holders(obj)
        )
        traffic = [
            flood_lookup(net.overlay, net.directory, origin, obj, ttl=ttl).traffic
            for ttl in range(5)
        ]
        assert traffic == sorted(traffic)
        # a non-holder's TTL-1 flood is one message to each neighbor
        assert traffic[:2] == [0, net.overlay.degree(origin)]

    def test_flood_traffic_exceeds_mpil(self):
        net, obj = _inserted_network(seed=4)
        origin = next(
            v for v in range(net.overlay.n) if v not in net.directory.holders(obj)
        )
        flood = flood_lookup(net.overlay, net.directory, origin, obj, ttl=4)
        mpil = net.lookup(origin, obj)
        if flood.success and mpil.success:
            assert flood.traffic > mpil.traffic

    def test_holders_stop_forwarding(self):
        # On a ring, a holder between origin and the far side blocks the wave.
        overlay = ring_lattice_graph(10, k=1)
        net = MPILNetwork(overlay, space=SPACE, seed=5)
        obj = SPACE.identifier(123)
        net.directory.store(2, obj)
        result = flood_lookup(overlay, net.directory, 0, obj, ttl=9)
        assert result.success
        assert (2, 2) in result.replies

    def test_validation(self):
        net, obj = _inserted_network(seed=6)
        with pytest.raises(RoutingError):
            flood_lookup(net.overlay, net.directory, -1, obj)
        with pytest.raises(RoutingError):
            flood_lookup(net.overlay, net.directory, 0, obj, ttl=-1)


class TestRandomWalks:
    def test_walks_eventually_find_replicas(self):
        net, obj = _inserted_network(seed=7)
        result = random_walk_lookup(
            net.overlay,
            net.directory,
            0,
            obj,
            walkers=16,
            max_steps=200,
            rng=random.Random(7),
        )
        assert result.success

    def test_walker_at_holder_replies_at_hop_zero(self):
        net, obj = _inserted_network(seed=8)
        holder = next(iter(net.directory.holders(obj)))
        result = random_walk_lookup(
            net.overlay, net.directory, holder, obj, rng=random.Random(8)
        )
        assert result.success
        assert result.first_reply_hop == 0
        assert result.traffic == 0

    def test_traffic_bounded_by_budget(self):
        net, obj = _inserted_network(seed=9)
        result = random_walk_lookup(
            net.overlay,
            net.directory,
            0,
            obj,
            walkers=3,
            max_steps=10,
            rng=random.Random(9),
        )
        assert result.traffic <= 3 * 10

    def test_validation(self):
        net, obj = _inserted_network(seed=10)
        with pytest.raises(RoutingError):
            random_walk_lookup(net.overlay, net.directory, 999, obj)
        with pytest.raises(RoutingError):
            random_walk_lookup(net.overlay, net.directory, 0, obj, walkers=0)
        with pytest.raises(RoutingError):
            random_walk_lookup(net.overlay, net.directory, 0, obj, max_steps=-1)


class TestHopsValidation:
    def test_expected_hops_matches_one_over_c(self):
        """Section 5.1: E[random-walk hops to a strict local maximum] = 1/C.

        Uses i.i.d. IDs (fresh per trial, matching the formula's model) on
        a random regular graph.
        """
        small = IdSpace(bits=12, digit_bits=2)
        n, d = 300, 6
        overlay = random_regular_graph(n, d, seed=20)
        rng = random.Random(20)
        hops = []
        for _ in range(150):
            ids = [small.random_identifier(rng) for _ in range(n)]
            table = NeighborMetricTable(overlay, ids)
            message = small.random_identifier(rng)
            result = walk_hops_to_local_maximum(
                overlay, table, rng.randrange(n), message, rng, strict=True
            )
            assert result is not None
            hops.append(result)
        empirical = sum(hops) / len(hops)
        predicted = expected_hops_to_local_maximum(small, d)
        assert empirical == pytest.approx(predicted, rel=0.25)

    def test_nonstrict_walk_stops_sooner(self):
        small = IdSpace(bits=12, digit_bits=2)
        overlay = random_regular_graph(200, 6, seed=21)
        rng = random.Random(21)
        ids = [small.random_identifier(rng) for _ in range(200)]
        table = NeighborMetricTable(overlay, ids)
        message = small.random_identifier(rng)
        loose = [
            walk_hops_to_local_maximum(
                overlay, table, i, message, random.Random(i), strict=False
            )
            for i in range(40)
        ]
        tight = [
            walk_hops_to_local_maximum(
                overlay, table, i, message, random.Random(i), strict=True
            )
            for i in range(40)
        ]
        assert sum(loose) <= sum(tight)
