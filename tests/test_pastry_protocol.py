"""Tests for the Pastry insert/lookup protocol."""

from __future__ import annotations

import pytest

from repro.core.identifiers import IdSpace
from repro.core.results import FOUND, HOP_LIMIT, MISDELIVERED
from repro.errors import ConfigurationError, IdSpaceError, RoutingError
from repro.pastry.config import PastryConfig
from repro.pastry.protocol import PastryNetwork
from repro.perturbation.flapping import FlappingConfig, FlappingSchedule
from repro.sim.counters import TrafficCounters
from repro.sim.rng import derive_rng

SPACE = IdSpace(bits=16, digit_bits=4)


@pytest.fixture(scope="module")
def network():
    return PastryNetwork(n=60, space=SPACE, seed=1)


class TestConstruction:
    def test_space_config_mismatch_rejected(self):
        with pytest.raises(ConfigurationError):
            PastryNetwork(n=10, space=IdSpace(bits=16, digit_bits=2), seed=0)

    def test_structure_sizes(self, network):
        assert network.n == 60
        assert network.average_leafset_size() == pytest.approx(8.0)
        assert network.average_table_entries() > 0


class TestStaticInsert:
    def test_plain_insert_stores_at_root_only(self, network):
        rng = derive_rng(2, "keys")
        key = SPACE.random_identifier(rng)
        result = network.insert_static(5, key)
        assert result.replicas == (network.root(key),)
        assert result.root == network.root(key)
        assert result.path[0] == 5
        assert result.path[-1] == result.root
        assert network.directory.has(result.root, key)

    def test_rr_insert_stores_along_route(self, network):
        rng = derive_rng(3, "keys")
        key = SPACE.random_identifier(rng)
        result = network.insert_static(7, key, replicate_on_route=True)
        assert set(result.replicas) == set(dict.fromkeys(result.path))
        for node in result.replicas:
            assert network.directory.has(node, key)

    def test_insert_message_count_is_path_length(self, network):
        rng = derive_rng(4, "keys")
        key = SPACE.random_identifier(rng)
        result = network.insert_static(9, key)
        assert result.messages == len(result.path) - 1


class TestLookup:
    def test_static_lookup_succeeds(self, network):
        rng = derive_rng(5, "keys")
        for _ in range(20):
            key = SPACE.random_identifier(rng)
            network.insert_static(rng.randrange(60), key)
            outcome = network.lookup(rng.randrange(60), key)
            assert outcome.success
            assert outcome.cause == FOUND
            assert outcome.replies == [(network.root(key), outcome.first_reply_hop)]

    def test_lookup_without_insert_misdelivers(self, network):
        rng = derive_rng(6, "keys")
        key = SPACE.random_identifier(rng)
        outcome = network.lookup(0, key)
        assert not outcome.success
        assert outcome.cause == MISDELIVERED

    def test_counters_accumulate(self, network):
        rng = derive_rng(7, "keys")
        key = SPACE.random_identifier(rng)
        network.insert_static(0, key)
        counters = TrafficCounters()
        for _ in range(2):
            outcome = network.lookup(11, key)
            assert outcome.success
            counters.merge(outcome.counters)
        assert counters.messages_sent == 2 * outcome.traffic >= 2

    def test_origin_validated(self, network):
        with pytest.raises(RoutingError):
            network.lookup(60, SPACE.identifier(0))

    @pytest.mark.parametrize("space", [IdSpace(bits=16, digit_bits=2), IdSpace(bits=32)])
    def test_a_key_of_another_space_is_refused(self, network, space):
        """Every key of another space is refused at both entry points,
        before a hop is routed: none routes silently."""
        rng = derive_rng(9, "foreign-keys")
        for _ in range(50):
            key = space.random_identifier(rng)
            with pytest.raises(IdSpaceError, match="not this ring's"):
                network.lookup(0, key)
            with pytest.raises(IdSpaceError, match="not this ring's"):
                network.route_static(0, key)

    def test_offline_root_causes_failure(self):
        net = PastryNetwork(n=40, space=SPACE, seed=8)
        rng = derive_rng(8, "keys")
        key = SPACE.random_identifier(rng)
        net.insert_static(0, key)
        root = net.root(key)

        class RootDown:
            def is_online(self, node, time):  # noqa: ARG002
                return node != root

        outcome = net.lookup(1, key, availability=RootDown())
        assert not outcome.success
        # the lookup had to retransmit toward the dead root before rerouting
        assert outcome.retransmissions > 0 or outcome.cause == MISDELIVERED

    def test_heavy_flapping_reduces_success(self):
        net = PastryNetwork(n=60, space=SPACE, seed=9)
        rng = derive_rng(9, "keys")
        keys = [SPACE.random_identifier(rng) for _ in range(30)]
        for key in keys:
            net.insert_static(rng.randrange(60), key)
        schedule = FlappingSchedule(
            FlappingConfig(30, 30, 1.0), 60, seed=10, always_online={0}
        )
        successes = sum(
            net.lookup(0, key, start_time=100.0 + 60.0 * i, availability=schedule).success
            for i, key in enumerate(keys)
        )
        assert successes < 30  # perturbation must hurt
        assert successes > 0  # but not annihilate a 50%-online network

    def test_hop_cap_produces_drop(self):
        config = PastryConfig(max_route_hops=1)
        net = PastryNetwork(n=60, space=SPACE, config=config, seed=11)
        rng = derive_rng(11, "keys")
        dropped = 0
        for _ in range(30):
            key = SPACE.random_identifier(rng)
            outcome = net.lookup(rng.randrange(60), key)
            dropped += outcome.cause == HOP_LIMIT
            assert outcome.counters.drops_hop_limit == (outcome.cause == HOP_LIMIT)
        assert dropped > 0
