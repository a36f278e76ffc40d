"""Tests for MPIL running over the Pastry overlay (Section 6.2)."""

from __future__ import annotations

from repro.core.config import MPILConfig
from repro.core.identifiers import IdSpace
from repro.pastry.mpil_on_pastry import make_mpil_over_pastry, pastry_neighbor_overlay
from repro.pastry.protocol import PastryNetwork
from repro.perturbation.flapping import FlappingConfig, FlappingSchedule
from repro.sim.rng import derive_rng

SPACE = IdSpace(bits=16, digit_bits=4)


def _pastry(n=50, seed=1):
    return PastryNetwork(n=n, space=SPACE, seed=seed)


class TestNeighborOverlay:
    def test_adjacency_is_leafset_union_table(self):
        pastry = _pastry()
        overlay = pastry_neighbor_overlay(pastry)
        assert overlay.directed
        for node in range(pastry.n):
            expected = set(pastry.leaf_sets[node]) | set(
                pastry.tables[node].values()
            )
            expected.discard(node)
            assert set(overlay.neighbors(node)) == expected

    def test_shares_node_ids(self):
        pastry = _pastry()
        mpil = make_mpil_over_pastry(pastry, seed=2)
        assert mpil.ids == pastry.ids

    def test_separate_replica_directories(self):
        pastry = _pastry()
        mpil = make_mpil_over_pastry(pastry, seed=3)
        rng = derive_rng(3, "keys")
        key = SPACE.random_identifier(rng)
        mpil.insert(0, key)
        assert mpil.directory.replica_count(key) >= 1
        assert pastry.directory.replica_count(key) == 0


class TestStaticBehaviour:
    def test_insert_then_lookup_on_static_overlay(self):
        pastry = _pastry(seed=4)
        config = MPILConfig(max_flows=10, per_flow_replicas=5)
        mpil = make_mpil_over_pastry(pastry, config=config, seed=4)
        rng = derive_rng(4, "keys")
        successes = 0
        for _ in range(20):
            key = SPACE.random_identifier(rng)
            origin = rng.randrange(pastry.n)
            result = mpil.insert(origin, key)
            assert 1 <= result.replica_count <= config.replica_bound
            outcome = mpil.lookup_at(rng.randrange(pastry.n), key, start_time=0.0)
            successes += outcome.success
        assert successes >= 18  # near-100% on a static overlay

    def test_perturbation_hurts_but_redundancy_helps(self):
        pastry = _pastry(n=60, seed=5)
        mpil = make_mpil_over_pastry(pastry, seed=5)
        rng = derive_rng(5, "keys")
        keys = [SPACE.random_identifier(rng) for _ in range(25)]
        for key in keys:
            mpil.insert(rng.randrange(60), key)
        schedule = FlappingSchedule(
            FlappingConfig(30, 30, 1.0), 60, seed=6, always_online={0}
        )
        successes = sum(
            mpil.lookup_at(0, key, start_time=100.0 + 60.0 * i, availability=schedule).success
            for i, key in enumerate(keys)
        )
        assert 0 < successes < 25

    def test_ds_flag_changes_processing(self):
        pastry = _pastry(n=60, seed=7)
        mpil = make_mpil_over_pastry(pastry, seed=7)
        rng = derive_rng(7, "keys")
        keys = [SPACE.random_identifier(rng) for _ in range(30)]
        for key in keys:
            mpil.insert(rng.randrange(60), key)
        schedule = FlappingSchedule(
            FlappingConfig(30, 30, 0.9), 60, seed=8, always_online={0}
        )
        ds_msgs = nods_msgs = 0
        for i, key in enumerate(keys):
            t = 100.0 + 60.0 * i
            ds_msgs += mpil.lookup_at(
                0, key, start_time=t, availability=schedule, duplicate_suppression=True
            ).counters.messages_sent
            nods_msgs += mpil.lookup_at(
                0, key, start_time=t, availability=schedule, duplicate_suppression=False
            ).counters.messages_sent
        assert nods_msgs >= ds_msgs  # re-forwarding can only add traffic
