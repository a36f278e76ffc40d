"""Every lookup driver returns one record, and its ``cause`` agrees with
its counts.

Sync MPIL, timed MPIL under probability-1.0 flapping, Pastry (with a route
forced past ``max_route_hops``), flooding and random walks each run a few
lookups at small scale; every record must satisfy the cause invariants, and
the cases together must produce every cause.  ``run_cell``'s
``misdeliveries``/``drops`` columns must be the counts of the records it
read.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.baselines import flood_lookup, random_walk_lookup
from repro.core.config import MPILConfig
from repro.core.identifiers import IdSpace
from repro.core.network import MPILNetwork
from repro.core.results import (
    FOUND,
    HOP_LIMIT,
    LOST_OFFLINE,
    MISDELIVERED,
    NO_REPLICA_REACHABLE,
    LookupResult,
)
from repro.core.timed import TimedMPILNetwork
from repro.experiments import perturbed
from repro.experiments.perturbed import PASTRY_VARIANTS, build_testbed, run_cell
from repro.overlay.random_graphs import fixed_degree_random_graph
from repro.pastry.config import PastryConfig
from repro.pastry.protocol import PastryNetwork
from repro.perturbation.flapping import FlappingConfig, FlappingSchedule
from repro.sim.engine import EventScheduler
from repro.sim.rng import derive_rng

SPACE = IdSpace(bits=16, digit_bits=4)
CAUSES = {FOUND, NO_REPLICA_REACHABLE, LOST_OFFLINE, HOP_LIMIT, MISDELIVERED}
N = 80


def _check(result: LookupResult, driver: str) -> str:
    """Assert the cause invariants of one complete record; return its cause."""
    counters = result.counters
    assert isinstance(result, LookupResult)
    assert result.done and result.cause in CAUSES
    assert result.success == (result.cause == FOUND)
    assert result.traffic == counters.messages_sent
    if result.cause == LOST_OFFLINE:
        assert counters.lost_offline > 0
    if result.cause == HOP_LIMIT:
        assert counters.drops_hop_limit > 0
    if result.cause == MISDELIVERED:
        assert driver == "pastry"
    if result.cause == NO_REPLICA_REACHABLE:
        assert counters.lost_offline == 0 and counters.drops_hop_limit == 0
    if driver in ("sync-mpil", "flood", "walk"):
        assert result.cause in (FOUND, NO_REPLICA_REACHABLE)
        assert result.end_time is None
    else:
        assert result.end_time is not None and result.end_time >= result.start_time
    return result.cause


def _flapping() -> FlappingSchedule:
    return FlappingSchedule(FlappingConfig(30, 30, 1.0), N, seed=3, always_online={0})


def _mpil_records(network: MPILNetwork, driver: str) -> list[tuple[str, LookupResult]]:
    """Lookups of inserted and never-inserted keys from node 0."""
    rng = derive_rng(1, "causes", driver)
    keys = [SPACE.random_identifier(rng) for _ in range(12)]
    for key in keys[:8]:
        network.insert(rng.randrange(1, N), key)
    if driver == "sync-mpil":
        return [(driver, network.lookup(0, key)) for key in keys]
    schedule = _flapping()
    records = [
        (driver, network.lookup_at(0, key, 45.0 + 60.0 * i, availability=schedule))
        for i, key in enumerate(keys)
    ]
    records += [(driver, network.lookup_at(0, key, 0.0)) for key in keys]
    network._max_hops = 1  # every copy past the origin's neighbors is dropped
    records += [(driver, network.lookup_at(0, key, 0.0)) for key in keys]
    records += [
        (driver, network.lookup_at(0, key, 45.0 + 60.0 * i, availability=schedule))
        for i, key in enumerate(keys)
    ]
    return records


def _pastry_records() -> list[tuple[str, LookupResult]]:
    records = []
    for config in (PastryConfig(), PastryConfig(max_route_hops=1)):
        network = PastryNetwork(n=N, space=SPACE, config=config, seed=2)
        rng = derive_rng(2, "causes", "pastry")
        keys = [SPACE.random_identifier(rng) for _ in range(12)]
        for key in keys[:8]:
            network.insert_static(rng.randrange(1, N), key)
        schedule = _flapping()
        records += [
            ("pastry", network.lookup(rng.randrange(N), key, 45.0 + 60.0 * i, schedule))
            for i, key in enumerate(keys)
        ]
    return records


def _baseline_records() -> list[tuple[str, LookupResult]]:
    overlay = fixed_degree_random_graph(N, degree=6, seed=4)
    network = MPILNetwork(overlay, space=SPACE, seed=4)
    rng = derive_rng(4, "causes", "baselines")
    keys = [SPACE.random_identifier(rng) for _ in range(6)]
    for key in keys[:3]:
        network.directory.store(rng.randrange(N), key)
    records = []
    for key in keys:
        records.append(("flood", flood_lookup(overlay, network.directory, 0, key, ttl=2)))
        walk = random_walk_lookup(
            overlay, network.directory, 0, key, walkers=4, max_steps=16, rng=rng
        )
        records.append(("walk", walk))
    return records


def test_every_driver_decides_a_cause_its_counts_support():
    config = MPILConfig(max_flows=4, per_flow_replicas=2)
    sync = MPILNetwork(fixed_degree_random_graph(N, degree=6, seed=1), SPACE, config=config)
    timed = TimedMPILNetwork(fixed_degree_random_graph(N, degree=6, seed=1), SPACE, config=config)
    records = (
        _mpil_records(sync, "sync-mpil")
        + _mpil_records(timed, "timed-mpil")
        + _pastry_records()
        + _baseline_records()
    )
    causes = {_check(result, driver) for driver, result in records}
    assert causes == CAUSES
    assert {driver for driver, _result in records} == {
        "sync-mpil", "timed-mpil", "pastry", "flood", "walk"
    }


def test_timed_cause_follows_the_order_found_lost_hop_limit():
    """The timed driver decides in this order: found, lost-offline,
    hop-limit, no-replica-reachable."""
    network = TimedMPILNetwork(
        fixed_degree_random_graph(N, degree=6, seed=1),
        SPACE,
        config=MPILConfig(max_flows=4, per_flow_replicas=2),
    )
    records = [result for _driver, result in _mpil_records(network, "timed-mpil")]
    # the order matters only where a lookup both lost and dropped copies
    assert any(
        not result.replies and result.counters.lost_offline and result.counters.drops_hop_limit
        for result in records
    )
    for result in records:
        counters = result.counters
        if result.replies:
            expected = FOUND
        elif counters.lost_offline:
            expected = LOST_OFFLINE
        elif counters.drops_hop_limit:
            expected = HOP_LIMIT
        else:
            expected = NO_REPLICA_REACHABLE
        assert result.cause == expected


def test_a_timed_record_has_no_cause_until_it_completes():
    network = TimedMPILNetwork(fixed_degree_random_graph(N, degree=6, seed=1), SPACE)
    engine = EventScheduler()
    finished = []
    result = network.start_lookup(
        engine, 0, SPACE.identifier(7), on_complete=finished.append
    )
    assert not result.done and result.cause is None and result.end_time is None
    engine.run()
    assert finished == [result] and result.done
    assert result.end_time == engine.now


def test_run_cell_columns_are_the_cause_counts(monkeypatch):
    testbed = build_testbed(num_nodes=70, num_inserts=20, seed=0)
    # force both drop sites: Pastry's route cap and the timed MPIL hop cap
    testbed.pastry.config = dataclasses.replace(testbed.pastry.config, max_route_hops=2)
    testbed.mpil._max_hops = 2
    outcomes: dict[str, list[LookupResult]] = {}
    loop = perturbed.iter_stage2_lookups

    def recording(testbed, variant, *args):
        for i, outcome in loop(testbed, variant, *args):
            outcomes.setdefault(variant, []).append(outcome)
            yield i, outcome

    monkeypatch.setattr(perturbed, "iter_stage2_lookups", recording)
    rows = run_cell(testbed, "30:30", 1.0, 20)
    assert {row.variant for row in rows} == set(outcomes)
    for row in rows:
        records = outcomes[row.variant]
        driver = "pastry" if row.variant in PASTRY_VARIANTS else "timed-mpil"
        for result in records:
            _check(result, driver)
        causes = [result.cause for result in records]
        assert row.misdeliveries == causes.count(MISDELIVERED)
        assert row.drops == sum(result.counters.drops_hop_limit for result in records)
        if driver == "pastry":
            assert row.drops == causes.count(HOP_LIMIT) > 0
            assert row.misdeliveries > 0
        else:
            assert row.drops > 0
        assert row.success_rate == pytest.approx(100.0 * causes.count(FOUND) / len(records))
