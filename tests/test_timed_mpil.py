"""Tests for the event-driven (timed) MPIL driver."""

from __future__ import annotations

import gc

import pytest

from repro.core.config import MPILConfig
from repro.core.identifiers import IdSpace
from repro.core.timed import TimedMPILNetwork
from repro.errors import RoutingError
from repro.overlay.power_law import power_law_graph
from repro.overlay.random_graphs import fixed_degree_random_graph, ring_lattice_graph
from repro.perturbation.flapping import FlappingConfig, FlappingSchedule
from repro.sim.latency import ConstantLatency
from repro.sim.rng import derive_rng
from repro.telemetry import Telemetry, use

SPACE = IdSpace(bits=16, digit_bits=4)


def _timed(overlay, seed=0, **config_kwargs):
    config = MPILConfig(**{"max_flows": 6, "per_flow_replicas": 3, **config_kwargs})
    return TimedMPILNetwork(
        overlay, space=SPACE, config=config, seed=seed, latency=ConstantLatency(0.05)
    )


class TestStaticEquivalence:
    def test_always_online_matches_static_success(self):
        """Differential: with no tie-break noise, everyone online and one
        constant latency, the event heap delivers copies in the lockstep
        queue's order, so both schedules must produce the same request."""
        overlays = {
            "power-law": power_law_graph(80, seed=1),
            "fixed-degree": fixed_degree_random_graph(80, degree=6, seed=1),
        }
        for name, overlay in overlays.items():
            for suppress in (True, False):
                timed = _timed(
                    overlay, seed=1, tie_break="lowest-id", duplicate_suppression=suppress
                )
                rng = derive_rng(1, "keys", name)
                keys = [SPACE.random_identifier(rng) for _ in range(15)]
                for key in keys:
                    timed.insert(rng.randrange(overlay.n), key)
                for key in keys:
                    origin = rng.randrange(overlay.n)
                    static_result = timed.lookup(origin, key)
                    timed_result = timed.lookup_at(origin, key, start_time=0.0)
                    where = f"{name} suppress={suppress} key={key} origin={origin}"
                    assert timed_result.replies == static_result.replies, where
                    assert timed_result.first_reply_hop == static_result.first_reply_hop, where
                    assert timed_result.counters.messages_sent == static_result.traffic, where
                    assert timed_result.counters.duplicates == static_result.duplicates, where

    def test_latency_accumulates_per_hop(self):
        overlay = ring_lattice_graph(20, k=1)
        timed = _timed(overlay, seed=2)
        rng = derive_rng(2, "keys")
        key = SPACE.random_identifier(rng)
        timed.insert(0, key)
        result = timed.lookup_at(10, key, start_time=5.0)
        if result.success:
            # reply latency = (hops + 1 direct reply) * 0.05
            expected = (result.first_reply_hop + 1) * 0.05
            assert result.latency == pytest.approx(expected, abs=1e-9)
            assert result.first_reply_time == pytest.approx(5.0 + expected, abs=1e-9)


class TestPerturbedBehaviour:
    def _setup(self, p, seed=3, n=60):
        overlay = fixed_degree_random_graph(n, degree=8, seed=seed)
        timed = _timed(overlay, seed=seed, max_flows=8, per_flow_replicas=4)
        rng = derive_rng(seed, "keys")
        keys = [SPACE.random_identifier(rng) for _ in range(20)]
        for key in keys:
            timed.insert(rng.randrange(n), key)
        schedule = FlappingSchedule(
            FlappingConfig(30, 30, p), n, seed=seed + 1, always_online={0}
        )
        return timed, keys, schedule

    def test_no_perturbation_full_success(self):
        timed, keys, schedule = self._setup(0.0)
        assert all(
            timed.lookup_at(0, key, start_time=100.0 + 60.0 * i, availability=schedule).success
            for i, key in enumerate(keys)
        )

    def test_offline_losses_counted(self):
        timed, keys, schedule = self._setup(1.0)
        lost = sum(
            timed.lookup_at(
                0, key, start_time=100.0 + 60.0 * i, availability=schedule
            ).counters.lost_offline
            for i, key in enumerate(keys)
        )
        assert lost > 0

    def test_success_monotonically_degrades(self):
        rates = []
        for p in (0.0, 0.5, 1.0):
            timed, keys, schedule = self._setup(p)
            rates.append(
                sum(
                    timed.lookup_at(
                        0, key, start_time=100.0 + 60.0 * i, availability=schedule
                    ).success
                    for i, key in enumerate(keys)
                )
            )
        assert rates[0] >= rates[1] >= rates[2] or rates[0] > rates[2]

    def test_origin_validated(self):
        overlay = ring_lattice_graph(10, k=1)
        timed = _timed(overlay)
        with pytest.raises(RoutingError):
            timed.lookup_at(99, SPACE.identifier(0), start_time=0.0)

    def test_duplicate_suppression_override(self):
        timed, keys, _schedule = self._setup(0.0, seed=5)
        a = timed.lookup_at(0, keys[0], start_time=0.0, duplicate_suppression=True)
        b = timed.lookup_at(0, keys[0], start_time=0.0, duplicate_suppression=False)
        assert b.counters.messages_sent >= a.counters.messages_sent


class TestStartLookup:
    """The shared-scheduler entry point behind the service drivers."""

    def _setup(self, seed=11, n=60):
        overlay = fixed_degree_random_graph(n, degree=8, seed=seed)
        timed = _timed(overlay, seed=seed, max_flows=8, per_flow_replicas=4)
        rng = derive_rng(seed, "keys")
        keys = [SPACE.random_identifier(rng) for _ in range(10)]
        for key in keys:
            timed.insert(rng.randrange(n), key)
        return timed, keys

    def test_matches_lookup_at_on_private_engine(self):
        timed, keys = self._setup()
        fresh = timed.snapshot()
        baseline = [timed.lookup_at(0, key, start_time=0.0) for key in keys]
        timed.restore(fresh)  # replay the same per-request RNG streams
        from repro.sim.engine import EventScheduler

        results = []
        for key, expected in zip(keys, baseline):
            engine = EventScheduler()
            result = timed.start_lookup(engine, 0, key)
            engine.run()
            assert result.done
            results.append(result)
        assert results == baseline

    def test_overlapping_lookups_share_one_engine(self):
        timed, keys = self._setup()
        from repro.sim.engine import EventScheduler

        engine = EventScheduler()
        completed = []
        handles = [
            timed.start_lookup(
                engine, 0, key, start_time=0.01 * i, on_complete=completed.append
            )
            for i, key in enumerate(keys)
        ]
        assert all(not h.done for h in handles)  # nothing runs until the engine does
        engine.run()
        assert all(h.done for h in handles)
        assert sorted(completed, key=id) == sorted(handles, key=id)
        assert any(h.success for h in handles)

    def test_completed_lookups_leave_no_cycle_behind(self):
        """A request whose last copy is retired is freed by reference
        counting: its closures, tie-break stream and counters do not wait
        for the cyclic collector (which would hold a run's peak memory up)."""
        timed, keys = self._setup()
        gc.collect()
        gc.disable()
        try:
            for key in keys:
                timed.lookup_at(0, key, start_time=0.0)
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_start_time_cannot_precede_engine_clock(self):
        timed, keys = self._setup()
        from repro.errors import SimulationError
        from repro.sim.engine import EventScheduler

        engine = EventScheduler()
        engine.run(until=10.0)
        with pytest.raises(SimulationError):
            timed.start_lookup(engine, 0, keys[0], start_time=5.0)
            engine.run()

    def test_origin_validated(self):
        timed, keys = self._setup()
        from repro.sim.engine import EventScheduler

        with pytest.raises(RoutingError):
            timed.start_lookup(EventScheduler(), 99, keys[0])

    def test_rejected_start_changes_nothing(self):
        """A refused call takes no request number, opens no trace and posts
        nothing, so the retried call draws the stream a first-time call
        would have."""
        timed, keys = self._setup()
        from repro.errors import SimulationError
        from repro.sim.engine import EventScheduler

        engine = EventScheduler()
        engine.run(until=10.0)
        before = timed.snapshot()
        telemetry = Telemetry.with_spans()
        with use(telemetry):
            with pytest.raises(SimulationError, match="before current time"):
                timed.start_lookup(engine, 0, keys[0], start_time=5.0)
            with pytest.raises(RoutingError):
                timed.start_lookup(engine, 99, keys[0], start_time=10.0)
            assert timed.snapshot() == before
            assert engine.pending == 0
            assert len(telemetry.spans) == 0
            retried = timed.start_lookup(engine, 0, keys[0], start_time=10.0)
            engine.run()
        timed.restore(before)
        assert timed.lookup_at(0, keys[0], start_time=10.0) == retried

    def test_request_counter_snapshot_restores_noise_stream(self):
        timed, keys = self._setup()
        before = timed.snapshot()
        first = timed.lookup_at(0, keys[0], start_time=0.0)
        assert timed.snapshot() != before
        timed.restore(before)
        replay = timed.lookup_at(0, keys[0], start_time=0.0)
        assert replay == first

    def test_hop_cap_is_four_hops_per_digit(self):
        timed = _timed(ring_lattice_graph(10, k=1))
        assert timed._max_hops == 4 * SPACE.num_digits == 16

    def test_hop_limit_drops_and_traces(self):
        # a ring forces long routes; two hops cannot reach the far side
        timed = _timed(ring_lattice_graph(40, k=1), seed=4)
        timed._max_hops = 2
        rng = derive_rng(4, "keys")
        telemetry = Telemetry.with_spans()
        dropped = 0
        with use(telemetry):
            for _ in range(10):
                result = timed.lookup_at(0, SPACE.random_identifier(rng), start_time=0.0)
                dropped += result.counters.drops_hop_limit
        assert dropped > 0
        drops = telemetry.spans.spans(name="drop")
        assert len(drops) == dropped
        assert all(dict(span.attrs)["reason"] == "hop-limit" for span in drops)
