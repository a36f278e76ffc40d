#!/usr/bin/env python
"""Cooperative web caching: MPIL versus Pastry under perturbation.

A cluster of caches indexes URLs; each cache registers the pages it holds,
and misses are resolved by looking up which peer has the page.  Cache nodes
get perturbed (GC pauses, load spikes, restarts).  We compare the plain
Pastry substrate (with its maintenance) against MPIL running over the very
same overlay graph with maintenance disabled — the paper's Section 6.2
comparison, recast as the cooperative-web-caching application its
introduction motivates.

Run:  python examples/cooperative_web_cache.py
"""

from __future__ import annotations

import hashlib

from repro import IdSpace, MPILConfig
from repro.overlay.transit_stub import TransitStubUnderlay
from repro.pastry import PastryNetwork, ProbedViewOracle, make_mpil_over_pastry
from repro.pastry.rejoin import RejoinAdjustedAvailability
from repro.perturbation import FlappingConfig, FlappingSchedule
from repro.sim.latency import UnderlayLatency
from repro.sim.rng import derive_rng
from repro.util.tables import render_table

SEED = 11
NUM_CACHES = 250
NUM_PAGES = 120
FLAP = FlappingConfig.from_label("30:30", 0.7)


def url_key(space: IdSpace, url: str):
    digest = hashlib.sha1(url.encode("utf-8")).digest()
    return space.identifier(int.from_bytes(digest, "big") % space.size)


def main() -> None:
    underlay = TransitStubUnderlay.for_size(NUM_CACHES, seed=SEED)
    latency = UnderlayLatency(underlay, underlay.random_attachment(NUM_CACHES, seed=SEED))
    pastry = PastryNetwork(n=NUM_CACHES, latency=latency, seed=SEED)
    mpil = make_mpil_over_pastry(
        pastry,
        config=MPILConfig(max_flows=10, per_flow_replicas=5, duplicate_suppression=False),
        seed=SEED,
    )
    space = pastry.space

    # Index the pages each cache holds.
    rng = derive_rng(SEED, "pages")
    urls = [f"https://example.org/page/{i}" for i in range(NUM_PAGES)]
    for url in urls:
        holder = rng.randrange(NUM_CACHES)
        key = url_key(space, url)
        pastry.insert_static(holder, key)
        mpil.insert(holder, key)

    # Perturbation: the Pastry layer additionally suffers MSPastry's
    # eviction/rejoin recovery semantics; MPIL (no maintenance) sees raw
    # availability.
    client = 0
    schedule = FlappingSchedule(FLAP, NUM_CACHES, seed=SEED, always_online={client})
    pastry_avail = RejoinAdjustedAvailability(schedule, pastry.config, seed=SEED)
    views = ProbedViewOracle(pastry_avail, pastry.config, seed=SEED)

    pastry_hits = mpil_hits = 0
    pastry_msgs = mpil_msgs = 0
    for i, url in enumerate(urls):
        key = url_key(space, url)
        when = FLAP.cycle + i * FLAP.cycle
        outcome = pastry.lookup(
            client, key, start_time=when, availability=pastry_avail, views=views
        )
        pastry_hits += outcome.success
        pastry_msgs += outcome.traffic + outcome.retransmissions
        timed = mpil.lookup_at(client, key, start_time=when, availability=schedule)
        mpil_hits += timed.success
        mpil_msgs += timed.traffic

    maintenance = views.expected_maintenance_messages(
        NUM_PAGES * FLAP.cycle,
        pastry.average_leafset_size(),
        pastry.average_table_entries(),
    )
    rows = [
        (
            "Pastry (with maintenance)",
            f"{100.0 * pastry_hits / NUM_PAGES:.1f}",
            pastry_msgs,
            round(maintenance),
            round(pastry_msgs + maintenance),
        ),
        (
            "MPIL (no maintenance)",
            f"{100.0 * mpil_hits / NUM_PAGES:.1f}",
            mpil_msgs,
            0,
            mpil_msgs,
        ),
    ]
    print(
        render_table(
            ("substrate", "hit rate %", "lookup msgs", "maintenance msgs", "total msgs"),
            rows,
            title=(
                f"Cooperative web cache, {NUM_CACHES} caches, "
                f"{FLAP.label} flapping at p={FLAP.probability}:"
            ),
        )
    )


if __name__ == "__main__":
    main()
