#!/usr/bin/env python
"""Grid resource discovery over a legacy overlay.

The paper's motivating scenario: a Grid already maintains its own overlay
(here an Inet-like power-law graph standing in for a legacy Grid network),
and we want to deploy resource discovery *without* installing any new
overlay maintenance protocol.  Sites register their resources (CPU classes,
GPUs, scratch space) under hashed keywords; clients discover providers by
keyword while some sites flap due to load.

Run:  python examples/grid_resource_discovery.py
"""

from __future__ import annotations

import hashlib

from repro import IdSpace, MPILConfig
from repro.core.timed import TimedMPILNetwork
from repro.overlay import power_law_graph
from repro.perturbation import FlappingConfig, FlappingSchedule
from repro.sim.latency import UniformRandomLatency
from repro.sim.rng import derive_rng
from repro.util.tables import render_table

SEED = 5
NUM_SITES = 400
RESOURCE_CLASSES = [
    "cpu/x86-64/32-core",
    "cpu/arm/128-core",
    "gpu/a100/8x",
    "gpu/h100/4x",
    "storage/scratch/100tb",
    "storage/archive/1pb",
    "net/100gbe",
    "fpga/u280",
]


def keyword_id(space: IdSpace, keyword: str):
    """Hash a resource keyword into the identifier space (stable)."""
    digest = hashlib.sha1(keyword.encode("utf-8")).digest()
    value = int.from_bytes(digest, "big") % space.size
    return space.identifier(value)


def main() -> None:
    space = IdSpace()
    overlay = power_law_graph(NUM_SITES, seed=SEED)
    print(f"legacy Grid overlay: {overlay} (untouched — no new maintenance)")

    config = MPILConfig(max_flows=10, per_flow_replicas=5, duplicate_suppression=False)
    grid = TimedMPILNetwork(
        overlay,
        space=space,
        config=config,
        latency=UniformRandomLatency(0.01, 0.08, seed=SEED),
        seed=SEED,
    )

    # Providers register: each resource class is offered by a handful of
    # sites; the registration inserts a pointer under the hashed keyword.
    rng = derive_rng(SEED, "providers")
    providers: dict[str, list[int]] = {}
    for keyword in RESOURCE_CLASSES:
        sites = rng.sample(range(NUM_SITES), 4)
        providers[keyword] = sites
        for site in sites:
            grid.insert(site, keyword_id(space, keyword))

    # Some sites flap (e.g. overloaded clusters): 30 s responsive / 30 s
    # unresponsive, with 60% of cycles going dark.
    flapping = FlappingSchedule(
        FlappingConfig(30, 30, 0.6), NUM_SITES, seed=SEED, always_online={0}
    )

    rows = []
    client = 0
    for i, keyword in enumerate(RESOURCE_CLASSES):
        when = 120.0 + 45.0 * i
        result = grid.lookup_at(
            client, keyword_id(space, keyword), start_time=when, availability=flapping
        )
        rows.append(
            (
                keyword,
                len(providers[keyword]),
                "yes" if result.success else "no",
                round(result.latency, 3) if result.latency is not None else "-",
                result.counters.messages_sent,
            )
        )
    print(
        render_table(
            ("resource class", "providers", "discovered", "latency (s)", "messages"),
            rows,
            title="Keyword discovery while 60% of sites flap (30s:30s):",
        )
    )
    discovered = sum(1 for row in rows if row[2] == "yes")
    print(f"\ndiscovered {discovered}/{len(RESOURCE_CLASSES)} resource classes "
          f"under perturbation, with zero overlay-maintenance traffic")


if __name__ == "__main__":
    main()
