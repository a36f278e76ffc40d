#!/usr/bin/env python
"""Quickstart: insert and look up objects with MPIL on an arbitrary overlay.

MPIL (Multi-Path Insertion/Lookup, Ko & Gupta, DSN 2005) routes by counting
the digits an object ID shares with each neighbor's ID and forwarding to the
best-scoring neighbors, storing replicas at *local maxima* of that metric.
It needs no overlay maintenance at all, so it runs on any graph you hand it.

Run:  python examples/quickstart.py
"""

from __future__ import annotations

from repro import MPILConfig, MPILNetwork, fixed_degree_random_graph
from repro.sim.rng import derive_rng


def main() -> None:
    # 1. Any overlay works; here, 500 nodes with 20 random neighbors each.
    overlay = fixed_degree_random_graph(500, degree=20, seed=7)
    print(f"overlay: {overlay}")

    # 2. Wire up MPIL.  max_flows bounds the number of redundant paths per
    #    request; per_flow_replicas bounds replicas stored per path.
    config = MPILConfig(max_flows=10, per_flow_replicas=5)
    net = MPILNetwork(overlay, config=config, seed=7)

    # 3. Insert an object pointer from node 0.
    rng = derive_rng(7, "quickstart-objects")
    object_id = net.random_object_id(rng)
    insert = net.insert(origin=0, object_id=object_id)
    print(
        f"insert: stored {insert.replica_count} replicas "
        f"(bound {config.replica_bound}) using {insert.traffic} messages "
        f"over {insert.flows_created} flows"
    )
    print(f"        replica holders: {list(insert.replicas)}")

    # 4. Look it up from the other side of the network.
    lookup = net.lookup(origin=250, object_id=object_id)
    print(
        f"lookup: success={lookup.success}, first reply after "
        f"{lookup.first_reply_hop} hops and {lookup.traffic_at_first_reply} "
        f"messages ({lookup.traffic} total, {lookup.flows_created} flows)"
    )

    # 5. Delete the object everywhere.  This clears the replica directory
    #    directly; the heartbeat-based deletion protocol of Section 4.4 is
    #    not modelled (the paper evaluates no deletion).
    removed = net.delete(object_id)
    print(f"delete: removed {removed} replicas")
    assert not net.lookup(250, object_id).success


if __name__ == "__main__":
    main()
