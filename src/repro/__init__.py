"""repro — a full reproduction of *Perturbation-Resistant and
Overlay-Independent Resource Discovery* (Ko & Gupta, DSN 2005).

The library implements MPIL (Multi-Path Insertion/Lookup) together with
every substrate the paper's evaluation depends on: a message-level overlay
simulator, overlay topology generators (power-law, random regular,
complete, transit-stub underlay), a Pastry/MSPastry-style baseline with
maintenance, the flapping perturbation model, the Section-5 analysis, and
an experiment harness regenerating every figure and table.

Quickstart::

    from repro import IdSpace, MPILConfig, MPILNetwork, fixed_degree_random_graph
    from repro.sim.rng import derive_rng

    overlay = fixed_degree_random_graph(500, degree=20, seed=7)
    net = MPILNetwork(overlay, config=MPILConfig(max_flows=10, per_flow_replicas=5), seed=7)
    rng = derive_rng(7, "objects")
    obj = net.random_object_id(rng)
    insert = net.insert(origin=0, object_id=obj)
    lookup = net.lookup(origin=42, object_id=obj)
    assert lookup.success

See docs/ARCHITECTURE.md for the system inventory and README.md for running
the experiments that regenerate the paper's figures and tables.
"""

from repro.core import (
    Identifier,
    IdSpace,
    InsertResult,
    LookupResult,
    MPILConfig,
    MPILNetwork,
    TimedMPILNetwork,
)
from repro.overlay import (
    OverlayGraph,
    TransitStubUnderlay,
    complete_graph,
    fixed_degree_random_graph,
    power_law_graph,
    random_regular_graph,
)
from repro.pastry import PastryConfig, PastryNetwork, ProbedViewOracle
from repro.perturbation import FlappingConfig, FlappingSchedule

#: the one version: ``pyproject.toml`` states the same value (tier-1 tested)
__version__ = "1.0.0"

__all__ = [
    "FlappingConfig",
    "FlappingSchedule",
    "Identifier",
    "IdSpace",
    "InsertResult",
    "LookupResult",
    "MPILConfig",
    "MPILNetwork",
    "OverlayGraph",
    "PastryConfig",
    "PastryNetwork",
    "ProbedViewOracle",
    "TimedMPILNetwork",
    "TransitStubUnderlay",
    "complete_graph",
    "fixed_degree_random_graph",
    "power_law_graph",
    "random_regular_graph",
    "__version__",
]
