"""Shared fixtures: identifier spaces, the Figure 6 worked example, and
hypothesis settings tuned for a fast, deterministic suite."""

from __future__ import annotations

import subprocess
import sys

import pytest
from hypothesis import HealthCheck, settings

from repro.core.config import MPILConfig
from repro.core.identifiers import IdSpace
from repro.core.network import MPILNetwork
from repro.overlay.graph import OverlayGraph
from repro.util.cache import clear_all_caches

settings.register_profile(
    "repro",
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("repro")


@pytest.fixture(autouse=True)
def _isolated_construction_caches():
    """Empty the process-level construction caches around every test.

    The overlay/ring/metric-table caches memoise pure construction per
    process; a test that monkeypatches a generator (e.g. the transit-stub
    factory) must not leak its products into — or inherit products from —
    other tests through them.
    """
    clear_all_caches()
    yield
    clear_all_caches()


@pytest.fixture()
def live_pid():
    """The pid of a live process that is not this one (a sleeping child)."""
    child = subprocess.Popen([sys.executable, "-c", "import time; time.sleep(600)"])
    try:
        yield child.pid
    finally:
        child.kill()
        child.wait()


@pytest.fixture()
def dead_pid() -> int:
    """The pid of a process that has exited and been reaped."""
    child = subprocess.Popen([sys.executable, "-c", "pass"])
    child.wait()
    return child.pid


@pytest.fixture(scope="session")
def tiny_space() -> IdSpace:
    """The 4-bit binary space used by the paper's worked examples."""
    return IdSpace(bits=4, digit_bits=1)


@pytest.fixture(scope="session")
def paper_space() -> IdSpace:
    """The paper's 160-bit base-16 space (b=4, M=40)."""
    return IdSpace(bits=160, digit_bits=4)


FIG6_LABELS = [
    "0001",
    "1001",
    "0000",
    "1110",
    "1111",
    "0011",
    "0101",
    "0010",
    "0100",
]
FIG6_EDGES = [
    ("0001", "1001"),
    ("0001", "0000"),
    ("1001", "1110"),
    ("1110", "1111"),
    ("1110", "0011"),
    ("0011", "0101"),
    ("0101", "0010"),
    ("0010", "0100"),
]


@pytest.fixture()
def fig6_network(tiny_space):
    """The Figure 6 overlay with max_flows=2, per-flow replicas=2.

    Returns (network, index-by-label, labels).
    """
    ids = [tiny_space.from_digits([int(c) for c in s]) for s in FIG6_LABELS]
    index = {label: i for i, label in enumerate(FIG6_LABELS)}
    overlay = OverlayGraph.from_edges(
        len(FIG6_LABELS), [(index[a], index[b]) for a, b in FIG6_EDGES], name="fig6"
    )
    config = MPILConfig(max_flows=2, per_flow_replicas=2, tie_break="lowest-id")
    network = MPILNetwork(overlay, space=tiny_space, ids=ids, config=config, seed=6)
    return network, index, FIG6_LABELS
