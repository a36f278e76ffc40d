"""MPIL algorithm configuration.

Groups the knobs the paper names: ``max_flows`` (the message-carried flow
budget, Section 4.3), ``per_flow_replicas`` (replicas stored / local maxima
visited per flow, Section 4.4), duplicate suppression (Section 4.2 "a node
can either silently discard the message ... or forward the message again;
we explore both options"), plus reproduction-side choices that the paper
leaves open (tie-breaking among equal-metric candidates, which neighbor set
the local-maximum test ranges over, and which routing metric to use — the
latter two exist for ablations and default to the paper's behaviour).
"""

from __future__ import annotations

import dataclasses

from repro.errors import ConfigurationError

TIE_BREAKS = ("random", "lowest-id")
LOCAL_MAX_RULES = ("all-neighbors", "unvisited-only")
METRIC_NAMES = ("common-digits", "prefix", "suffix")


@dataclasses.dataclass(frozen=True)
class MPILConfig:
    """Parameters of the MPIL insertion/lookup algorithm.

    Attributes
    ----------
    max_flows:
        Flow budget carried by each request ("max flows is an integer field
        in every message, and it is decreased each time a node creates an
        additional flow").  The total number of flows a request ever creates
        is bounded by this value.
    per_flow_replicas:
        For insertions, replicas stored per flow; for lookups, the number of
        local maxima a flow may pass before stopping.
    duplicate_suppression:
        When True a node silently discards a request it has already
        processed ("MPIL with DS"); when False it processes every copy
        ("MPIL without DS").
    tie_break:
        How to choose which equal-metric candidates receive the message when
        there are more candidates than allowed flows: ``"random"`` (default)
        or ``"lowest-id"`` (deterministic, useful in tests).
    local_max_rule:
        Neighbor set the local-maximum test ranges over.  The paper's
        pseudo-code compares against "all nodes in neighbor list"
        (``"all-neighbors"``, default); ``"unvisited-only"`` restricts to
        neighbors not yet on the message's route (ablation).
    metric:
        Routing metric name: ``"common-digits"`` (MPIL), ``"prefix"`` or
        ``"suffix"`` (Section 4.2 ablations).
    max_hops:
        Hop limit of the timed (event-driven) schedule: a copy that has
        travelled this many hops is dropped instead of forwarded.  ``None``
        selects the default of four hops per identifier digit.  The
        lockstep schedule of :class:`~repro.core.network.MPILNetwork`
        applies no limit; propagation terminates because routes only grow.
    """

    max_flows: int = 10
    per_flow_replicas: int = 5
    duplicate_suppression: bool = True
    tie_break: str = "random"
    local_max_rule: str = "all-neighbors"
    metric: str = "common-digits"
    max_hops: int | None = None

    def __post_init__(self) -> None:
        if self.max_flows < 1:
            raise ConfigurationError(
                f"max_flows must be >= 1 (the originator's own send consumes one flow), "
                f"got {self.max_flows}"
            )
        if self.per_flow_replicas < 1:
            raise ConfigurationError(
                f"per_flow_replicas must be >= 1, got {self.per_flow_replicas}"
            )
        if self.tie_break not in TIE_BREAKS:
            raise ConfigurationError(
                f"tie_break must be one of {TIE_BREAKS}, got {self.tie_break!r}"
            )
        if self.local_max_rule not in LOCAL_MAX_RULES:
            raise ConfigurationError(
                f"local_max_rule must be one of {LOCAL_MAX_RULES}, got {self.local_max_rule!r}"
            )
        if self.metric not in METRIC_NAMES:
            raise ConfigurationError(
                f"metric must be one of {METRIC_NAMES}, got {self.metric!r}"
            )
        if self.max_hops is not None and self.max_hops < 1:
            raise ConfigurationError(f"max_hops must be >= 1 or None, got {self.max_hops}")

    def replace(self, **changes) -> "MPILConfig":
        """Return a copy with the given fields replaced."""
        return dataclasses.replace(self, **changes)

    @property
    def replica_bound(self) -> int:
        """Paper's upper bound on replicas per insertion:
        ``max_flows * per_flow_replicas``."""
        return self.max_flows * self.per_flow_replicas
