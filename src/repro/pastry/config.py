"""Pastry/MSPastry configuration.

Defaults mirror the paper's "MSPastry Configuration" list verbatim:

1. b : 4
2. l : 8
3. Leafset probing period : 30 seconds
4. Routing table maintenance period : 12000 seconds
5. Routing table probing period : 90 seconds
6. Probe timeout : 3
7. Probe retries : 2

Item 4 is not modelled: the routing tables are built once on the static
overlay and never rebuilt, so no field carries it.

The application-level retransmission parameters model MSPastry's per-hop
acknowledgment/retransmission for *routing* messages, which operates at
network-RTT scale (unlike the 3-second probe timeout used by failure
detection).  After ``app_retransmissions`` unacknowledged sends the hop is
declared suspect and the message is re-routed around it.
"""

from __future__ import annotations

import dataclasses
import math

from repro.errors import ConfigurationError

#: the fields that are durations in seconds
_DURATIONS = (
    "leafset_probe_period",
    "routing_table_probe_period",
    "probe_timeout",
    "app_retx_interval",
)


@dataclasses.dataclass(frozen=True)
class PastryConfig:
    digit_bits: int = 4  # b
    leaf_set_size: int = 8  # l (split half/half around the node)
    leafset_probe_period: float = 30.0
    routing_table_probe_period: float = 90.0
    probe_timeout: float = 3.0
    probe_retries: int = 2
    # application-level per-hop retransmission (RTT-scale; short enough that
    # retransmissions do not bridge second-scale offline windows)
    app_retransmissions: int = 2
    app_retx_interval: float = 0.10
    max_route_hops: int = 64
    # consecutive missed leafset probe rounds before a node is declared
    # failed, evicted, and forced to rejoin on recovery
    failure_eviction_rounds: int = 2

    def __post_init__(self) -> None:
        if self.digit_bits < 1:
            raise ConfigurationError(f"digit_bits must be >= 1, got {self.digit_bits}")
        if self.leaf_set_size < 2 or self.leaf_set_size % 2 != 0:
            raise ConfigurationError(
                f"leaf_set_size must be a positive even number, got {self.leaf_set_size}"
            )
        # `nan <= 0` is false and `inf` is positive: a sign test alone
        # lets both through
        for name in _DURATIONS:
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ConfigurationError(
                    f"{name} must be a positive finite number, got {value!r}"
                )
        if self.probe_retries < 0:
            raise ConfigurationError(
                f"probe_retries must be >= 0, got {self.probe_retries}"
            )
        if self.app_retransmissions < 0:
            raise ConfigurationError(
                f"app_retransmissions must be >= 0, got {self.app_retransmissions}"
            )
        if self.max_route_hops < 1:
            raise ConfigurationError(
                f"max_route_hops must be >= 1, got {self.max_route_hops}"
            )
        if self.failure_eviction_rounds < 1:
            raise ConfigurationError(
                f"failure_eviction_rounds must be >= 1, got {self.failure_eviction_rounds}"
            )
