"""Traffic and bookkeeping counters shared by all simulation drivers.

The paper reports several message-count metrics (insertion traffic, lookup
traffic, duplicate messages, maintenance traffic).  ``TrafficCounters``
gives them one home with explicit names so experiment code never invents
ad-hoc dictionaries.  A request's block is the source of its counts; the
drivers publish them to the run's :class:`~repro.telemetry.MetricsRegistry`,
whose series are running sums of these blocks.
"""

from __future__ import annotations

import dataclasses


@dataclasses.dataclass
class TrafficCounters:
    """Mutable counter block.

    ``messages_sent`` follows the paper's convention: "a counter is increased
    by one whenever a node sends a message to a single neighbor", so a node
    that forwards one logical message to three neighbors adds three.
    """

    messages_sent: int = 0
    duplicates: int = 0
    lost_offline: int = 0
    retransmissions: int = 0
    drops_hop_limit: int = 0

    def merge(self, other: "TrafficCounters") -> None:
        """Add every field of ``other`` into this counter block."""
        for field in dataclasses.fields(self):
            setattr(self, field.name, getattr(self, field.name) + getattr(other, field.name))

    def as_dict(self) -> dict[str, int]:
        return dataclasses.asdict(self)
