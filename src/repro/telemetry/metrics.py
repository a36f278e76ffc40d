"""One run's metrics registry: named, labeled counters and histograms.

The drivers publish their per-request accounting here as labeled series
(``mpil_messages_total{kind=lookup}``, ``timed_lookups_success_total``,
...); the :class:`~repro.sim.counters.TrafficCounters` block of a request
is the source, a series is its running sum over the run.

Publication rule: :meth:`MetricsRegistry.inc` ignores a zero amount, so a
series exists once it has counted something and never snapshots at 0.
A histogram exists once it has been asked for.

Determinism contract
--------------------

Metrics are pure accumulators over simulation work: no RNG, no wall
clock, no iteration over unsorted containers.  :meth:`MetricsRegistry.snapshot`
returns a plain dict with deterministically ordered keys (series sorted
by name then labels), so a snapshot serialised with ``sort_keys=True`` is
byte-identical across reruns and worker counts — the property the
per-task telemetry blobs rely on.

A registry lives on each :class:`~repro.telemetry.Telemetry` handle
installed by :meth:`ExperimentSpec.run
<repro.experiments.spec.ExperimentSpec.run>`, collecting one experiment
run's driver metrics with per-cell snapshots.  The process-wide
simulation event total is not a series: it is a plain int in
:mod:`repro.sim.engine`.
"""

from __future__ import annotations

import dataclasses
from typing import Union

Number = Union[int, float]

#: histogram bucket upper bounds (values are counted in the first bucket
#: whose bound is >= the observation; one overflow bucket catches the
#: rest).  Chosen for hop counts and sub-minute latencies alike.
BUCKETS = (0.5, 1.0, 2.5, 5.0, 10.0, 25.0, 50.0, 100.0)

#: labels are stored as a sorted tuple of (key, value) pairs so a series
#: identity never depends on keyword order at the call site
LabelItems = tuple[tuple[str, object], ...]


@dataclasses.dataclass
class Counter:
    """A monotonically increasing accumulator."""

    name: str
    labels: LabelItems = ()
    value: Number = 0

    def _snapshot_value(self) -> Number:
        return self.value


@dataclasses.dataclass
class Histogram:
    """Bucketed distribution of observations (hop counts, latencies) over
    :data:`BUCKETS`; observations above the last bound land in the
    overflow bucket.  ``count`` and ``sum`` track the full stream so means
    survive bucketing.
    """

    name: str
    labels: LabelItems = ()
    buckets: list[int] = dataclasses.field(
        default_factory=lambda: [0] * (len(BUCKETS) + 1)
    )
    count: int = 0
    sum: float = 0.0

    def observe(self, value: Number) -> None:
        index = len(BUCKETS)
        for i, bound in enumerate(BUCKETS):
            if value <= bound:
                index = i
                break
        self.buckets[index] += 1
        self.count += 1
        self.sum += value

    def _snapshot_value(self) -> dict:
        return {
            "bounds": list(BUCKETS),
            "buckets": list(self.buckets),
            "count": self.count,
            "sum": round(self.sum, 9),
        }


Series = Union[Counter, Histogram]


def _snapshot_order(
    item: tuple[tuple[str, str, LabelItems], "Series"]
) -> tuple[str, tuple[tuple[str, str], ...], str]:
    """Snapshot ordering: name, then labels, then kind — matching the
    sorted-key order of a ``sort_keys=True`` JSON dump of the snapshot.
    Labels compare by their string forms so mixed-type label values (node
    ids, window indices) never raise."""
    (kind, name, labels) = item[0]
    return (name, tuple((key, str(value)) for key, value in labels), kind)


class MetricsRegistry:
    """Named, labeled metric series with deterministic snapshots.

    :meth:`inc` and :meth:`histogram` create a series on first use, and
    :meth:`snapshot` reads them all; nothing else does either.
    """

    def __init__(self) -> None:
        self._series: dict[tuple[str, str, LabelItems], Series] = {}

    def inc(self, name: str, amount: Number = 1, **labels: object) -> None:
        """Add ``amount`` to the counter ``(name, labels)``; a zero amount
        is ignored, so it creates no series."""
        if not amount:
            return
        key = ("counter", name, tuple(sorted(labels.items())))
        series = self._series.get(key)
        if series is None:
            series = self._series[key] = Counter(name, key[2])
        assert isinstance(series, Counter)
        series.value += amount

    def histogram(self, name: str, **labels: object) -> Histogram:
        """The histogram for ``(name, labels)``, created on first use."""
        key = ("histogram", name, tuple(sorted(labels.items())))
        series = self._series.get(key)
        if series is None:
            series = self._series[key] = Histogram(name, key[2])
        assert isinstance(series, Histogram)
        return series

    def __len__(self) -> int:
        return len(self._series)

    def snapshot(self) -> dict[str, object]:
        """All series as ``{"name{k=v,...}": value}`` with sorted keys.

        The key embeds the sorted labels, so the dict round-trips through
        ``json.dumps(..., sort_keys=True)`` to byte-identical text for
        identical metric states — the telemetry-blob determinism contract.
        """
        out: dict[str, object] = {}
        for (_kind, name, labels), series in sorted(
            self._series.items(), key=_snapshot_order
        ):
            if labels:
                rendered = ",".join(f"{k}={v}" for k, v in labels)
                key = f"{name}{{{rendered}}}"
            else:
                key = name
            out[key] = series._snapshot_value()
        return out
