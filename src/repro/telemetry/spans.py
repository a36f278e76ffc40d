"""Deterministic causal spans keyed by simulation time.

A :class:`Span` is one observed step of protocol work — a message send, a
forward decision, a duplicate drop, a reply — timestamped in *simulation*
time (hop index for the synchronous BFS driver, scheduler time for the
timed/service drivers), never wall clock.  Spans carry parent links so a
single lookup's full hop tree (send → forward → dup-drop → reply) is
reconstructable from the flat record stream.

Identity is positional, not random: trace and span ids are monotonic
sequence numbers handed out by the :class:`SpanRecorder` as the (single
threaded, deterministic) simulation emits work.  Two runs with the same
seed therefore produce byte-identical span streams — the property the
JSONL exporter (:mod:`repro.telemetry.sinks`) and the on/on determinism
test rely on.

The recorder is bounded: past ``max_spans`` new spans are counted in
:attr:`SpanRecorder.dropped` rather than silently discarded, so a
truncated trace is never mistaken for a complete one.
"""

from __future__ import annotations

import dataclasses
from typing import Iterator, Optional

from repro.errors import ConfigurationError


@dataclasses.dataclass(frozen=True)
class Span:
    """One recorded protocol step, parent-linked into a per-request tree.

    ``start``/``end`` are simulation timestamps (equal for instantaneous
    steps).  ``parent_id`` is ``None`` only for a request's root span.
    """

    trace_id: str
    span_id: int
    parent_id: Optional[int]
    name: str
    node: Optional[int]
    start: float
    end: float
    attrs: tuple[tuple[str, object], ...] = ()

    def to_dict(self) -> dict:
        return {
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "node": self.node,
            "start": self.start,
            "end": self.end,
            "attrs": {key: value for key, value in self.attrs},
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Span":
        return cls(
            trace_id=data["trace_id"],
            span_id=data["span_id"],
            parent_id=data["parent_id"],
            name=data["name"],
            node=data["node"],
            start=data["start"],
            end=data["end"],
            attrs=tuple(sorted(data.get("attrs", {}).items())),
        )

    def __str__(self) -> str:
        parent = "-" if self.parent_id is None else str(self.parent_id)
        at = f"@{self.node}" if self.node is not None else ""
        rendered = " ".join(f"{k}={v}" for k, v in self.attrs)
        suffix = f" {rendered}" if rendered else ""
        return (
            f"[{self.trace_id} #{self.span_id}<-{parent} t={self.start:g}] "
            f"{self.name}{at}{suffix}"
        )


class SpanRecorder:
    """Append-only bounded span sink with monotonic trace/span ids.

    One recorder serves a whole run; each request opens its own trace via
    :meth:`begin_trace` and emits spans under it.  Simulation code never
    reads back from the recorder — observation cannot perturb the run.
    """

    def __init__(self, max_spans: Optional[int] = 200_000) -> None:
        if max_spans is not None and (
            isinstance(max_spans, bool) or not isinstance(max_spans, int) or max_spans < 0
        ):
            raise ConfigurationError(
                f"max_spans must be a non-negative integer or None, got {max_spans!r}"
            )
        self._spans: list[Span] = []
        self._max_spans = max_spans
        self._dropped = 0
        self._next_trace = 0
        self._next_span = 0

    def begin_trace(self, name: str) -> str:
        """Open a new trace (one per request); returns its id.

        Ids are ``"<seq>:<name>"`` with a recorder-monotonic sequence
        number — deterministic under the single-threaded simulation and
        stable across identically seeded runs.
        """
        trace_id = f"{self._next_trace:06d}:{name}"
        self._next_trace += 1
        return trace_id

    def emit(
        self,
        trace_id: str,
        name: str,
        node: Optional[int] = None,
        start: float = 0.0,
        end: Optional[float] = None,
        parent_id: Optional[int] = None,
        **attrs: object,
    ) -> int:
        """Record one span; returns its id for use as a child's parent.

        Past ``max_spans`` the span is counted in :attr:`dropped` instead
        of stored — but an id is still allocated, so parent links in the
        surviving prefix stay valid and later runs of the same seed give
        identical ids regardless of the cap.
        """
        span_id = self._next_span
        self._next_span += 1
        if self._max_spans is not None and len(self._spans) >= self._max_spans:
            self._dropped += 1
            return span_id
        self._spans.append(
            Span(
                trace_id=trace_id,
                span_id=span_id,
                parent_id=parent_id,
                name=name,
                node=node,
                start=start,
                end=start if end is None else end,
                attrs=tuple(sorted(attrs.items())),
            )
        )
        return span_id

    @property
    def dropped(self) -> int:
        """Spans discarded because the recorder was full."""
        return self._dropped

    def __len__(self) -> int:
        return len(self._spans)

    def __iter__(self) -> Iterator[Span]:
        return iter(self._spans)

    def __str__(self) -> str:
        suffix = f", {self._dropped} dropped" if self._dropped else ""
        return f"SpanRecorder({len(self._spans)} spans{suffix})"

    def spans(
        self,
        trace_id: Optional[str] = None,
        name: Optional[str] = None,
        node: Optional[int] = None,
    ) -> list[Span]:
        """Recorded spans, optionally filtered (order of emission)."""
        out = []
        for span in self._spans:
            if trace_id is not None and span.trace_id != trace_id:
                continue
            if name is not None and span.name != name:
                continue
            if node is not None and span.node != node:
                continue
            out.append(span)
        return out

    def trace_ids(self) -> list[str]:
        """Distinct trace ids in first-seen order."""
        seen: dict[str, None] = {}
        for span in self._spans:
            if span.trace_id not in seen:
                seen[span.trace_id] = None
        return list(seen)

    def clear(self) -> None:
        self._spans.clear()
        self._dropped = 0
        self._next_trace = 0
        self._next_span = 0
