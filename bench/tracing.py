"""Layer-boundary tracing installed from outside the program.

``src/`` carries no benchmark tracing, so the traced run wraps the public
callables of each layer in place: a module-level function is rebound in
its defining module and in every loaded ``repro.*`` module that holds the
same object (``from x import f`` copies survive a patch of ``x.f``
otherwise); a method is rebound on its class.  :meth:`Tracer.uninstall`
puts every original back.

Each wrapped call pushes a frame, so a layer's *self* time — its time
minus the time nested boundaries cover — is accumulated exactly as calls
return, for both flavours of boundary:

- a *span* boundary also records ``(id, parent, name, layer, start, end,
  op, attrs)``;
- a *hot* boundary (more than ~1e5 calls per pass: ``is_online``,
  ``believes_alive``, ``decide_forwarding``, ``derive_rng``...) only adds
  to its ``(boundary, parent layer) -> calls, total ns, self ns`` cell.

:func:`calibrate_wrapper_cost` measures what one wrapped call adds inside
and outside the measured interval, so the shares reported in
``bench/layers.py`` have the wrappers' own cost taken out.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import json
import sys
import time
from typing import Any, Callable, Optional


@dataclasses.dataclass(frozen=True)
class Boundary:
    """One public callable at a layer boundary."""

    target: str  #: dotted name, resolved when the tracer is installed
    layer: str
    hot: bool = False
    #: (result, positional args) -> span attributes (span boundaries only)
    attrs: Optional[Callable[[Any, tuple], dict]] = None


def _mpil_attrs(result: Any, args: tuple) -> dict:
    return {"msgs": result.traffic, "dups": result.duplicates}


def _counters_attrs(result: Any, args: tuple) -> dict:
    # PendingLookup.counters keeps counting until the scheduler quiesces;
    # holding the object (not a copy) reads the final values at analysis
    return {"counters": result.counters}


def _pastry_attrs(result: Any, args: tuple) -> dict:
    return {"msgs": result.messages, "retx": result.retransmissions}


def _task_attrs(result: Any, args: tuple) -> dict:
    # TaskLedger.claim/complete(self, task, ...): which task the row is for
    return {"task": list(args[1])}


#: The fixed boundary table.  Layers are the ones ISSUE 11 names; a target
#: that stops resolving after a refactor lands in ``Tracer.missing`` and
#: its layer's metrics are reported as missing, never as zero.
BOUNDARIES: tuple[Boundary, ...] = (
    # experiments: the pipeline choke point and the shared testbed build
    Boundary("repro.experiments.spec.ExperimentSpec.run", "experiments.spec"),
    Boundary("repro.experiments.perturbed.build_testbed", "experiments.spec"),
    # overlay construction
    Boundary("repro.overlay.power_law.power_law_graph", "overlay"),
    Boundary("repro.overlay.random_graphs.fixed_degree_random_graph", "overlay"),
    Boundary("repro.overlay.graph.OverlayGraph.adjacency_arrays", "overlay"),
    Boundary("repro.overlay.transit_stub.TransitStubUnderlay.for_size", "overlay"),
    Boundary("repro.overlay.transit_stub.TransitStubUnderlay.random_attachment", "overlay"),
    Boundary("repro.sim.latency.UnderlayLatency.__init__", "overlay"),
    # MPIL core
    Boundary("repro.core.metric.NeighborMetricTable.__init__", "core.metric"),
    Boundary("repro.core.metric.NeighborMetricTable.scores_with_self", "core.metric", hot=True),
    Boundary("repro.core.routing.decide_forwarding", "core.routing", hot=True),
    Boundary("repro.core.network.MPILNetwork.__init__", "core.network"),
    Boundary("repro.core.network.MPILNetwork.insert", "core.network", attrs=_mpil_attrs),
    Boundary("repro.core.network.MPILNetwork.lookup", "core.network", attrs=_mpil_attrs),
    Boundary("repro.core.timed.TimedMPILNetwork.lookup_at", "core.timed", attrs=_counters_attrs),
    Boundary(
        "repro.core.timed.TimedMPILNetwork.start_lookup", "core.timed", attrs=_counters_attrs
    ),
    # simulation substrate
    Boundary("repro.sim.engine.EventScheduler.run", "sim.engine"),
    Boundary("repro.sim.engine.EventScheduler.post", "sim.engine", hot=True),
    Boundary("repro.sim.rng.derive_rng", "sim.rng", hot=True),
    # Pastry baseline
    Boundary("repro.pastry.protocol.PastryNetwork.__init__", "pastry.state"),
    Boundary("repro.pastry.mpil_on_pastry.make_mpil_over_pastry", "pastry.state"),
    Boundary("repro.pastry.protocol.PastryNetwork.insert_static", "pastry.protocol"),
    Boundary("repro.pastry.protocol.PastryNetwork.lookup", "pastry.protocol", attrs=_pastry_attrs),
    Boundary("repro.pastry.views.ProbedViewOracle.__init__", "pastry.views"),
    Boundary("repro.pastry.views.ProbedViewOracle.believes_alive", "pastry.views", hot=True),
    Boundary("repro.pastry.rejoin.RejoinAdjustedAvailability.is_online", "pastry.rejoin", hot=True),
    Boundary("repro.pastry.rejoin.IntervalRejoinAvailability.is_online", "pastry.rejoin", hot=True),
    # perturbation
    Boundary("repro.perturbation.flapping.FlappingSchedule.__init__", "perturbation.flapping"),
    Boundary(
        "repro.perturbation.flapping.FlappingSchedule.is_online", "perturbation.flapping", hot=True
    ),
    Boundary("repro.perturbation.outage.RegionalOutage.__init__", "perturbation.outage"),
    Boundary("repro.perturbation.outage.RegionalOutage.is_online", "perturbation.outage", hot=True),
    Boundary(
        "repro.perturbation.timeline.ScenarioTimeline.is_online", "perturbation.timeline", hot=True
    ),
    # service mode
    Boundary("repro.service.driver.service_rows", "service.driver"),
    Boundary("repro.service.driver.run_service", "service.driver"),
    Boundary("repro.service.arrivals.generate_arrivals", "service.driver"),
    Boundary("repro.service.windows.summarize_windows", "service.driver"),
    # sweep runtime, ledger, store (parent-side)
    Boundary("repro.experiments.runner.run_sweep", "experiments.runtime"),
    Boundary("repro.experiments.runtime.plan_tasks", "experiments.runtime"),
    Boundary("repro.experiments.runtime.drain_ledger", "experiments.runtime"),
    Boundary("repro.experiments.ledger.TaskLedger.ensure", "experiments.ledger"),
    Boundary("repro.experiments.ledger.TaskLedger.reset_all", "experiments.ledger"),
    Boundary("repro.experiments.ledger.TaskLedger.claim", "experiments.ledger", attrs=_task_attrs),
    Boundary(
        "repro.experiments.ledger.TaskLedger.complete", "experiments.ledger", attrs=_task_attrs
    ),
    Boundary("repro.experiments.store.ResultStore.save", "experiments.store"),
    Boundary("repro.experiments.store.ResultStore.write_aggregate", "experiments.store"),
    Boundary("repro.experiments.store.aggregate_results", "experiments.store"),
    Boundary("repro.experiments.ledger.file_checksum", "experiments.store"),
)

#: scheduler callbacks are closures the patcher cannot reach by name; the
#: ``post`` shim routes them through a per-layer trampoline chosen by the
#: module that defined the callback
CALLBACK_LAYERS = {
    "repro.core.timed": "core.timed",
    "repro.service.driver": "service.driver",
}

_ENGINE_POST = "repro.sim.engine.EventScheduler.post"


def _call(callback: Callable[..., Any], *args: Any) -> Any:
    return callback(*args)


def resolve(target: str) -> tuple[Any, str, Any]:
    """``(owner, attribute name, raw attribute)`` for a dotted target.

    The owner is a module or a class; for a class the raw attribute is the
    descriptor in its ``__dict__`` (so classmethods restore exactly).
    Raises ``ImportError``/``AttributeError``/``KeyError`` when any part of
    the name is gone.
    """
    parts = target.split(".")
    module = None
    cut = len(parts)
    while cut > 1 and module is None:
        cut -= 1
        try:
            module = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
    if module is None:
        raise ImportError(f"no importable prefix in {target!r}")
    owner: Any = module
    for part in parts[cut:-1]:
        owner = getattr(owner, part)
    name = parts[-1]
    raw = vars(owner)[name] if isinstance(owner, type) else getattr(owner, name)
    return owner, name, raw


class Tracer:
    """Frames, cells and spans for one traced run."""

    def __init__(self, clock: Callable[[], int] = time.perf_counter_ns) -> None:
        self.clock = clock
        #: open frames, innermost last: ``[layer, child ns, span id]``
        self.stack: list[list] = []
        #: ``(boundary, parent layer) -> [calls, total ns, self ns]``
        self.cells: dict[tuple[str, str], list[int]] = {}
        #: ``(id, parent id, name, layer, start ns, end ns, op, attrs)``
        self.spans: list[tuple] = []
        #: time under frames opened with an empty stack
        self.root_ns = 0
        #: label of the benchmark operation in progress (pass/experiment)
        self.op = ""
        #: deepest scheduler heap seen by the ``post`` shim
        self.peak_pending = 0
        #: boundary name -> (layer, hot), for every boundary ever wrapped
        self.boundaries: dict[str, tuple[str, bool]] = {}
        #: targets that did not resolve at install time
        self.missing: list[Boundary] = []
        self._patches: list[tuple[Any, str, Any]] = []
        self._next_span = 0

    # -- wrapping -----------------------------------------------------------

    def wrap(self, fn: Callable[..., Any], boundary: Boundary) -> Callable[..., Any]:
        """``fn`` with frame accounting (and a span unless ``boundary.hot``)."""
        tracer = self
        stack = self.stack
        cells = self.cells
        spans = self.spans
        clock = self.clock
        name, layer, hot, attrs = boundary.target, boundary.layer, boundary.hot, boundary.attrs
        self.boundaries[name] = (layer, hot)

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            parent = stack[-1] if stack else None
            if hot:
                span_id = parent[2] if parent is not None else -1
            else:
                span_id = tracer._next_span
                tracer._next_span = span_id + 1
            frame = [layer, 0, span_id]
            stack.append(frame)
            span_attrs = None
            started = clock()
            try:
                result = fn(*args, **kwargs)
                if attrs is not None:
                    span_attrs = attrs(result, args)
                return result
            finally:
                elapsed = clock() - started
                stack.pop()
                if parent is None:
                    tracer.root_ns += elapsed
                    key = (name, "")
                else:
                    parent[1] += elapsed
                    key = (name, parent[0])
                cell = cells.get(key)
                if cell is None:
                    cell = cells[key] = [0, 0, 0]
                cell[0] += 1
                cell[1] += elapsed
                cell[2] += elapsed - frame[1]
                if not hot:
                    spans.append(
                        (
                            span_id,
                            parent[2] if parent is not None else -1,
                            name,
                            layer,
                            started,
                            started + elapsed,
                            tracer.op,
                            span_attrs,
                        )
                    )

        return wrapper

    def _post_shim(self, original: Callable[..., Any]) -> Callable[..., Any]:
        """``EventScheduler.post`` that trampolines known callbacks into
        their layer and tracks the heap's peak depth."""
        tracer = self
        trampolines = {
            layer: self.wrap(_call, Boundary(f"callback:{layer}", layer, hot=True))
            for layer in CALLBACK_LAYERS.values()
        }
        by_module = {
            module: trampolines[layer] for module, layer in CALLBACK_LAYERS.items()
        }

        @functools.wraps(original)
        def post(engine: Any, when: float, callback: Callable[..., Any], *args: Any) -> None:
            trampoline = by_module.get(getattr(callback, "__module__", None))
            if trampoline is None:
                original(engine, when, callback, *args)
            else:
                original(engine, when, trampoline, callback, *args)
            if engine.pending > tracer.peak_pending:
                tracer.peak_pending = engine.pending

        return post

    # -- patching -----------------------------------------------------------

    def _set(self, owner: Any, name: str, value: Any) -> None:
        self._patches.append((owner, name, vars(owner)[name]))
        setattr(owner, name, value)

    def install(self, boundaries: tuple[Boundary, ...] = BOUNDARIES) -> None:
        """Rebind every resolvable boundary; record the rest as missing."""
        for boundary in boundaries:
            try:
                owner, name, raw = resolve(boundary.target)
            except (ImportError, AttributeError, KeyError):
                self.missing.append(boundary)
                continue
            if isinstance(raw, (classmethod, staticmethod)):
                wrapped: Any = type(raw)(self.wrap(raw.__func__, boundary))
            elif boundary.target == _ENGINE_POST:
                wrapped = self.wrap(self._post_shim(raw), boundary)
            else:
                wrapped = self.wrap(raw, boundary)
            if isinstance(owner, type):
                self._set(owner, name, wrapped)
                continue
            for module in list(sys.modules.values()):
                module_name = getattr(module, "__name__", "")
                if module_name != "repro" and not module_name.startswith("repro."):
                    continue
                for key, value in list(vars(module).items()):
                    if value is raw:
                        self._set(module, key, wrapped)

    def uninstall(self) -> None:
        """Put every original back, last patch first."""
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.uninstall()

    # -- reading ------------------------------------------------------------

    @property
    def missing_layers(self) -> list[str]:
        return sorted({boundary.layer for boundary in self.missing})

    def reset_cells(self) -> None:
        """Start the aggregates afresh (spans and patches stay): the traced
        run does this between its cold set-up and its hot passes."""
        self.cells.clear()
        self.root_ns = 0
        self.peak_pending = 0

    def write_jsonl(self, path: Any) -> int:
        """Spans, then aggregate cells, one JSON object per line."""
        lines = []
        for span_id, parent, name, layer, start, end, op, attrs in self.spans:
            row = {
                "id": span_id,
                "parent": parent,
                "name": name,
                "layer": layer,
                "start_ns": start,
                "end_ns": end,
                "op": op,
            }
            for key, value in (attrs or {}).items():
                row[key] = value.as_dict() if hasattr(value, "as_dict") else value
            lines.append(json.dumps(row, sort_keys=True))
        for (name, parent_layer), (calls, total, self_ns) in sorted(self.cells.items()):
            layer, hot = self.boundaries[name]
            lines.append(
                json.dumps(
                    {
                        "aggregate": name,
                        "layer": layer,
                        "parent_layer": parent_layer,
                        "hot": hot,
                        "calls": calls,
                        "total_ns": total,
                        "self_ns": self_ns,
                    },
                    sort_keys=True,
                )
            )
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("".join(line + "\n" for line in lines))
        return len(lines)


def _noop(value: int) -> int:
    return value


def calibrate_wrapper_cost(calls: int = 50_000) -> dict[bool, tuple[float, float]]:
    """``hot -> (inner ns, outer ns)`` that one wrapped call adds.

    *inner* is what the wrapper's own interval reads for a no-op (charged
    to the callee's self time); *outer* is the rest of the per-call cost
    (charged to whoever called).  Both flavours are measured nested under
    an open frame, as real boundaries are.
    """
    started = time.perf_counter_ns()
    for _ in range(calls):
        _noop(1)
    bare = (time.perf_counter_ns() - started) / calls
    costs: dict[bool, tuple[float, float]] = {}
    for hot in (True, False):
        tracer = Tracer()
        wrapped = tracer.wrap(_noop, Boundary("bench.noop", "bench", hot=hot))
        tracer.stack.append(["bench", 0, -1])
        started = time.perf_counter_ns()
        for _ in range(calls):
            wrapped(1)
        per_call = (time.perf_counter_ns() - started) / calls - bare
        inner = tracer.cells[("bench.noop", "bench")][1] / calls
        costs[hot] = (inner, max(0.0, per_call - inner))
    return costs
