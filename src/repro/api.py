"""repro.api — the one-stop facade over the experiment layer.

Four verbs cover the workflow end to end:

- :func:`list_experiments` — registered specs with their metadata (tags,
  paper figure, scenario family), optionally filtered by tags;
- :func:`run` — one experiment (by id, or an unregistered
  :class:`~repro.experiments.spec.ExperimentSpec`) at one seed;
- :func:`sweep` — experiments x seeds across a crash-tolerant worker
  pool, persisting replicates, a durable task ledger, and aggregates
  through a :class:`~repro.experiments.store.ResultStore`;
  ``resume=True`` re-runs only what an interrupted sweep left behind;
- :func:`sweep_status` — a sweep's ledger rows (task states, attempts,
  checksums) without running anything;
- :func:`compose` — build a runnable spec from a declarative TOML file or
  dict (see :mod:`repro.experiments.compose`), no module required;
- :func:`telemetry` — run one experiment with span recording on and get
  back the result together with its span stream and metrics snapshot
  (see :mod:`repro.telemetry`); the run itself is byte-identical to an
  untraced one.

Example::

    from repro import api

    print([spec.experiment_id for spec in api.list_experiments(tags=("ext",))])
    result = api.run("fig9", scale="smoke", seed=1)
    report = api.sweep(["fig9", "tab1"], seeds="0..3", scale="smoke", jobs=2,
                       store="results")
    # interrupted?  finish what's missing, skip what's verified complete:
    report = api.sweep(["fig9", "tab1"], seeds="0..3", scale="smoke", jobs=2,
                       store="results", resume=True)
    custom = api.compose("severity-sweep.toml")
    print(api.run(custom, scale="smoke").table())

Composed specs can also be registered (``api.compose(path,
register_spec=True)``) so they resolve by id like any built-in — which is
what the ``mpil-experiments compose`` command does before routing the run
through the result store.
"""

from __future__ import annotations

import dataclasses
import pathlib
from typing import Iterable, Mapping, Optional, Union

from repro.errors import ExperimentError
from repro.experiments.base import ExperimentResult
from repro.experiments.compose import compose_spec, load_spec_file
from repro.experiments.ledger import TaskRow
from repro.experiments.registry import (
    get_spec,
    list_experiments as _registry_list,
    register,
    run_experiment,
    unregister,
)
from repro.experiments.runner import SweepReport, SweepSpec, run_sweep
from repro.experiments.scales import (
    Scale,
    all_scales,
    get_scale,
    register_scale,
    unregister_scale,
)
from repro.experiments.spec import ExperimentSpec
from repro.experiments.store import ResultStore
from repro.telemetry import SpanRecorder, Telemetry

__all__ = [
    "ExperimentResult",
    "ExperimentSpec",
    "Scale",
    "SweepReport",
    "TelemetryRun",
    "compose",
    "get",
    "get_scale",
    "list_experiments",
    "register",
    "register_scale",
    "run",
    "scales",
    "serve",
    "sweep",
    "sweep_status",
    "telemetry",
    "unregister",
    "unregister_scale",
]


def scales() -> list[Scale]:
    """Every known scale rung — built-in and registered — sorted by name.

    This (with :func:`get_scale` and :func:`register_scale`) is the
    supported way to work with rungs; reaching into
    ``experiments.scales.SCALES`` only sees the built-ins.

    >>> from repro import api
    >>> [s.name for s in api.scales()][:3]
    ['default', 'large', 'paper']
    """
    return list(all_scales())


def list_experiments(tags: Iterable[str] = ()) -> list[ExperimentSpec]:
    """Registered experiment specs, optionally filtered by tags.

    >>> from repro import api
    >>> all(spec.matches_tags(("ext",)) for spec in api.list_experiments(("ext",)))
    True
    """
    return _registry_list(tags)


def run(
    experiment: Union[str, ExperimentSpec],
    scale: Union[str, Scale] = "default",
    seed: int = 0,
) -> ExperimentResult:
    """Run one experiment — a registered id or a composed spec.

    The process-wide event total is left as it was, so a caller's own
    before/after reading of ``events_processed_total()`` around this call
    stays meaningful (the measured path that zeroes it is
    :func:`repro.experiments.runtime.execute_task`).
    """
    return run_experiment(experiment, scale=scale, seed=seed)


def service_run(
    experiment: Union[str, ExperimentSpec],
    scale: Union[str, Scale],
    rate: Optional[float],
    duration: Optional[float],
    window: Optional[float],
) -> tuple[ExperimentSpec, Scale]:
    """What ``serve`` runs — here and in the CLI: the spec, which must be
    tagged ``service``, and the scale with the traffic overrides applied."""
    spec = get_spec(experiment)
    if "service" not in spec.tags:
        raise ExperimentError(
            f"{spec.experiment_id!r} is not a service-mode experiment; pick one "
            f"tagged 'service' (`list --tags service`, api.list_experiments(('service',)))"
        )
    overrides = {
        f"service_{knob}": float(value)
        for knob, value in (("rate", rate), ("duration", duration), ("window", window))
        if value is not None
    }
    return spec, get_scale(scale).evolve(**overrides)


def serve(
    experiment: str = "svc-steady",
    scale: Union[str, Scale] = "default",
    seed: int = 0,
    rate: Optional[float] = None,
    duration: Optional[float] = None,
    window: Optional[float] = None,
) -> ExperimentResult:
    """Run a sustained-traffic service experiment, like the CLI ``serve``.

    Service experiments (ids ``svc-*``, tag ``service``) replay an
    open-loop arrival stream against a perturbed overlay and report
    per-window p50/p95/p99 discovery latency, throughput, in-flight
    depth, and SLO verdicts (see :mod:`repro.service`).  ``rate``,
    ``duration``, and ``window`` override the scale preset's traffic
    knobs; ``None`` keeps the preset's value.

    >>> from repro import api
    >>> result = api.serve("svc-steady", scale="smoke", rate=0.2)
    >>> "latency_p99" in result.columns
    True
    """
    spec, scale = service_run(experiment, scale, rate, duration, window)
    return spec.run(scale=scale, seed=seed)


def sweep(
    experiments: Union[str, Iterable[str]],
    seeds: Union[str, Iterable[int]] = "0..9",
    scale: str = "default",
    jobs: int = 1,
    store: Union[ResultStore, str, pathlib.Path, None] = None,
    resume: bool = False,
    max_retries: int = 2,
    task_timeout: Optional[float] = None,
) -> SweepReport:
    """Run registered experiments over a seed set, like the CLI ``sweep``.

    ``seeds`` accepts the CLI's spec syntax (``"0..9"``, ``"0,2,5"``,
    ``"7"``) or an iterable of ints; ``store`` may be a
    :class:`~repro.experiments.store.ResultStore`, a directory path, or
    ``None`` to keep results in memory only.  With a store the sweep is
    durable (an append-only task journal, up to ``jobs`` crash-tolerant worker
    processes that are reused from task to task, atomic artifact
    commits): ``resume=True`` skips verified-complete tasks from an
    earlier interrupted call, ``max_retries``/``task_timeout`` bound
    crashed and hung workers.  Retries and timeouts apply only with a
    store: without one a ``task_timeout`` is an error.  Workers are forked
    where the platform forks, so scales and specs registered in this
    process reach them.  The :class:`SweepReport` holds one
    :class:`~repro.experiments.runtime.TaskOutcome` per executed task (its
    ``result`` is the replicate) and the ledger's
    :class:`~repro.experiments.ledger.TaskRow` for each skipped or failed
    task.
    """
    if isinstance(store, (str, pathlib.Path)):
        store = ResultStore(store)
    return run_sweep(
        SweepSpec.parse(experiments, seeds, scale),
        store,
        jobs=jobs,
        resume=resume,
        max_retries=max_retries,
        task_timeout=task_timeout,
    )


def sweep_status(
    store: Union[ResultStore, str, pathlib.Path],
    experiment: Optional[str] = None,
    scale: Optional[str] = None,
) -> list[TaskRow]:
    """A sweep's ledger rows, like the CLI ``status`` (read-only, lock-free).

    Each :class:`~repro.experiments.ledger.TaskRow` carries the task's
    state (``pending/running/done/failed``), attempt count, worker id,
    committed-artifact checksum, and last error.  A store no sweep has
    run against has no ledger: that is an
    :class:`~repro.errors.ExperimentError`, and nothing is created.
    """
    if isinstance(store, (str, pathlib.Path)):
        store = ResultStore(store)
    ledger = store.ledger  # an old sqlite ledger is refused here, in one line
    if not ledger.path.exists():
        raise ExperimentError(
            f"no sweep ledger at {ledger.path}; "
            f"run `sweep --out {store.root}` first"
        )
    return ledger.rows(experiment_id=experiment, scale=scale)


@dataclasses.dataclass(frozen=True)
class TelemetryRun:
    """What :func:`telemetry` returns: the result plus its observations.

    ``spans`` is the full :class:`~repro.telemetry.SpanRecorder` (iterate
    it, filter with ``spans.spans(...)``, or export via
    :mod:`repro.telemetry.sinks`); ``metrics`` is the run registry's final
    deterministic snapshot.
    """

    result: ExperimentResult
    spans: SpanRecorder
    metrics: dict


def telemetry(
    experiment: Union[str, ExperimentSpec],
    scale: Union[str, Scale] = "default",
    seed: int = 0,
    max_spans: Optional[int] = 200_000,
) -> TelemetryRun:
    """Run one experiment with span recording on (the ``trace`` command's
    programmatic face).

    Tracing never perturbs the run: the result is byte-identical to
    :func:`run` with the same arguments.  ``max_spans`` bounds the
    recorder (excess spans are counted in ``spans.dropped``, not silently
    lost); ``None`` removes the cap, and anything but a non-negative int
    or ``None`` is a :class:`~repro.errors.ConfigurationError`.

    >>> from repro import api
    >>> traced = api.telemetry("fig9", scale="smoke", seed=1)
    >>> traced.result == api.run("fig9", scale="smoke", seed=1)
    True
    >>> len(traced.spans) > 0
    True
    """
    handle = Telemetry.with_spans(max_spans=max_spans)
    result = run_experiment(experiment, scale=scale, seed=seed, telemetry=handle)
    assert handle.spans is not None
    return TelemetryRun(
        result=result, spans=handle.spans, metrics=handle.metrics.snapshot()
    )


def compose(
    source: Union[Mapping, str, pathlib.Path],
    register_spec: bool = False,
) -> ExperimentSpec:
    """Build an :class:`ExperimentSpec` from a TOML/JSON file or a dict.

    With ``register_spec=True`` the composed spec is also added to the
    registry (duplicate ids rejected), so it resolves by id in
    :func:`run` and — within this process — :func:`sweep`; remove it
    again with :func:`unregister`.  Runtime registrations live only in
    the registering process: sweep composed specs without a store and
    with ``jobs=1`` (the one sweep that runs in this process), or on a
    fork-based platform (Linux), where workers inherit them — spawn-based
    workers (macOS/Windows) re-import the registry and see only the
    built-ins, and a sweep with a store runs even ``jobs=1`` in one.
    """
    if isinstance(source, (str, pathlib.Path)):
        source = load_spec_file(source)
    spec = compose_spec(source)
    if register_spec:
        register(spec)
    return spec


def get(experiment_id: str) -> ExperimentSpec:
    """The registered spec for an id (metadata access without running)."""
    return get_spec(experiment_id)
