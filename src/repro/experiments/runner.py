"""Resumable sweep runner: many experiments × many seeds, one result store.

The paper's headline numbers are Monte-Carlo aggregates over many seeds and
topologies.  This module turns that into a first-class workflow: a
:class:`SweepSpec` names the experiments, the seed set, and the scale; and
:func:`run_sweep` executes every (experiment, seed) task, persisting each
replicate through a :class:`~repro.experiments.store.ResultStore` and
writing one aggregate (mean/stdev/ci95) table per experiment.

Every sweep is *durable*: every task is tracked in the store's task
journal (:mod:`repro.experiments.ledger`) and executed by the
crash-tolerant runtime (:mod:`repro.experiments.runtime`) — up to ``jobs``
long-lived worker processes fed one task at a time and replaced when they
die, hang or raise, per-task timeouts, bounded retry with backoff, and
atomic write-then-rename artifact commits.  ``resume=True`` makes an
interrupted sweep pick up where it stopped: verified-``done`` tasks are
skipped, orphaned ``running`` claims are reclaimed, and ``failed`` tasks
get a fresh retry budget.  A :class:`SweepReport` describes each task
with a record that already exists: an executed task by its
:class:`~repro.experiments.runtime.TaskOutcome` (which holds the
replicate's :class:`~repro.experiments.base.ExperimentResult`), a skipped
or permanently failed one by its ledger row
(:class:`~repro.experiments.ledger.TaskRow`).  The sweep holds the
store's ``sweep.lock`` from its first ledger write until its last
aggregate is written.  A storeless sweep (``store=None``) is the same
sweep over a private scratch store, removed before it returns or raises.

Determinism is preserved under parallelism, retries, and resumption: each
task re-derives all of its randomness from its own ``(experiment_id,
scale, seed)`` triple via :func:`repro.sim.rng.derive_rng`, a worker
carries nothing from one task into the next that could reach a result,
and per-seed JSON plus aggregates are byte-identical however — and in
however many runs — the sweep was executed.

Examples::

    from repro.experiments.runner import SweepSpec, run_sweep
    from repro.experiments.store import ResultStore

    spec = SweepSpec.parse(("fig9", "tab1"), "0..3", scale="smoke")
    report = run_sweep(spec, ResultStore("results"), jobs=2)
    # ... interrupted?  The second call re-runs only what is missing:
    report = run_sweep(spec, ResultStore("results"), jobs=2, resume=True)
    for aggregate in report.aggregates:
        print(aggregate.table())

or, from the shell::

    mpil-experiments sweep fig9 tab1 --seeds 0..3 --jobs 2 --format table
    mpil-experiments sweep fig9 tab1 --seeds 0..3 --jobs 2 --resume
    mpil-experiments status fig9
"""

from __future__ import annotations

import dataclasses
import pathlib
import tempfile
import time
from typing import Callable, Iterable, Optional, Union

from repro.errors import ExperimentError
from repro.experiments.base import ExperimentResult
from repro.experiments.ledger import TaskKey, TaskRow, file_checksum
from repro.experiments.registry import get_spec
from repro.experiments.runtime import (
    RuntimeConfig,
    TaskOutcome,
    drain_ledger,
    plan_tasks,
)
from repro.experiments.scales import get_scale
from repro.experiments.spec import validate_seed
from repro.experiments.store import ResultStore, aggregate_results

__all__ = [
    "SweepReport",
    "SweepSpec",
    "TaskOutcome",
    "parse_seeds",
    "run_sweep",
    "save_outcome",
]


def parse_seeds(text: str) -> tuple[int, ...]:
    """Parse a seed specification into an ascending tuple of ints.

    Accepts a single seed (``"7"``), an inclusive range (``"0..9"``), or a
    comma-separated list (``"0,2,5"``).

    >>> parse_seeds("0..3")
    (0, 1, 2, 3)
    >>> parse_seeds("4")
    (4,)
    >>> parse_seeds("5,1,3")
    (1, 3, 5)
    """
    text = text.strip()
    try:
        if ".." in text:
            low_text, high_text = text.split("..", 1)
            low, high = int(low_text), int(high_text)
            if high < low:
                raise ExperimentError(f"empty seed range {text!r}")
            return tuple(range(low, high + 1))
        if "," in text:
            return tuple(sorted({int(part) for part in text.split(",") if part.strip()}))
        return (int(text),)
    except ValueError:
        raise ExperimentError(
            f"bad seed spec {text!r}; expected e.g. '7', '0..9', or '0,2,5'"
        ) from None


@dataclasses.dataclass(frozen=True)
class SweepSpec:
    """One sweep: experiment ids × seeds, at one scale.

    Validated eagerly so a bad id or seed fails in the parent process, not
    half-way through a worker pool.
    """

    experiment_ids: tuple[str, ...]
    seeds: tuple[int, ...]
    scale: str = "default"

    def __post_init__(self) -> None:
        if not self.experiment_ids:
            raise ExperimentError("sweep needs at least one experiment id")
        deduped = tuple(dict.fromkeys(self.experiment_ids))
        object.__setattr__(self, "experiment_ids", deduped)
        if not self.seeds:
            raise ExperimentError("sweep needs at least one seed")
        for seed in self.seeds:
            validate_seed(seed)
        object.__setattr__(self, "seeds", tuple(dict.fromkeys(self.seeds)))
        for experiment_id in self.experiment_ids:
            get_spec(experiment_id)  # raises on unknown ids
        get_scale(self.scale)  # raises on unknown scales

    @classmethod
    def parse(
        cls,
        experiments: Union[str, Iterable[str]],
        seeds: Union[str, Iterable[int]],
        scale: str,
    ) -> "SweepSpec":
        """The spec for what a caller typed: one id or several, and a seed
        spec string (:func:`parse_seeds`) or the seeds themselves."""
        if isinstance(experiments, str):
            experiments = (experiments,)
        seed_tuple = parse_seeds(seeds) if isinstance(seeds, str) else tuple(seeds)
        return cls(tuple(experiments), seed_tuple, scale)

    def tasks(self) -> list[TaskKey]:
        """All (experiment_id, scale, seed) tasks, in deterministic order."""
        return [
            (experiment_id, self.scale, seed)
            for experiment_id in self.experiment_ids
            for seed in self.seeds
        ]


@dataclasses.dataclass
class SweepReport:
    """Everything one :func:`run_sweep` call produced.

    ``outcomes`` holds the tasks *executed* by this call (completion
    order), each with its :class:`ExperimentResult`.  ``skipped`` and
    ``failures`` are ledger rows (:class:`TaskRow`): the verified ``done``
    rows a resumed sweep did not re-run and, when retry budgets ran out,
    the ``failed`` rows, whose ``attempts`` and ``error`` are what
    ``status`` shows.  ``aggregates`` covers executed *and* skipped
    replicates — one entry per experiment id in spec order, omitting
    experiments whose every task failed.  ``cache_clears`` counts the
    tasks that reached a worker holding another ``(scale, seed)``, each
    of which emptied that worker's construction caches.
    """

    spec: SweepSpec
    outcomes: list[TaskOutcome]
    aggregates: list[ExperimentResult]
    wall_clock: float  #: end-to-end sweep time in the parent
    skipped: list[TaskRow] = dataclasses.field(default_factory=list)
    failures: list[TaskRow] = dataclasses.field(default_factory=list)
    cache_clears: int = 0

    def outcome(self, experiment_id: str, seed: int) -> TaskOutcome:
        for outcome in self.outcomes:
            if outcome.experiment_id == experiment_id and outcome.seed == seed:
                return outcome
        raise ExperimentError(f"no outcome for {experiment_id!r} seed {seed}")


def save_outcome(store: ResultStore, outcome: TaskOutcome) -> pathlib.Path:
    """Record one measured replicate — artifact, telemetry blob, manifest
    entry — the same way whoever ran it: a sweep's commit or the CLI's
    ``run``/``compose``/``serve --out``.  Returns the artifact's path."""
    return store.save(
        outcome.result,
        seed=outcome.seed,
        wall_clock=outcome.wall_clock,
        events_processed=outcome.events_processed,
    )


def _aggregate(
    spec: SweepSpec,
    outcomes: list[TaskOutcome],
    skipped: list[TaskRow],
    store: ResultStore,
) -> list[ExperimentResult]:
    """Aggregate executed + skipped replicates per experiment, writing each
    aggregate to ``store``.  Replicates are taken in canonical task order,
    so the aggregate bytes never depend on completion order or on how many
    runs it took to converge."""
    results_by_task: dict[TaskKey, ExperimentResult] = {
        outcome.task: outcome.result for outcome in outcomes
    }
    for row in skipped:
        results_by_task[row.key] = store.load(*row.key)
    tasks = spec.tasks()
    aggregates: list[ExperimentResult] = []
    for experiment_id in spec.experiment_ids:
        cell = [
            (task, results_by_task[task])
            for task in tasks
            if task[0] == experiment_id and task in results_by_task
        ]
        if not cell:
            continue  # every replicate failed; reported in failures
        aggregate = aggregate_results([result for _, result in cell])
        aggregates.append(aggregate)
        store.write_aggregate(aggregate, [task[2] for task, _ in cell])
    return aggregates


def run_sweep(
    spec: SweepSpec,
    store: Optional[ResultStore] = None,
    jobs: int = 1,
    progress: Optional[Callable[[TaskOutcome], None]] = None,
    resume: bool = False,
    max_retries: int = 2,
    task_timeout: Optional[float] = None,
) -> SweepReport:
    """Execute a sweep, persist replicates, and aggregate each experiment.

    Tasks run through the durable ledger runtime: at most ``jobs`` worker
    processes (``jobs=1`` is one worker, not this process), each task
    claimed in the ledger before a worker receives it, crashed/hung/raising
    attempts retried up to ``max_retries`` times (``task_timeout`` bounds
    each attempt) on a replacement worker, artifacts committed atomically,
    and — with ``resume=True`` — verified-complete tasks skipped instead of
    recomputed.  Tasks whose retry budget runs out are recorded as
    ``failed`` in the ledger and reported in :attr:`SweepReport.failures`
    rather than raised, so one poisoned seed cannot discard an
    otherwise-complete sweep.

    Without a store the sweep runs the same way on a scratch store in a
    temporary directory, removed before this returns or raises; the
    report holds the outcomes and aggregates.  There is nothing to resume
    from, so ``resume=True`` is rejected.
    """
    config = RuntimeConfig(jobs=jobs, max_retries=max_retries, task_timeout=task_timeout)
    if store is None:
        if resume:
            raise ExperimentError("resume=True needs a result store to resume from")
        with tempfile.TemporaryDirectory(prefix="sweep-") as scratch:
            return run_sweep(
                spec, ResultStore(scratch), jobs, progress,
                max_retries=max_retries, task_timeout=task_timeout,
            )
    started = time.perf_counter()
    for experiment_id in spec.experiment_ids:
        # a corrupt manifest fails here, before any task is claimed
        store.manifest(experiment_id, spec.scale)
    ledger = store.ledger

    def commit(outcome: TaskOutcome) -> str:
        # the one hash of the artifact: what the ledger records as done
        # and what a resume verifies the bytes on disk against
        return file_checksum(save_outcome(store, outcome))

    try:  # the first ledger write takes the store's sweep.lock
        to_run, skipped = plan_tasks(
            ledger, spec.tasks(), resume=resume, verify=store.verify_artifact
        )
        outcomes, failures, cache_clears = drain_ledger(
            to_run, ledger, config, commit, progress=progress
        )
        aggregates = _aggregate(spec, outcomes, skipped, store)
    finally:
        ledger.close()  # and with it the lock, after the last aggregate

    return SweepReport(
        spec=spec,
        outcomes=outcomes,
        aggregates=aggregates,
        wall_clock=time.perf_counter() - started,
        skipped=skipped,
        failures=failures,
        cache_clears=cache_clears,
    )
