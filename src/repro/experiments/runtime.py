"""Crash-tolerant sweep executor: drain the task ledger with a worker pool.

This is the execution half of the resumable sweep runtime (the persistence
half is :mod:`repro.experiments.ledger`).  It provides:

- :func:`execute_task` — the one measured run: zero the process-wide
  event total, run one replicate, time it, read the event total and
  return a :class:`TaskOutcome` holding the replicate's
  :class:`~repro.experiments.base.ExperimentResult`.  The sweep workers,
  the in-process sweep and the CLI's ``run``/``compose``/``serve``/``trace``
  all go through it;
- :func:`plan_tasks` — the resume planner: decide, from ledger states and
  artifact checksums, which tasks still need to run and which verified
  ``done`` tasks can be skipped (reported as their ledger rows);
- :class:`WorkerPool` — the worker mechanics: at most ``jobs`` long-lived
  worker processes, each looping *receive task → run → send result* on its
  own pipe, spawned on demand and replaced when they die, overrun a
  deadline or report an exception.  It knows nothing about ledgers;
- :func:`drain_ledger` — the durable policy over a pool: claim in the
  ledger, send, commit the result, complete; per-task timeouts and bounded
  retry with exponential backoff, a task out of retries reported as its
  ``failed`` ledger row;
- :func:`run_in_workers` — the storeless policy over the same pool: no
  ledger, no retry, the first failure raises.

Fault model
-----------

Workers may raise, hang, or die outright (SIGKILL); the parent may itself
be killed or interrupted between any two operations.  The design holds up
because

- every artifact commit is *atomic* (the store writes to a temp file and
  ``os.replace``\\ s it into place) and is followed — not preceded — by the
  ledger's ``running -> done`` transition with the artifact's checksum, so
  a crash at any point leaves either no artifact, or an uncommitted
  artifact that the next resume re-verifies and rewrites;
- all ledger and store writes happen in the parent, so a worker crash can
  never corrupt shared state — the parent observes it (EOF on the dead
  worker's pipe, or a deadline breach for hung workers, which get
  SIGTERM-then-SIGKILLed) and either re-queues the task or marks it
  ``failed`` once the retry budget is exhausted; the worker is gone either
  way and a replacement is spawned when a task next needs one;
- a task is claimed *before* it is sent, and leaving the pool — by return
  or by any exception, ``KeyboardInterrupt`` included — retires every
  worker, so no process outlives the sweep and none computes an unclaimed
  task;
- a parent crash strands ``running`` rows, which the next resume reclaims
  (``release``) before execution, and a ``sweep.lock`` naming a dead pid,
  which the next writer takes over; it orphans the workers, which read EOF
  on their pipes and exit.

Determinism survives worker reuse: a task draws all of its randomness
from RNGs derived from its own ``(experiment_id, scale, seed)``,
:func:`execute_task` zeroes the process-wide event total at task
start, and the only other state a worker carries from task to task is the
construction caches, which are keyed by seed, hold pure functions of their
keys, and are emptied whenever the next task's ``(scale, seed)`` differs
from the last.  So retries, worker counts and the task → worker history
change *when* and *where* a replicate is computed, never its bytes.  A
retry after a reported exception still gets a fresh process: the worker
that raised is retired.
"""

from __future__ import annotations

import collections
import contextlib
import dataclasses
import math
import multiprocessing
import multiprocessing.connection
import signal
import time
from multiprocessing.connection import Connection
from multiprocessing.process import BaseProcess
from typing import Any, Callable, Optional, Sequence, Union

from repro.errors import ExperimentError, LedgerError
from repro.experiments.base import ExperimentResult
from repro.experiments.ledger import TaskKey, TaskLedger, TaskRow
from repro.experiments.registry import run_experiment
from repro.experiments.scales import Scale
from repro.experiments.spec import ExperimentSpec
from repro.sim.engine import events_processed_total, reset_events_processed
from repro.telemetry import Telemetry
from repro.util.cache import clear_all_caches


@dataclasses.dataclass(frozen=True)
class TaskOutcome:
    """One completed (experiment, seed) task, as returned by a worker.

    ``result`` carries the run's telemetry snapshots on ``result.metrics``
    (sim-derived values only, so the blob is byte-identical across reruns
    and worker counts).
    """

    seed: int
    result: ExperimentResult
    wall_clock: float
    events_processed: int

    @property
    def experiment_id(self) -> str:
        return self.result.experiment_id

    @property
    def scale(self) -> str:
        return self.result.scale

    @property
    def task(self) -> TaskKey:
        return (self.experiment_id, self.scale, self.seed)


#: seconds before the first retry of a task; attempt n waits base * 2^(n-1)
RETRY_BACKOFF = 0.1
#: ceiling on any single backoff delay — unbounded doubling with a high
#: ``--max-retries`` would otherwise sleep minutes between attempts
RETRY_BACKOFF_CAP = 30.0


@dataclasses.dataclass(frozen=True)
class RuntimeConfig:
    """Executor knobs (the CLI's ``--jobs/--max-retries/--task-timeout``)."""

    jobs: int = 1
    max_retries: int = 2  #: re-attempts after the first try, per executor run
    task_timeout: Optional[float] = None  #: seconds before a worker is killed

    def __post_init__(self) -> None:
        # a float passes the comparisons below: jobs=2.5 would let the
        # pool spawn a third worker (2 >= 2.5 is false)
        for name, count in (("jobs", self.jobs), ("max-retries", self.max_retries)):
            if isinstance(count, bool) or not isinstance(count, int):
                raise ExperimentError(f"{name} must be an integer, got {count!r}")
        if self.jobs < 1:
            raise ExperimentError(f"jobs must be >= 1, got {self.jobs}")
        if self.max_retries < 0:
            raise ExperimentError(
                f"max-retries must be >= 0, got {self.max_retries}"
            )
        timeout = self.task_timeout
        if timeout is not None and timeout <= 0:
            raise ExperimentError(f"task-timeout must be positive, got {timeout}")
        # inf overflows the pool's select() timeout after the first claim;
        # nan passes the comparison above and is never enforced
        if timeout is not None and not math.isfinite(timeout):
            raise ExperimentError(f"task-timeout must be finite, got {timeout!r}")


def backoff_delay(attempts_used: int) -> float:
    """Seconds to wait before re-queuing a task after its ``attempts_used``-th
    attempt: exponential in the attempt count, capped at
    :data:`RETRY_BACKOFF_CAP` so a generous ``--max-retries`` never turns
    into minutes of dead air between attempts."""
    return min(RETRY_BACKOFF_CAP, RETRY_BACKOFF * 2 ** (attempts_used - 1))


def execute_task(
    experiment: Union[str, ExperimentSpec],
    scale: Union[str, Scale],
    seed: int,
    telemetry: Optional[Telemetry] = None,
) -> TaskOutcome:
    """Run one replicate in this process and measure it — the arguments are
    :func:`~repro.experiments.registry.run_experiment`'s.

    The process-wide event total is zeroed at task start (in whichever
    process executes the task), so the recorded count is exactly this
    task's events — a before/after subtraction would silently fold in any
    events a library callback or an earlier task in the same worker ran.
    This is the only function that zeroes it; callers that must leave the
    total alone (:func:`repro.api.run`) call ``run_experiment`` directly.
    """
    reset_events_processed()
    started = time.perf_counter()
    result = run_experiment(experiment, scale=scale, seed=seed, telemetry=telemetry)
    wall_clock = time.perf_counter() - started
    return TaskOutcome(seed, result, wall_clock, events_processed_total())


def plan_tasks(
    ledger: TaskLedger,
    tasks: list[TaskKey],
    resume: bool,
    verify: Callable[[TaskKey, str], bool],
) -> tuple[list[TaskKey], list[TaskRow]]:
    """Decide which tasks a sweep must execute, updating the ledger.

    Without ``resume`` the sweep is semantically a fresh run: every task is
    reset to ``pending`` (attempts rewound) and executed.  With ``resume``:

    - ``done`` rows whose artifact passes ``verify(task, checksum)`` are
      skipped; failed verification (missing/truncated/tampered file)
      reopens the task;
    - ``running`` rows are orphans from a crashed or killed run and are
      reclaimed;
    - ``failed`` rows are reopened for a fresh retry budget;
    - ``pending`` rows simply run.

    Returns ``(to_run, skipped)`` with ``to_run`` in the sweep's canonical
    task order and ``skipped`` the verified ``done`` rows — a resumed sweep
    executes exactly the non-verified-done set, never a verified-done task.
    """
    ledger.ensure(tasks)
    if not resume:
        ledger.reset_all(tasks)
        return list(tasks), []
    to_run: list[TaskKey] = []
    skipped: list[TaskRow] = []
    for task in tasks:
        row = ledger.row(task)
        assert row is not None  # ensure() above inserted it
        if row.state == "done":
            if row.checksum is not None and verify(task, row.checksum):
                skipped.append(row)
                continue
            ledger.reopen_done(task, "artifact missing or failed checksum")
            to_run.append(task)
        elif row.state == "running":
            ledger.release(task, "orphaned claim reclaimed on resume")
            to_run.append(task)
        elif row.state == "failed":
            ledger.reset_failed(task)
            to_run.append(task)
        else:
            to_run.append(task)
    return to_run, skipped


def _worker_main(conn: Connection, inherited: Sequence[Connection]) -> None:
    """Worker-process entry: serve tasks from ``conn`` until it closes.

    Exceptions are reported as ``("error", "Type: message")`` rather than
    raised, so the parent can tell an experiment bug (retryable,
    eventually ``failed``) from a dead worker.  A SIGKILLed worker reports
    nothing — the parent reads EOF on its end of the pipe instead.

    ``inherited`` are the parent's ends of every worker pipe open at fork
    time, this worker's own included: a forked child holds copies, and
    while any copy is open a dead parent is not an EOF.  Closed here, a
    closed or broken pipe means "parent gone (or done with me)": exit.
    """
    signal.signal(signal.SIGINT, signal.SIG_IGN)  # Ctrl-C is the parent's to handle
    for parent_end in inherited:
        parent_end.close()
    cached_for = None
    while True:
        try:
            task = conn.recv()
        except (EOFError, OSError):
            return
        if task[1:] != cached_for:
            # every construction cache is keyed by seed: nothing reusable is
            # dropped, and a worker never holds more than one seed's structures
            clear_all_caches()
            cached_for = task[1:]
        try:
            message = ("ok", execute_task(*task))
        except Exception as exc:  # noqa: BLE001 - reported to the parent verbatim
            message = ("error", f"{type(exc).__name__}: {exc}")
        try:
            conn.send(message)
        except OSError:  # BrokenPipeError included
            return


@dataclasses.dataclass(eq=False)
class _Worker:
    """Parent-side handle of one worker process."""

    process: BaseProcess
    conn: Connection  #: the parent's end of the worker's duplex pipe
    task: Optional[TaskKey] = None  #: the task in flight; None while idle
    deadline: Optional[float] = None  #: monotonic time the task must beat


class WorkerPool:
    """At most ``jobs`` long-lived worker processes, fed tasks over pipes.

    The mechanics only — spawn, assign, wait, retire, close; which task
    runs next and what its outcome means (claim, commit, retry, raise) is
    the caller's policy: :func:`drain_ledger` or :func:`run_in_workers`.
    A pool lives inside one ``with`` block; leaving it — normally or by
    exception — retires every worker, killing the busy ones.

    Workers come from ``multiprocessing.get_context().Process`` so a
    forked worker inherits runtime registrations (``register(...)``,
    ``api.register_scale``) made in the parent.
    """

    def __init__(self, jobs: int, task_timeout: Optional[float] = None):
        self._ctx = multiprocessing.get_context()
        self._jobs = jobs
        self._task_timeout = task_timeout
        self._workers: list[_Worker] = []

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    @property
    def busy(self) -> bool:
        return any(worker.task is not None for worker in self._workers)

    def acquire(self) -> Optional[_Worker]:
        """An idle worker — spawned only if none is idle and fewer than
        ``jobs`` exist — or None when every slot is busy."""
        for worker in self._workers:
            if worker.task is None:
                return worker
        if len(self._workers) >= self._jobs:
            return None
        parent_end, child_end = self._ctx.Pipe()
        inherited = [worker.conn for worker in self._workers] + [parent_end]
        process = self._ctx.Process(
            target=_worker_main, args=(child_end, inherited), daemon=True
        )
        process.start()
        # the worker's death must read as EOF here, so no copy of its end
        # may stay open in this process (or be inherited by the next fork)
        child_end.close()
        worker = _Worker(process, parent_end)
        self._workers.append(worker)
        return worker

    def assign(self, worker: _Worker, task: TaskKey) -> None:
        """Send ``task`` to an idle worker and start its deadline clock."""
        worker.task = task
        if self._task_timeout is not None:
            worker.deadline = time.monotonic() + self._task_timeout
        worker.conn.send(task)

    def wait(self, until: Optional[float] = None) -> list[tuple[str, TaskKey, Any]]:
        """Block until a busy worker reports, dies or overruns its deadline,
        or until monotonic time ``until``; return what happened as ``(kind,
        task, body)``: ``("ok", task, TaskOutcome)`` or ``("error", task,
        message)``.  A worker behind an ``"error"`` is already retired —
        dead ones and overrunners because they are gone, one that reported
        an exception so a retry never runs in the process that raised.
        """
        busy = {w.conn: w for w in self._workers if w.task is not None}
        wakes = [w.deadline for w in busy.values() if w.deadline is not None]
        if until is not None:
            wakes.append(until)
        timeout = max(0.0, min(wakes) - time.monotonic()) if wakes else None
        events: list[tuple[str, TaskKey, Any]] = []
        for conn in multiprocessing.connection.wait(list(busy), timeout):
            worker = busy.pop(conn)
            task = worker.task
            assert task is not None
            try:
                kind, body = worker.conn.recv()
            except (EOFError, OSError):
                code = self._retire(worker)
                kind, body = "error", f"worker died (exit code {code})"
            else:
                worker.task = worker.deadline = None
                if kind == "error":
                    self._retire(worker)
            events.append((kind, task, body))
        now = time.monotonic()
        for worker in busy.values():
            if worker.deadline is not None and now > worker.deadline:
                assert worker.task is not None
                worker.process.terminate()
                worker.process.join(0.5)
                self._retire(worker, kill=True)
                events.append((
                    "error",
                    worker.task,
                    f"timed out after {self._task_timeout:g}s (worker killed)",
                ))
        return events

    def _retire(self, worker: _Worker, kill: bool = False) -> Optional[int]:
        """Forget ``worker`` and reap it; returns its exit code.  Closing
        the pipe is an idle worker's cue to exit; a busy one needs ``kill``.
        """
        self._workers.remove(worker)
        worker.conn.close()
        if kill:
            worker.process.kill()
        worker.process.join()
        code = worker.process.exitcode
        worker.process.close()
        return code

    def close(self) -> None:
        """Retire every worker: idle ones exit on EOF, busy ones are killed."""
        for worker in self._workers:
            worker.conn.close()  # all first, so the idle workers exit together
        for worker in list(self._workers):
            self._retire(worker, kill=worker.task is not None)


def run_in_workers(
    tasks: list[TaskKey], jobs: int, consume: Callable[[TaskOutcome], None]
) -> None:
    """The ledger-less policy over a :class:`WorkerPool`: run ``tasks`` on
    up to ``jobs`` workers and hand each outcome to ``consume`` in task
    order.  Nothing is retried: the first reported exception or dead worker
    raises one :class:`ExperimentError` naming the task.
    """
    done: dict[TaskKey, TaskOutcome] = {}
    unsent = collections.deque(tasks)
    consumed = 0
    with WorkerPool(jobs) as pool:
        while consumed < len(tasks):
            while unsent and (worker := pool.acquire()) is not None:
                pool.assign(worker, unsent.popleft())
            for kind, task, body in pool.wait():
                if kind != "ok":
                    raise ExperimentError(f"task {task!r} failed: {body}")
                done[task] = body
            while consumed < len(tasks) and tasks[consumed] in done:
                consume(done.pop(tasks[consumed]))
                consumed += 1


def drain_ledger(
    tasks: list[TaskKey],
    ledger: TaskLedger,
    config: RuntimeConfig,
    commit: Callable[[TaskOutcome], str],
    progress: Optional[Callable[[TaskOutcome], None]] = None,
) -> tuple[list[TaskOutcome], list[TaskRow]]:
    """Execute ``tasks`` through a crash-tolerant worker pool.

    The claim/commit/retry policy over a :class:`WorkerPool`: a task is
    claimed in the ledger *before* it is sent to a worker, so no worker
    ever computes an unclaimed task.  ``commit(outcome)`` runs in the
    parent and must atomically persist the artifact, returning its
    checksum — only then is the task marked ``done``.  Attempts that
    raise, die or overrun ``config.task_timeout`` are retried up to
    ``config.max_retries`` times with exponential backoff, then marked
    ``failed``.  Returns completion-ordered outcomes plus the ``failed``
    rows of permanent failures; with ``jobs=1`` tasks launch strictly in
    the given order.

    An exception out of the ledger or ``commit`` propagates unchanged
    after every worker has been retired.  ``KeyboardInterrupt``
    additionally releases the in-flight claims (``"sweep interrupted"``),
    so an interrupted sweep strands no ``running`` row.
    """
    pending: "collections.deque[TaskKey]" = collections.deque(tasks)
    not_before: dict[TaskKey, float] = {}
    attempts_used: dict[TaskKey, int] = {}
    claimed: set[TaskKey] = set()  #: claim attempted, not yet done/released/failed
    outcomes: list[TaskOutcome] = []
    failures: list[TaskRow] = []

    def next_eligible(now: float) -> Optional[TaskKey]:
        """Pop the first task not backing off, rotating past those that are."""
        for _ in range(len(pending)):
            task = pending.popleft()
            if not_before.get(task, 0.0) <= now:
                return task
            pending.append(task)
        return None

    def retry_or_fail(task: TaskKey, error: str) -> None:
        """After a raised/crashed/hung attempt: re-queue or mark failed."""
        used = attempts_used[task]
        if used > config.max_retries:
            ledger.fail(task, error)
            row = ledger.row(task)
            assert row is not None  # claimed above
            failures.append(row)
        else:
            ledger.release(task, error)
            not_before[task] = time.monotonic() + backoff_delay(used)
            pending.append(task)

    with WorkerPool(config.jobs, config.task_timeout) as pool:
        try:
            while pending or pool.busy:
                # -- assign: eligible tasks, in queue order, to free workers
                wake = None  # when the first backing-off task falls due
                while True:
                    task = next_eligible(time.monotonic())
                    if task is None:
                        wake = min((not_before[t] for t in pending), default=None)
                        break
                    worker = pool.acquire()
                    if worker is None:
                        pending.appendleft(task)
                        break
                    claimed.add(task)
                    ledger.claim(task, worker=f"pid:{worker.process.pid}")
                    attempts_used[task] = attempts_used.get(task, 0) + 1
                    pool.assign(worker, task)

                # -- collect: sleep until a worker has news, a deadline
                #    passes, or a backed-off task may be retried
                for kind, task, body in pool.wait(until=wake):
                    if kind == "ok":
                        ledger.complete(task, commit(body))
                        outcomes.append(body)
                        if progress is not None:
                            progress(body)
                    else:
                        retry_or_fail(task, body)
                    claimed.discard(task)
        except KeyboardInterrupt:
            pool.close()
            for task in claimed:
                # the interrupt may have landed before the claim did, or
                # after the completion: those rows are not ours to release
                with contextlib.suppress(LedgerError):
                    ledger.release(task, "sweep interrupted")
            raise
    return outcomes, failures
