"""Durable task ledger: an append-only journal of sweep-task transitions.

The persistence half of the resumable sweep runtime (the executor half is
:mod:`repro.experiments.runtime`): ``<store root>/tasks.jsonl``, one JSON
line per transition.  Its fold is one row per ``(experiment_id, scale,
seed)`` task — state, attempts, worker, artifact checksum, last error —
and nothing a replicate measured (that is the cell's manifest)::

    pending --claim--> running --complete--> done      (absorbing)
                          |  \\--fail------> failed    (reopened only by
                          |                             reset_failed)
                          \\--release------> pending   (orphan reclaim)

A transition is *checked* against the folded state first: completing a
task twice, claiming a running task or failing a pending one raises
:class:`~repro.errors.LedgerError` and writes nothing.  ``attempts`` grows
exactly on ``claim``; only ``reset_all`` (a non-resume sweep) rewinds it.
A legal transition is one line, appended with a single ``os.write`` on an
``O_APPEND`` descriptor and ``fsync``\\ ed before the call returns.  Every
call first folds what was appended since its last one, so two ledgers on
one journal agree.  A last line without its ``\\n`` is a transition that
did not happen (a crash mid-append), cut by the next writer; any other
line that does not parse or that the state machine rejects is a one-line
``LedgerError`` naming the file and the line.

The first legal write, whether or not it changes a row, takes
``<store root>/sweep.lock`` (``O_CREAT | O_EXCL``, holding the writer's
pid) and :meth:`TaskLedger.close` removes it, so one sweep writes a store
at a time: a lock naming another live process is a one-line
``LedgerError``, one naming a dead process (what ``kill -9`` leaves) is
taken over.  Reads take no lock; ``status`` works mid-sweep.
"""

from __future__ import annotations

import dataclasses
import datetime
import hashlib
import json
import os
import pathlib
from typing import Iterable, Optional, Union

from repro.errors import LedgerError

#: the four task states, in lifecycle order
TASK_STATES = ("pending", "running", "done", "failed")

#: one (experiment_id, scale, seed) sweep task
TaskKey = tuple[str, str, int]

#: single-task transition -> (the state it leaves, the state it enters)
_TRANSITIONS = {
    "claim": ("pending", "running"),
    "complete": ("running", "done"),
    "fail": ("running", "failed"),
    "release": ("running", "pending"),
    "reset_failed": ("failed", "pending"),
    "reopen_done": ("done", "pending"),
}


def file_checksum(path: Union[str, pathlib.Path]) -> str:
    """``sha256:<hex>`` digest of a file's bytes (the commit checksum)."""
    digest = hashlib.sha256(pathlib.Path(path).read_bytes()).hexdigest()
    return f"sha256:{digest}"


@dataclasses.dataclass(frozen=True)
class TaskRow:
    """One task's row: the fold of the journal lines that name it."""

    experiment_id: str
    scale: str
    seed: int
    state: str
    attempts: int
    worker: Optional[str]
    checksum: Optional[str]
    error: Optional[str]
    updated_at: Optional[str]

    @property
    def key(self) -> TaskKey:
        return (self.experiment_id, self.scale, self.seed)


def _lock_holder(lock: pathlib.Path) -> Optional[int]:
    """The pid a lock file names, or None if it is gone or names none."""
    try:
        pid = int(lock.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        return None
    return pid if pid > 0 else None


def _alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:  # someone else's live process
        pass
    return True


def _take_lock(lock: pathlib.Path) -> None:
    """Create ``lock`` holding this pid.  A lock naming this pid is ours
    already, one naming a live process refuses, one naming none or a dead
    process is taken over (once)."""
    for _ in range(2):
        try:
            fd = os.open(lock, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o644)
        except FileExistsError:
            holder = _lock_holder(lock)
            if holder == os.getpid():
                return
            if holder is not None and _alive(holder):
                raise LedgerError(
                    f"{lock} is held by pid {holder}: another sweep is writing this store"
                ) from None
            lock.unlink(missing_ok=True)  # stale: its writer died
        else:
            os.write(fd, f"{os.getpid()}\n".encode("ascii"))
            os.close(fd)
            return
    raise LedgerError(f"{lock} was taken by another sweep first")


class TaskLedger:
    """Checked-state-machine task ledger folded from one append-only journal."""

    def __init__(self, path: Union[str, pathlib.Path]):
        self.path = pathlib.Path(path)
        self._lock = self.path.with_name("sweep.lock")
        legacy = self.path.with_name("ledger.sqlite")
        if legacy.exists() and not self.path.exists():
            raise LedgerError(
                f"{legacy} is a task ledger this version does not read; the "
                f"artifacts beside it are kept: delete it and run `sweep` "
                f"without `--resume`"
            )
        self._rows: dict[TaskKey, TaskRow] = {}
        self._offset = 0  # bytes folded so far: every complete line
        self._lines = 0
        self._fd: Optional[int] = None
        self._catch_up()

    def close(self) -> None:
        """Give up the writer side, its descriptor and the store's lock.
        Reads still work, and the next write takes both again."""
        if self._fd is None:
            return
        os.close(self._fd)
        self._fd = None
        if _lock_holder(self._lock) == os.getpid():
            self._lock.unlink()

    def __enter__(self) -> "TaskLedger":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -------------------------------------------------------------- internals

    def _catch_up(self) -> None:
        """Fold every complete line appended since the last call."""
        try:
            with open(self.path, "rb") as journal:
                journal.seek(self._offset)
                tail = journal.read()
        except FileNotFoundError:
            return
        *lines, _torn = tail.split(b"\n")  # a torn last line did not happen
        for line in lines:
            try:
                fields = json.loads(line)
                op, tasks = fields.pop("op"), [(e, s, n) for e, s, n in fields.pop("tasks")]
                self._rows.update(self._next_rows(op, tasks, fields))
            except (LedgerError, ValueError, KeyError, TypeError, AttributeError) as exc:
                reason = exc if isinstance(exc, LedgerError) else "not a ledger record"
                raise LedgerError(f"{self.path}:{self._lines + 1}: {reason}") from None
            self._lines += 1
            self._offset += len(line) + 1

    def _next_rows(
        self, op: str, tasks: list[TaskKey], fields: dict[str, str]
    ) -> dict[TaskKey, TaskRow]:
        """The rows a transition changes, or ``LedgerError`` if the folded
        state forbids it."""
        at = fields["at"]
        if op in ("ensure", "reset_all"):
            known = op == "reset_all"  # reset_all rewinds known tasks, ensure adds the rest
            return {
                task: TaskRow(*task, "pending", 0, None, None, None, at)
                for task in tasks
                if (task in self._rows) == known
            }
        (task,) = tasks
        from_state, to_state = _TRANSITIONS[op]
        row = self._rows.get(task)
        if row is None:
            raise LedgerError(f"cannot {op} unknown task {task!r}")
        if row.state != from_state:
            raise LedgerError(
                f"cannot {op} task {task!r} in state {row.state!r} "
                f"(allowed from: {from_state})"
            )
        worker, checksum = fields.get("worker", row.worker), fields.get("checksum", row.checksum)
        attempts = row.attempts + (op == "claim")
        return {task: TaskRow(*task, to_state, attempts, worker, checksum, fields.get("error"), at)}

    def _write(self, op: str, tasks: Iterable[TaskKey], **fields: Optional[str]) -> None:
        """Check one transition against the folded state, then journal the
        tasks it changes (none: nothing is written).  The first legal
        transition takes the lock even if it changes nothing, so a resume
        that finds every task ``done`` still writes its aggregates locked."""
        self._catch_up()
        record = {name: value for name, value in fields.items() if value is not None}
        record["at"] = datetime.datetime.now(datetime.timezone.utc).isoformat()
        keys = list(tasks)
        if self._fd is None:
            self._next_rows(op, keys, record)  # a rejected transition takes no lock
            self.path.parent.mkdir(parents=True, exist_ok=True)
            _take_lock(self._lock)
            self._fd = os.open(self.path, os.O_RDWR | os.O_APPEND | os.O_CREAT, 0o644)
            self._catch_up()  # what an earlier writer appended
            os.ftruncate(self._fd, self._offset)  # and a torn line it left
        rows = self._next_rows(op, keys, record)
        if not rows:
            return
        assert self._fd is not None
        line = json.dumps({"op": op, "tasks": list(rows), **record}, separators=(",", ":"))
        data = f"{line}\n".encode("ascii")
        try:
            written = os.write(self._fd, data)
            if written != len(data):
                raise LedgerError(f"{self.path}: wrote {written} of {len(data)} bytes")
            os.fsync(self._fd)
        except BaseException:
            os.ftruncate(self._fd, self._offset)  # the transition did not happen
            raise
        self._rows.update(rows)
        self._lines += 1
        self._offset += len(data)

    # ------------------------------------------------------------ task writes

    def ensure(self, tasks: Iterable[TaskKey]) -> None:
        """Insert missing tasks as ``pending``; existing rows are untouched."""
        self._write("ensure", tasks)

    def claim(self, task: TaskKey, worker: str) -> None:
        """``pending -> running``; increments the attempt counter."""
        self._write("claim", [task], worker=worker)

    def complete(self, task: TaskKey, checksum: str) -> None:
        """``running -> done``; records the committed artifact's checksum."""
        self._write("complete", [task], checksum=checksum)

    def fail(self, task: TaskKey, error: str) -> None:
        """``running -> failed``; records the terminal error."""
        self._write("fail", [task], error=error)

    def release(self, task: TaskKey, reason: str = "released") -> None:
        """``running -> pending``: reclaim an orphaned/crashed claim, which
        still counts as an attempt (bounding retries across restarts)."""
        self._write("release", [task], error=reason)

    def reset_failed(self, task: TaskKey) -> None:
        """``failed -> pending``: explicitly reopen a failed task (resume)."""
        self._write("reset_failed", [task])

    def reopen_done(self, task: TaskKey, reason: str) -> None:
        """``done -> pending``: the one exit from ``done``, taken only when
        the task's artifact fails verification (missing, checksum mismatch)."""
        self._write("reopen_done", [task], error=reason)

    def reset_all(self, tasks: Iterable[TaskKey]) -> None:
        """Force known tasks back to ``pending`` with zero attempts: a
        non-resume sweep is a fresh run over the same store."""
        self._write("reset_all", tasks)

    # ------------------------------------------------------------- task reads

    def row(self, task: TaskKey) -> Optional[TaskRow]:
        """The ledger row for one task, or None if never ensured."""
        self._catch_up()
        return self._rows.get(task)

    def rows(
        self, experiment_id: Optional[str] = None, scale: Optional[str] = None
    ) -> list[TaskRow]:
        """Ledger rows, optionally filtered, ordered by (id, scale, seed)."""
        self._catch_up()
        return [
            row
            for _, row in sorted(self._rows.items())
            if experiment_id in (None, row.experiment_id) and scale in (None, row.scale)
        ]
