"""Durable sqlite task ledger: one row per sweep task, crash-safe states.

The ledger is the persistence half of the resumable sweep runtime (the
executor half lives in :mod:`repro.experiments.runtime`).  It keeps one
sqlite database — ``<store root>/ledger.sqlite``, created by the first sweep
against the store — with one table, ``tasks``: one row per
``(experiment_id, scale, seed)`` task, carrying a state machine
(``pending -> running -> done | failed``), a monotone attempt counter, the
claiming worker id, the committed artifact's checksum, and the last error
message.  What a replicate *measured* is not here: its provenance is the
``runs`` entry of the cell's ``manifest.json`` and its telemetry the
``seed_<n>.telemetry.json`` beside the artifact (see
:mod:`repro.experiments.store`).  A database written before that — one
that still has a ``results`` table — opens unchanged; the table is ignored.

State machine
-------------

::

    pending --claim--> running --complete--> done      (absorbing)
                          |  \\--fail------> failed    (reopened only by
                          |                             reset_failed)
                          \\--release------> pending   (orphan reclaim)

Transitions are *checked*: completing a task twice, claiming a running
task, or failing a pending one raises :class:`~repro.errors.LedgerError`
and leaves the row untouched — the invariants the hypothesis property
suite exercises.  ``attempts`` increments exactly on ``claim`` and never
decreases (``reset_all`` starts a semantically new sweep and is the one
documented exception).

All writes go through short transactions on a single connection per
:class:`TaskLedger` instance; the sweep runtime funnels every write
through the parent process, so worker crashes can never corrupt the
database — sqlite's journal covers parent crashes.  A ledger held open by
another process surfaces as a one-line ``LedgerError`` ("ledger is
locked") rather than a traceback, once sqlite has waited
:data:`LOCK_TIMEOUT` seconds for it.
"""

from __future__ import annotations

import contextlib
import dataclasses
import datetime
import hashlib
import pathlib
import sqlite3
from typing import Iterable, Iterator, Optional, Sequence, Union

from repro.errors import LedgerError

#: the four task states, in lifecycle order
TASK_STATES = ("pending", "running", "done", "failed")

#: one (experiment_id, scale, seed) sweep task
TaskKey = tuple[str, str, int]

#: seconds sqlite waits on a lock held by another process before the
#: operation fails with a ``LedgerError``
LOCK_TIMEOUT = 5.0

_SCHEMA = """
CREATE TABLE IF NOT EXISTS tasks (
    experiment_id TEXT NOT NULL,
    scale         TEXT NOT NULL,
    seed          INTEGER NOT NULL,
    state         TEXT NOT NULL DEFAULT 'pending',
    attempts      INTEGER NOT NULL DEFAULT 0,
    worker        TEXT,
    checksum      TEXT,
    error         TEXT,
    updated_at    TEXT,
    PRIMARY KEY (experiment_id, scale, seed)
);
CREATE INDEX IF NOT EXISTS idx_tasks_state ON tasks (state);
"""


def file_checksum(path: Union[str, pathlib.Path]) -> str:
    """``sha256:<hex>`` digest of a file's bytes (the commit checksum)."""
    digest = hashlib.sha256(pathlib.Path(path).read_bytes()).hexdigest()
    return f"sha256:{digest}"


def _utc_now() -> str:
    return datetime.datetime.now(datetime.timezone.utc).isoformat()


@dataclasses.dataclass(frozen=True)
class TaskRow:
    """One ledger row, as read back from sqlite."""

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


class TaskLedger:
    """Checked-state-machine task ledger backed by one sqlite file."""

    def __init__(self, path: Union[str, pathlib.Path]):
        self.path = pathlib.Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        try:
            self._conn = sqlite3.connect(self.path, timeout=LOCK_TIMEOUT)
            self._conn.row_factory = sqlite3.Row
            with self._conn:
                self._conn.executescript(_SCHEMA)
        except sqlite3.DatabaseError as exc:
            # also covers a file that is not a sqlite database at all
            raise LedgerError(f"cannot open ledger at {self.path}: {exc}") from None

    def close(self) -> None:
        self._conn.close()

    def __enter__(self) -> "TaskLedger":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -------------------------------------------------------------- internals

    @contextlib.contextmanager
    def _transaction(self) -> Iterator[sqlite3.Connection]:
        """One short transaction; sqlite's operational errors (a lock held
        by another process above all) leave as one-line ``LedgerError``."""
        try:
            with self._conn:
                yield self._conn
        except sqlite3.OperationalError as exc:
            if "locked" in str(exc):
                raise LedgerError(
                    f"ledger at {self.path} is locked by another process"
                ) from None
            raise LedgerError(f"ledger at {self.path}: {exc}") from None

    def _execute(self, sql: str, params: Sequence[object] = ()) -> sqlite3.Cursor:
        with self._transaction() as conn:
            return conn.execute(sql, params)

    def _transition(
        self,
        task: TaskKey,
        allowed_from: tuple[str, ...],
        to_state: str,
        *,
        event: str,
        bump_attempts: bool = False,
        worker: Optional[str] = None,
        checksum: Optional[str] = None,
        error: Optional[str] = None,
    ) -> None:
        """Atomically move a task between states, or raise ``LedgerError``.

        The guard is in the UPDATE's WHERE clause, so a row in the wrong
        state is left byte-for-byte untouched — checked transitions are
        what make the invariants (done-once, absorbing terminals) hold
        under any interleaving.
        """
        experiment_id, scale, seed = task
        placeholders = ",".join("?" for _ in allowed_from)
        cursor = self._execute(
            f"""
            UPDATE tasks
            SET state = ?, attempts = attempts + ?,
                worker = COALESCE(?, worker),
                checksum = COALESCE(?, checksum), error = ?, updated_at = ?
            WHERE experiment_id = ? AND scale = ? AND seed = ?
              AND state IN ({placeholders})
            """,
            (
                to_state,
                1 if bump_attempts else 0,
                worker,
                checksum,
                error,
                _utc_now(),
                experiment_id,
                scale,
                seed,
                *allowed_from,
            ),
        )
        if cursor.rowcount == 1:
            return
        row = self.row(task)
        if row is None:
            raise LedgerError(f"cannot {event} unknown task {task!r}")
        raise LedgerError(
            f"cannot {event} task {task!r} in state {row.state!r} "
            f"(allowed from: {', '.join(allowed_from)})"
        )

    # ------------------------------------------------------------ task writes

    def ensure(self, tasks: Iterable[TaskKey]) -> None:
        """Insert missing tasks as ``pending``; existing rows are untouched."""
        with self._transaction() as conn:
            conn.executemany(
                "INSERT OR IGNORE INTO tasks "
                "(experiment_id, scale, seed, state, updated_at) "
                "VALUES (?, ?, ?, 'pending', ?)",
                [(e, s, n, _utc_now()) for (e, s, n) in tasks],
            )

    def claim(self, task: TaskKey, worker: str) -> None:
        """``pending -> running``; increments the attempt counter."""
        self._transition(
            task, ("pending",), "running",
            event="claim", bump_attempts=True, worker=worker,
        )

    def complete(self, task: TaskKey, checksum: str) -> None:
        """``running -> done``; records the committed artifact's checksum."""
        self._transition(
            task, ("running",), "done", event="complete", checksum=checksum
        )

    def fail(self, task: TaskKey, error: str) -> None:
        """``running -> failed``; records the terminal error."""
        self._transition(task, ("running",), "failed", event="fail", error=error)

    def release(self, task: TaskKey, reason: str = "released") -> None:
        """``running -> pending``: reclaim an orphaned/crashed claim.

        Attempts are preserved — a reclaimed task has still consumed its
        claim, which is what bounds retries across parent restarts.
        """
        self._transition(task, ("running",), "pending", event="release", error=reason)

    def reset_failed(self, task: TaskKey) -> None:
        """``failed -> pending``: explicitly reopen a failed task (resume)."""
        self._transition(task, ("failed",), "pending", event="reset_failed")

    def reopen_done(self, task: TaskKey, reason: str) -> None:
        """``done -> pending``: reopen a task whose artifact failed
        verification (missing file, checksum mismatch).  The one sanctioned
        exit from the otherwise-absorbing ``done`` state, driven only by
        on-disk evidence."""
        self._transition(task, ("done",), "pending", event="reopen_done", error=reason)

    def reset_all(self, tasks: Iterable[TaskKey]) -> None:
        """Force the given tasks back to ``pending`` with zero attempts.

        Used by non-resume sweeps, which semantically start a fresh run
        over the same store — the one operation allowed to rewind the
        attempt counter."""
        with self._transaction() as conn:
            conn.executemany(
                "UPDATE tasks SET state = 'pending', attempts = 0, worker = NULL, "
                "checksum = NULL, error = NULL, updated_at = ? "
                "WHERE experiment_id = ? AND scale = ? AND seed = ?",
                [(_utc_now(), e, s, n) for (e, s, n) in tasks],
            )

    # ------------------------------------------------------------- task reads

    def row(self, task: TaskKey) -> Optional[TaskRow]:
        """The ledger row for one task, or None if never ensured."""
        experiment_id, scale, seed = task
        cursor = self._execute(
            "SELECT * FROM tasks WHERE experiment_id = ? AND scale = ? AND seed = ?",
            (experiment_id, scale, seed),
        )
        found = cursor.fetchone()
        return _task_row(found) if found is not None else None

    def rows(
        self,
        experiment_id: Optional[str] = None,
        scale: Optional[str] = None,
    ) -> list[TaskRow]:
        """Ledger rows, optionally filtered, ordered by (id, scale, seed)."""
        clauses, params = _filters(experiment_id=experiment_id, scale=scale)
        cursor = self._execute(
            f"SELECT * FROM tasks{clauses} ORDER BY experiment_id, scale, seed",
            params,
        )
        return [_task_row(row) for row in cursor.fetchall()]


def _filters(**columns: Optional[str]) -> tuple[str, list[object]]:
    """WHERE clause + params for the non-None keyword filters."""
    clauses = [f"{name} = ?" for name, value in columns.items() if value is not None]
    params: list[object] = [value for value in columns.values() if value is not None]
    if not clauses:
        return "", params
    return " WHERE " + " AND ".join(clauses), params


def _task_row(row: sqlite3.Row) -> TaskRow:
    return TaskRow(
        experiment_id=row["experiment_id"],
        scale=row["scale"],
        seed=row["seed"],
        state=row["state"],
        attempts=row["attempts"],
        worker=row["worker"],
        checksum=row["checksum"],
        error=row["error"],
        updated_at=row["updated_at"],
    )
