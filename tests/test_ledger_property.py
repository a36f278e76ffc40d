"""Hypothesis property suite for ledger state transitions.

For *any* interleaving of claim / complete / fail / crash-reclaim /
reset-failed events over a small task set, the ledger must uphold the
runtime's invariants:

- no task is ever completed twice (``done`` is reached at most once and
  rejects every further event);
- attempt counters are monotone non-decreasing;
- terminal states are absorbing under executor events (``done`` forever,
  ``failed`` until an explicit resume reset);
- rejected transitions change nothing (the row is byte-identical, and so
  are the journal's bytes);
- the journal is the whole state: a ledger opened fresh on it after any
  event reads the same rows as the live one;
- a resumed sweep plans exactly the non-``done`` task set, in canonical
  order, and leaves every planned task ``pending``.

Each example gets its own journal in a temporary directory made inside the
``@given`` body (hypothesis rejects function-scoped fixtures).
"""

from __future__ import annotations

import contextlib
import pathlib
import tempfile
from typing import Iterator

from hypothesis import given, strategies as st

from repro.errors import LedgerError
from repro.experiments.ledger import TaskLedger
from repro.experiments.runtime import plan_tasks

TASKS = [("exp-a", "smoke", 0), ("exp-a", "smoke", 1), ("exp-b", "smoke", 0)]

#: executor-driven events: (name, model precondition state, post state)
EVENTS = {
    "claim": ("pending", "running"),
    "complete": ("running", "done"),
    "fail": ("running", "failed"),
    "release": ("running", "pending"),  # crash/orphan reclaim
    "reset_failed": ("failed", "pending"),  # resume reopening a failure
}

event_lists = st.lists(
    st.tuples(st.sampled_from(sorted(EVENTS)), st.integers(0, len(TASKS) - 1)),
    max_size=40,
)


@contextlib.contextmanager
def _fresh_ledger() -> Iterator[TaskLedger]:
    """An ensured ledger over a journal of its own."""
    with tempfile.TemporaryDirectory() as root:
        with TaskLedger(pathlib.Path(root) / "tasks.jsonl") as ledger:
            ledger.ensure(TASKS)
            yield ledger


def _apply(ledger: TaskLedger, event: str, task) -> None:
    if event == "claim":
        ledger.claim(task, worker="property")
    elif event == "complete":
        ledger.complete(task, checksum="sha256:property")
    elif event == "fail":
        ledger.fail(task, error="property failure")
    elif event == "release":
        ledger.release(task, reason="property crash")
    else:
        ledger.reset_failed(task)


@given(events=event_lists)
def test_any_interleaving_upholds_invariants(events):
    with _fresh_ledger() as ledger:
        state = {task: "pending" for task in TASKS}
        attempts = {task: 0 for task in TASKS}
        completions = {task: 0 for task in TASKS}

        for event, index in events:
            task = TASKS[index]
            before = ledger.row(task)
            journal = ledger.path.read_bytes()
            allowed_from, to_state = EVENTS[event]
            legal = state[task] == allowed_from
            if legal:
                _apply(ledger, event, task)
                state[task] = to_state
                if event == "claim":
                    attempts[task] += 1
                if event == "complete":
                    completions[task] += 1
            else:
                try:
                    _apply(ledger, event, task)
                except LedgerError:
                    pass
                else:
                    raise AssertionError(
                        f"{event} on {state[task]!r} task {task} was accepted"
                    )
                # a rejected event must leave the row and the journal untouched
                assert ledger.row(task) == before
                assert ledger.path.read_bytes() == journal

            row = ledger.row(task)
            # the ledger tracks the reference state machine exactly
            assert row.state == state[task]
            # attempts are monotone and only ever bumped by claims
            assert row.attempts == attempts[task]
            assert row.attempts >= before.attempts
            # no task is ever done twice
            assert completions[task] <= 1
            # the journal alone rebuilds the live state
            assert TaskLedger(ledger.path).rows() == ledger.rows()

        # terminal 'done' rows kept their first checksum through every
        # later (rejected) event
        for task in TASKS:
            if state[task] == "done":
                assert ledger.row(task).checksum == "sha256:property"


@given(events=event_lists)
def test_resume_plans_exactly_the_non_done_set(events):
    with _fresh_ledger() as ledger:
        state = {task: "pending" for task in TASKS}
        for event, index in events:
            task = TASKS[index]
            allowed_from, to_state = EVENTS[event]
            if state[task] == allowed_from:
                _apply(ledger, event, task)
                state[task] = to_state

        to_run, skipped = plan_tasks(
            ledger, TASKS, resume=True, verify=lambda task, checksum: True
        )
        # exactly the non-done set, in canonical task order
        assert to_run == [task for task in TASKS if state[task] != "done"]
        assert [entry.task for entry in skipped] == [
            task for task in TASKS if state[task] == "done"
        ]
        # planning normalised every runnable task back to pending
        for task in to_run:
            assert ledger.row(task).state == "pending"
        for entry in skipped:
            assert ledger.row(entry.task).state == "done"


@given(events=event_lists)
def test_fresh_run_resets_everything(events):
    with _fresh_ledger() as ledger:
        state = {task: "pending" for task in TASKS}
        for event, index in events:
            task = TASKS[index]
            allowed_from, to_state = EVENTS[event]
            if state[task] == allowed_from:
                _apply(ledger, event, task)
                state[task] = to_state

        to_run, skipped = plan_tasks(
            ledger, TASKS, resume=False, verify=lambda task, checksum: True
        )
        assert to_run == TASKS
        assert skipped == []
        for task in TASKS:
            row = ledger.row(task)
            assert (row.state, row.attempts) == ("pending", 0)
