"""Unit tests for the sqlite task ledger and the store beside it: checked
state transitions, attempt accounting, lock errors, checksums, atomic
artifact commits, and a replicate recorded once (manifest, no sqlite)."""

from __future__ import annotations

import sqlite3

import pytest

from repro.errors import ExperimentError, LedgerError
from repro.experiments import run_experiment
from repro.experiments.ledger import TaskLedger, file_checksum
from repro.experiments.store import ResultStore

TASKS = [("fig7", "smoke", 0), ("fig7", "smoke", 1), ("fig9", "smoke", 0)]


@pytest.fixture()
def ledger(tmp_path):
    with TaskLedger(tmp_path / "ledger.sqlite") as ledger:
        ledger.ensure(TASKS)
        yield ledger


class TestTransitions:
    def test_ensure_inserts_pending(self, ledger):
        assert [row.state for row in ledger.rows()] == ["pending"] * 3
        row = ledger.row(TASKS[0])
        assert row.state == "pending"
        assert row.attempts == 0
        assert row.key == TASKS[0]

    def test_ensure_is_idempotent(self, ledger):
        ledger.claim(TASKS[0], worker="w0")
        ledger.ensure(TASKS)  # must not reset the running row
        assert ledger.row(TASKS[0]).state == "running"
        assert len(ledger.rows(state="pending")) == 2

    def test_happy_path_claim_complete(self, ledger):
        ledger.claim(TASKS[0], worker="pid:123")
        row = ledger.row(TASKS[0])
        assert row.state == "running"
        assert row.attempts == 1
        assert row.worker == "pid:123"
        ledger.complete(TASKS[0], checksum="sha256:abc")
        row = ledger.row(TASKS[0])
        assert row.state == "done"
        assert row.checksum == "sha256:abc"

    def test_fail_records_error(self, ledger):
        ledger.claim(TASKS[0], worker="w")
        ledger.fail(TASKS[0], error="worker died (exit code -9)")
        row = ledger.row(TASKS[0])
        assert row.state == "failed"
        assert "exit code -9" in row.error

    def test_release_returns_to_pending_keeping_attempts(self, ledger):
        ledger.claim(TASKS[0], worker="w")
        ledger.release(TASKS[0], reason="orphaned")
        row = ledger.row(TASKS[0])
        assert row.state == "pending"
        assert row.attempts == 1  # the crashed claim still counts

    def test_reset_failed_reopens(self, ledger):
        ledger.claim(TASKS[0], worker="w")
        ledger.fail(TASKS[0], error="boom")
        ledger.reset_failed(TASKS[0])
        assert ledger.row(TASKS[0]).state == "pending"

    def test_reopen_done_requires_done(self, ledger):
        ledger.claim(TASKS[0], worker="w")
        ledger.complete(TASKS[0], checksum="sha256:abc")
        ledger.reopen_done(TASKS[0], reason="checksum mismatch")
        assert ledger.row(TASKS[0]).state == "pending"
        with pytest.raises(LedgerError, match="reopen_done"):
            ledger.reopen_done(TASKS[1], reason="not done")


class TestInvalidTransitions:
    """Every rejected transition raises LedgerError and changes nothing."""

    def test_claim_running_rejected(self, ledger):
        ledger.claim(TASKS[0], worker="w")
        with pytest.raises(LedgerError, match="cannot claim"):
            ledger.claim(TASKS[0], worker="other")
        row = ledger.row(TASKS[0])
        assert (row.state, row.attempts, row.worker) == ("running", 1, "w")

    def test_task_cannot_be_done_twice(self, ledger):
        ledger.claim(TASKS[0], worker="w")
        ledger.complete(TASKS[0], checksum="sha256:abc")
        with pytest.raises(LedgerError, match="cannot complete"):
            ledger.complete(TASKS[0], checksum="sha256:def")
        assert ledger.row(TASKS[0]).checksum == "sha256:abc"

    def test_done_is_absorbing(self, ledger):
        ledger.claim(TASKS[0], worker="w")
        ledger.complete(TASKS[0], checksum="sha256:abc")
        for operation in (
            lambda: ledger.claim(TASKS[0], worker="w2"),
            lambda: ledger.fail(TASKS[0], error="late failure"),
            lambda: ledger.release(TASKS[0]),
            lambda: ledger.reset_failed(TASKS[0]),
        ):
            with pytest.raises(LedgerError):
                operation()
            assert ledger.row(TASKS[0]).state == "done"

    def test_complete_pending_rejected(self, ledger):
        with pytest.raises(LedgerError, match="cannot complete"):
            ledger.complete(TASKS[0], checksum="sha256:abc")

    def test_fail_pending_rejected(self, ledger):
        with pytest.raises(LedgerError, match="cannot fail"):
            ledger.fail(TASKS[0], error="boom")

    def test_unknown_task_rejected(self, ledger):
        with pytest.raises(LedgerError, match="unknown task"):
            ledger.claim(("fig7", "smoke", 99), worker="w")

    def test_ledger_error_is_an_experiment_error(self):
        assert issubclass(LedgerError, ExperimentError)


class TestResetAll:
    def test_reset_all_rewinds_everything(self, ledger):
        ledger.claim(TASKS[0], worker="w")
        ledger.complete(TASKS[0], checksum="sha256:abc")
        ledger.claim(TASKS[1], worker="w")
        ledger.fail(TASKS[1], error="boom")
        ledger.reset_all(TASKS)
        for task in TASKS:
            row = ledger.row(task)
            assert (row.state, row.attempts, row.checksum) == ("pending", 0, None)


class TestReads:
    def test_rows_filters(self, ledger):
        ledger.claim(TASKS[2], worker="w")
        assert [r.key for r in ledger.rows(experiment_id="fig9")] == [TASKS[2]]
        assert len(ledger.rows(state="pending")) == 2
        assert len(ledger.rows(scale="smoke")) == 3

    def test_rows_filters_combine(self, ledger):
        ledger.claim(TASKS[0], worker="w")
        states = [row.state for row in ledger.rows(experiment_id="fig7")]
        assert states == ["running", "pending"]
        assert ledger.rows(experiment_id="fig7", state="done") == []

    def test_row_missing_is_none(self, ledger):
        assert ledger.row(("fig7", "smoke", 99)) is None


class TestLocking:
    @pytest.mark.parametrize(
        "write",
        [
            lambda ledger: ledger.claim(TASKS[0], worker="w"),
            lambda ledger: ledger.ensure(TASKS),
            lambda ledger: ledger.reset_all(TASKS),
        ],
        ids=["claim", "ensure", "reset_all"],
    )
    def test_locked_ledger_is_one_line_error(self, tmp_path, write):
        """Single statements and both bulk writes share one translation."""
        path = tmp_path / "ledger.sqlite"
        with TaskLedger(path, timeout=0.1) as contender:
            contender.ensure(TASKS)
            blocker = sqlite3.connect(path)
            blocker.execute("BEGIN EXCLUSIVE")
            try:
                with pytest.raises(LedgerError) as excinfo:
                    write(contender)
                # opening under the lock fails too, at the schema statement
                with pytest.raises(LedgerError, match="locked"):
                    TaskLedger(path, timeout=0.1)
            finally:
                blocker.rollback()
                blocker.close()
        assert str(excinfo.value) == f"ledger at {path} is locked by another process"


class TestStoreIntegration:
    def test_save_records_the_replicate_once_and_opens_no_sqlite(self, tmp_path):
        store = ResultStore(tmp_path)
        result = run_experiment("fig7", scale="smoke", seed=0)
        path = store.save(result, seed=0, wall_clock=1.0, events_processed=7)
        assert path == tmp_path / "fig7" / "smoke" / "seed_0.json"
        run = store.manifest("fig7", "smoke")["runs"]["seed_0"]
        assert run["events_processed"] == 7 and run["rows"] == len(result.rows)
        # the manifest entry is the one record: the ledger is a sweep's
        assert not store.ledger_path.exists()

    def test_verify_artifact(self, tmp_path):
        store = ResultStore(tmp_path)
        result = run_experiment("fig7", scale="smoke", seed=0)
        path = store.save(result, seed=0)
        checksum = file_checksum(path)
        task = ("fig7", "smoke", 0)
        assert store.verify_artifact(task, checksum)
        assert not store.verify_artifact(task, "sha256:not-it")
        path.write_text(path.read_text()[: len(path.read_text()) // 2])
        assert not store.verify_artifact(task, checksum)
        path.unlink()
        assert not store.verify_artifact(task, checksum)

    def test_save_leaves_no_temp_files(self, tmp_path):
        store = ResultStore(tmp_path)
        result = run_experiment("fig7", scale="smoke", seed=0)
        store.save(result, seed=0)
        assert not list(tmp_path.rglob("*.tmp"))
