"""Unit tests for the journal task ledger and the store beside it: checked
state transitions, attempt accounting, the journal's torn and bad lines,
the store's writer lock, checksums, atomic artifact commits, and a
replicate recorded once (manifest, no ledger)."""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import time

import pytest

from repro.errors import ExperimentError, LedgerError
from repro.experiments import ledger as ledger_module
from repro.experiments import run_experiment
from repro.experiments.cli import main
from repro.experiments.ledger import TaskLedger, file_checksum
from repro.experiments.registry import register, unregister
from repro.experiments.runner import SweepSpec, run_sweep
from repro.experiments.spec import ExperimentSpec, Pipeline
from repro.experiments.store import ResultStore
from test_runtime_faults import REPO_ROOT, artifact_bytes

TASKS = [("fig7", "smoke", 0), ("fig7", "smoke", 1), ("fig9", "smoke", 0)]


@pytest.fixture()
def ledger(tmp_path):
    with TaskLedger(tmp_path / "tasks.jsonl") as ledger:
        ledger.ensure(TASKS)
        yield ledger


def _snapshot(root):
    return {
        str(path.relative_to(root)): path.read_bytes()
        for path in sorted(root.rglob("*"))
        if path.is_file()
    }


def _fig7_sweep(store, **kwargs):
    return run_sweep(
        SweepSpec(("fig7",), seeds=(0, 1), scale="smoke"), ResultStore(store), **kwargs
    )


@pytest.fixture(scope="module")
def finished(tmp_path_factory):
    """A finished two-task sweep: never written to by a test (copy it)."""
    store = tmp_path_factory.mktemp("finished")
    _fig7_sweep(store)
    return store


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
        assert [row.state for row in ledger.rows()].count("pending") == 2

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
        assert len(ledger.rows(scale="smoke")) == 3
        assert ledger.rows(scale="default") == []

    def test_rows_filters_combine(self, ledger):
        ledger.claim(TASKS[0], worker="w")
        states = [row.state for row in ledger.rows(experiment_id="fig7", scale="smoke")]
        assert states == ["running", "pending"]
        assert ledger.rows(experiment_id="fig7", scale="paper") == []

    def test_row_missing_is_none(self, ledger):
        assert ledger.row(("fig7", "smoke", 99)) is None


def _gated_spec(measure) -> ExperimentSpec:
    return ExperimentSpec(
        experiment_id="gated-stub",
        title="gated stub",
        pipeline=Pipeline(columns=("seed", "value"), measure=measure, key_columns=("seed",)),
        tags=("test",),
    )


#: a CLI sweep of ``gated-stub`` seeds 0..1 whose seed 1 waits for the gate
#: file (argv: gate, store), so a test can act while it holds the store
_GATED_SWEEP = """
import pathlib, sys, time
from repro.experiments.cli import main
from repro.experiments.registry import register
from repro.experiments.spec import ExperimentSpec, Pipeline

def measure(ctx, built, cell):
    while ctx.seed > 0 and not pathlib.Path(sys.argv[1]).exists():
        time.sleep(0.01)
    return [(ctx.seed, 1.0)]

register(ExperimentSpec(
    experiment_id="gated-stub", title="gated stub", tags=("test",),
    pipeline=Pipeline(columns=("seed", "value"), measure=measure, key_columns=("seed",)),
))
sys.exit(main(["sweep", "gated-stub", "--seeds", "0..1", "--scale", "smoke",
               "--out", sys.argv[2]]))
"""


class TestJournal:
    def test_one_line_per_transition(self, ledger):
        ledger.claim(TASKS[0], worker="w")
        ledger.ensure(TASKS)  # nothing missing: nothing written
        ledger.reset_all([("fig7", "smoke", 99)])  # never ensured: likewise
        lines = ledger.path.read_text().splitlines()
        assert [line.split(",")[0] for line in lines] == [
            '{"op":"ensure"', '{"op":"claim"'
        ]

    def test_two_ledgers_on_one_journal_agree(self, ledger):
        other = TaskLedger(ledger.path)
        ledger.claim(TASKS[0], worker="w")
        assert other.row(TASKS[0]).state == "running"
        other.complete(TASKS[0], checksum="sha256:abc")
        assert ledger.row(TASKS[0]) == other.row(TASKS[0])
        with pytest.raises(LedgerError, match="cannot complete"):
            ledger.complete(TASKS[0], checksum="sha256:def")
        other.close()

    def test_torn_last_line_did_not_happen_and_is_cut(self, ledger):
        ledger.claim(TASKS[0], worker="w")
        intact = ledger.path.read_bytes()
        ledger.close()
        torn = b'{"op":"complete","tasks":[["fig7","smoke",0]],"checks'
        ledger.path.write_bytes(intact + torn)
        reopened = TaskLedger(ledger.path)
        assert reopened.rows() == TaskLedger(ledger.path).rows() == ledger.rows()
        assert reopened.row(TASKS[0]).state == "running"
        reopened.complete(TASKS[0], checksum="sha256:abc")
        reopened.close()
        # the torn tail was cut before the append, so nothing glued onto it
        assert ledger.path.read_bytes().startswith(intact + b'{"op":"complete"')
        assert TaskLedger(ledger.path).row(TASKS[0]).state == "done"

    @pytest.mark.parametrize(
        "bad, reason",
        [
            (b"garbage", "not a ledger record"),
            (b'{"op":"launch","tasks":[["fig7","smoke",0]],"at":"t"}', "not a ledger record"),
            (b'{"op":"claim","tasks":[["fig7","smoke",0]],"worker":"w"}', "not a ledger record"),
            (
                b'{"op":"claim","tasks":[["fig7","smoke",0],["fig9","smoke",0]],"at":"t"}',
                "not a ledger record",
            ),
            (b'{"op":"claim","tasks":[["fig7","smoke"]],"at":"t"}', "not a ledger record"),
            (
                b'{"op":"complete","tasks":[["fig7","smoke",0]],"at":"t"}',
                "cannot complete task ('fig7', 'smoke', 0) in state 'pending' "
                "(allowed from: running)",
            ),
        ],
        ids=["not-json", "unknown-op", "no-time", "two-tasks", "short-task",
             "illegal-transition"],
    )
    def test_bad_middle_line_is_one_line_error(self, ledger, bad, reason):
        ledger.claim(TASKS[1], worker="w")
        first, second = ledger.path.read_bytes().splitlines(keepends=True)
        ledger.path.write_bytes(first + bad + b"\n" + second)
        with pytest.raises(LedgerError) as caught:
            TaskLedger(ledger.path)
        assert str(caught.value) == f"{ledger.path}:2: {reason}"

    def test_failed_append_leaves_no_partial_line(self, ledger, monkeypatch):
        intact = ledger.path.read_bytes()
        real_write = ledger_module.os.write

        def short_write(fd, data):
            return real_write(fd, bytes(data[:10]))

        monkeypatch.setattr(ledger_module.os, "write", short_write)
        with pytest.raises(LedgerError, match="wrote 10 of"):
            ledger.claim(TASKS[0], worker="w")
        assert ledger.path.read_bytes() == intact
        assert ledger.row(TASKS[0]).state == "pending"
        monkeypatch.undo()
        ledger.claim(TASKS[0], worker="w")
        assert TaskLedger(ledger.path).row(TASKS[0]).state == "running"


class TestLocking:
    @pytest.mark.parametrize(
        "write",
        [
            lambda ledger: ledger.claim(TASKS[0], worker="w"),
            lambda ledger: ledger.ensure(TASKS + [("fig9", "smoke", 1)]),
            lambda ledger: ledger.reset_all(TASKS),
        ],
        ids=["claim", "ensure", "reset_all"],
    )
    def test_locked_ledger_is_one_line_error(self, tmp_path, write, live_pid):
        """A live writer's lock refuses single and bulk writes alike, and
        nothing in the store changes; reads take no lock."""
        path = tmp_path / "tasks.jsonl"
        with TaskLedger(path) as contender:
            contender.ensure(TASKS)
        lock = tmp_path / "sweep.lock"
        assert not lock.exists()
        lock.write_text(f"{live_pid}\n")
        before = _snapshot(tmp_path)
        contender = TaskLedger(path)
        with pytest.raises(LedgerError) as excinfo:
            write(contender)
        assert str(excinfo.value) == (
            f"{lock} is held by pid {live_pid}: another sweep is writing this store"
        )
        assert _snapshot(tmp_path) == before
        assert [row.state for row in contender.rows()] == ["pending"] * 3
        contender.close()
        assert lock.read_text() == f"{live_pid}\n"

    def test_stale_lock_is_taken_over(self, tmp_path, dead_pid):
        lock = tmp_path / "sweep.lock"
        lock.write_text(f"{dead_pid}\n")
        ledger = TaskLedger(tmp_path / "tasks.jsonl")
        ledger.ensure(TASKS)
        assert lock.read_text() != f"{dead_pid}\n"
        ledger.close()
        assert not lock.exists()

    def test_a_live_holder_of_another_user_is_refused(self, tmp_path, dead_pid, monkeypatch):
        """``os.kill(pid, 0)`` on another user's live process raises
        ``PermissionError``: that holder is alive."""
        (tmp_path / "sweep.lock").write_text(f"{dead_pid}\n")

        def not_permitted(pid, signal):
            raise PermissionError(1, "Operation not permitted")

        monkeypatch.setattr(ledger_module.os, "kill", not_permitted)
        with pytest.raises(LedgerError, match=f"is held by pid {dead_pid}"):
            TaskLedger(tmp_path / "tasks.jsonl").ensure(TASKS)

    def test_losing_the_race_for_a_stale_lock_is_one_line_error(
        self, tmp_path, dead_pid, monkeypatch
    ):
        lock = tmp_path / "sweep.lock"
        lock.write_text(f"{dead_pid}\n")
        real_unlink = type(lock).unlink

        def another_sweep_wins(path, missing_ok=False):
            real_unlink(path, missing_ok=missing_ok)
            path.write_text("")  # created, pid not yet written

        monkeypatch.setattr(type(lock), "unlink", another_sweep_wins)
        with pytest.raises(LedgerError) as caught:
            TaskLedger(tmp_path / "tasks.jsonl").ensure(TASKS)
        assert str(caught.value) == f"{lock} was taken by another sweep first"
        assert not (tmp_path / "tasks.jsonl").exists()

    def test_a_lock_naming_this_process_is_ours(self, tmp_path):
        lock = tmp_path / "sweep.lock"
        lock.write_text(f"{ledger_module.os.getpid()}\n")
        with TaskLedger(tmp_path / "tasks.jsonl") as ledger:
            ledger.ensure(TASKS)
        assert not lock.exists()

    def test_close_releases_and_the_next_write_retakes(self, ledger):
        lock = ledger.path.with_name("sweep.lock")
        assert lock.exists()
        ledger.close()
        assert not lock.exists()
        assert len(ledger.rows()) == 3  # reads take no lock
        assert not lock.exists()
        ledger.claim(TASKS[0], worker="w")
        assert lock.exists()


class TestOneWriterPerStore:
    def test_a_second_sweep_cannot_disturb_a_running_one(self, tmp_path, capsys):
        """Two processes sweep one store.  The second used to reset the
        first's ``running`` row, and the first then died on ``complete``;
        now the second stops in one line and the first finishes."""
        out, gate = tmp_path / "store", tmp_path / "gate"
        journal, waiting = out / "tasks.jsonl", ("gated-stub", "smoke", 1)
        first = subprocess.Popen(
            [sys.executable, "-c", _GATED_SWEEP, str(gate), str(out)],
            env=dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src")),
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )
        register(_gated_spec(lambda ctx, built, cell: [(ctx.seed, 1.0)]))
        try:
            # seed 1 claimed: the first sweep waits on the gate, writing nothing
            deadline = time.monotonic() + 60.0
            while getattr(TaskLedger(journal).row(waiting), "state", None) != "running":
                assert first.poll() is None and time.monotonic() < deadline
                time.sleep(0.005)
            before = _snapshot(out)
            argv = ["sweep", "gated-stub", "--seeds", "0..1", "--scale", "smoke",
                    "--out", str(out)]
            assert main(argv) == 2
            err = capsys.readouterr().err
            assert err.count("\n") == 1
            assert f"{out / 'sweep.lock'} is held by pid {first.pid}" in err
            assert _snapshot(out) == before
            gate.touch()
            assert first.wait(timeout=60) == 0
        finally:
            unregister("gated-stub")
            gate.touch()
            if first.poll() is None:  # pragma: no cover - cleanup guard
                first.kill()
                first.wait()
        states = {row.state for row in ResultStore(out).ledger.rows()}
        assert states == {"done"}
        assert not (out / "sweep.lock").exists()

    def test_second_sweep_on_a_held_store_is_refused(self, tmp_path, finished, live_pid, capsys):
        """A sweep used to run ``reset_all`` over another sweep's ``running``
        rows; the first then died on ``complete``.  The lock refuses it."""
        store = tmp_path / "store"
        shutil.copytree(finished, store)
        (store / "sweep.lock").write_text(f"{live_pid}\n")
        before = _snapshot(store)
        for flags in ((), ("--resume",)):
            argv = ["sweep", "fig7", "--seeds", "0..2", "--scale", "smoke",
                    "--out", str(store), *flags]
            assert main(argv) == 2
            err = capsys.readouterr().err
            assert err.count("\n") == 1
            assert f"{store / 'sweep.lock'} is held by pid {live_pid}" in err
            assert _snapshot(store) == before

    def test_a_resume_with_nothing_to_run_is_refused_too(
        self, tmp_path, finished, live_pid, capsys
    ):
        """A resume that finds every task verified ``done`` changes no
        ledger row, yet rewrites the aggregates: it takes the lock all the
        same, and leaves the files of the sweep that holds it alone."""
        store = tmp_path / "store"
        shutil.copytree(finished, store)
        (store / "sweep.lock").write_text(f"{live_pid}\n")
        aggregates = sorted(store.rglob("aggregate.*"))
        assert [path.name for path in aggregates] == ["aggregate.csv", "aggregate.json"]

        def stamps():
            return [(path.stat().st_ino, path.stat().st_mtime_ns) for path in aggregates]

        before, files = stamps(), _snapshot(store)
        argv = ["sweep", "fig7", "--seeds", "0..1", "--scale", "smoke",
                "--out", str(store), "--resume"]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert f"{store / 'sweep.lock'} is held by pid {live_pid}" in err
        assert stamps() == before
        assert _snapshot(store) == files

    def test_dead_holder_is_reclaimed_and_resume_converges(self, tmp_path, finished, dead_pid):
        """What ``kill -9`` of a sweep leaves: a ``running`` row and a lock
        naming a dead pid."""
        store = tmp_path / "store"
        shutil.copytree(finished, store)
        with ResultStore(store).ledger as ledger:
            ledger.reopen_done(("fig7", "smoke", 1), "simulated kill")
            ledger.claim(("fig7", "smoke", 1), worker="pid:0")
        (store / "sweep.lock").write_text(f"{dead_pid}\n")
        report = _fig7_sweep(store, resume=True)
        assert [outcome.seed for outcome in report.outcomes] == [1]
        assert not (store / "sweep.lock").exists()
        assert artifact_bytes(store) == artifact_bytes(finished)


class TestCrashMidAppend:
    def test_every_truncation_of_the_last_line_folds_to_the_state_before(
        self, tmp_path, finished
    ):
        journal = (finished / "tasks.jsonl").read_bytes()
        last = journal.rstrip(b"\n").rfind(b"\n") + 1
        path = tmp_path / "tasks.jsonl"
        path.write_bytes(journal[:last])
        before = TaskLedger(path).rows()
        assert before != TaskLedger(finished / "tasks.jsonl").rows()
        for offset in range(last, len(journal)):
            path.write_bytes(journal[:offset])
            assert TaskLedger(path).rows() == before, offset

    def test_resume_from_a_torn_journal_converges(self, tmp_path, finished):
        journal = (finished / "tasks.jsonl").read_bytes()
        last = journal.rstrip(b"\n").rfind(b"\n") + 1
        for offset in (last + 1, (last + len(journal)) // 2, len(journal) - 1):
            store = tmp_path / f"torn-{offset}"
            shutil.copytree(finished, store)
            (store / "tasks.jsonl").write_bytes(journal[:offset])
            report = _fig7_sweep(store, resume=True)
            assert [outcome.seed for outcome in report.outcomes] == [1]
            rows = ResultStore(store).ledger.rows()
            assert [row.state for row in rows] == ["done", "done"]
            assert artifact_bytes(store) == artifact_bytes(finished)


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
