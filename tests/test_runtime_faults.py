"""Fault-injection suite for the resumable sweep runtime.

Each test injects one of the failure modes the runtime claims to survive —
a worker SIGKILLed mid-task, a worker hung past its deadline, a truncated
artifact, an orphaned ``running`` claim, a parent process killed mid-sweep
— and asserts the convergence contract: after (bounded-retry) recovery or
``--resume``, the store's deterministic artifacts are byte-identical to
those of the same sweep run uninterrupted with ``--jobs 1``.
"""

from __future__ import annotations

import os
import pathlib
import signal
import subprocess
import sys
import time

import pytest

from repro.experiments import runtime
from repro.experiments.registry import register, unregister
from repro.experiments.runner import SweepSpec, run_sweep
from repro.experiments.spec import ExperimentSpec, Pipeline
from repro.experiments.store import ResultStore

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent


def artifact_bytes(root):
    """relative path -> bytes for every deterministic artifact under root."""
    return {
        str(path.relative_to(root)): path.read_bytes()
        for path in sorted(root.rglob("*.json")) + sorted(root.rglob("*.csv"))
        if path.name != "manifest.json"  # manifests hold volatile timestamps
    }


@pytest.fixture()
def faulty_experiment(tmp_path):
    """Register a deterministic experiment with an arm-able fault stub.

    The measure stage checks ``<flags>/<kind>_<seed>``; if present the flag
    is consumed (so exactly one attempt faults) and the fault fires:
    ``kill`` SIGKILLs the worker mid-task, ``hang`` sleeps far past any
    test timeout, ``raise`` raises.  Unarmed runs produce rows derived
    only from the seed — byte-identical however many faults preceded them.
    Worker processes inherit the registration through fork, so this works
    without any import-able module.
    """
    flags = tmp_path / "flags"
    flags.mkdir()

    def measure(ctx, built, cell):
        for kind in ("kill", "hang", "raise"):
            flag = flags / f"{kind}_{ctx.seed}"
            if flag.exists():
                flag.unlink()
                if kind == "kill":
                    os.kill(os.getpid(), signal.SIGKILL)
                elif kind == "hang":
                    time.sleep(120.0)
                else:
                    raise RuntimeError(f"armed failure for seed {ctx.seed}")
        return [(ctx.seed, round(0.5 * ctx.seed + 1.0, 3))]

    spec = ExperimentSpec(
        experiment_id="fault-stub",
        title="fault-injection stub",
        pipeline=Pipeline(
            columns=("seed", "value"), measure=measure, key_columns=("seed",)
        ),
        tags=("test",),
    )
    register(spec)
    try:
        yield flags
    finally:
        unregister("fault-stub")


@pytest.fixture()
def no_backoff(monkeypatch):
    """Re-queue a failed attempt at once: these tests wait on the retry."""
    monkeypatch.setattr(runtime, "RETRY_BACKOFF", 0.0)


def _sweep_spec(seeds=(0, 1, 2)):
    return SweepSpec(("fault-stub",), seeds=tuple(seeds), scale="smoke")


def _reference_run(tmp_path, seeds=(0, 1, 2)):
    """The uninterrupted --jobs 1 baseline every faulted run must match."""
    store = ResultStore(tmp_path / "reference")
    report = run_sweep(_sweep_spec(seeds), store, jobs=1)
    assert not report.failures
    return artifact_bytes(store.root)


class TestWorkerCrash:
    @pytest.mark.usefixtures("no_backoff")
    def test_sigkilled_worker_is_retried_to_convergence(
        self, tmp_path, faulty_experiment
    ):
        for seed in (0, 2):
            (faulty_experiment / f"kill_{seed}").touch()
        store = ResultStore(tmp_path / "faulted")
        report = run_sweep(
            _sweep_spec(), store, jobs=2, max_retries=2
        )
        assert not report.failures
        assert sorted(o.seed for o in report.outcomes) == [0, 1, 2]
        rows = {r.seed: r for r in store.ledger.rows(experiment_id="fault-stub")}
        assert all(row.state == "done" for row in rows.values())
        # the killed seeds consumed their crashed attempt plus the retry
        assert rows[0].attempts == 2
        assert rows[1].attempts == 1
        assert rows[2].attempts == 2
        assert artifact_bytes(store.root) == _reference_run(tmp_path)

    @pytest.mark.usefixtures("no_backoff")
    def test_raising_worker_exhausts_budget_and_fails(
        self, tmp_path, faulty_experiment
    ):
        (faulty_experiment / "raise_1").touch()
        store = ResultStore(tmp_path / "faulted")
        report = run_sweep(
            _sweep_spec(), store, jobs=1, max_retries=0
        )
        (failure,) = report.failures
        assert (failure.seed, failure.attempts) == (1, 1)
        assert "RuntimeError" in failure.error
        assert store.ledger.row(("fault-stub", "smoke", 1)).state == "failed"
        # the other seeds still completed and aggregated
        assert sorted(o.seed for o in report.outcomes) == [0, 2]
        assert len(report.aggregates) == 1
        # a resume retries the failed task (flag consumed -> now succeeds)
        resumed = run_sweep(
            _sweep_spec(), store, jobs=1, resume=True
        )
        assert not resumed.failures
        assert [o.seed for o in resumed.outcomes] == [1]
        assert sorted(s.seed for s in resumed.skipped) == [0, 2]
        assert artifact_bytes(store.root) == _reference_run(tmp_path)


class TestHungWorker:
    @pytest.mark.usefixtures("no_backoff")
    def test_hung_worker_is_killed_and_retried(self, tmp_path, faulty_experiment):
        (faulty_experiment / "hang_1").touch()
        store = ResultStore(tmp_path / "faulted")
        report = run_sweep(
            _sweep_spec(),
            store,
            jobs=2,
            max_retries=1,
            task_timeout=1.0,
        )
        assert not report.failures
        row = store.ledger.row(("fault-stub", "smoke", 1))
        assert (row.state, row.attempts) == ("done", 2)
        assert artifact_bytes(store.root) == _reference_run(tmp_path)

    @pytest.mark.usefixtures("no_backoff")
    def test_forever_hung_task_fails_with_timeout_error(
        self, tmp_path, faulty_experiment
    ):
        # a flag only arms one attempt, so allow zero retries to make the
        # single hung attempt final
        (faulty_experiment / "hang_0").touch()
        store = ResultStore(tmp_path / "faulted")
        report = run_sweep(
            _sweep_spec((0,)),
            store,
            jobs=1,
            max_retries=0,
            task_timeout=0.5,
        )
        (failure,) = report.failures
        assert "timed out" in failure.error
        assert store.ledger.row(("fault-stub", "smoke", 0)).state == "failed"


class TestArtifactCorruption:
    def test_truncated_artifact_is_detected_and_rerun(
        self, tmp_path, faulty_experiment
    ):
        store = ResultStore(tmp_path / "faulted")
        run_sweep(_sweep_spec(), store, jobs=1)
        victim = store.seed_path("fault-stub", "smoke", 1)
        victim.write_bytes(victim.read_bytes()[:10])  # truncate mid-file

        resumed = run_sweep(_sweep_spec(), store, jobs=1, resume=True)
        assert [o.seed for o in resumed.outcomes] == [1]
        assert sorted(s.seed for s in resumed.skipped) == [0, 2]
        assert artifact_bytes(store.root) == _reference_run(tmp_path)

    def test_deleted_artifact_is_rerun(self, tmp_path, faulty_experiment):
        store = ResultStore(tmp_path / "faulted")
        run_sweep(_sweep_spec(), store, jobs=1)
        store.seed_path("fault-stub", "smoke", 2).unlink()

        resumed = run_sweep(_sweep_spec(), store, jobs=1, resume=True)
        assert [o.seed for o in resumed.outcomes] == [2]
        assert artifact_bytes(store.root) == _reference_run(tmp_path)


class TestOrphanedClaims:
    def test_orphaned_running_row_is_reclaimed(self, tmp_path, faulty_experiment):
        store = ResultStore(tmp_path / "faulted")
        run_sweep(_sweep_spec(), store, jobs=1)
        # simulate a parent killed between claim and complete: the row is
        # stranded 'running' (artifact state irrelevant to the orphan path)
        ledger = store.ledger
        task = ("fault-stub", "smoke", 1)
        ledger.reopen_done(task, "simulating crashed parent")
        ledger.claim(task, worker="pid:dead-parent")
        assert ledger.row(task).state == "running"

        resumed = run_sweep(_sweep_spec(), store, jobs=1, resume=True)
        assert [o.seed for o in resumed.outcomes] == [1]
        assert sorted(s.seed for s in resumed.skipped) == [0, 2]
        row = ledger.row(task)
        assert row.state == "done"
        assert row.attempts == 3  # first run + orphaned claim + reclaimed rerun
        assert artifact_bytes(store.root) == _reference_run(tmp_path)


class TestParityUnderParallelResume:
    @pytest.mark.usefixtures("no_backoff")
    def test_jobs_n_resume_matches_uninterrupted_jobs_1(
        self, tmp_path, faulty_experiment
    ):
        # crash two workers, resume with a pool: bytes must still match the
        # serial uninterrupted reference exactly
        for seed in (0, 1):
            (faulty_experiment / f"kill_{seed}").touch()
        store = ResultStore(tmp_path / "faulted")
        first = run_sweep(
            _sweep_spec(), store, jobs=2, max_retries=0
        )
        assert {f.seed for f in first.failures} == {0, 1}

        resumed = run_sweep(
            _sweep_spec(), store, jobs=2, resume=True
        )
        assert not resumed.failures
        assert sorted(o.seed for o in resumed.outcomes) == [0, 1]
        assert [s.seed for s in resumed.skipped] == [2]
        assert artifact_bytes(store.root) == _reference_run(tmp_path)


class TestParentKill:
    def test_parent_sigkill_then_cli_resume_converges(self, tmp_path):
        """Kill the *parent* sweep process mid-run; `sweep --resume` must
        finish the seed set with bytes identical to an uninterrupted run."""
        env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
        out = tmp_path / "interrupted"
        command = [
            sys.executable,
            "-m",
            "repro.experiments.cli",
            "sweep",
            "fig7",
            "--seeds",
            "0..1",
            "--scale",
            "smoke",
            "--out",
            str(out),
        ]
        process = subprocess.Popen(
            command, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL
        )
        try:
            # kill -9 the parent as soon as the first artifact is committed
            first = out / "fig7" / "smoke" / "seed_0.json"
            deadline = time.monotonic() + 60.0
            while not first.exists() and time.monotonic() < deadline:
                if process.poll() is not None:
                    break  # finished before we could kill it: still a valid run
                time.sleep(0.01)
            if process.poll() is None:
                process.kill()
            process.wait(timeout=30)
        finally:
            if process.poll() is None:  # pragma: no cover - cleanup guard
                process.kill()

        resume = subprocess.run(
            command + ["--resume"], env=env, capture_output=True, text=True
        )
        assert resume.returncode == 0, resume.stderr

        reference = tmp_path / "reference"
        spec = SweepSpec(("fig7",), seeds=(0, 1), scale="smoke")
        run_sweep(spec, ResultStore(reference), jobs=1)
        assert artifact_bytes(out) == artifact_bytes(reference)


class TestRetryBackoffCap:
    """Exponential retry backoff is capped: a generous retry budget must
    never schedule a multi-minute sleep."""

    def test_shipped_pacing(self):
        assert [runtime.backoff_delay(n) for n in (1, 2, 3)] == [0.1, 0.2, 0.4]
        assert runtime.backoff_delay(10) == 30.0

    def test_delay_doubles_then_caps(self, monkeypatch):
        monkeypatch.setattr(runtime, "RETRY_BACKOFF", 1.0)
        assert [runtime.backoff_delay(n) for n in (1, 2, 3, 4, 5)] == [
            1.0,
            2.0,
            4.0,
            8.0,
            16.0,
        ]
        assert runtime.backoff_delay(6) == 30.0  # 32 would exceed the cap
        assert runtime.backoff_delay(50) == 30.0  # no overflow blow-up either

    def test_cap_applies_to_large_bases(self, monkeypatch):
        monkeypatch.setattr(runtime, "RETRY_BACKOFF", 120.0)
        assert runtime.backoff_delay(1) == 30.0

    def test_run_sweep_threads_cap_through(self, tmp_path, faulty_experiment, monkeypatch):
        monkeypatch.setattr(runtime, "RETRY_BACKOFF", 100.0)  # uncapped: a >100 s sleep
        monkeypatch.setattr(runtime, "RETRY_BACKOFF_CAP", 0.05)
        (faulty_experiment / "raise_1").touch()
        store = ResultStore(tmp_path / "capped")
        started = time.monotonic()
        report = run_sweep(_sweep_spec(), store, jobs=1, max_retries=2)
        assert time.monotonic() - started < 60.0
        assert not report.failures
        rows = {r.seed: r for r in store.ledger.rows(experiment_id="fault-stub")}
        assert rows[1].attempts == 2  # the armed raise plus the capped retry
