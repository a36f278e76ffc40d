"""Worker reuse and isolation in the sweep runtime.

``tests/test_runtime_faults.py`` pins *what* the runtime survives; this
file pins *which process* did the work: workers are reused from task to
task, exactly the faulted one is replaced, a retry never lands in the
process that raised, a reused worker's bytes are a fresh process's bytes,
and no worker outlives its sweep — whether the sweep returned, raised, was
interrupted with Ctrl-C or had its parent SIGKILLed.

Pids come from a stub experiment whose ``measure`` appends ``seed pid`` to
a file on every attempt, because the ledger's ``worker`` column keeps only
the last claim of a task.
"""

from __future__ import annotations

import hashlib
import json
import multiprocessing
import os
import pathlib
import signal
import subprocess
import sys
import tempfile
import time

import pytest

from repro.errors import LedgerError
from repro.experiments import all_experiment_ids
from repro.experiments.cli import main
from repro.experiments.registry import register, unregister
from repro.experiments.runner import SweepSpec, run_sweep, save_outcome
from repro.experiments.runtime import execute_task, pick_task
from repro.experiments.spec import ExperimentSpec, Pipeline
from repro.experiments.store import ResultStore
from repro.util.cache import clear_all_caches
from test_determinism import GOLDENS, _fingerprint
from test_runtime_faults import REPO_ROOT, artifact_bytes, no_backoff  # noqa: F401


class Stub:
    """Handle on the registered ``pid-stub`` experiment: arm faults, read
    back which process ran which attempt."""

    def __init__(self, root: pathlib.Path):
        self.flags = root / "flags"
        self.flags.mkdir()
        self.log = root / "attempts.log"

    def arm(self, kind: str, seed: int) -> None:
        """The next attempt of ``seed`` kills itself, hangs or raises."""
        (self.flags / f"{kind}_{seed}").touch()

    def slow(self) -> None:
        """Every attempt takes 50 ms, so that two workers demonstrably
        share a sweep."""
        (self.flags / "slow").touch()

    def attempts(self) -> list[tuple[int, int]]:
        """``(seed, pid)`` per attempt, in the order the attempts began."""
        if not self.log.exists():
            return []
        return [
            (int(seed), int(pid))
            for seed, pid in (line.split() for line in self.log.read_text().splitlines())
        ]

    def pids(self) -> list[int]:
        """Distinct worker pids, in order of first appearance."""
        return list(dict.fromkeys(pid for _, pid in self.attempts()))

    def pids_of(self, seed: int) -> list[int]:
        return [pid for attempt_seed, pid in self.attempts() if attempt_seed == seed]


@pytest.fixture()
def stub(tmp_path):
    """``pid-stub``: rows derived from the seed only; every attempt logs its
    pid first, then fires an armed one-shot fault, then dawdles if asked."""
    handle = Stub(tmp_path)

    def measure(ctx, built, cell):
        with handle.log.open("a") as log:  # one short O_APPEND write: atomic
            log.write(f"{ctx.seed} {os.getpid()}\n")
        for kind in ("kill", "hang", "raise"):
            flag = handle.flags / f"{kind}_{ctx.seed}"
            if flag.exists():
                flag.unlink()
                if kind == "kill":
                    os.kill(os.getpid(), signal.SIGKILL)
                elif kind == "hang":
                    time.sleep(120.0)
                else:
                    raise RuntimeError(f"armed failure for seed {ctx.seed}")
        if (handle.flags / "slow").exists():
            time.sleep(0.05)
        return [(ctx.seed, round(0.5 * ctx.seed + 1.0, 3))]

    register(
        ExperimentSpec(
            experiment_id="pid-stub",
            title="worker-identity stub",
            pipeline=Pipeline(
                columns=("seed", "value"), measure=measure, key_columns=("seed",)
            ),
            tags=("test",),
        )
    )
    try:
        yield handle
    finally:
        unregister("pid-stub")


def _spec(seeds) -> SweepSpec:
    return SweepSpec(("pid-stub",), seeds=tuple(seeds), scale="smoke")


def _ledger_pids(store: ResultStore) -> set[int]:
    return {
        int(row.worker.split(":")[1])
        for row in store.ledger.rows()
        if row.worker is not None
    }


def _gone(pid: int) -> bool:
    """No such process — or an exited one that init has yet to reap."""
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return True
    try:
        stat = pathlib.Path(f"/proc/{pid}/stat").read_text()
    except OSError:  # no procfs: the signal probe above is all there is
        return False
    return stat.rsplit(")", 1)[1].split()[0] == "Z"


class TestReuse:
    def test_eight_tasks_two_workers(self, tmp_path, stub):
        stub.slow()
        store = ResultStore(tmp_path / "store")
        report = run_sweep(_spec(range(8)), store, jobs=2)
        assert not report.failures and len(report.outcomes) == 8
        assert len(stub.attempts()) == 8
        assert len(stub.pids()) == 2  # both workers took part, and only two
        assert set(stub.pids()) == _ledger_pids(store)
        assert os.getpid() not in stub.pids()

    def test_never_more_workers_than_tasks(self, tmp_path, stub):
        store = ResultStore(tmp_path / "store")
        run_sweep(_spec(range(3)), store, jobs=8)
        assert 1 <= len(stub.pids()) <= 3
        assert set(stub.pids()) == _ledger_pids(store)

    def test_jobs_1_is_one_worker_process_not_this_one(self, tmp_path, stub):
        run_sweep(_spec(range(4)), ResultStore(tmp_path / "store"), jobs=1)
        (pid,) = stub.pids()
        assert pid != os.getpid()
        assert [seed for seed, _ in stub.attempts()] == [0, 1, 2, 3]

    def test_storeless_sweep_reuses_workers_too(self, stub):
        report = run_sweep(_spec(range(6)), store=None, jobs=2)
        assert sorted(o.seed for o in report.outcomes) == list(range(6))
        assert 1 <= len(stub.pids()) <= 2
        assert os.getpid() not in stub.pids()


class TestReplacement:
    @pytest.mark.usefixtures("no_backoff")
    def test_killed_worker_is_the_only_one_replaced(self, tmp_path, stub):
        stub.slow()
        stub.arm("kill", 1)
        store = ResultStore(tmp_path / "store")
        report = run_sweep(
            _spec(range(8)), store, jobs=2, max_retries=1
        )
        assert not report.failures and len(report.outcomes) == 8
        died, retried = stub.pids_of(1)
        assert died != retried
        assert len(stub.pids()) == 3  # the two first workers plus one replacement
        survivor = next(pid for pid in stub.pids()[:2] if pid != died)
        attempts = stub.attempts()
        kill_index = attempts.index((1, died))
        assert all(pid != died for _, pid in attempts[kill_index + 1 :])
        # the surviving worker keeps serving tasks after its sibling died
        assert any(pid == survivor for _, pid in attempts[kill_index + 1 :])

    @pytest.mark.usefixtures("no_backoff")
    def test_retry_never_runs_in_the_process_that_raised(self, tmp_path, stub):
        stub.arm("raise", 0)
        store = ResultStore(tmp_path / "store")
        report = run_sweep(
            _spec(range(3)), store, jobs=1, max_retries=1
        )
        assert not report.failures
        raised, retried = stub.pids_of(0)
        assert raised != retried
        # jobs=1: the raiser was retired, so everything after it ran elsewhere
        assert raised not in [pid for _, pid in stub.attempts()[1:]]
        assert store.ledger.row(("pid-stub", "smoke", 0)).attempts == 2

    @pytest.mark.usefixtures("no_backoff")
    def test_only_the_hung_worker_is_replaced(self, tmp_path, stub):
        # 20 tasks of 50 ms keep the other worker streaming well past the
        # 0.5 s deadline, so the hung worker's slot is needed again
        stub.slow()
        stub.arm("hang", 0)
        store = ResultStore(tmp_path / "store")
        report = run_sweep(
            _spec(range(20)),
            store,
            jobs=2,
            max_retries=1,
            task_timeout=0.5,
        )
        assert not report.failures and len(report.outcomes) == 20
        hung, retried = stub.pids_of(0)
        assert hung != retried
        ran = [pid for _, pid in stub.attempts()]
        assert ran.count(hung) == 1 and _gone(hung)
        # one replacement, for the hung worker: the other one was never
        # disturbed and served tasks before, during and after the hang
        assert len(stub.pids()) == 3
        _, streamer, replacement = stub.pids()
        assert ran.count(streamer) >= 8
        assert streamer in ran[ran.index(replacement) :]


class TestWarmWorkerBytes:
    """A reused worker's bytes are a fresh process's bytes."""

    def test_full_smoke_sweep_matches_goldens_in_either_order(self, tmp_path):
        ids = tuple(all_experiment_ids())
        forward, backward = ResultStore(tmp_path / "fwd"), ResultStore(tmp_path / "bwd")
        report = run_sweep(SweepSpec(ids, seeds=(1,), scale="smoke"), forward, jobs=2)
        run_sweep(SweepSpec(ids[::-1], seeds=(1,), scale="smoke"), backward, jobs=2)
        assert not report.failures
        # two workers served all 22 tasks: every one but two ran warm
        assert len(_ledger_pids(forward)) <= 2
        ours, theirs = artifact_bytes(forward.root), artifact_bytes(backward.root)
        assert len(ours) == 4 * len(ids)  # seed_1.json + 3 aggregate files each
        assert ours == theirs
        if GOLDENS["fingerprint"] != _fingerprint():
            pytest.skip(f"goldens were taken under {GOLDENS['fingerprint']}")
        digests = {
            outcome.experiment_id: hashlib.sha256(
                json.dumps(outcome.result.to_dict(), sort_keys=True).encode("utf-8")
            ).hexdigest()
            for outcome in report.outcomes
        }
        assert digests == GOLDENS["digests"]


class TestSeedAffinity:
    """A free worker is handed the next task of the ``(scale, seed)`` it
    already holds, so it empties its caches once per seed, not per task."""

    TASKS = [(e, "smoke", seed) for e in ("fig7", "tab3") for seed in (0, 1, 2)]

    def test_pick_task_rank_order_and_tie_breaks(self):
        tasks = self.TASKS
        # 1. the worker's own (scale, seed), first in canonical order, even
        #    behind a task of a seed nobody holds
        assert pick_task(tasks, ("smoke", 1), set(), {}, 0.0) == ("fig7", "smoke", 1)
        assert pick_task(tasks[2:], ("smoke", 1), set(), {}, 0.0) == ("tab3", "smoke", 1)
        assert pick_task(tasks[1:], ("smoke", 2), set(), {}, 0.0) == ("fig7", "smoke", 2)
        # a scale is part of the key: ("default", 1) holds nothing here
        assert pick_task(tasks[2:], ("default", 1), set(), {}, 0.0) == ("fig7", "smoke", 2)
        # 2. else the first seed no busy worker holds; a fresh worker alike
        assert pick_task(tasks, ("smoke", 9), {("smoke", 0)}, {}, 0.0) == ("fig7", "smoke", 1)
        busy = {("smoke", 0), ("smoke", 1)}
        assert pick_task(tasks, None, busy, {}, 0.0) == ("fig7", "smoke", 2)
        # 3. else the first task
        busy = {("smoke", seed) for seed in (0, 1, 2)}
        assert pick_task(tasks, None, busy, {}, 0.0) == ("fig7", "smoke", 0)
        assert pick_task([], None, set(), {}, 0.0) is None

    def test_pick_task_skips_tasks_backing_off(self):
        tasks = self.TASKS
        backing_off = {("fig7", "smoke", 1): 5.0, ("fig7", "smoke", 2): 5.0}
        assert pick_task(tasks, ("smoke", 1), set(), backing_off, 4.0) == ("tab3", "smoke", 1)
        assert pick_task(tasks, ("smoke", 1), set(), backing_off, 5.0) == ("fig7", "smoke", 1)
        busy = {("smoke", 0), ("smoke", 1)}
        assert pick_task(tasks, None, busy, backing_off, 4.0) == ("tab3", "smoke", 2)
        everything = {task: 1.0 for task in tasks}
        assert pick_task(tasks, ("smoke", 0), set(), everything, 0.5) is None

    def test_one_worker_clears_its_caches_once_per_seed(self, tmp_path, capsys):
        """The ``sweep-smoke`` task list: experiment-major dispatch cleared
        the caches before each of the 16 tasks."""
        argv = ["sweep", "fig7", "fig8", "fig10", "tab3", "--seeds", "0..3",
                "--scale", "smoke", "--jobs", "1", "--out", str(tmp_path)]
        assert main(argv) == 0
        summary = capsys.readouterr().err.splitlines()[-1]
        assert "swept 16 tasks" in summary and "4 cache clears" in summary

    @pytest.mark.parametrize("durable", [True, False], ids=["store", "storeless"])
    def test_warm_tasks_are_cold_tasks_byte_for_byte(self, tmp_path, durable):
        """A cache hit may skip construction, never counted work: every
        replicate of a two-worker sweep, telemetry included, is what the
        same task writes run cold in this process."""
        spec = SweepSpec(("fig10", "tab3"), seeds=(0, 1, 2), scale="smoke")
        store = ResultStore(tmp_path / "swept") if durable else None
        report = run_sweep(spec, store, jobs=2)
        assert not report.failures and len(report.outcomes) == 6
        # two workers start on two seeds; the third seed is one clear more,
        # or two when the worker holding it is still busy with it
        assert 3 <= report.cache_clears <= 4
        cold, reference = ResultStore(tmp_path / "cold"), {}
        for task in spec.tasks():
            clear_all_caches()
            reference[task] = execute_task(*task)
            save_outcome(cold, reference[task])
        if durable:
            ours = {
                name: data
                for name, data in artifact_bytes(store.root).items()
                if name.rsplit("/", 1)[1].startswith("seed_")
            }
            assert len(ours) == 12  # seed_<n>.json and seed_<n>.telemetry.json
            assert ours == artifact_bytes(cold.root)
        for outcome in report.outcomes:
            expected = reference[outcome.task].result
            assert outcome.result.to_dict() == expected.to_dict()
            assert outcome.result.metrics == expected.metrics


class TestParentSideFailure:
    """An exception in the parent — out of ``commit`` or out of the ledger —
    propagates unchanged and leaves no process behind."""

    def test_commit_that_raises(self, tmp_path, stub, monkeypatch):
        stub.slow()
        store = ResultStore(tmp_path / "store")
        boom = OSError(28, "No space left on device")

        def full_disk(*args, **kwargs):
            raise boom

        monkeypatch.setattr(store, "save", full_disk)
        with pytest.raises(OSError) as caught:
            run_sweep(_spec(range(6)), store, jobs=2)
        assert caught.value is boom
        assert multiprocessing.active_children() == []
        assert all(_gone(pid) for pid in stub.pids())
        # the task whose commit failed stays claimed for the next resume
        states = [row.state for row in store.ledger.rows()]
        assert "done" not in states and "running" in states

    def test_claim_that_raises(self, tmp_path, stub, monkeypatch):
        stub.slow()
        store = ResultStore(tmp_path / "store")
        ledger = store.ledger
        real_claim, claimed = ledger.claim, []

        def locked_on_third(task, worker):
            if len(claimed) == 2:
                raise LedgerError("ledger is locked by another process")
            real_claim(task, worker)
            claimed.append(task)

        monkeypatch.setattr(ledger, "claim", locked_on_third)
        with pytest.raises(LedgerError, match="locked"):
            run_sweep(_spec(range(6)), store, jobs=2)
        assert multiprocessing.active_children() == []
        # no worker ever received a task the ledger had not handed out
        assert {seed for seed, _ in stub.attempts()} <= {task[2] for task in claimed}
        assert all(_gone(pid) for pid in stub.pids())

    def test_claim_precedes_send(self, tmp_path, stub, monkeypatch):
        """At the moment a worker starts a task, its row is ``running`` under
        that worker's pid."""
        store = ResultStore(tmp_path / "store")
        ledger = store.ledger
        real_complete, seen = ledger.complete, {}

        def complete(task, checksum):
            row = ledger.row(task)
            seen[task[2]] = (row.state, row.worker)
            real_complete(task, checksum)

        monkeypatch.setattr(ledger, "complete", complete)
        run_sweep(_spec(range(4)), store, jobs=2)
        assert seen == {
            seed: ("running", f"pid:{pid}") for seed, pid in stub.attempts()
        }


class TestStorelessWorkers:
    """A storeless sweep is the durable sweep on a scratch store: the same
    workers, retries, timeouts and ``failed`` rows, and the same bytes."""

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_a_hung_task_is_killed_and_reported_failed(self, stub, jobs):
        stub.arm("hang", 1)
        report = run_sweep(
            _spec(range(3)), store=None, jobs=jobs, max_retries=0, task_timeout=0.5
        )
        (row,) = report.failures
        assert row.key == ("pid-stub", "smoke", 1) and row.state == "failed"
        assert row.error == "timed out after 0.5s (worker killed)"
        assert sorted(o.seed for o in report.outcomes) == [0, 2]
        assert _gone(stub.pids_of(1)[0])
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize(
        "kind, error",
        [("raise", "RuntimeError: armed failure for seed 2"),
         ("kill", "worker died (exit code -9)")],
    )
    def test_a_failing_task_is_its_failed_row(self, stub, kind, error):
        stub.arm(kind, 2)
        report = run_sweep(_spec(range(4)), store=None, jobs=2, max_retries=0)
        (row,) = report.failures
        assert row.key == ("pid-stub", "smoke", 2) and row.attempts == 1
        assert row.error == error
        assert sorted(o.seed for o in report.outcomes) == [0, 1, 3]
        # the aggregate covers the replicates that made it
        (aggregate,) = report.aggregates
        assert "aggregate of 3 replicates" in aggregate.notes
        assert multiprocessing.active_children() == []

    def test_outcomes_match_a_stored_sweep_by_task(self, tmp_path, stub):
        """Outcomes arrive in completion order; by task they hold the bytes
        a stored sweep writes, and the aggregates are the stored ones."""
        stub.slow()
        seen = []
        stored = ResultStore(tmp_path / "stored")
        reference = run_sweep(_spec(range(6)), stored, jobs=3)
        for jobs in (1, 3):
            report = run_sweep(
                _spec(range(6)), store=None, jobs=jobs,
                progress=lambda o: seen.append(o.seed),
            )
            assert seen == [o.seed for o in report.outcomes]
            assert sorted(seen) == list(range(6))
            seen.clear()
            replay = ResultStore(tmp_path / f"replay-{jobs}")
            for outcome in report.outcomes:
                save_outcome(replay, outcome)
            for aggregate in report.aggregates:
                replay.write_aggregate(aggregate, list(range(6)))
            assert artifact_bytes(replay.root) == artifact_bytes(stored.root)
            assert report.aggregates == reference.aggregates
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("ending", ["return", "failed task", "interrupt"])
    def test_no_scratch_directory_outlives_the_sweep(self, tmp_path, stub, monkeypatch, ending):
        scratch = tmp_path / "tmp"
        scratch.mkdir()
        monkeypatch.setattr(tempfile, "tempdir", str(scratch))
        held = []

        def progress(outcome):
            held.extend(scratch.iterdir())  # the sweep's store, while it runs
            if ending == "interrupt":
                raise KeyboardInterrupt

        if ending == "failed task":
            stub.arm("raise", 1)
        if ending == "interrupt":
            with pytest.raises(KeyboardInterrupt):
                run_sweep(_spec(range(3)), store=None, jobs=1, progress=progress)
        else:
            report = run_sweep(
                _spec(range(3)), store=None, jobs=1, progress=progress, max_retries=0
            )
            assert len(report.failures) == (ending == "failed task")
        assert held and all(path.parent == scratch for path in held)
        assert list(scratch.iterdir()) == []
        assert multiprocessing.active_children() == []


class TestStartMethod:
    def test_workers_see_runtime_registrations_under_forkserver(self, tmp_path):
        """Python 3.14 makes ``forkserver`` the Linux default, and a worker
        it starts re-imports the package: a scale registered at runtime
        would be unknown there.  The pool forks on Linux whatever the
        default."""
        if not sys.platform.startswith("linux"):
            pytest.skip("workers are forked on Linux only")
        script = (
            "import multiprocessing, sys\n"
            "multiprocessing.set_start_method('forkserver')\n"
            "from repro import api\n"
            "api.register_scale(api.get_scale('smoke').evolve(name='tiny-probe'))\n"
            "report = api.sweep('fig7', seeds=[0], scale='tiny-probe', jobs=1,\n"
            "                   store=sys.argv[1])\n"
            "print(len(report.outcomes), [row.error for row in report.failures])\n"
        )
        done = subprocess.run(
            [sys.executable, "-c", script, str(tmp_path / "store")],
            env=_cli_env(), capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout == "1 []\n"


def _cli(out: pathlib.Path, *extra: str) -> list[str]:
    return [
        sys.executable, "-m", "repro.experiments.cli", "sweep", "fig7", "fig10",
        "--seeds", "0..3", "--scale", "smoke", "--out", str(out), *extra,
    ]


def _cli_env() -> dict[str, str]:
    return dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))


def _wait_for_first_artifact(out: pathlib.Path, process: subprocess.Popen) -> None:
    first = out / "fig7" / "smoke" / "seed_0.json"
    deadline = time.monotonic() + 60.0
    while not first.exists() and process.poll() is None:
        assert time.monotonic() < deadline, "sweep produced nothing in 60 s"
        time.sleep(0.005)


def _worker_pids(out: pathlib.Path) -> set[int]:
    store = ResultStore(out)
    try:
        return _ledger_pids(store)
    finally:
        store.ledger.close()


def _reference(tmp_path: pathlib.Path) -> dict[str, bytes]:
    reference = tmp_path / "reference"
    spec = SweepSpec(("fig7", "fig10"), seeds=(0, 1, 2, 3), scale="smoke")
    run_sweep(spec, ResultStore(reference), jobs=1)
    return artifact_bytes(reference)


class TestParentKillWithWorkers:
    def test_workers_exit_when_the_parent_is_sigkilled(self, tmp_path):
        """``kill -9`` of a ``--jobs 2`` sweep orphans two workers; each reads
        EOF on its pipe (no sibling holds the parent's end open) and exits,
        and ``--resume`` converges to the uninterrupted bytes."""
        out = tmp_path / "interrupted"
        process = subprocess.Popen(
            _cli(out, "--jobs", "2"),
            env=_cli_env(),
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )
        try:
            _wait_for_first_artifact(out, process)
            killed = process.poll() is None
            process.kill()
            process.wait(timeout=30)
        finally:
            if process.poll() is None:  # pragma: no cover - cleanup guard
                process.kill()
        pids = _worker_pids(out)
        assert pids, "no worker was ever claimed for"
        deadline = time.monotonic() + 5.0
        while not all(_gone(pid) for pid in pids) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert [pid for pid in pids if not _gone(pid)] == []
        if killed:
            assert len(pids) <= 2

        resume = subprocess.run(
            _cli(out, "--jobs", "2", "--resume"),
            env=_cli_env(),
            capture_output=True,
            text=True,
        )
        assert resume.returncode == 0, resume.stderr
        assert artifact_bytes(out) == _reference(tmp_path)


class TestCtrlC:
    def test_sigint_is_one_line_exit_130_and_resumable(self, tmp_path):
        out = tmp_path / "interrupted"
        process = subprocess.Popen(
            _cli(out, "--jobs", "2"),
            env=_cli_env(),
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            start_new_session=True,  # its own group: Ctrl-C reaches parent and workers
        )
        try:
            _wait_for_first_artifact(out, process)
            interrupted = process.poll() is None
            if interrupted:
                os.killpg(process.pid, signal.SIGINT)
            _, stderr = process.communicate(timeout=60)
        finally:
            if process.poll() is None:  # pragma: no cover - cleanup guard
                os.killpg(process.pid, signal.SIGKILL)
        if not interrupted:  # pragma: no cover - an eight-task sweep beat a file poll
            pytest.skip("sweep finished before it could be interrupted")
        assert "Traceback" not in stderr, stderr
        beyond_progress = [
            line for line in stderr.splitlines() if not line.startswith("[")
        ]
        assert len(beyond_progress) == 1, stderr
        (line,) = beyond_progress
        assert line.startswith("mpil-experiments sweep: interrupted after ")
        assert line.endswith(" of 8 tasks; re-run with --resume")
        assert process.returncode == 130
        assert all(_gone(pid) for pid in _worker_pids(out))

        for experiment in ("fig7", "fig10"):
            status = subprocess.run(
                [sys.executable, "-m", "repro.experiments.cli", "status", experiment,
                 "--out", str(out)],
                env=_cli_env(),
                capture_output=True,
                text=True,
            )
            assert status.returncode == 0, status.stderr
            assert "0 running" in status.stdout

        resume = subprocess.run(
            _cli(out, "--jobs", "2", "--resume"),
            env=_cli_env(),
            capture_output=True,
            text=True,
        )
        assert resume.returncode == 0, resume.stderr
        assert artifact_bytes(out) == _reference(tmp_path)
