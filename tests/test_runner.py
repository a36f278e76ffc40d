"""Tests for the parallel sweep runner: seed parsing, spec validation,
determinism under reruns and worker pools, and seed tightening."""

from __future__ import annotations

import os

import pytest

from repro.errors import ExperimentError
from repro.experiments import run_experiment
from repro.experiments.runner import SweepSpec, parse_seeds, run_sweep
from repro.experiments.store import ResultStore


def artifact_bytes(root):
    """Map of relative path -> bytes for every deterministic artifact."""
    return {
        str(path.relative_to(root)): path.read_bytes()
        for path in sorted(root.rglob("*.json")) + sorted(root.rglob("*.csv"))
        if path.name != "manifest.json"  # manifests hold volatile timestamps
    }


class TestParseSeeds:
    def test_single(self):
        assert parse_seeds("7") == (7,)

    def test_inclusive_range(self):
        assert parse_seeds("0..3") == (0, 1, 2, 3)

    def test_comma_list_sorted_deduped(self):
        assert parse_seeds("5,1,3,1") == (1, 3, 5)

    def test_negative_range(self):
        assert parse_seeds("-2..0") == (-2, -1, 0)

    @pytest.mark.parametrize("bad", ["", "a", "3..1", "1..b", "0.5"])
    def test_rejects_bad_specs(self, bad):
        with pytest.raises(ExperimentError):
            parse_seeds(bad)


class TestSweepSpec:
    def test_tasks_cover_product_in_order(self):
        spec = SweepSpec(("fig7", "fig8"), seeds=(0, 1), scale="smoke")
        assert spec.tasks() == [
            ("fig7", "smoke", 0),
            ("fig7", "smoke", 1),
            ("fig8", "smoke", 0),
            ("fig8", "smoke", 1),
        ]

    def test_duplicates_collapsed(self):
        spec = SweepSpec(("fig7", "fig7"), seeds=(0, 0, 1), scale="smoke")
        assert spec.experiment_ids == ("fig7",)
        assert spec.seeds == (0, 1)

    def test_unknown_experiment_rejected(self):
        with pytest.raises(ExperimentError, match="unknown experiment"):
            SweepSpec(("nope",), seeds=(0,), scale="smoke")

    def test_unknown_scale_rejected(self):
        with pytest.raises(ExperimentError, match="unknown scale"):
            SweepSpec(("fig7",), seeds=(0,), scale="galactic")

    def test_non_int_seed_rejected(self):
        with pytest.raises(ExperimentError, match="seed"):
            SweepSpec(("fig7",), seeds=(0, "1"), scale="smoke")
        with pytest.raises(ExperimentError, match="seed"):
            SweepSpec(("fig7",), seeds=(True,), scale="smoke")

    def test_empty_rejected(self):
        with pytest.raises(ExperimentError):
            SweepSpec((), seeds=(0,), scale="smoke")
        with pytest.raises(ExperimentError):
            SweepSpec(("fig7",), seeds=(), scale="smoke")


class TestRegistrySeedValidation:
    def test_string_seed_rejected(self):
        with pytest.raises(ExperimentError, match="seed must be an int"):
            run_experiment("fig7", scale="smoke", seed="0")

    def test_bool_seed_rejected(self):
        with pytest.raises(ExperimentError, match="seed must be an int"):
            run_experiment("fig7", scale="smoke", seed=True)


class TestRunSweep:
    SPEC = SweepSpec(("fig7",), seeds=(0, 1), scale="smoke")

    def test_report_outcomes_and_aggregate(self, tmp_path):
        store = ResultStore(tmp_path)
        report = run_sweep(self.SPEC, store, jobs=1)
        assert len(report.outcomes) == 2
        assert [o.seed for o in report.outcomes] == [0, 1]
        assert len(report.aggregates) == 1
        assert report.aggregates[0].experiment_id == "fig7"
        assert report.outcome("fig7", 1).seed == 1
        with pytest.raises(ExperimentError):
            report.outcome("fig7", 9)

    def test_sweep_matches_direct_run(self, tmp_path):
        store = ResultStore(tmp_path)
        run_sweep(self.SPEC, store, jobs=1)
        assert store.load("fig7", "smoke", 0) == run_experiment(
            "fig7", scale="smoke", seed=0
        )

    def test_rerun_is_byte_identical(self, tmp_path):
        first, second = ResultStore(tmp_path / "a"), ResultStore(tmp_path / "b")
        run_sweep(self.SPEC, first, jobs=1)
        run_sweep(self.SPEC, second, jobs=1)
        a, b = artifact_bytes(tmp_path / "a"), artifact_bytes(tmp_path / "b")
        assert a and a == b

    def test_parallel_matches_serial(self, tmp_path):
        serial, parallel = ResultStore(tmp_path / "s"), ResultStore(tmp_path / "p")
        run_sweep(self.SPEC, serial, jobs=1)
        run_sweep(self.SPEC, parallel, jobs=2)
        s, p = artifact_bytes(tmp_path / "s"), artifact_bytes(tmp_path / "p")
        assert s and s == p

    def test_progress_called_in_task_order(self, tmp_path):
        seen = []
        run_sweep(
            self.SPEC,
            ResultStore(tmp_path),
            jobs=1,
            progress=lambda outcome: seen.append((outcome.experiment_id, outcome.seed)),
        )
        assert seen == [("fig7", 0), ("fig7", 1)]

    def test_replicates_persisted_incrementally(self, tmp_path):
        # each artifact must already be on disk when its progress fires, so
        # an interrupted sweep keeps everything finished before the failure
        store = ResultStore(tmp_path)

        def check(outcome):
            assert store.seed_path(
                outcome.experiment_id, outcome.scale, outcome.seed
            ).exists()

        run_sweep(self.SPEC, store, jobs=2, progress=check)

    def test_bad_jobs_rejected(self, tmp_path):
        with pytest.raises(ExperimentError, match="jobs"):
            run_sweep(self.SPEC, ResultStore(tmp_path), jobs=0)

    def test_storeless_sweep_still_aggregates(self):
        report = run_sweep(self.SPEC, store=None, jobs=1)
        assert len(report.aggregates) == 1

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_storeless_sweep_takes_the_stored_options(self, jobs, tmp_path):
        """``max_retries`` and ``task_timeout`` mean what they mean with a
        store, from both entry points; a storeless sweep once refused a
        ``task_timeout``."""
        from repro import api

        stored = run_sweep(self.SPEC, ResultStore(tmp_path), jobs=jobs)
        for sweep in (
            lambda: run_sweep(self.SPEC, store=None, jobs=jobs, max_retries=0, task_timeout=60.0),
            lambda: api.sweep("fig7", seeds=[0, 1], scale="smoke", jobs=jobs,
                              max_retries=0, task_timeout=60.0),
        ):
            report = sweep()
            assert not report.failures
            assert report.aggregates == stored.aggregates


class TestResume:
    SPEC = SweepSpec(("fig7",), seeds=(0, 1), scale="smoke")

    def test_resume_requires_store(self):
        with pytest.raises(ExperimentError, match="resume"):
            run_sweep(self.SPEC, store=None, resume=True)

    def test_resume_skips_done_without_rewriting_files(self, tmp_path):
        """The restart-from-zero bug: a resumed re-run must not recompute
        or rewrite verified-complete replicates."""
        store = ResultStore(tmp_path)
        run_sweep(self.SPEC, store, jobs=1)
        mtimes = {
            seed: store.seed_path("fig7", "smoke", seed).stat().st_mtime_ns
            for seed in (0, 1)
        }
        report = run_sweep(self.SPEC, store, jobs=1, resume=True)
        assert report.outcomes == []
        assert sorted(entry.seed for entry in report.skipped) == [0, 1]
        assert all(entry.checksum.startswith("sha256:") for entry in report.skipped)
        for seed in (0, 1):
            assert (
                store.seed_path("fig7", "smoke", seed).stat().st_mtime_ns
                == mtimes[seed]
            )
        # aggregates still cover the full (skipped) seed set
        assert len(report.aggregates) == 1
        assert "2 replicates" in report.aggregates[0].notes

    def test_resume_runs_only_missing_seeds(self, tmp_path):
        store = ResultStore(tmp_path)
        run_sweep(self.SPEC, store, jobs=1)
        wider = SweepSpec(("fig7",), seeds=(0, 1, 2, 3), scale="smoke")
        report = run_sweep(wider, store, jobs=1, resume=True)
        assert sorted(o.seed for o in report.outcomes) == [2, 3]
        assert sorted(entry.seed for entry in report.skipped) == [0, 1]
        assert store.seeds("fig7", "smoke") == [0, 1, 2, 3]

    def test_non_resume_rerun_recomputes(self, tmp_path):
        """Without --resume a sweep is a fresh run: everything re-executes
        (byte-identically) and the ledger attempts rewind to the new run."""
        store = ResultStore(tmp_path)
        run_sweep(self.SPEC, store, jobs=1)
        report = run_sweep(self.SPEC, store, jobs=1)
        assert sorted(o.seed for o in report.outcomes) == [0, 1]
        assert report.skipped == []
        rows = store.ledger.rows(experiment_id="fig7")
        assert [row.attempts for row in rows] == [1, 1]

    def test_bad_runtime_params_rejected(self, tmp_path):
        store = ResultStore(tmp_path)
        with pytest.raises(ExperimentError, match="max-retries"):
            run_sweep(self.SPEC, store, max_retries=-1)
        with pytest.raises(ExperimentError, match="task-timeout"):
            run_sweep(self.SPEC, store, task_timeout=0.0)

    def test_sweep_releases_the_store_lock(self, tmp_path, monkeypatch):
        """The lock lives as long as the sweep: gone after one that
        returns, and after one that raises out of ``commit``."""
        from repro import api

        api.sweep(["fig7"], seeds="0..1", scale="smoke", jobs=2, store=tmp_path)
        assert (tmp_path / "tasks.jsonl").is_file()
        assert not (tmp_path / "sweep.lock").exists()
        store = ResultStore(tmp_path)
        boom = OSError(28, "No space left on device")

        def full_disk(*args, **kwargs):
            raise boom

        monkeypatch.setattr(store, "save", full_disk)
        with pytest.raises(OSError) as caught:
            api.sweep(["fig7"], seeds="0..1", scale="smoke", jobs=2, store=store)
        assert caught.value is boom
        assert not (tmp_path / "sweep.lock").exists()

    def test_the_lock_covers_the_aggregate_writes(self, tmp_path, monkeypatch):
        """Every aggregate is written while ``sweep.lock`` names this
        process — in a fresh sweep and in a resume that re-runs a task —
        and the lock is gone after."""
        lock = tmp_path / "sweep.lock"
        holders = []
        write_aggregate = ResultStore.write_aggregate

        def checked(store, *args, **kwargs):
            holders.append(lock.read_text(encoding="utf-8").strip())
            return write_aggregate(store, *args, **kwargs)

        monkeypatch.setattr(ResultStore, "write_aggregate", checked)
        spec = SweepSpec(("fig7", "fig10"), seeds=(0, 1), scale="smoke")
        run_sweep(spec, ResultStore(tmp_path), jobs=2)
        ResultStore(tmp_path).seed_path("fig10", "smoke", 1).unlink()
        run_sweep(spec, ResultStore(tmp_path), jobs=2, resume=True)
        assert holders == [str(os.getpid())] * 4
        assert not lock.exists()

    def test_sweep_records_ledger_states(self, tmp_path):
        store = ResultStore(tmp_path)
        run_sweep(self.SPEC, store, jobs=2)
        rows = store.ledger.rows(experiment_id="fig7", scale="smoke")
        assert [(row.seed, row.state, row.attempts) for row in rows] == [
            (0, "done", 1),
            (1, "done", 1),
        ]
        assert all(
            row.checksum is not None and row.worker is not None for row in rows
        )
