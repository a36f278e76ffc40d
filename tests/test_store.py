"""Tests for the result store: round-tripping, layout, manifests, and
replicate aggregation."""

from __future__ import annotations

import json
import pathlib

import pytest

from repro.errors import ExperimentError
from repro.experiments import run_experiment
from repro.experiments.base import ExperimentResult, ci95, stdev
from repro.experiments.store import (
    ResultStore,
    aggregate_results,
    git_revision,
    result_to_csv,
)


def make_result(
    seed_value: float = 1.0,
    experiment_id: str = "figx",
    key_columns: tuple = ("family", "nodes"),
) -> ExperimentResult:
    return ExperimentResult(
        experiment_id=experiment_id,
        title="synthetic",
        columns=("family", "nodes", "metric"),
        rows=[("power-law", 100, seed_value), ("random", 100, seed_value * 2)],
        notes="made up",
        scale="smoke",
        key_columns=key_columns,
    )


class TestRoundTrip:
    def test_to_from_dict_identity(self):
        result = make_result()
        assert ExperimentResult.from_dict(result.to_dict()) == result

    def test_round_trip_through_json_restores_tuples(self):
        result = run_experiment("fig7", scale="smoke", seed=0)
        rebuilt = ExperimentResult.from_dict(json.loads(json.dumps(result.to_dict())))
        assert rebuilt == result
        assert isinstance(rebuilt.columns, tuple)
        assert all(isinstance(row, tuple) for row in rebuilt.rows)

    def test_from_dict_rejects_malformed_payload(self):
        with pytest.raises(ExperimentError, match="malformed"):
            ExperimentResult.from_dict({"title": "missing everything else"})


class TestStoreLayout:
    def test_save_writes_expected_layout(self, tmp_path):
        store = ResultStore(tmp_path)
        path = store.save(make_result(), seed=3)
        assert path == tmp_path / "figx" / "smoke" / "seed_3.json"
        assert path.exists()
        assert store.manifest_path("figx", "smoke").exists()

    def test_save_load_round_trip(self, tmp_path):
        store = ResultStore(tmp_path)
        result = make_result()
        store.save(result, seed=0)
        assert store.load("figx", "smoke", 0) == result

    def test_load_missing_raises(self, tmp_path):
        with pytest.raises(ExperimentError, match="no stored result"):
            ResultStore(tmp_path).load("figx", "smoke", 99)

    def test_seeds_listed_in_order(self, tmp_path):
        store = ResultStore(tmp_path)
        for seed in (5, 1, 3):
            store.save(make_result(float(seed)), seed=seed)
        assert store.seeds("figx", "smoke") == [1, 3, 5]
        assert store.seeds("unknown", "smoke") == []

    def test_seeds_order_independent_of_filesystem_enumeration(
        self, tmp_path, monkeypatch
    ):
        # directory enumeration order is filesystem-dependent; seeds()
        # must not leak it into manifests/aggregation.  Force glob to
        # yield a scrambled order and include seed_10 vs seed_9 to catch
        # lexicographic sorting too.
        store = ResultStore(tmp_path)
        for seed in (10, 2, 9, 0):
            store.save(make_result(float(seed)), seed=seed)

        real_glob = pathlib.Path.glob

        def scrambled_glob(self, pattern):
            return reversed(sorted(real_glob(self, pattern)))

        monkeypatch.setattr(pathlib.Path, "glob", scrambled_glob)
        assert store.seeds("figx", "smoke") == [0, 2, 9, 10]

    def test_manifest_records_provenance(self, tmp_path):
        store = ResultStore(tmp_path)
        store.save(make_result(), seed=0, wall_clock=1.5, events_processed=42)
        store.save(make_result(2.0), seed=1, wall_clock=0.5, events_processed=7)
        manifest = store.manifest("figx", "smoke")
        assert manifest["experiment_id"] == "figx"
        assert manifest["scale"] == "smoke"
        assert "git_rev" in manifest and "updated_at" in manifest
        assert set(manifest["runs"]) == {"seed_0", "seed_1"}
        run0 = manifest["runs"]["seed_0"]
        assert run0["wall_clock"] == 1.5
        assert run0["events_processed"] == 42
        assert run0["rows"] == 2
        assert "written_at" in run0

    def test_seed_json_is_deterministic(self, tmp_path):
        first = ResultStore(tmp_path / "a")
        second = ResultStore(tmp_path / "b")
        path_a = first.save(make_result(), seed=0, wall_clock=1.0)
        path_b = second.save(make_result(), seed=0, wall_clock=99.0)
        assert path_a.read_bytes() == path_b.read_bytes()

    def test_git_revision_in_repo(self):
        rev = git_revision()
        assert rev == "unknown" or len(rev) == 40

    def test_manifest_records_the_code_s_repository_not_the_cwd_s(
        self, tmp_path, monkeypatch
    ):
        """``git rev-parse HEAD`` used to run in the process's working
        directory: saving from inside some other checkout wrote that
        repository's HEAD into the manifest as the code's ``git_rev``."""
        import subprocess

        def git(*argv, cwd):
            proc = subprocess.run(
                ["git", "-c", "user.name=t", "-c", "user.email=t@example.org", *argv],
                cwd=cwd, capture_output=True, text=True,
            )
            return proc.stdout.strip() if proc.returncode == 0 else "unknown"

        other = tmp_path / "other-checkout"
        other.mkdir()
        git("init", "-q", cwd=other)
        git("commit", "-q", "--allow-empty", "-m", "unrelated", cwd=other)
        others_head = git("rev-parse", "HEAD", cwd=other)
        assert len(others_head) == 40
        monkeypatch.chdir(other)
        store = ResultStore(tmp_path / "store")
        store.save(make_result(), seed=0)
        recorded = store.manifest("figx", "smoke")["git_rev"]
        assert recorded != others_head
        here = pathlib.Path(__file__).resolve().parent
        assert recorded == git("rev-parse", "HEAD", cwd=here)

    def test_two_stores_in_one_process_ask_git_at_most_once(self, tmp_path, monkeypatch):
        """Every sweep opens a store (a storeless one a scratch store), and
        each used to run ``git rev-parse`` again."""
        import subprocess

        real_run = subprocess.run
        git_calls = []

        def counting_run(argv, *args, **kwargs):
            if argv[0] == "git":
                git_calls.append(argv)
            return real_run(argv, *args, **kwargs)

        monkeypatch.setattr(subprocess, "run", counting_run)
        for name in ("a", "b"):
            ResultStore(tmp_path / name).save(make_result(), seed=0)
        assert len(git_calls) <= 1
        assert (
            ResultStore(tmp_path / "a").manifest("figx", "smoke")["git_rev"]
            == ResultStore(tmp_path / "b").manifest("figx", "smoke")["git_rev"]
        )


class TestAggregation:
    def test_key_columns_pass_through_and_stats_expand(self):
        replicates = [make_result(v) for v in (1.0, 2.0, 3.0, 4.0)]
        aggregate = aggregate_results(replicates)
        assert aggregate.columns == (
            "family",
            "nodes",
            "metric_mean",
            "metric_stdev",
            "metric_ci95",
        )
        first = aggregate.rows[0]
        assert first[0] == "power-law" and first[1] == 100
        assert first[2] == pytest.approx(2.5)
        assert first[3] == pytest.approx(stdev([1.0, 2.0, 3.0, 4.0]), abs=1e-6)
        assert first[4] == pytest.approx(ci95([1.0, 2.0, 3.0, 4.0]), abs=1e-6)
        assert "aggregate of 4 replicates" in aggregate.notes

    def test_single_replicate_has_zero_spread(self):
        aggregate = aggregate_results([make_result(1.0)])
        # one replicate: the schema is still the declared one, spread 0
        assert aggregate.columns == (
            "family", "nodes", "metric_mean", "metric_stdev", "metric_ci95"
        )
        assert aggregate.rows[0][2:] == (1.0, 0.0, 0.0)

    def test_missing_key_columns_rejected(self):
        with pytest.raises(ExperimentError, match="declares no key_columns") as info:
            aggregate_results([make_result(key_columns=())] * 2)
        assert "\n" not in str(info.value)

    def test_declared_key_columns_give_stable_schema(self):
        # metric coincides across replicates, but a declared key set means
        # the schema cannot depend on what values the seeds produced
        replicates = [
            make_result(1.0, key_columns=("family", "nodes")) for _ in range(3)
        ]
        aggregate = aggregate_results(replicates)
        assert aggregate.columns == (
            "family",
            "nodes",
            "metric_mean",
            "metric_stdev",
            "metric_ci95",
        )
        assert aggregate.rows[0][2:] == (1.0, 0.0, 0.0)
        assert aggregate.key_columns == ("family", "nodes")

    def test_unknown_key_columns_rejected(self):
        with pytest.raises(ExperimentError, match="key_columns"):
            aggregate_results([make_result(key_columns=("bogus",))] * 2)

    @pytest.mark.parametrize(
        "experiment_id", ["fig7", "fig9", "tab1", "ablation-tiebreak"]
    )
    def test_registered_experiments_declare_valid_keys(self, experiment_id):
        result = run_experiment(experiment_id, scale="smoke", seed=0)
        assert result.key_columns
        assert set(result.key_columns) < set(result.columns)

    def test_mismatched_shapes_rejected(self):
        wide = make_result()
        narrow = ExperimentResult(
            experiment_id="figx",
            title="synthetic",
            columns=("family",),
            rows=[("power-law",)],
            scale="smoke",
        )
        with pytest.raises(ExperimentError, match="mismatched"):
            aggregate_results([wide, narrow])

    def test_cross_cell_rejected(self):
        with pytest.raises(ExperimentError, match="across cells"):
            aggregate_results([make_result(), make_result(experiment_id="figy")])

    def test_empty_rejected(self):
        with pytest.raises(ExperimentError, match="zero replicates"):
            aggregate_results([])

    def test_percentile_suffixes_aggregate(self):
        from repro.experiments.base import (
            DEFAULT_STAT_SUFFIXES,
            PERCENTILE_STAT_SUFFIXES,
            p95,
        )

        suffixes = DEFAULT_STAT_SUFFIXES + PERCENTILE_STAT_SUFFIXES
        values = [1.0, 2.0, 3.0, 4.0]
        replicates = []
        for v in values:
            result = make_result(v, key_columns=("family", "nodes"))
            replicates.append(
                ExperimentResult(
                    experiment_id=result.experiment_id,
                    title=result.title,
                    columns=result.columns,
                    rows=result.rows,
                    notes=result.notes,
                    scale=result.scale,
                    key_columns=result.key_columns,
                    stat_suffixes=suffixes,
                )
            )
        aggregate = aggregate_results(replicates)
        assert aggregate.columns == (
            "family",
            "nodes",
            "metric_mean",
            "metric_stdev",
            "metric_ci95",
            "metric_p50",
            "metric_p95",
            "metric_p99",
        )
        first = aggregate.rows[0]
        assert first[2] == pytest.approx(2.5)
        assert first[5] == pytest.approx(2.5)  # p50 over the 4 replicates
        assert first[6] == pytest.approx(p95(values), abs=1e-6)
        assert aggregate.stat_suffixes == suffixes

    def test_unknown_stat_suffix_rejected(self):
        result = make_result(1.0, key_columns=("family", "nodes"))
        bad = ExperimentResult(
            experiment_id=result.experiment_id,
            title=result.title,
            columns=result.columns,
            rows=result.rows,
            scale=result.scale,
            key_columns=result.key_columns,
            stat_suffixes=("_mean", "_p42"),
        )
        with pytest.raises(ExperimentError, match="_p42"):
            aggregate_results([bad, bad])

    def test_stat_suffixes_round_trip(self):
        from repro.experiments.base import PERCENTILE_STAT_SUFFIXES

        result = make_result()
        custom = ExperimentResult(
            experiment_id=result.experiment_id,
            title=result.title,
            columns=result.columns,
            rows=result.rows,
            scale=result.scale,
            stat_suffixes=PERCENTILE_STAT_SUFFIXES,
        )
        rebuilt = ExperimentResult.from_dict(json.loads(json.dumps(custom.to_dict())))
        assert rebuilt == custom
        assert rebuilt.stat_suffixes == PERCENTILE_STAT_SUFFIXES

    def test_write_aggregate_artifacts(self, tmp_path):
        store = ResultStore(tmp_path)
        aggregate = aggregate_results([make_result(v) for v in (1.0, 2.0)])
        json_path, csv_path = store.write_aggregate(aggregate, seeds=[0, 1])
        payload = json.loads(json_path.read_text())
        assert payload["seeds"] == [0, 1]
        assert tuple(payload["columns"]) == aggregate.columns
        csv_text = csv_path.read_text()
        assert csv_text.splitlines()[0] == "family,nodes,metric_mean,metric_stdev,metric_ci95"
        assert len(csv_text.splitlines()) == 1 + len(aggregate.rows)


class TestCsv:
    def test_result_to_csv(self):
        text = result_to_csv(make_result())
        lines = text.splitlines()
        assert lines[0] == "family,nodes,metric"
        assert lines[1] == "power-law,100,1.0"
        assert lines[2] == "random,100,2.0"
