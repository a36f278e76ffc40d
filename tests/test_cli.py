"""Tests for the mpil-experiments command-line interface."""

from __future__ import annotations

import json
import pathlib
import sys

import pytest

from repro import api
from repro.experiments.base import ExperimentResult
from repro.experiments.cli import build_parser, main
from repro.experiments.registry import all_experiment_ids, run_experiment
from repro.experiments.store import ResultStore
from repro.perturbation import scenario_families
from repro.sim.engine import add_events_processed, events_processed_total


#: stdout of the catalogue commands at PR 20 (the parent of the PR that made
#: the two ``SCENARIO_FAMILIES`` tables one), generated there
CATALOGUE_AT_PR20 = json.loads(
    (pathlib.Path(__file__).parent / "goldens" / "cli_catalogue_pr20.json").read_text()
)["stdout"]


class TestCatalogueOutput:
    """One family table and one ``ext_scenarios`` module must not move a
    byte of what ``list`` and ``scenarios`` print — ids, titles, tags, the
    catalogue order, the derived ``process:`` path — except for the
    ``parameter:`` lines ``scenarios <family>`` gained from the table."""

    @pytest.mark.parametrize("command", sorted(CATALOGUE_AT_PR20))
    def test_byte_identical_but_for_the_parameter_lines(self, command, capsys):
        assert main(command.split()) == 0
        lines = capsys.readouterr().out.splitlines(keepends=True)
        kept = [line for line in lines if not line.startswith("  parameter:")]
        assert "".join(kept) == CATALOGUE_AT_PR20[command]
        is_family = command.startswith("scenarios ") and "--figure" not in command
        assert (len(kept) < len(lines)) == is_family

    def test_family_details_list_the_table_s_parameters(self, capsys):
        assert main(["scenarios", "adversarial-removal"]) == 0
        parameters = [
            line.strip()
            for line in capsys.readouterr().out.splitlines()
            if line.startswith("  parameter:")
        ]
        assert parameters == [
            "parameter:  fraction (float, required)",
            "parameter:  start (float, required)",
            "parameter:  targeting (str, optional)",
        ]


#: ``--help`` of the program and of all nine subcommands at PR 21 (the parent
#: of the PR that declared the shared options through helpers and dispatched
#: through ``set_defaults``), generated there with ``COLUMNS=80``
HELP_AT_PR21 = json.loads(
    (pathlib.Path(__file__).parent / "goldens" / "cli_help_pr21.json").read_text()
)


@pytest.mark.skipif(
    "%d.%d" % sys.version_info[:2] != HELP_AT_PR21["python"],
    reason="argparse lays help out differently from one python minor to the next",
)
class TestHelpOutput:
    """Shared option helpers must not move a byte of any ``--help`` — except
    the ``run --out`` paragraph, which described the ``.txt`` table, and the
    ``lint`` subcommand, which left the CLI for ``tests/determinism_lint.py``."""

    @staticmethod
    def _without_option(text: str, option: str) -> str:
        """``text`` minus the help paragraph of ``option`` (its line and
        the more-indented continuation lines under it)."""
        kept, skipping = [], False
        for line in text.splitlines(keepends=True):
            if line.startswith(f"  {option} "):
                skipping = True
            elif skipping and not line.startswith("      "):
                skipping = False
            if not skipping:
                kept.append(line)
        return "".join(kept)

    @pytest.mark.parametrize("argv", sorted(set(HELP_AT_PR21["stdout"]) - {"lint --help"}))
    def test_byte_identical_but_for_run_out_and_lint(self, argv, capsys, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")
        with pytest.raises(SystemExit) as excinfo:
            main(argv.split())
        assert excinfo.value.code == 0
        printed, golden = capsys.readouterr().out, HELP_AT_PR21["stdout"][argv]
        if argv == "run --help":
            assert ".txt" in golden and ".txt" not in printed
            printed = self._without_option(printed, "--out")
            golden = self._without_option(golden, "--out")
            assert "--trace" in printed and "--seed" in printed
        if argv == "--help":
            assert golden.count(",lint}") == 2
            golden = self._without_option(golden.replace(",lint}", "}"), "  lint")
        assert printed == golden

    def test_lint_is_not_a_subcommand(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["lint"])
        assert excinfo.value.code == 2
        assert "invalid choice: 'lint'" in capsys.readouterr().err


class TestParser:
    def test_list_command(self):
        args = build_parser().parse_args(["list"])
        assert args.command == "list"

    def test_run_command_defaults(self):
        args = build_parser().parse_args(["run", "fig7"])
        assert args.command == "run"
        assert args.experiments == ["fig7"]
        assert args.scale == "default"
        assert args.seed == 0

    def test_run_with_options(self, tmp_path):
        args = build_parser().parse_args(
            ["run", "fig7", "fig8", "--scale", "smoke", "--seed", "3", "--out", str(tmp_path)]
        )
        assert args.experiments == ["fig7", "fig8"]
        assert args.scale == "smoke"
        assert args.seed == 3

    def test_unknown_scale_rejected(self, capsys):
        # not an argparse choices error anymore (registered rungs must
        # resolve too): the run resolves the rung and fails with the
        # one-line error listing every known rung
        code = main(["run", "fig7", "--scale", "galactic"])
        assert code == 2
        err = capsys.readouterr().err
        assert "unknown scale 'galactic'" in err
        assert "['default', 'large', 'paper', 'smoke']" in err

    def test_sweep_defaults(self):
        args = build_parser().parse_args(["sweep", "fig9"])
        assert args.command == "sweep"
        assert args.experiments == ["fig9"]
        assert args.seeds == "0..9"
        assert args.jobs == 1
        assert args.format == "table"
        assert str(args.out) == "results"

    def test_sweep_with_options(self, tmp_path):
        args = build_parser().parse_args(
            [
                "sweep",
                "fig9",
                "tab1",
                "--seeds",
                "0..3",
                "--jobs",
                "2",
                "--scale",
                "smoke",
                "--format",
                "json",
                "--out",
                str(tmp_path),
            ]
        )
        assert args.experiments == ["fig9", "tab1"]
        assert args.seeds == "0..3"
        assert args.jobs == 2
        assert args.format == "json"

    def test_sweep_bad_format_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["sweep", "fig9", "--format", "xml"])

    def test_perf_is_not_a_command(self, capsys):
        # cost is measured by bench/run.py; the subcommand is gone for good
        with pytest.raises(SystemExit) as excinfo:
            main(["perf"])
        assert excinfo.value.code == 2
        assert "invalid choice: 'perf'" in capsys.readouterr().err


class TestMain:
    def test_list_prints_experiments(self, capsys):
        assert main(["list"]) == 0
        output = capsys.readouterr().out
        for experiment_id in ("fig1", "fig7", "tab1", "ablation-metric", "ext-outage"):
            assert experiment_id in output

    def test_list_filters_by_tags(self, capsys):
        assert main(["list", "--tags", "ext"]) == 0
        output = capsys.readouterr().out
        lines = [line for line in output.splitlines() if line.strip()]
        assert len(lines) == 7
        assert all(line.startswith(("ext-", "svc-")) for line in lines)

    def test_list_verbose_shows_metadata(self, capsys):
        assert main(["list", "--tags", "figure,paper", "--verbose"]) == 0
        output = capsys.readouterr().out
        assert "reproduces Figure 9" in output
        assert "tags:" in output
        assert "tab1" not in output  # tables are not tagged 'figure'

    def test_scenarios_prints_catalogue(self, capsys):
        assert main(["scenarios"]) == 0
        output = capsys.readouterr().out
        for family in ("flapping", "regional-outage", "join-storm"):
            assert family in output

    def test_scenarios_family_details(self, capsys):
        assert main(["scenarios", "churn-wave"]) == 0
        output = capsys.readouterr().out
        assert "ChurnWaveSchedule" in output
        assert "ext-wave" in output

    def test_scenarios_catalogue_joins_registry_metadata(self, capsys):
        """The experiment column comes from each spec's scenario_family —
        flapping lists all three paper sweeps, not a hand-maintained one."""
        assert main(["scenarios"]) == 0
        output = capsys.readouterr().out
        flapping_line = next(
            line for line in output.splitlines() if line.startswith("flapping")
        )
        assert "fig1,fig11,fig12" in flapping_line
        assert "ext-adversarial" in output

    def test_scenarios_figure_sweep(self, capsys):
        assert main(["scenarios", "--figure", "fig11"]) == 0
        output = capsys.readouterr().out
        assert "300:300" in output

    def test_run_prints_table(self, capsys):
        assert main(["run", "fig7", "--scale", "smoke"]) == 0
        output = capsys.readouterr().out
        assert "expected_local_maxima" in output
        assert "completed in" in output

    def test_run_writes_seeded_artifacts(self, tmp_path, capsys):
        assert main(["run", "fig8", "--scale", "smoke", "--seed", "2", "--out", str(tmp_path)]) == 0
        printed = capsys.readouterr().out
        stored = tmp_path / "fig8" / "smoke" / "seed_2.json"
        assert stored.exists()
        assert (tmp_path / "fig8" / "smoke" / "manifest.json").exists()
        # no second copy of the stdout table: the artifact regenerates it
        assert not list(tmp_path.rglob("*.txt"))
        table = ExperimentResult.from_dict(json.loads(stored.read_text())).table()
        assert "expected_replicas" in table
        assert printed.startswith(table + "\n")

    def test_run_out_opens_no_ledger(self, tmp_path, capsys):
        """The ledger is a sweep's: one replicate saved is one manifest
        entry, and ``status`` there says no sweep ran — in one line."""
        assert main(["run", "fig7", "--scale", "smoke", "--out", str(tmp_path)]) == 0
        assert not (tmp_path / "tasks.jsonl").exists()
        capsys.readouterr()
        assert main(["status", "fig7", "--out", str(tmp_path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1 and "no sweep ledger" in captured.err
        assert not (tmp_path / "tasks.jsonl").exists()

    def test_run_out_stores_result_and_event_count(self, tmp_path, capsys):
        """``run --out`` used to record ``events_processed: 0``."""
        assert main(["run", "fig9", "--scale", "smoke", "--seed", "4", "--out", str(tmp_path)]) == 0
        capsys.readouterr()
        store = ResultStore(tmp_path)
        assert store.load("fig9", "smoke", 4) == run_experiment("fig9", scale="smoke", seed=4)
        run = store.manifest("fig9", "smoke")["runs"]["seed_4"]
        assert run["events_processed"] > 0
        assert run["events_per_sec"] > 0

    def test_run_different_seeds_do_not_overwrite(self, tmp_path, capsys):
        assert main(["run", "fig7", "--scale", "smoke", "--seed", "0", "--out", str(tmp_path)]) == 0
        assert main(["run", "fig7", "--scale", "smoke", "--seed", "1", "--out", str(tmp_path)]) == 0
        capsys.readouterr()
        store = ResultStore(tmp_path)
        assert store.seeds("fig7", "smoke") == [0, 1]
        assert sorted(store.manifest("fig7", "smoke")["runs"]) == ["seed_0", "seed_1"]


class TestSweepMain:
    def test_sweep_writes_store_and_prints_aggregate(self, tmp_path, capsys):
        """CI's "Smoke sweep" step is this test: two experiments (one static,
        one from the scenario engine), two seeds, two workers, and the seven
        files the step used to ``test -f``."""
        code = main(
            ["sweep", "fig9", "ext-outage", "--seeds", "0..1", "--scale", "smoke",
             "--jobs", "2", "--out", str(tmp_path), "--format", "json"]
        )
        assert code == 0
        captured = capsys.readouterr()
        first, end = json.JSONDecoder().raw_decode(captured.out)
        second = json.loads(captured.out[end:])
        assert [first["experiment_id"], second["experiment_id"]] == ["fig9", "ext-outage"]
        assert "swept 4 tasks" in captured.err
        for name in (
            "fig9/smoke/seed_0.json",
            "fig9/smoke/seed_1.json",
            "fig9/smoke/manifest.json",
            "fig9/smoke/aggregate.json",
            "fig9/smoke/aggregate.csv",
            "ext-outage/smoke/seed_0.json",
            "ext-outage/smoke/aggregate.json",
        ):
            assert (tmp_path / name).is_file(), name
        assert (tmp_path / "tasks.jsonl").is_file()

    def test_sweep_table_format(self, tmp_path, capsys):
        assert (
            main(
                [
                    "sweep",
                    "fig7",
                    "--seeds",
                    "0,1",
                    "--scale",
                    "smoke",
                    "--out",
                    str(tmp_path),
                ]
            )
            == 0
        )
        output = capsys.readouterr().out
        assert "fig7:" in output

    def test_sweep_csv_format(self, tmp_path, capsys):
        assert (
            main(
                [
                    "sweep",
                    "fig7",
                    "--seeds",
                    "0..1",
                    "--scale",
                    "smoke",
                    "--out",
                    str(tmp_path),
                    "--format",
                    "csv",
                ]
            )
            == 0
        )
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith("nodes,") or "," in lines[0]


def _cell_files(root: pathlib.Path, experiment_id: str, seed: int) -> dict[str, bytes]:
    cell = root / experiment_id / "smoke"
    return {
        name: (cell / name).read_bytes()
        for name in (f"seed_{seed}.json", f"seed_{seed}.telemetry.json")
    }


def _measured(root: pathlib.Path, experiment_id: str, seed: int) -> tuple[int, int]:
    run = ResultStore(root).manifest(experiment_id, "smoke")["runs"][f"seed_{seed}"]
    return run["events_processed"], run["rows"]


class TestOneMeasuredPath:
    """A replicate is run one way and recorded one way, whoever asked:
    ``run``/``compose``/``serve --out`` leave what a sweep's commit (or a
    save of the facade's result) leaves."""

    def test_run_out_matches_sweep(self, tmp_path, capsys):
        a, b = tmp_path / "A", tmp_path / "B"
        assert main(["run", "fig9", "--scale", "smoke", "--seed", "4", "--out", str(a)]) == 0
        assert main(["sweep", "fig9", "--seeds", "4", "--scale", "smoke", "--out", str(b)]) == 0
        capsys.readouterr()
        assert _cell_files(a, "fig9", 4) == _cell_files(b, "fig9", 4)
        assert _measured(a, "fig9", 4) == _measured(b, "fig9", 4)
        assert _measured(a, "fig9", 4)[0] > 0

    def test_compose_out_matches_api_run(self, tmp_path, capsys):
        path = tmp_path / "sweep.toml"
        path.write_text(SPEC_TOML.format(experiment_id="cli-one-path"))
        a, b = tmp_path / "A", tmp_path / "B"
        try:
            assert main(["compose", str(path), "--scale", "smoke", "--seed", "2",
                         "--out", str(a)]) == 0
        finally:
            api.unregister("cli-one-path")
        capsys.readouterr()
        result = api.run(api.compose(path), scale="smoke", seed=2)
        ResultStore(b).save(result, seed=2)
        assert _cell_files(a, "cli-one-path", 2) == _cell_files(b, "cli-one-path", 2)
        assert _measured(a, "cli-one-path", 2)[1] == len(result.rows)

    def test_serve_out_matches_api_serve(self, tmp_path, capsys):
        a, b = tmp_path / "A", tmp_path / "B"
        assert main(["serve", "svc-steady", "--scale", "smoke", "--duration", "60",
                     "--rate", "0.5", "--seed", "4", "--out", str(a)]) == 0
        capsys.readouterr()
        result = api.serve("svc-steady", scale="smoke", seed=4, rate=0.5, duration=60.0)
        ResultStore(b).save(result, seed=4)
        assert _cell_files(a, "svc-steady", 4) == _cell_files(b, "svc-steady", 4)
        assert _measured(a, "svc-steady", 4)[1] == len(result.rows)

    def test_api_run_leaves_the_runtime_registry_alone(self):
        """Only ``execute_task`` zeroes the process-wide event total; a
        caller's before/after reading around the facade
        (``bench/workloads.py``) keeps working."""
        add_events_processed(1000)
        before = events_processed_total()
        api.run("fig9", scale="smoke", seed=1)
        first = events_processed_total() - before
        assert before >= 1000 and first > 0
        api.serve("svc-steady", scale="smoke", rate=0.5, duration=60.0)
        api.telemetry("fig9", scale="smoke", seed=1)
        assert events_processed_total() > before + 2 * first


SPEC_TOML = """
[experiment]
id = "{experiment_id}"
title = "CLI-composed severity sweep"
tags = ["composed"]

[sweep]
column = "severity"
values = [0.0, 1.0]

[[scenario]]
family = "regional-outage"
start = 90.0
duration = 600.0
severity = "$severity"
"""


class TestComposeMain:
    def _write_spec(self, tmp_path, experiment_id):
        path = tmp_path / "sweep.toml"
        path.write_text(SPEC_TOML.format(experiment_id=experiment_id))
        return path

    def _unregister(self, experiment_id):
        from repro.experiments import unregister

        unregister(experiment_id)

    def test_compose_runs_and_prints_table(self, tmp_path, capsys):
        path = self._write_spec(tmp_path, "cli-composed")
        try:
            assert main(["compose", str(path), "--scale", "smoke"]) == 0
        finally:
            self._unregister("cli-composed")
        output = capsys.readouterr().out
        assert "cli-composed" in output
        assert "severity" in output
        assert "completed in" in output

    def test_compose_writes_store_artifacts(self, tmp_path, capsys):
        path = self._write_spec(tmp_path, "cli-composed-out")
        out = tmp_path / "results"
        try:
            code = main(
                ["compose", str(path), "--scale", "smoke", "--seed", "2",
                 "--out", str(out)]
            )
        finally:
            self._unregister("cli-composed-out")
        assert code == 0
        capsys.readouterr()
        assert (out / "cli-composed-out" / "smoke" / "seed_2.json").exists()
        assert sorted(path.name for path in out.iterdir()) == ["cli-composed-out"]
        manifest = ResultStore(out).manifest("cli-composed-out", "smoke")
        assert manifest["runs"]["seed_2"]["events_processed"] > 0

    def test_compose_rejects_registered_id(self, tmp_path, capsys):
        """A spec file cannot shadow a built-in experiment id."""
        path = self._write_spec(tmp_path, "fig9")
        assert main(["compose", str(path), "--scale", "smoke"]) == 2
        err = capsys.readouterr().err
        assert "already registered" in err
        assert "Traceback" not in err

    def test_compose_zero_lookups_is_one_line_error(self, tmp_path, capsys):
        """``[scale] perturbed_lookups = 0`` used to escape the error
        handler as a ZeroDivisionError traceback."""
        path = tmp_path / "zero.toml"
        path.write_text(
            SPEC_TOML.format(experiment_id="cli-zero-lookups")
            + "\n[scale]\nperturbed_lookups = 0\n"
        )
        try:
            assert main(["compose", str(path), "--scale", "smoke"]) == 2
        finally:
            self._unregister("cli-zero-lookups")
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1
        assert "at least one lookup" in err

    def test_compose_service_empty_pool_is_one_line_error(self, tmp_path, capsys):
        """A ``[service]`` spec at ``[scale] perturbed_inserts = 0`` used to
        escape as ``ZeroDivisionError: integer modulo by zero``."""
        path = tmp_path / "empty-pool.toml"
        path.write_text(
            SPEC_TOML.format(experiment_id="cli-empty-pool")
            + "\n[service]\nrate = 0.5\nduration = 60.0\nwindow = 60.0\n"
            + "\n[scale]\nperturbed_inserts = 0\n"
        )
        try:
            assert main(["compose", str(path), "--scale", "smoke"]) == 2
        finally:
            self._unregister("cli-empty-pool")
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1
        assert "perturbed_inserts" in err

    def test_compose_rejects_registered_id_in_fresh_process(self, tmp_path):
        """The shadow check must hold even when compose is the process's
        first registry touch (register() loads the built-ins itself)."""
        import json as json_module
        import subprocess
        import sys

        path = tmp_path / "shadow.json"
        path.write_text(
            json_module.dumps(
                {
                    "experiment": {"id": "fig9", "title": "shadow attempt"},
                    "sweep": {"column": "severity", "values": [0.0]},
                    "scenario": [
                        {
                            "family": "regional-outage",
                            "start": 90.0,
                            "duration": 600.0,
                            "severity": "$severity",
                        }
                    ],
                }
            )
        )
        import os
        import pathlib

        src = str(pathlib.Path(__file__).resolve().parent.parent / "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.run(
            [sys.executable, "-m", "repro.experiments.cli", "compose", str(path),
             "--scale", "smoke"],
            capture_output=True,
            text=True,
            env=env,
        )
        assert proc.returncode == 2, proc.stderr
        assert "already registered" in proc.stderr
        assert "Traceback" not in proc.stderr

#: a valid parameter table per scenario family, to poison one value at a time
VALID_FAMILY_PARAMS = {
    "flapping": {"period": "30:30", "probability": 0.5},
    "churn": {"mean_session": 300.0, "mean_downtime": 120.0},
    "churn-wave": {
        "mean_session": 300.0,
        "mean_downtime": 300.0,
        "wave_period": 600.0,
        "wave_duration": 150.0,
        "intensity": 4.0,
    },
    "join-storm": {"arrival_time": 200.0, "late_fraction": 0.4},
    "regional-outage": {"start": 90.0, "duration": 600.0, "severity": 0.5},
    "adversarial-removal": {"fraction": 0.1, "start": 30.0},
}

#: (family, parameter, the TOML literal that poisons it): every float
#: parameter of every family at ``nan`` and ``inf``, plus the flapping label
HOSTILE_SCENARIO_VALUES = [
    (family.name, name, literal)
    for family in scenario_families()
    for name, kind in family.schema.items()
    if kind is float
    for literal in ("nan", "inf")
] + [("flapping", "period", '"nan:30"'), ("flapping", "period", '"30:inf"')]


class TestComposeRejectsHostileValues:
    """``nan`` and ``inf`` are TOML float literals and ``"no"`` is a truthy
    string: each is one stderr line and exit 2 at compose time — before a
    testbed is built, with nothing registered and nothing stored."""

    def _toml(self, scenario: dict, extra: str = "") -> str:
        lines = [
            "[experiment]",
            'id = "hostile"',
            'title = "hostile values"',
            "[sweep]",
            'column = "x"',
            "values = [0.5]",
            "[[scenario]]",
            *(f"{name} = {value}" for name, value in scenario.items()),
            extra,
        ]
        return "\n".join(lines) + "\n"

    def _assert_rejected(self, tmp_path, capsys, monkeypatch, text, fragment):
        import repro.experiments.perturbed as perturbed_module

        def no_testbed(*args, **kwargs):
            raise AssertionError("validation must come before construction")

        # what ``perturbed.build_stage`` -- compose's build stage -- calls
        monkeypatch.setattr(perturbed_module, "build_testbed", no_testbed)
        path = tmp_path / "hostile.toml"
        path.write_text(text)
        out = tmp_path / "store"
        assert main(["compose", str(path), "--scale", "smoke", "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1
        assert "Traceback" not in captured.err
        assert fragment in captured.err
        assert not out.exists()
        assert "hostile" not in all_experiment_ids()

    def _scenario(self, family: str, **poison: str) -> dict:
        table = {
            "family": json.dumps(family),
            **{name: json.dumps(value) for name, value in VALID_FAMILY_PARAMS[family].items()},
        }
        table.update(poison)
        return table

    def test_the_valid_tables_are_valid(self, tmp_path):
        """The poison is what is rejected, not the table around it."""
        from repro.experiments.compose import compose_spec, load_spec_file

        for family in VALID_FAMILY_PARAMS:
            path = tmp_path / f"{family}.toml"
            path.write_text(self._toml(self._scenario(family)))
            compose_spec(load_spec_file(path))

    @pytest.mark.parametrize("family, parameter, literal", HOSTILE_SCENARIO_VALUES)
    def test_non_finite_scenario_parameter(
        self, family, parameter, literal, tmp_path, capsys, monkeypatch
    ):
        text = self._toml(self._scenario(family, **{parameter: literal}))
        self._assert_rejected(tmp_path, capsys, monkeypatch, text, "must be finite")

    def test_non_finite_sweep_value_reaches_the_same_check(
        self, tmp_path, capsys, monkeypatch
    ):
        text = self._toml(self._scenario("churn", mean_session='"$x"')).replace(
            "values = [0.5]", "values = [300.0, inf]"
        )
        self._assert_rejected(
            tmp_path, capsys, monkeypatch, text, "mean_session must be finite, got inf"
        )

    @pytest.mark.parametrize(
        "workload, fragment",
        [
            ("spacing = inf", "workload spacing must be finite"),
            ("spacing = nan", "workload spacing must be finite"),
            ("window = [nan, 0.5]", "workload window must be finite"),
        ],
    )
    def test_non_finite_workload(self, workload, fragment, tmp_path, capsys, monkeypatch):
        text = self._toml(self._scenario("flapping"), f"[workload]\n{workload}")
        self._assert_rejected(tmp_path, capsys, monkeypatch, text, fragment)

    @pytest.mark.parametrize("value", ['"no"', '"false"', '"true"', "0", "1", '""'])
    def test_rejoin_takes_a_real_boolean_only(self, value, tmp_path, capsys, monkeypatch):
        text = self._toml(self._scenario("flapping"), f"[variants]\nrejoin = {value}")
        self._assert_rejected(
            tmp_path, capsys, monkeypatch, text, "variants.rejoin must be true or false"
        )

    @pytest.mark.parametrize("value, noted", [("true", True), ("false", False)])
    def test_rejoin_booleans_still_mean_what_they_say(self, value, noted, tmp_path):
        from repro.experiments.compose import compose_spec, load_spec_file

        path = tmp_path / "rejoin.toml"
        path.write_text(
            self._toml(self._scenario("flapping"), f"[variants]\nrejoin = {value}")
        )
        notes = compose_spec(load_spec_file(path)).pipeline.notes
        assert ("interval-based eviction/rejoin" in notes) == noted


class TestErrorPaths:
    """Every expected user-facing error (ExperimentError/ConfigurationError)
    surfaces as one stderr line, never a traceback; internal-bug classes
    still propagate with their stack."""

    def _assert_one_line_error(self, capsys, argv, fragment):
        assert main(argv) == 2
        captured = capsys.readouterr()
        error_lines = captured.err.strip().splitlines()
        assert len(error_lines) == 1
        assert error_lines[0].startswith("mpil-experiments")
        assert "error:" in error_lines[0]
        assert fragment in error_lines[0]
        assert "Traceback" not in captured.err

    def test_unknown_experiment_name(self, capsys):
        self._assert_one_line_error(
            capsys, ["run", "fig99", "--scale", "smoke"], "fig99"
        )

    def test_unknown_sweep_experiment_name(self, capsys):
        self._assert_one_line_error(
            capsys, ["sweep", "nope", "--seeds", "0..1", "--scale", "smoke"], "nope"
        )

    def test_unknown_scenario_family(self, capsys):
        self._assert_one_line_error(
            capsys, ["scenarios", "meteor-strike"], "meteor-strike"
        )

    def test_unknown_scenario_figure(self, capsys):
        self._assert_one_line_error(
            capsys, ["scenarios", "--figure", "fig99"], "fig99"
        )

    def test_scenario_family_and_figure_conflict(self, capsys):
        self._assert_one_line_error(
            capsys, ["scenarios", "churn", "--figure", "fig11"], "not both"
        )

    def test_unknown_list_tag(self, capsys):
        self._assert_one_line_error(
            capsys, ["list", "--tags", "meteors"], "meteors"
        )

    def test_compose_missing_file(self, capsys, tmp_path):
        self._assert_one_line_error(
            capsys, ["compose", str(tmp_path / "absent.toml")], "does not exist"
        )

    def test_malformed_seed_range(self, capsys):
        self._assert_one_line_error(
            capsys, ["sweep", "fig7", "--seeds", "0..x", "--scale", "smoke"], "0..x"
        )

    def test_empty_seed_range(self, capsys):
        self._assert_one_line_error(
            capsys, ["sweep", "fig7", "--seeds", "5..2", "--scale", "smoke"], "5..2"
        )

    def test_outage_without_domain_structure(self, capsys, monkeypatch):
        """Composing a regional-outage scenario on an overlay without
        domain structure fails with a one-line ConfigurationError."""
        from repro.overlay.transit_stub import TransitStubUnderlay

        single = TransitStubUnderlay.for_size(12, seed=0)  # 1 transit domain
        monkeypatch.setattr(
            TransitStubUnderlay,
            "for_size",
            classmethod(lambda cls, n, seed=0: single),
        )
        self._assert_one_line_error(
            capsys, ["run", "ext-outage", "--scale", "smoke"], "domain structure"
        )


class TestStatusAndResume:
    """The resumable-sweep surface: `status`, `sweep --resume`, and the
    jobs-N-resume vs jobs-1 parity regression."""

    def _artifact_bytes(self, root):
        return {
            str(path.relative_to(root)): path.read_bytes()
            for path in sorted(root.rglob("*.json")) + sorted(root.rglob("*.csv"))
            if path.name != "manifest.json"
        }

    def test_parser_resume_flags(self, tmp_path):
        args = build_parser().parse_args(
            [
                "sweep",
                "fig9",
                "--resume",
                "--max-retries",
                "5",
                "--task-timeout",
                "30",
            ]
        )
        assert args.resume is True
        assert args.max_retries == 5
        assert args.task_timeout == 30.0
        defaults = build_parser().parse_args(["sweep", "fig9"])
        assert defaults.resume is False
        assert defaults.max_retries == 2
        assert defaults.task_timeout is None

    def test_parser_status_defaults(self):
        args = build_parser().parse_args(["status", "fig9"])
        assert args.command == "status"
        assert args.experiment == "fig9"
        assert args.scale is None
        assert str(args.out) == "results"

    def test_status_renders_ledger_table(self, tmp_path, capsys):
        assert (
            main(
                [
                    "sweep",
                    "fig7",
                    "--seeds",
                    "0..1",
                    "--scale",
                    "smoke",
                    "--out",
                    str(tmp_path),
                ]
            )
            == 0
        )
        capsys.readouterr()
        assert main(["status", "fig7", "--out", str(tmp_path)]) == 0
        output = capsys.readouterr().out
        assert "fig7/smoke: 0 pending, 0 running, 2 done, 0 failed" in output
        assert "(2 tasks, 2 attempts)" in output
        assert "seed 0" in output and "seed 1" in output
        assert output.count("sha256:") == 2

    def test_status_scale_filter_without_entries(self, tmp_path, capsys):
        assert (
            main(
                [
                    "sweep",
                    "fig7",
                    "--seeds",
                    "0",
                    "--scale",
                    "smoke",
                    "--out",
                    str(tmp_path),
                ]
            )
            == 0
        )
        capsys.readouterr()
        code = main(
            ["status", "fig7", "--scale", "paper", "--out", str(tmp_path)]
        )
        assert code == 2
        assert "no ledger entries" in capsys.readouterr().err

    def test_status_without_ledger(self, tmp_path, capsys):
        code = main(["status", "fig7", "--out", str(tmp_path / "absent")])
        assert code == 2
        captured = capsys.readouterr()
        assert "no sweep ledger" in captured.err
        assert "Traceback" not in captured.err

    def test_status_unknown_experiment(self, tmp_path, capsys):
        assert (
            main(
                [
                    "sweep",
                    "fig7",
                    "--seeds",
                    "0",
                    "--scale",
                    "smoke",
                    "--out",
                    str(tmp_path),
                ]
            )
            == 0
        )
        capsys.readouterr()
        code = main(["status", "fig99", "--out", str(tmp_path)])
        assert code == 2
        error_lines = capsys.readouterr().err.strip().splitlines()
        assert len(error_lines) == 1
        assert "fig99" in error_lines[0]

    def test_status_reads_while_a_sweep_holds_the_lock(self, tmp_path, capsys, live_pid):
        """``status`` takes no lock: with another live process holding
        ``sweep.lock`` and a half-appended journal line, it prints the rows
        and exits 0."""
        assert (
            main(
                [
                    "sweep",
                    "fig7",
                    "--seeds",
                    "0",
                    "--scale",
                    "smoke",
                    "--out",
                    str(tmp_path),
                ]
            )
            == 0
        )
        capsys.readouterr()
        assert main(["status", "fig7", "--out", str(tmp_path)]) == 0
        finished = capsys.readouterr().out
        (tmp_path / "sweep.lock").write_text(f"{live_pid}\n")
        with (tmp_path / "tasks.jsonl").open("ab") as journal:
            journal.write(b'{"op":"reset_all","tasks":[["fig7","smoke",0]],"a')
        assert main(["status", "fig7", "--out", str(tmp_path)]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        assert captured.out == finished
        assert "fig7/smoke: 0 pending, 0 running, 1 done, 0 failed" in finished

    def test_sweep_resume_skips_verified_tasks(self, tmp_path, capsys):
        base = [
            "sweep",
            "fig7",
            "--scale",
            "smoke",
            "--out",
            str(tmp_path),
        ]
        assert main(base + ["--seeds", "0..1"]) == 0
        capsys.readouterr()
        assert main(base + ["--seeds", "0..2", "--resume"]) == 0
        captured = capsys.readouterr()
        assert "[fig7 seed=0] skipped" in captured.err
        assert "[fig7 seed=1] skipped" in captured.err
        assert "swept 1 tasks, skipped 2, failed 0" in captured.err

    def test_sweep_failure_exit_code(self, tmp_path, capsys):
        from repro.experiments.registry import register, unregister
        from repro.experiments.spec import ExperimentSpec, Pipeline

        def measure(ctx, built, cell):
            raise RuntimeError("always broken")

        register(
            ExperimentSpec(
                experiment_id="cli-always-fails",
                title="cli failure stub",
                pipeline=Pipeline(columns=("seed",), measure=measure),
            )
        )
        try:
            code = main(
                [
                    "sweep",
                    "cli-always-fails",
                    "--seeds",
                    "0",
                    "--scale",
                    "smoke",
                    "--max-retries",
                    "0",
                    "--out",
                    str(tmp_path),
                ]
            )
        finally:
            unregister("cli-always-fails")
        assert code == 1
        captured = capsys.readouterr()
        assert "FAILED after 1 attempts" in captured.err
        assert "RuntimeError" in captured.err

    def test_resumed_failure_counts_attempts_as_status_does(self, tmp_path, capsys):
        """A task that fails again on ``--resume`` reports every attempt
        the ledger counted, the number ``status`` prints for that seed."""
        from repro.experiments.registry import register, unregister
        from repro.experiments.spec import ExperimentSpec, Pipeline

        def measure(ctx, built, cell):
            raise RuntimeError("always broken")

        register(
            ExperimentSpec(
                experiment_id="cli-always-fails",
                title="cli failure stub",
                pipeline=Pipeline(columns=("seed",), measure=measure),
            )
        )
        sweep = ["sweep", "cli-always-fails", "--seeds", "0", "--scale", "smoke",
                 "--max-retries", "0", "--out", str(tmp_path)]
        try:
            assert main(sweep) == 1
            assert main(sweep + ["--resume"]) == 1
            capsys.readouterr()
            assert main(sweep + ["--resume"]) == 1
            failed = capsys.readouterr().err
            assert main(["status", "cli-always-fails", "--out", str(tmp_path)]) == 0
            status = capsys.readouterr().out
        finally:
            unregister("cli-always-fails")
        assert "[cli-always-fails seed=0] FAILED after 3 attempts" in failed
        assert "attempts=3 " in status

    def test_jobs_n_resume_parity_with_jobs_1(self, tmp_path, capsys):
        """Regression: a sweep interrupted and resumed with --jobs 2 must
        produce the same bytes as one uninterrupted --jobs 1 run."""
        reference, resumed = tmp_path / "reference", tmp_path / "resumed"
        assert (
            main(
                [
                    "sweep",
                    "fig7",
                    "--seeds",
                    "0..2",
                    "--scale",
                    "smoke",
                    "--jobs",
                    "1",
                    "--out",
                    str(reference),
                ]
            )
            == 0
        )
        # a partial run (two of three seeds), then a parallel resume
        assert (
            main(
                [
                    "sweep",
                    "fig7",
                    "--seeds",
                    "0..1",
                    "--scale",
                    "smoke",
                    "--jobs",
                    "2",
                    "--out",
                    str(resumed),
                ]
            )
            == 0
        )
        assert (
            main(
                [
                    "sweep",
                    "fig7",
                    "--seeds",
                    "0..2",
                    "--scale",
                    "smoke",
                    "--jobs",
                    "2",
                    "--resume",
                    "--out",
                    str(resumed),
                ]
            )
            == 0
        )
        capsys.readouterr()
        assert self._artifact_bytes(reference) == self._artifact_bytes(resumed)


class TestServeMain:
    def test_serve_parser_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.command == "serve"
        assert args.experiment == "svc-steady"
        assert args.rate is None and args.duration is None and args.window is None
        assert args.format == "table"

    def test_serve_parser_overrides(self, tmp_path):
        args = build_parser().parse_args(
            [
                "serve",
                "svc-outage",
                "--scale",
                "smoke",
                "--seed",
                "5",
                "--rate",
                "2.5",
                "--duration",
                "120",
                "--window",
                "30",
                "--format",
                "json",
                "--out",
                str(tmp_path),
            ]
        )
        assert args.experiment == "svc-outage"
        assert (args.rate, args.duration, args.window) == (2.5, 120.0, 30.0)
        assert args.format == "json"

    def test_serve_prints_windowed_table(self, capsys):
        assert main(["serve", "svc-steady", "--scale", "smoke",
                     "--duration", "60", "--rate", "0.5"]) == 0
        captured = capsys.readouterr()
        assert "latency_p99" in captured.out
        assert "served in" in captured.err  # timing goes to stderr

    def test_serve_json_is_parseable_with_nonzero_p99(self, capsys):
        assert main(["serve", "svc-outage", "--scale", "smoke", "--format", "json",
                     "--duration", "120", "--rate", "1", "--window", "60"]) == 0
        payload = json.loads(capsys.readouterr().out)
        columns = payload["columns"]
        p99_index = columns.index("latency_p99")
        assert any(row[p99_index] > 0 for row in payload["rows"])
        assert "_p99" in payload["stat_suffixes"]

    def test_window_lines_cover_every_row(self, capsys):
        """One stderr line per result row, in row order, naming its cell —
        every severity's windows, not one set that could belong to any."""
        assert main(["serve", "svc-outage", "--scale", "smoke", "--format", "json"]) == 0
        captured = capsys.readouterr()
        payload = json.loads(captured.out)
        columns, rows = payload["columns"], payload["rows"]
        lines = [line for line in captured.err.splitlines() if line.startswith("window ")]
        assert len(rows) == len(lines) == 36
        for row, line in zip(rows, lines):
            values = dict(zip(columns, row))
            assert f"outage_severity={values['outage_severity']}" in line.split()
            assert line.startswith(f"window {values['window']:>3d}  ")
            assert values["variant"] in line
            assert f"arrivals={values['arrivals']}" in line

    def test_serve_rejects_non_service_experiment(self, capsys):
        assert main(["serve", "fig7"]) == 2  # one-line error, no traceback
        assert "not a service-mode experiment" in capsys.readouterr().err

    def test_serve_persists_replicate(self, tmp_path, capsys):
        assert main(["serve", "svc-steady", "--scale", "smoke", "--duration", "60",
                     "--rate", "0.5", "--seed", "4", "--out", str(tmp_path)]) == 0
        capsys.readouterr()
        assert (tmp_path / "svc-steady" / "smoke" / "seed_4.json").exists()
        manifest = ResultStore(tmp_path).manifest("svc-steady", "smoke")
        assert manifest["runs"]["seed_4"]["events_processed"] > 0
