"""Failure-injection tests: extreme availability patterns against both
protocol stacks, ``nan`` simulation times against the scheduler, latency
models and timed driver, and corrupted store files, hostile spec files, a
hostile ``[scale]`` table, non-finite runtime knobs, budgets and periods,
non-integer counts and a full span recorder against the CLI and the API,
and a C locale against the determinism lint and the result store."""

from __future__ import annotations

import json
import os
import pathlib
import subprocess
import sys

import pytest

from repro.core.config import MPILConfig
from repro.core.identifiers import IdSpace
from repro.core.results import HOP_LIMIT, MISDELIVERED
from repro.core.timed import TimedMPILNetwork
from repro.errors import ConfigurationError, SimulationError
from repro.experiments.cli import main
from repro.overlay.random_graphs import fixed_degree_random_graph
from repro.pastry.config import PastryConfig
from repro.pastry.protocol import PastryNetwork
from repro.perturbation.flapping import FlappingConfig
from repro.sim.engine import EventScheduler
from repro.sim.latency import ConstantLatency, UniformRandomLatency
from repro.sim.rng import derive_rng

SPACE = IdSpace(bits=16, digit_bits=4)


class Blackout:
    """Everyone except an allowlist is offline."""

    def __init__(self, allow=frozenset()):
        self.allow = frozenset(allow)

    def is_online(self, node, time):  # noqa: ARG002
        return node in self.allow


class HoldersDown:
    def __init__(self, holders):
        self.holders = frozenset(holders)

    def is_online(self, node, time):  # noqa: ARG002
        return node not in self.holders


def _timed_network(seed=0, n=60):
    overlay = fixed_degree_random_graph(n, degree=8, seed=seed)
    net = TimedMPILNetwork(
        overlay,
        space=SPACE,
        config=MPILConfig(max_flows=8, per_flow_replicas=4),
        seed=seed,
    )
    rng = derive_rng(seed, "objects")
    obj = net.random_object_id(rng)
    net.insert(rng.randrange(n), obj)
    return net, obj


class TestMPILUnderTotalFailure:
    def test_total_blackout_zero_success(self):
        net, obj = _timed_network(seed=1)
        result = net.lookup_at(0, obj, start_time=10.0, availability=Blackout(allow={0}))
        assert not result.success
        # every first-hop send was lost to an offline node
        assert result.counters.lost_offline == result.counters.messages_sent
        assert result.counters.messages_sent >= 1

    def test_only_holders_down_blocks_all_replies(self):
        net, obj = _timed_network(seed=2)
        holders = net.directory.holders(obj)
        result = net.lookup_at(0, obj, start_time=10.0, availability=HoldersDown(holders))
        assert not result.success
        assert result.counters.lost_offline >= 1

    def test_single_holder_alive_suffices(self):
        net, obj = _timed_network(seed=3)
        holders = sorted(net.directory.holders(obj))
        if len(holders) < 2:
            return  # nothing to selectively revive
        down = frozenset(holders[1:])
        # many client positions; redundancy should find the lone survivor
        successes = sum(
            net.lookup_at(origin, obj, start_time=10.0, availability=HoldersDown(down)).success
            for origin in range(0, 40, 5)
            if origin not in down
        )
        assert successes >= 1


NAN = float("nan")
INF = float("inf")


class TestNanSimulationTime:
    """A ``nan`` time compares false against everything, so it used to slip
    past every ``time < now`` guard: one ``post(nan)`` left all pending
    events on the heap unexecuted, ``ConstantLatency(nan)`` made every timed
    lookup fail after one message, and ``lookup_at(start_time=nan)``
    returned a failure with no message sent.  Each is refused now."""

    def test_scheduler_start_time(self):
        with pytest.raises(SimulationError, match="nan"):
            EventScheduler(start_time=NAN)

    def test_post_leaves_the_pending_events_runnable(self):
        engine = EventScheduler()
        fired = []
        for time in (1.0, 2.0, 3.0):
            engine.post(time, fired.append, time)
        with pytest.raises(SimulationError, match="nan"):
            engine.post(NAN, fired.append, "never")
        assert engine.run() == 3
        assert fired == [1.0, 2.0, 3.0]

    def test_run_until(self):
        engine = EventScheduler()
        engine.post(1.0, lambda: None)
        with pytest.raises(SimulationError, match="never moves backwards"):
            engine.run(until=NAN)
        assert engine.now == 0.0 and engine.pending == 1

    @pytest.mark.parametrize("value", [NAN, INF])
    def test_constant_latency(self, value):
        with pytest.raises(ConfigurationError, match="finite"):
            ConstantLatency(value)

    @pytest.mark.parametrize("lo,hi", [(0.0, INF), (INF, INF)])
    def test_uniform_random_latency(self, lo, hi):
        with pytest.raises(ConfigurationError, match="invalid latency range"):
            UniformRandomLatency(lo, hi)

    def test_start_lookup_refuses_before_taking_a_number(self):
        net, obj = _timed_network(seed=4)
        twin, _ = _timed_network(seed=4)
        engine = EventScheduler()
        before = net.snapshot()
        with pytest.raises(SimulationError, match="nan"):
            net.start_lookup(engine, 0, obj, start_time=NAN)
        assert net.snapshot() == before and engine.pending == 0
        # the retried call draws the stream the refused one would have
        assert net.lookup_at(0, obj, start_time=1.0) == twin.lookup_at(0, obj, start_time=1.0)

    def test_lookup_at(self):
        net, obj = _timed_network(seed=5)
        with pytest.raises(SimulationError, match="nan"):
            net.lookup_at(0, obj, start_time=NAN)


class TestPastryUnderTotalFailure:
    def test_everyone_dead_but_client(self):
        net = PastryNetwork(n=40, space=SPACE, seed=4)
        rng = derive_rng(4, "keys")
        key = SPACE.random_identifier(rng)
        net.insert_static(0, key)
        outcome = net.lookup(1, key, availability=Blackout(allow={1}))
        assert not outcome.success
        # the client retransmitted, learned its candidates dead, and either
        # misdelivered to itself or dropped
        assert outcome.retransmissions > 0
        assert outcome.cause in (MISDELIVERED, HOP_LIMIT)

    def test_root_neighborhood_down_misdelivers(self):
        net = PastryNetwork(n=40, space=SPACE, seed=5)
        rng = derive_rng(5, "keys")
        key = SPACE.random_identifier(rng)
        net.insert_static(0, key)
        root = net.root(key)
        down = {root} | set(net.leaf_sets[root])

        class NeighborhoodDown:
            def is_online(self, node, time):  # noqa: ARG002
                return node not in down

        origin = next(v for v in range(40) if v not in down)
        outcome = net.lookup(origin, key, availability=NeighborhoodDown())
        assert not outcome.success


class TestCorruptStoreFiles:
    """A ledger or manifest that does not parse is one stderr line naming
    the file and exit 2 — and the store is left byte for byte as it was."""

    @pytest.fixture()
    def swept(self, tmp_path, capsys):
        assert main(self._sweep(tmp_path, "0..1")) == 0
        capsys.readouterr()
        return tmp_path

    @staticmethod
    def _sweep(root, seeds, *flags):
        return ["sweep", "fig7", "--scale", "smoke", "--seeds", seeds,
                "--out", str(root), *flags]

    @staticmethod
    def _snapshot(root):
        return {
            str(path.relative_to(root)): path.read_bytes()
            for path in sorted(root.rglob("*"))
            if path.is_file()
        }

    def _fails_in_one_line(self, argv, root, capsys) -> str:
        """Run ``argv``; assert exit 2, one stderr line, store unchanged
        (tasks.jsonl included: no row added, claimed or released)."""
        before = self._snapshot(root)
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1, err
        assert self._snapshot(root) == before
        return err

    def test_garbage_ledger(self, swept, capsys):
        ledger = swept / "tasks.jsonl"
        ledger.write_text("garbage\n")
        for argv in (
            ["status", "fig7", "--out", str(swept)],
            self._sweep(swept, "0..1", "--resume"),
        ):
            assert str(ledger) in self._fails_in_one_line(argv, swept, capsys)

    def test_garbage_middle_line_in_the_journal(self, swept, capsys):
        ledger = swept / "tasks.jsonl"
        first, *rest = ledger.read_bytes().splitlines(keepends=True)
        ledger.write_bytes(b"".join([first, b"garbage\n", *rest]))
        for argv in (
            ["status", "fig7", "--out", str(swept)],
            self._sweep(swept, "0..1", "--resume"),
            self._sweep(swept, "0..1"),
        ):
            err = self._fails_in_one_line(argv, swept, capsys)
            assert f"{ledger}:2: not a ledger record" in err

    def test_old_sqlite_ledger_is_refused(self, swept, capsys):
        """A store an older version swept holds ``ledger.sqlite`` and no
        journal: one line says what to do, from every command that would
        read it, and nothing is written."""
        (swept / "tasks.jsonl").unlink()
        old = swept / "ledger.sqlite"
        old.write_bytes(b"SQLite format 3\x00")
        for argv in (
            ["status", "fig7", "--out", str(swept)],
            self._sweep(swept, "0..1", "--resume"),
            self._sweep(swept, "0..1"),
        ):
            err = self._fails_in_one_line(argv, swept, capsys)
            assert str(old) in err
            assert "artifacts beside it are kept" in err
            assert "delete it and run `sweep` without `--resume`" in err

    def test_truncated_manifest_stops_sweep_before_any_claim(self, swept, capsys):
        manifest = swept / "fig7" / "smoke" / "manifest.json"
        manifest.write_text(manifest.read_text()[:100])
        resume = self._sweep(swept, "0..2", "--resume")
        err = self._fails_in_one_line(resume, swept, capsys)
        assert str(manifest) in err and "delete it" in err
        manifest.unlink()
        assert main(resume) == 0
        assert main(["status", "fig7", "--out", str(swept)]) == 0
        assert "3 done" in capsys.readouterr().out
        assert sorted(json.loads(manifest.read_text())["runs"]) == ["seed_2"]

    def test_truncated_manifest_stops_run_before_any_write(self, swept, capsys):
        manifest = swept / "fig7" / "smoke" / "manifest.json"
        manifest.write_text("{")
        run = ["run", "fig7", "--scale", "smoke", "--seed", "5", "--out", str(swept)]
        err = self._fails_in_one_line(run, swept, capsys)
        assert str(manifest) in err and "delete it" in err


    @pytest.mark.parametrize(
        "damage",
        [
            lambda blob: blob.unlink(),
            lambda blob: blob.write_text(blob.read_text()[:40]),
            lambda blob: blob.write_bytes(b"\xff\xfe not utf-8"),
            lambda blob: blob.write_text("[1, 2]\n"),
        ],
        ids=["missing", "truncated", "not-utf8", "not-a-table"],
    )
    def test_status_without_a_readable_telemetry_blob(self, swept, capsys, damage):
        """``status`` reads its metrics line from ``seed_<n>.telemetry.json``:
        without one it prints the row and no metrics line — no traceback."""
        damage(swept / "fig7" / "smoke" / "seed_0.telemetry.json")
        before = self._snapshot(swept)
        assert main(["status", "fig7", "--out", str(swept)]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        lines = captured.out.splitlines()
        seed_0 = next(i for i, line in enumerate(lines) if line.startswith("  seed 0 "))
        assert lines[seed_0 + 1].startswith("  seed 1 ")
        assert lines[seed_0 + 2].startswith("    metrics: ")
        assert self._snapshot(swept) == before


class TestNonFiniteRuntimeKnobs:
    """``--task-timeout inf`` used to die in ``OverflowError`` out of
    ``selectors`` after the first claim (a ``running`` row stranded);
    ``nan`` was accepted, never enforced, and made the pool's wait a
    zero-timeout busy loop.  Both are one stderr line and exit 2 before the
    ledger is touched."""

    @pytest.mark.parametrize("value", ["inf", "nan"])
    def test_task_timeout(self, value, tmp_path, capsys):
        out = tmp_path / "store"
        argv = ["sweep", "fig7", "--scale", "smoke", "--seeds", "0", "--out", str(out),
                "--task-timeout", value]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1 and "Traceback" not in captured.err
        assert f"task-timeout must be finite, got {value}" in captured.err
        assert not out.exists()  # no ledger, so no row left running

    @pytest.mark.parametrize("value", [float("inf"), float("nan")])
    def test_runtime_config_rejects_it(self, value):
        from repro.errors import ExperimentError
        from repro.experiments.runtime import RuntimeConfig

        with pytest.raises(ExperimentError, match="task-timeout must be finite"):
            RuntimeConfig(task_timeout=value)


class TestNonFinitePeriods:
    """``nan <= 0`` is false and ``inf`` is positive, so
    ``PastryConfig(probe_timeout=nan)``, ``PastryConfig(app_retx_interval=inf)``
    and ``FlappingConfig(idle_period=nan, ...)`` used to construct; only
    ``FlappingConfig.from_label`` asked ``isfinite``.  Each is one error
    naming the field now, and the label goes through the same check."""

    @pytest.mark.parametrize(
        "field",
        [
            "leafset_probe_period",
            "routing_table_probe_period",
            "probe_timeout",
            "app_retx_interval",
        ],
    )
    @pytest.mark.parametrize("value", [NAN, INF])
    def test_pastry_config(self, field, value):
        with pytest.raises(
            ConfigurationError, match=f"^{field} must be a positive finite number, got {value}$"
        ):
            PastryConfig(**{field: value})

    @pytest.mark.parametrize("field", ["idle_period", "offline_period"])
    @pytest.mark.parametrize("value", [NAN, INF])
    def test_flapping_config(self, field, value):
        periods = {"idle_period": 30.0, "offline_period": 30.0, field: value}
        with pytest.raises(
            ConfigurationError, match=f"^flapping {field} must be finite, got {value}$"
        ):
            FlappingConfig(probability=0.5, **periods)

    @pytest.mark.parametrize(
        "label, field", [("nan:30", "idle_period"), ("30:inf", "offline_period")]
    )
    def test_flapping_label_reaches_the_same_check(self, label, field):
        with pytest.raises(ConfigurationError, match=f"flapping {field} must be finite"):
            FlappingConfig.from_label(label, 0.5)


class TestNonIntegerCounts:
    """Caps and counts that arrive from outside the program must be ints:
    ``api.sweep(jobs=2.5)`` let the pool spawn a third worker (``2 >= 2.5``
    is false), and ``max_spans=-3`` recorded nothing and counted every span
    as dropped — both without an error."""

    @pytest.mark.parametrize("value", [2.5, True, "2"])
    def test_sweep_jobs(self, value):
        from repro import api
        from repro.errors import ExperimentError

        with pytest.raises(ExperimentError, match="jobs must be an integer"):
            api.sweep("fig7", seeds="0", scale="smoke", jobs=value)

    @pytest.mark.parametrize("value", [1.5, False, None])
    def test_runtime_config_max_retries(self, value):
        from repro.errors import ExperimentError
        from repro.experiments.runtime import RuntimeConfig

        with pytest.raises(ExperimentError, match="max-retries must be an integer"):
            RuntimeConfig(max_retries=value)

    @pytest.mark.parametrize("value", [-3, True, 2.5, "10"])
    def test_span_recorder_max_spans(self, value):
        from repro.errors import ConfigurationError
        from repro.telemetry import SpanRecorder

        with pytest.raises(ConfigurationError, match="max_spans must be a non-negative"):
            SpanRecorder(max_spans=value)

    def test_api_telemetry_max_spans(self):
        from repro import api
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError, match="got -3"):
            api.telemetry("fig7", scale="smoke", max_spans=-3)


class TestNonFiniteBudget:
    """A ``nan`` or ``inf`` ceiling used to compose, run and exit 0 with the
    ceiling never enforced (``rss > nan`` and ``nan <= 0`` are both
    false).  Now it is one stderr line naming the field, exit 2."""

    @pytest.mark.parametrize("field", ["max_wall_s", "max_rss_mb"])
    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_compose_scale_budget(self, field, value, tmp_path, capsys):
        spec = tmp_path / "budget.toml"
        spec.write_text(
            '[experiment]\nid = "non-finite-budget"\ntitle = "a budget never enforced"\n'
            '[sweep]\ncolumn = "p"\nvalues = [0.5]\n'
            '[[scenario]]\nfamily = "flapping"\nperiod = "30:30"\nprobability = "$p"\n'
            f"[scale.budget]\n{field} = {value}\n"
        )
        out = tmp_path / "store"
        assert main(["compose", str(spec), "--scale", "smoke", "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and not out.exists()
        assert len(captured.err.strip().splitlines()) == 1, captured.err
        assert f"budget {field} must be a positive finite number" in captured.err

    @pytest.mark.parametrize("field", ["max_wall_s", "max_rss_mb"])
    @pytest.mark.parametrize("value", [float("inf"), float("nan")])
    def test_scale_evolve(self, field, value):
        from repro.errors import ExperimentError
        from repro.experiments.scales import get_scale

        with pytest.raises(ExperimentError, match=f"budget {field} must be"):
            get_scale("smoke").evolve(**{field: value})


class TestFullSpanRecorder:
    def test_trace_out_reports_dropped_spans(self, tmp_path, capsys, monkeypatch):
        """``trace --out`` writes through the helper ``run --trace`` uses, so
        a recorder that filled says ``(N dropped)`` on both — a truncated
        export must not look complete."""
        from repro.telemetry import SpanRecorder, Telemetry

        monkeypatch.setattr(
            Telemetry,
            "with_spans",
            classmethod(lambda cls, max_spans=None: cls(spans=SpanRecorder(max_spans=40))),
        )
        for argv, out in (
            (["trace", "fig9", "--scale", "smoke", "--out"], tmp_path / "trace.jsonl"),
            (["run", "fig9", "--scale", "smoke", "--trace"], tmp_path / "run.jsonl"),
        ):
            assert main(argv + [str(out)]) == 0
            err = capsys.readouterr().err
            export_line = next(line for line in err.splitlines() if "->" in line)
            assert export_line.startswith("(40 spans (") and " dropped) -> " in export_line
            assert len(out.read_text().splitlines()) == 40


class TestHostileSpecFiles:
    """A spec file that cannot be read as a table is one stderr line naming
    the file and exit 2 — before anything is built or written."""

    def _fails_in_one_line(self, spec, tmp_path, capsys) -> str:
        out = tmp_path / "store"
        argv = ["compose", str(spec), "--scale", "smoke", "--out", str(out)]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert len(captured.err.strip().splitlines()) == 1, captured.err
        assert str(spec) in captured.err
        assert captured.out == "" and not out.exists()
        return captured.err

    def test_non_utf8_bytes(self, tmp_path, capsys):
        spec = tmp_path / "latin.toml"
        spec.write_bytes(b'[experiment]\nid = "caf\xe9"\n')
        assert "cannot read" in self._fails_in_one_line(spec, tmp_path, capsys)

    def test_directory_path(self, tmp_path, capsys):
        spec = tmp_path / "spec.toml"
        spec.mkdir()
        assert "cannot read" in self._fails_in_one_line(spec, tmp_path, capsys)

    def test_json_list_at_top_level(self, tmp_path, capsys):
        spec = tmp_path / "spec.json"
        spec.write_text('[{"experiment": {"id": "x"}}]')
        assert "found a list" in self._fails_in_one_line(spec, tmp_path, capsys)


class TestHostileScaleTable:
    @pytest.mark.parametrize(
        "section, key, value",
        [
            pytest.param("scale.budget", "max_wall_s", '"abc"', id="wall-string"),
            pytest.param("scale.budget", "max_wall_s", "true", id="wall-bool"),
            pytest.param("scale.budget", "max_rss_mb", '"1024"', id="rss-string"),
            pytest.param("scale", "pastry_nodes", '"abc"', id="nodes-string"),
            pytest.param("scale", "pastry_nodes", "80.5", id="nodes-float"),
            pytest.param("scale", "static_ops", "true", id="ops-bool"),
            pytest.param("scale", "static_node_counts", "[200.5]", id="sizes-float"),
            pytest.param("scale", "flap_probabilities", '["x"]', id="probabilities-string"),
            pytest.param("scale", "flap_probabilities", "0.5", id="probabilities-scalar"),
            pytest.param("scale", "outage_severities", "[nan]", id="severities-nan"),
            pytest.param("scale", "service_rate", "inf", id="rate-inf"),
            pytest.param("scale", "service_window", "true", id="window-bool"),
        ],
    )
    def test_a_mistyped_value_is_one_line(self, section, key, value, tmp_path, capsys):
        """``max_wall_s = "abc"`` was a ``ValueError`` traceback and
        ``max_wall_s = true`` a silent one-second budget (``float(True)``
        ran before the budget's own check); ``pastry_nodes = "abc"`` was a
        ``TypeError`` traceback from the underlay, and a non-finite or
        non-numeric field the run never reads was accepted.  Each is one
        stderr line naming the field, exit 2, before anything runs."""
        spec = tmp_path / "scale.toml"
        spec.write_text(
            '[experiment]\nid = "mistyped-scale"\ntitle = "a mistyped [scale] table"\n'
            '[sweep]\ncolumn = "p"\nvalues = [0.5]\n'
            '[[scenario]]\nfamily = "flapping"\nperiod = "30:30"\nprobability = "$p"\n'
            f"[{section}]\n{key} = {value}\n"
        )
        out = tmp_path / "store"
        assert main(["compose", str(spec), "--scale", "smoke", "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and not out.exists()
        assert len(captured.err.strip().splitlines()) == 1, captured.err
        field = f"budget {key}" if section == "scale.budget" else f"scale field {key}"
        assert f"{field} must be" in captured.err and "Traceback" not in captured.err

    def test_a_rung_without_static_operations_is_one_line(self, tmp_path, capsys):
        """A ``[scale]`` table may spell ``static_ops = 0``; the rung it
        defines used to run the static experiments into an ``IndexError``
        traceback or a table of 0.0 % for lookups never issued.  Now: one
        stderr line naming the field, exit 2, nothing printed or stored."""
        from repro import api

        spec = api.compose(
            {
                "experiment": {"id": "hollow-rung", "title": "a hollow rung"},
                "sweep": {"column": "p", "values": [0.5]},
                "scenario": [{"family": "flapping", "period": "30:30", "probability": "$p"}],
                "scale": {"name": "hollow", "static_ops": 0},
            }
        )
        api.register_scale(spec.scale_transform(api.get_scale("smoke")))
        try:
            for experiment_id in ("fig10", "tab2", "ablation-tiebreak", "baseline-comparison"):
                out = tmp_path / experiment_id
                argv = ["run", experiment_id, "--scale", "hollow", "--out", str(out)]
                assert main(argv) == 2
                captured = capsys.readouterr()
                assert captured.out == "" and not out.exists()
                assert len(captured.err.strip().splitlines()) == 1, captured.err
                assert "static_ops=0" in captured.err and "Traceback" not in captured.err
        finally:
            api.unregister_scale("hollow")


class TestAsciiLocale:
    """Under a C locale (no UTF-8 mode, no locale coercion) Python's default
    text encoding is ASCII.  The determinism lint died in
    ``UnicodeDecodeError`` on the first docstring with "Erdős–Rényi" in it,
    and a sweep whose ``[sweep] column`` is not ASCII died in
    ``UnicodeEncodeError`` writing ``aggregate.csv``, stranding
    ``aggregate.csv.tmp`` beside an ``aggregate.json`` with no CSV.  Every text file the program writes or
    reads back is UTF-8 whatever the locale."""

    REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]

    def _run(self, argv, tmp_path):
        env = {
            key: value for key, value in os.environ.items() if not key.startswith("LC_")
        }
        env.update(
            LC_ALL="C", LANG="C", PYTHONUTF8="0", PYTHONCOERCECLOCALE="0",
            PYTHONPATH=str(self.REPO_ROOT / "src"),
        )
        return subprocess.run(
            [sys.executable, *argv], cwd=self.REPO_ROOT, env=env,
            capture_output=True, text=True, timeout=300,
        )

    def test_lint_reads_non_ascii_sources(self, tmp_path):
        script = (
            "import sys\n"
            "sys.path.insert(0, 'tests')\n"
            "from determinism_lint import lint\n"
            "print(lint('.', ['src']))\n"
        )
        done = self._run(["-c", script], tmp_path)
        assert "Traceback" not in done.stderr, done.stderr
        assert done.returncode == 0, done.stdout + done.stderr
        assert done.stdout == "[]\n"

    def test_sweep_of_a_non_ascii_column_writes_its_aggregate(self, tmp_path):
        store = tmp_path / "store"
        script = (
            "import sys\n"
            "from repro import api\n"
            "api.compose({'experiment': {'id': 'locale-sweep', 'title': 'locale'},\n"
            "             'sweep': {'column': 'p\\u00e9riode', 'values': [0.5]},\n"
            "             'scenario': [{'family': 'flapping', 'period': '30:30',\n"
            "                           'probability': '$p\\u00e9riode'}]},\n"
            "            register_spec=True)\n"
            "api.sweep('locale-sweep', seeds=[0], scale='smoke', store=sys.argv[1])\n"
        )
        done = self._run(["-c", script, str(store)], tmp_path)
        assert "Traceback" not in done.stderr, done.stderr
        assert done.returncode == 0, done.stderr
        cell = store / "locale-sweep" / "smoke"
        assert sorted(path.name for path in cell.glob("*.tmp")) == []
        header = (cell / "aggregate.csv").read_text(encoding="utf-8").splitlines()[0]
        assert header.startswith("période")
        assert "période" in json.loads((cell / "aggregate.json").read_text(encoding="utf-8"))["columns"]
