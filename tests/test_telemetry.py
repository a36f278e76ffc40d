"""Tests for repro.telemetry: spans, the metrics registry, sinks, and the
determinism contract (tracing on/off byte-identity, jobs-independent
telemetry blobs, lint-clean modules)."""

from __future__ import annotations

import hashlib
import io
import json
import pathlib

import pytest
from determinism_lint import RULES, FileContext, lint

from repro import api
from repro.errors import ConfigurationError, ExperimentError
from repro.experiments.cli import main
from repro.experiments.registry import run_experiment
from repro.experiments.runner import SweepSpec, run_sweep
from repro.experiments.store import ResultStore
from repro.sim.engine import (
    add_events_processed,
    events_processed_total,
    reset_events_processed,
)
from repro.telemetry import MetricsRegistry, SpanRecorder, Telemetry, current, use
from repro.telemetry.progress import ProgressMeter, format_rate, service_window_line
from repro.telemetry.sinks import read_jsonl, render_hop_tree, write_jsonl
from repro.telemetry.spans import Span

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]


def result_digest(result) -> str:
    """The artifact-byte digest the determinism gates compare."""
    return hashlib.sha256(
        json.dumps(result.to_dict(), sort_keys=True).encode()
    ).hexdigest()


def spans_digest(recorder: SpanRecorder) -> str:
    buffer = io.StringIO()
    write_jsonl(recorder, buffer)
    return hashlib.sha256(buffer.getvalue().encode()).hexdigest()


class TestMetricsRegistry:
    def test_counter_and_histogram(self):
        registry = MetricsRegistry()
        registry.inc("requests")
        registry.inc("requests", 2)
        registry.histogram("hops").observe(3)
        registry.histogram("hops").observe(40)
        snapshot = registry.snapshot()
        assert snapshot["requests"] == 3
        assert snapshot["hops"]["count"] == 2
        assert snapshot["hops"]["sum"] == 43
        assert sum(snapshot["hops"]["buckets"]) == 2

    def test_label_order_does_not_split_series(self):
        registry = MetricsRegistry()
        registry.inc("messages", kind="lookup", scale="smoke")
        registry.inc("messages", scale="smoke", kind="lookup")
        assert len(registry) == 1
        snapshot = registry.snapshot()
        assert snapshot["messages{kind=lookup,scale=smoke}"] == 2

    def test_snapshot_keys_sorted(self):
        registry = MetricsRegistry()
        registry.inc("zeta")
        registry.inc("alpha")
        registry.histogram("mid")
        assert list(registry.snapshot()) == sorted(registry.snapshot())

    def test_inc_convenience_matches_counter(self):
        """A zero amount is no increment: it creates no series, so nothing
        ever snapshots at 0."""
        registry = MetricsRegistry()
        registry.inc("n", 0, kind="x")
        assert len(registry) == 0 and registry.snapshot() == {}
        registry.inc("n", 4, kind="x")
        registry.inc("n", 0, kind="x")
        assert registry.snapshot() == {"n{kind=x}": 4}


class TestEngineCounterShims:
    def test_reset_zeroes_total(self):
        add_events_processed(3)
        assert events_processed_total() >= 3
        reset_events_processed()
        assert events_processed_total() == 0


class TestSpanRecorder:
    def test_ids_allocated_even_when_dropped(self):
        recorder = SpanRecorder(max_spans=2)
        trace = recorder.begin_trace("lookup")
        ids = [recorder.emit(trace, "send", node=i) for i in range(4)]
        assert ids == [0, 1, 2, 3]  # cap-independent ids
        assert len(recorder) == 2
        assert recorder.dropped == 2
        assert "2 dropped" in str(recorder)

    def test_trace_ids_monotonic_and_first_seen(self):
        recorder = SpanRecorder()
        first = recorder.begin_trace("insert")
        second = recorder.begin_trace("lookup")
        recorder.emit(second, "send")
        recorder.emit(first, "send")
        assert first == "000000:insert" and second == "000001:lookup"
        assert recorder.trace_ids() == [second, first]

    def test_filters(self):
        recorder = SpanRecorder()
        trace = recorder.begin_trace("lookup")
        recorder.emit(trace, "send", node=1)
        recorder.emit(trace, "reply", node=2)
        assert [s.name for s in recorder.spans(node=2)] == ["reply"]
        assert [s.node for s in recorder.spans(name="send")] == [1]

    def test_attrs_sorted_for_identity(self):
        recorder = SpanRecorder()
        trace = recorder.begin_trace("lookup")
        recorder.emit(trace, "send", b=2, a=1)
        (span,) = recorder.spans()
        assert span.attrs == (("a", 1), ("b", 2))


class TestSinks:
    def _sample(self) -> list[Span]:
        recorder = SpanRecorder()
        trace = recorder.begin_trace("lookup")
        root = recorder.emit(trace, "lookup", node=0, start=0.0)
        send = recorder.emit(trace, "send", node=0, start=0.0, end=1.0,
                             parent_id=root, to=5)
        recorder.emit(trace, "reply", node=5, start=1.0, parent_id=send, hop=1)
        return recorder.spans()

    def test_jsonl_round_trip(self, tmp_path):
        spans = self._sample()
        path = tmp_path / "spans.jsonl"
        assert write_jsonl(spans, path) == 3
        assert read_jsonl(path) == sorted(spans, key=lambda s: s.span_id)

    def test_jsonl_bytes_deterministic(self):
        spans = self._sample()
        first, second = io.StringIO(), io.StringIO()
        write_jsonl(reversed(spans), first)  # input order must not matter
        write_jsonl(spans, second)
        assert first.getvalue() == second.getvalue()

    def test_read_reports_bad_line_number(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"trace_id": "000000:x", "span_id": 0}\nnot json\n')
        with pytest.raises(ConfigurationError, match="line 1"):
            read_jsonl(path)

    def test_hop_tree_nests_children(self):
        tree = render_hop_tree(self._sample())
        lines = tree.splitlines()
        assert lines[0] == "trace 000000:lookup"
        assert lines[1].startswith("  lookup")
        assert lines[2].startswith("    send")
        assert lines[3].startswith("      reply")

    def test_hop_tree_orphans_render_at_root(self):
        span = Span(trace_id="000000:x", span_id=9, parent_id=4,
                    name="send", node=1, start=0.0, end=1.0)
        tree = render_hop_tree([span])
        assert "send" in tree

    def test_hop_tree_empty(self):
        assert render_hop_tree([]) == "(no spans)"


class TestTelemetryHandle:
    def test_use_nests_and_restores(self):
        outer, inner = Telemetry(), Telemetry()
        default = current()
        with use(outer):
            assert current() is outer
            with use(inner):
                assert current() is inner
            assert current() is outer
        assert current() is default

    def test_default_handle_records_no_spans(self):
        assert Telemetry().spans is None


class TestTracingDeterminism:
    """The PR's hard requirement: byte-identical artifacts off and on."""

    @pytest.mark.parametrize("experiment_id", ["fig9", "ext-outage"])
    def test_tracing_on_off_byte_identical(self, experiment_id):
        plain = run_experiment(experiment_id, "smoke", 1)
        handle = Telemetry.with_spans()
        traced = run_experiment(experiment_id, "smoke", 1, telemetry=handle)
        assert handle.spans is not None and len(handle.spans) > 0
        assert result_digest(plain) == result_digest(traced)

    def test_traced_twice_identical_span_stream(self):
        first = Telemetry.with_spans()
        second = Telemetry.with_spans()
        run_experiment("fig9", "smoke", 1, telemetry=first)
        run_experiment("fig9", "smoke", 1, telemetry=second)
        assert spans_digest(first.spans) == spans_digest(second.spans)

    def test_hop_tree_parent_links_complete(self):
        traced = api.telemetry("svc-outage", scale="smoke", seed=1)
        trace_ids = traced.spans.trace_ids()
        lookup_traces = [t for t in trace_ids if t.endswith(":timed-lookup")]
        assert lookup_traces, f"no timed-lookup traces among {trace_ids[:5]}"
        spans = traced.spans.spans(trace_id=lookup_traces[0])
        by_id = {span.span_id: span for span in spans}
        roots = [span for span in spans if span.parent_id is None]
        assert len(roots) == 1
        for span in spans:
            if span.parent_id is not None:
                assert span.parent_id in by_id, f"dangling parent on {span}"

    def test_metrics_blob_attached_to_result(self):
        result = run_experiment("fig9", "smoke", 1)
        assert result.metrics is not None
        assert result.metrics["experiment"] == "fig9"
        assert result.metrics["cells"] == len(result.metrics["per_cell"])
        assert "mpil_requests_total{kind=insert}" in result.metrics["final"]
        # never part of the artifact bytes
        assert "metrics" not in result.to_dict()


class TestSweepTelemetry:
    def _sweep(self, tmp_path, name, jobs):
        store = ResultStore(tmp_path / name)
        spec = SweepSpec(("fig9",), seeds=(0, 1), scale="smoke")
        report = run_sweep(spec, store, jobs=jobs)
        assert not report.failures
        return store

    def test_jobs_do_not_change_telemetry_blobs(self, tmp_path):
        serial = self._sweep(tmp_path, "serial", jobs=1)
        pooled = self._sweep(tmp_path, "pooled", jobs=2)
        for seed in (0, 1):
            serial_blob = serial.telemetry_path("fig9", "smoke", seed).read_bytes()
            pooled_blob = pooled.telemetry_path("fig9", "smoke", seed).read_bytes()
            assert serial_blob, "telemetry blob missing"
            assert (
                hashlib.sha256(serial_blob).hexdigest()
                == hashlib.sha256(pooled_blob).hexdigest()
            )

    def test_store_reads_back_each_replicate_s_telemetry(self, tmp_path):
        """The blob beside the artifact is the one copy (``status`` reads it)."""
        store = self._sweep(tmp_path, "indexed", jobs=1)
        for seed in (0, 1):
            blob = store.telemetry("fig9", "smoke", seed)
            assert blob["cells"] >= 1
            assert any(
                key.startswith("mpil_requests_total") for key in blob["final"]
            )
        assert store.telemetry("fig9", "smoke", 99) == {}


class TestLintRegression:
    """Telemetry modules honour the determinism contract (satellite 6)."""

    def test_repo_config_keeps_telemetry_clean(self):
        assert lint(REPO_ROOT, ["src/repro/telemetry"]) == []

    def test_only_progress_needs_the_wall_clock_allowance(self):
        telemetry = REPO_ROOT / "src" / "repro" / "telemetry"
        flagged = set()
        for path in sorted(telemetry.rglob("*.py")):
            rel_path = path.relative_to(REPO_ROOT).as_posix()
            context = FileContext(rel_path, path.read_text(encoding="utf-8"))
            if list(RULES["DET003"](context)):
                flagged.add(rel_path)
        assert flagged == {"src/repro/telemetry/progress.py"}


class TestProgressRendering:
    def test_format_rate(self):
        assert format_rate(532.4) == "532"
        assert format_rate(12_400) == "12.4k"
        assert format_rate(3_100_000) == "3.1M"

    def test_meter_counts_and_label(self):
        meter = ProgressMeter(total_tasks=4)
        meter.task_finished(100)
        meter.task_finished(0)
        line = meter.line(label="fig9 seed=0")
        assert line.startswith("[2/4] fig9 seed=0 done=2 ")
        assert line.endswith(" events/s")

    def test_service_window_line(self):
        line = service_window_line(
            "outage_severity=0.5", "MSPastry", 3, arrivals=64, success_rate=92.5,
            p99=0.31, in_flight=5,
        )
        assert line.startswith("window   3  outage_severity=0.5  MSPastry ")
        assert "arrivals=64" in line and "ok=92.5%" in line and "in-flight=5" in line


class TestCliTelemetry:
    def test_trace_command_prints_parent_linked_tree(self, tmp_path, capsys):
        out = tmp_path / "spans.jsonl"
        code = main([
            "trace", "fig9", "--scale", "smoke", "--seed", "1",
            "--out", str(out),
        ])
        assert code == 0
        captured = capsys.readouterr()
        assert "trace 000000:insert" in captured.out
        spans = read_jsonl(out)
        assert spans
        by_id = {span.span_id for span in spans}
        for span in spans:
            if span.parent_id is not None:
                assert span.parent_id in by_id

    def test_trace_unknown_kind_lists_recorded_kinds(self, capsys):
        code = main([
            "trace", "fig9", "--scale", "smoke", "--seed", "1",
            "--kind", "nope",
        ])
        assert code == 2
        assert "recorded kinds: insert" in capsys.readouterr().err

    def test_run_trace_exports_jsonl(self, tmp_path, capsys):
        out = tmp_path / "run.jsonl"
        code = main([
            "run", "fig9", "--scale", "smoke", "--seed", "1",
            "--trace", str(out),
        ])
        assert code == 0
        assert read_jsonl(out)

    def test_status_shows_metrics_lines(self, tmp_path, capsys):
        store_root = tmp_path / "results"
        spec = SweepSpec(("fig9",), seeds=(0,), scale="smoke")
        report = run_sweep(spec, ResultStore(store_root), jobs=1)
        assert not report.failures
        code = main(["status", "fig9", "--out", str(store_root)])
        assert code == 0
        captured = capsys.readouterr().out
        assert "metrics:" in captured
        assert "mpil_" in captured


class TestApiTelemetry:
    def test_telemetry_matches_untraced_run(self):
        traced = api.telemetry("fig9", scale="smoke", seed=1)
        assert traced.result == api.run("fig9", scale="smoke", seed=1)
        assert len(traced.spans) > 0
        assert traced.metrics  # final registry snapshot rides along

    def test_rejects_unknown_experiment(self):
        with pytest.raises(ExperimentError):
            api.telemetry("nope")
