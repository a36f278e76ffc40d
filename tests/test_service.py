"""Tests for the sustained-traffic service mode (repro.service)."""

from __future__ import annotations

import numpy as np
import pytest

from repro import api
from repro.errors import ExperimentError
from repro.experiments.base import p50, p95, p99, percentile, t_critical_95
from repro.experiments.perturbed import build_testbed
from repro.perturbation.flapping import FlappingConfig, FlappingSchedule
from repro.service.arrivals import fixed_arrivals, generate_arrivals, poisson_arrivals
from repro.service.driver import (
    SERVICE_COLUMNS,
    QueryRecord,
    ServiceConfig,
    run_service,
    service_rows,
)
from repro.service.windows import (
    SLOPolicy,
    num_windows,
    peak_in_flight,
    summarize_windows,
    window_of,
)
from repro.sim.availability import AlwaysOnline
from repro.sim.rng import derive_rng


class TestPercentileHelper:
    """The windowed-percentile primitive (issue satellite: coverage for
    empty windows, single samples, and interpolation determinism)."""

    def test_empty_window_returns_zero_sentinel(self):
        assert percentile([], 99.0) == 0.0
        assert p50([]) == p95([]) == p99([]) == 0.0

    def test_single_sample_is_every_percentile(self):
        for q in (0.0, 50.0, 95.0, 99.0, 100.0):
            assert percentile([7.25], q) == 7.25

    def test_linear_interpolation_matches_numpy_definition(self):
        values = [1.0, 2.0, 3.0, 4.0]
        assert p50(values) == pytest.approx(2.5)
        assert percentile(values, 25.0) == pytest.approx(1.75)
        assert percentile([0.0, 10.0], 95.0) == pytest.approx(9.5)
        assert percentile(values, 0.0) == 1.0
        assert percentile(values, 100.0) == 4.0

    def test_interpolation_is_order_independent(self):
        shuffled = [3.0, 1.0, 4.0, 2.0, 5.0]
        assert p95(shuffled) == p95(sorted(shuffled)) == p95(sorted(shuffled, reverse=True))

    def test_deterministic_across_repeated_calls(self):
        rng = derive_rng(0, "percentile-samples")
        values = [rng.random() for _ in range(97)]
        first = [percentile(values, q) for q in (50.0, 95.0, 99.0)]
        second = [percentile(values, q) for q in (50.0, 95.0, 99.0)]
        assert first == second

    def test_out_of_range_q_rejected(self):
        with pytest.raises(ExperimentError, match="percentile"):
            percentile([1.0], 101.0)
        with pytest.raises(ExperimentError, match="percentile"):
            percentile([1.0], -0.5)


class TestStudentTCI:
    """ci95 now uses the Student-t critical value (issue satellite)."""

    def test_known_critical_values(self):
        assert t_critical_95(1) == pytest.approx(12.706, abs=1e-3)
        assert t_critical_95(4) == pytest.approx(2.776, abs=1e-3)
        assert t_critical_95(9) == pytest.approx(2.262, abs=1e-3)

    def test_converges_to_normal_for_large_dof(self):
        assert t_critical_95(10_000) == pytest.approx(1.96, abs=1e-2)

    def test_the_quantile_is_scipys(self):
        """scipy is the oracle: ``t.ppf(0.975, dof)`` over dof 1-1000."""
        stats = pytest.importorskip("scipy.stats")
        dofs = np.arange(1, 1001)
        ours = np.array([t_critical_95(int(dof)) for dof in dofs])
        np.testing.assert_allclose(ours, stats.t.ppf(0.975, dofs), rtol=1e-12, atol=0)

    def test_ci95_uses_t_not_normal(self):
        from repro.experiments.base import ci95, stdev

        values = [1.0, 2.0, 3.0, 4.0, 5.0]
        expected = t_critical_95(4) * stdev(values) / (5 ** 0.5)
        assert ci95(values) == pytest.approx(expected)
        assert ci95(values) > 1.96 * stdev(values) / (5 ** 0.5)

    def test_ci95_degenerate_inputs(self):
        from repro.experiments.base import ci95

        assert ci95([]) == 0.0
        assert ci95([3.0]) == 0.0


class TestArrivals:
    def test_fixed_arrivals_evenly_spaced(self):
        assert fixed_arrivals(1.0, 3.0) == [1.0, 2.0]
        assert fixed_arrivals(2.0, 2.0) == [0.5, 1.0, 1.5]

    def test_poisson_arrivals_deterministic_per_stream(self):
        first = poisson_arrivals(derive_rng(7, "arr"), 2.0, 100.0)
        second = poisson_arrivals(derive_rng(7, "arr"), 2.0, 100.0)
        assert first == second
        assert first != poisson_arrivals(derive_rng(8, "arr"), 2.0, 100.0)

    def test_poisson_arrivals_within_duration_and_ordered(self):
        times = poisson_arrivals(derive_rng(0, "arr"), 5.0, 50.0)
        assert all(0.0 < t < 50.0 for t in times)
        assert times == sorted(times)
        # mean count is rate * duration = 250; loose 4-sigma band
        assert 180 < len(times) < 320

    def test_generate_dispatch_and_unknown_kind(self):
        assert generate_arrivals("fixed", None, 1.0, 3.0) == [1.0, 2.0]
        assert generate_arrivals("poisson", derive_rng(0, "a"), 1.0, 10.0)
        with pytest.raises(ExperimentError, match="unknown arrival"):
            generate_arrivals("burst", None, 1.0, 3.0)

    def test_invalid_rate_and_duration_rejected(self):
        with pytest.raises(ExperimentError, match="rate"):
            fixed_arrivals(0.0, 10.0)
        with pytest.raises(ExperimentError, match="duration"):
            poisson_arrivals(derive_rng(0, "a"), 1.0, -1.0)

    @pytest.mark.parametrize("bad", [float("inf"), float("nan")])
    def test_non_finite_rate_and_duration_rejected(self, bad):
        # an infinite rate draws 0.0 gaps for ever; reject, do not loop
        for kind in ("poisson", "fixed"):
            with pytest.raises(ExperimentError, match="rate must be finite"):
                generate_arrivals(kind, derive_rng(0, "a"), bad, 10.0)
            with pytest.raises(ExperimentError, match="duration must be finite"):
                generate_arrivals(kind, derive_rng(0, "a"), 1.0, bad)


class TestWindows:
    def test_num_windows_and_window_of(self):
        assert num_windows(240.0, 60.0) == 4
        assert num_windows(250.0, 60.0) == 5  # trailing partial window
        assert window_of(0.0, 240.0, 60.0) == 0
        assert window_of(59.999, 240.0, 60.0) == 0
        assert window_of(60.0, 240.0, 60.0) == 1
        # arrivals at/after the nominal end clamp into the last window
        assert window_of(239.999, 240.0, 60.0) == 3
        with pytest.raises(ExperimentError, match="window"):
            num_windows(240.0, 0.0)

    def test_peak_in_flight_counts_overlap(self):
        # two requests overlap in window 0; one spans into window 1
        intervals = [(0.0, 5.0), (1.0, 12.0), (11.0, 13.0)]
        assert peak_in_flight(intervals, 20.0, 10.0) == [2, 2]

    def test_peak_in_flight_carries_depth_across_silent_windows(self):
        # one long request spans window 1 without any endpoint inside it
        intervals = [(5.0, 25.0)]
        assert peak_in_flight(intervals, 30.0, 10.0) == [1, 1, 1]

    def test_peak_in_flight_end_frees_before_simultaneous_start(self):
        intervals = [(0.0, 5.0), (5.0, 9.0)]
        assert peak_in_flight(intervals, 10.0, 10.0) == [1]

    def test_peak_in_flight_rejects_inverted_interval(self):
        with pytest.raises(ExperimentError, match="ends before"):
            peak_in_flight([(5.0, 1.0)], 10.0, 10.0)

    def _records(self):
        return [
            QueryRecord(arrival=1.0, kind="lookup", completion=2.0, latency=1.0, success=True),
            QueryRecord(arrival=1.5, kind="lookup", completion=5.0, latency=3.5, success=True),
            QueryRecord(arrival=3.0, kind="insert", completion=3.0, success=True),
            QueryRecord(arrival=11.0, kind="lookup", completion=13.0, success=False),
        ]

    def test_summarize_windows_totals_and_alignment(self):
        windows = summarize_windows(self._records(), 30.0, 10.0, SLOPolicy())
        assert [w.index for w in windows] == [0, 1, 2]  # idle window 2 still present
        first, second, third = windows
        assert (first.arrivals, first.lookups, first.successes) == (3, 2, 2)
        assert first.p50 == pytest.approx(2.25)
        assert first.success_rate == 1.0
        assert first.throughput == pytest.approx(2 / 10.0)
        assert first.peak_in_flight == 2
        # the failed lookup: no latency sample, success rate 0, zeroed tail
        assert (second.lookups, second.successes) == (1, 0)
        assert second.success_rate == 0.0
        assert second.p99 == 0.0
        assert not second.slo_ok  # violates through the availability floor
        # idle window: vacuously within SLO
        assert third.arrivals == 0 and third.success_rate == 1.0 and third.slo_ok

    def test_slo_policy_latency_bound(self):
        slo = SLOPolicy(latency_p99=0.5, availability=0.5)
        assert slo.ok(success_rate=1.0, latency_p99=0.4, lookups=10)
        assert not slo.ok(success_rate=1.0, latency_p99=0.6, lookups=10)
        assert not slo.ok(success_rate=0.4, latency_p99=0.1, lookups=10)
        assert slo.ok(success_rate=0.0, latency_p99=0.0, lookups=0)

    def test_slo_policy_validation(self):
        with pytest.raises(ExperimentError, match="latency"):
            SLOPolicy(latency_p99=0.0)
        with pytest.raises(ExperimentError, match="availability"):
            SLOPolicy(availability=1.5)


class TestServiceConfig:
    def test_defaults_valid(self):
        config = ServiceConfig()
        assert config.arrival == "poisson"

    @pytest.mark.parametrize(
        "kwargs, match",
        [
            ({"duration": 0.0}, "duration"),
            ({"rate": -1.0}, "rate"),
            ({"window": 0.0}, "window"),
            ({"window": 700.0, "duration": 600.0}, "window"),
            ({"arrival": "burst"}, "arrival"),
            ({"insert_fraction": 1.0}, "insert_fraction"),
            ({"rate": float("inf")}, "rate must be finite"),
            ({"duration": float("inf")}, "duration must be finite"),
            ({"window": float("inf"), "duration": float("inf")}, "must be finite"),
            ({"window": float("nan")}, "window must be finite"),
        ],
    )
    def test_validation(self, kwargs, match):
        with pytest.raises(ExperimentError, match=match):
            ServiceConfig(**kwargs)


class TestNonFiniteTrafficKnobs:
    """``inf`` parses as a float on the command line and in TOML; every
    front door answers it with one error instead of generating arrivals
    until memory runs out."""

    @pytest.mark.parametrize("knob", ["rate", "duration", "window"])
    def test_api_serve(self, knob):
        # refused by the rung the override makes, before any traffic
        with pytest.raises(ExperimentError, match=f"service_{knob} must be a finite number"):
            api.serve("svc-steady", scale="smoke", **{knob: float("inf")})

    @pytest.mark.parametrize("knob", ["rate", "duration", "window"])
    def test_cli_serve_exits_2_with_one_line(self, knob, capsys):
        from repro.experiments.cli import main

        assert main(["serve", "svc-steady", "--scale", "smoke", f"--{knob}", "inf"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1
        assert f"service_{knob} must be a finite number" in captured.err

    @pytest.mark.parametrize("knob", ["rate", "duration", "window"])
    def test_compose_rejects_before_any_testbed_is_built(self, knob, tmp_path, monkeypatch):
        import repro.experiments.perturbed as perturbed_module

        def no_testbed(*args, **kwargs):
            raise AssertionError("validation must come before construction")

        # what ``perturbed.build_stage`` -- compose's build stage -- calls
        monkeypatch.setattr(perturbed_module, "build_testbed", no_testbed)
        spec_file = tmp_path / "hostile.toml"
        spec_file.write_text(
            "[experiment]\n"
            'id = "hostile-service"\n'
            'title = "inf is a valid TOML float"\n'
            "[sweep]\n"
            'column = "probability"\n'
            "values = [0.5]\n"
            "[[scenario]]\n"
            'family = "flapping"\n'
            'period = "30:30"\n'
            'probability = "$probability"\n'
            "[service]\n"
            f"{knob} = inf\n"
        )
        with pytest.raises(ExperimentError, match=f"{knob} must be finite"):
            api.compose(spec_file)


@pytest.fixture(scope="module")
def testbed():
    return build_testbed(60, 20, seed=0)


def _config(**kwargs):
    defaults = dict(
        duration=120.0, rate=1.0, window=30.0, arrival="poisson", insert_fraction=0.2
    )
    defaults.update(kwargs)
    return ServiceConfig(**defaults)


class TestRunService:
    def test_unknown_variant_rejected(self, testbed):
        with pytest.raises(ExperimentError, match="variant"):
            run_service(testbed, "chord", AlwaysOnline(), _config())

    def test_empty_stage1_pool_is_a_one_line_error(self):
        """``svc-*`` at ``perturbed_inserts = 0`` used to die with
        ``ZeroDivisionError`` on the first lookup's ``pool[draw % 0]``."""
        scale = api.get_scale("smoke").evolve(name="svc-empty", perturbed_inserts=0)
        with pytest.raises(ExperimentError, match="perturbed_inserts") as info:
            api.serve("svc-steady", scale=scale)
        assert "\n" not in str(info.value)

    @pytest.mark.parametrize("variant", ["pastry", "pastry-rr", "mpil-ds", "mpil-nods"])
    def test_same_seed_runs_are_identical(self, testbed, variant):
        first = run_service(testbed, variant, AlwaysOnline(), _config(), seed=3)
        second = run_service(testbed, variant, AlwaysOnline(), _config(), seed=3)
        assert first.records == second.records
        assert first.windows == second.windows

    def test_arrival_plan_is_variant_independent(self, testbed):
        reports = {
            variant: run_service(testbed, variant, AlwaysOnline(), _config(), seed=5)
            for variant in ("pastry", "mpil-ds")
        }
        for a, b in zip(reports["pastry"].records, reports["mpil-ds"].records):
            assert a.arrival == b.arrival
            assert a.kind == b.kind

    def test_open_loop_queries_overlap_in_flight(self, testbed):
        # drive hard enough that requests must overlap: open-loop arrivals
        # do not wait for completions
        config = _config(rate=20.0, duration=60.0, window=30.0, insert_fraction=0.0)
        report = run_service(testbed, "mpil-ds", AlwaysOnline(), config, seed=1)
        assert report.peak_in_flight > 1

    def test_all_records_resolved_and_windowed(self, testbed):
        report = run_service(testbed, "mpil-ds", AlwaysOnline(), _config(), seed=2)
        assert report.records
        for record in report.records:
            assert record.completion is not None  # engine drained to quiescence
        assert len(report.windows) == 4
        assert sum(w.arrivals for w in report.windows) == len(report.records)

    def test_successful_lookups_under_no_perturbation(self, testbed):
        report = run_service(testbed, "mpil-ds", AlwaysOnline(), _config(), seed=2)
        assert report.total_lookups > 0
        assert report.total_successes >= report.total_lookups  # inserts succeed too
        lookups = [r for r in report.records if r.kind == "lookup"]
        assert all(r.latency is not None and r.latency > 0 for r in lookups if r.success)

    @pytest.mark.parametrize("variant", ["pastry", "mpil-ds"])
    def test_service_inserts_are_rolled_back(self, testbed, variant):
        directory = (
            testbed.pastry.directory if variant == "pastry" else testbed.mpil.directory
        )
        before = len(directory)
        config = _config(insert_fraction=0.5)
        report = run_service(testbed, variant, AlwaysOnline(), config, seed=9)
        assert any(record.kind == "insert" for record in report.records)
        assert len(directory) == before

    @pytest.mark.parametrize("variant", ["pastry", "mpil-ds", "mpil-nods"])
    def test_exception_mid_stream_leaves_testbed_reusable(self, testbed, variant):
        """Fault injection: the variants of one run share its testbed, so
        a run that dies mid-stream must hand it back exactly as a fresh one."""

        class Exploding:
            """Online until the stream is well under way, then raises."""

            def is_online(self, node, time):
                if time > 60.0:
                    raise RuntimeError("availability model blew up")
                return True

        config = _config(insert_fraction=0.5)
        expected = run_service(
            build_testbed(60, 20, seed=0), variant, AlwaysOnline(), config, seed=6
        )
        mpil = testbed.mpil
        directory = testbed.pastry.directory if variant == "pastry" else mpil.directory
        before = (len(directory), mpil.snapshot())
        with pytest.raises(RuntimeError, match="blew up"):
            run_service(testbed, variant, Exploding(), config, seed=6)
        assert (len(directory), mpil.snapshot()) == before
        after = run_service(testbed, variant, AlwaysOnline(), config, seed=6)
        assert after.records == expected.records
        assert after.windows == expected.windows

    def test_perturbation_degrades_success(self, testbed):
        flapping = FlappingSchedule(
            FlappingConfig(30, 30, 1.0), testbed.pastry.n, seed=1, always_online={0}
        )
        calm = run_service(testbed, "mpil-ds", AlwaysOnline(), _config(), seed=4)
        stormy = run_service(testbed, "mpil-ds", flapping, _config(), seed=4)
        assert stormy.total_successes < calm.total_successes
        assert stormy.violation_windows >= calm.violation_windows


class TestServiceRows:
    # service_rows wraps the schedule in rejoin/view models for Pastry,
    # which need a node-count-bearing perturbation process
    def _schedule(self, testbed):
        return FlappingSchedule(
            FlappingConfig(30, 30, 0.2), testbed.pastry.n, seed=7, always_online={0}
        )

    def test_row_shape_matches_columns(self, testbed):
        rows = service_rows(
            testbed,
            self._schedule(testbed),
            _config(),
            seed=0,
            rejoin_seed=0,
            variants=("pastry", "mpil-ds"),
        )
        assert rows
        assert all(len(row) == len(SERVICE_COLUMNS) for row in rows)
        # 2 variants x 4 windows
        assert len(rows) == 8

    def test_rows_deterministic(self, testbed):
        kwargs = dict(seed=1, rejoin_seed=2, variants=("pastry", "mpil-nods"))
        first = service_rows(testbed, self._schedule(testbed), _config(), **kwargs)
        second = service_rows(testbed, self._schedule(testbed), _config(), **kwargs)
        assert first == second
