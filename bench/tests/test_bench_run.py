"""Every workload at its ``--quick`` size, traced and untraced, and the
output schema against ``BENCHMARK.json``."""

import json
import re

import pytest

from bench import layers
from bench import run as bench_run

CONTRACT = bench_run.CONTRACT
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


@pytest.fixture(scope="module", params=bench_run.WORKLOAD_NAMES)
def records(request):
    """One untraced and one traced quick run of the workload."""
    name = request.param
    untraced = bench_run.measure(name, 0, 0.2, trace=False, quick=True, do_pin=False)
    traced = bench_run.measure(name, 0, 0.2, trace=True, quick=True, do_pin=False)
    return untraced, traced


def test_benchmark_json_meets_the_contract():
    assert set(CONTRACT) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }  # fmt: skip
    assert CONTRACT["command"] == ["python3", "bench/run.py"]
    assert CONTRACT["paths"] == ["bench"]
    assert isinstance(CONTRACT["run_seconds"], int) and 1 <= CONTRACT["run_seconds"] <= 60
    assert 2 <= len(CONTRACT["workloads"]) <= 8
    assert 1 <= len(CONTRACT["end_to_end"]) <= 16
    assert 1 <= len(CONTRACT["per_layer"]) <= 128
    names = [entry["name"] for key in ("workloads", "end_to_end", "per_layer")
             for entry in CONTRACT[key]]  # fmt: skip
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    for workload in CONTRACT["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    for metric in CONTRACT["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in CONTRACT["end_to_end"] + CONTRACT["per_layer"]:
        assert UNIT.match(metric["unit"]) and metric["better"] in ("lower", "higher")
    setup = next(m for m in CONTRACT["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in CONTRACT["end_to_end"])
    runs = 4 + 22 * len(CONTRACT["workloads"])
    assert runs * (CONTRACT["run_seconds"] + 20) < 3420


def test_benchmark_json_repeats_the_per_layer_catalogue():
    assert [
        (m["name"], m["unit"], m["better"]) for m in CONTRACT["per_layer"]
    ] == list(layers.PER_LAYER)


def test_untraced_run_prints_every_end_to_end_metric_with_its_unit(records):
    untraced, _traced = records
    line = json.loads(bench_run.driver_line(untraced))
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0 and line["attempted"] >= 1
    assert {name: m["unit"] for name, m in line["metrics"].items()} == {
        m["name"]: m["unit"] for m in CONTRACT["end_to_end"]
    }
    assert all(m["value"] > 0 for m in line["metrics"].values())
    text = bench_run.render(untraced)
    for metric in CONTRACT["end_to_end"]:
        assert re.search(rf"^\s+{re.escape(metric['name'])}\s+\S+ {re.escape(metric['unit'])}\b",
                         text, re.M)  # fmt: skip
    assert untraced["named"]["failure_rate"]["value"] == 0
    assert len(untraced["setup"]["wall_s"]) == bench_run.SETUP_REPEATS
    assert len(untraced["passes"]["raw_wall_s"]) >= bench_run.MIN_PASSES
    assert {"nproc", "loadavg_1min_at_start", "git_revision", "python", "numpy", "networkx"} <= set(
        untraced["provenance"]
    )


def test_traced_run_prints_every_per_layer_metric_with_its_unit(records):
    untraced, traced = records
    line = json.loads(bench_run.driver_line(traced))
    assert line["correct"] is True
    assert {name: m["unit"] for name, m in line["metrics"].items()} == {
        m["name"]: m["unit"] for m in CONTRACT["per_layer"]
    }
    assert traced["layers_missing"] == []
    assert all(m["value"] >= 0 for m in line["metrics"].values())
    # traced and untraced runs produce the same bytes
    assert traced["digests"] == untraced["digests"]
    per_layer = traced["per_layer"]
    assert per_layer["experiments.cli.startup_ms"]["value"] > 0
    assert per_layer["bench.trace_overhead_ratio"]["value"] > 0


def test_each_workload_exercises_its_own_layers_and_bypasses_the_others(records):
    _untraced, traced = records
    value = {name: entry["value"] for name, entry in traced["per_layer"].items()}
    busy = {
        "static": ["core.network.self_s", "core.routing.self_s", "overlay.random_build_s"],
        "perturbed": ["pastry.views.self_s", "pastry.rejoin.self_s",
                      "perturbation.flapping.self_s", "core.timed.lookup_at_p50_ms"],
        "serve-mpil": ["core.timed.self_s", "sim.engine.self_s", "service.driver.self_s",
                       "sim.engine.post_pop_ns", "perturbation.timeline.online_mask_us"],
        "sweep-smoke": ["experiments.runtime.self_s", "experiments.ledger.transition_ms",
                        "experiments.store.save_ms", "experiments.runtime.inmemory_tasks_per_s"],
    }  # fmt: skip
    idle = {
        "static": ["pastry.protocol.self_s", "sim.engine.self_s", "experiments.ledger.self_s"],
        "perturbed": ["service.driver.self_s", "experiments.store.self_s"],
        "serve-mpil": ["pastry.views.self_s", "pastry.rejoin.self_s", "experiments.runtime.self_s"],
        "sweep-smoke": ["core.network.self_s", "pastry.protocol.self_s", "sim.engine.self_s"],
    }
    workload = traced["workload"]
    assert all(value[name] > 0 for name in busy[workload]), workload
    assert all(value[name] == 0 for name in idle[workload]), workload


def test_a_missing_layer_reads_minus_one_on_the_driver_line():
    record = {
        "trace": 1, "correct": True, "attempted": 1, "failed": 0,
        "per_layer": {"sim.rng.self_s": {"value": None, "unit": "s"}},
    }  # fmt: skip
    line = json.loads(bench_run.driver_line(record))
    assert line["metrics"]["sim.rng.self_s"] == {"value": -1.0, "unit": "s"}


def test_the_gate_fails_a_pass_whose_digest_or_event_count_moves():
    from bench.workloads import PassResult

    gate = bench_run.Gate()
    gate.admit("first", PassResult(attempted=1, events=10, digests={"fig9": "a"}))
    gate.admit("same", PassResult(attempted=1, events=10, digests={"fig9": "a"}))
    assert gate.failed == 0
    gate.admit("other bytes", PassResult(attempted=1, events=10, digests={"fig9": "b"}))
    gate.admit("other events", PassResult(attempted=1, events=11, digests={"fig9": "a"}))
    assert gate.failed == 2 and gate.attempted == 4
    assert len(gate.errors) == 2
