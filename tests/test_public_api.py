"""API-surface stability tests: the documented public names exist, are
importable from the documented locations, and the README quickstart works
verbatim."""

from __future__ import annotations

import importlib
import os
import pathlib
import subprocess
import sys

import pytest

SRC = str(pathlib.Path(__file__).resolve().parent.parent / "src")

TOP_LEVEL_EXPORTS = [
    "FlappingConfig",
    "FlappingSchedule",
    "Identifier",
    "IdSpace",
    "InsertResult",
    "LookupResult",
    "MPILConfig",
    "MPILNetwork",
    "OverlayGraph",
    "PastryConfig",
    "PastryNetwork",
    "ProbedViewOracle",
    "TimedMPILNetwork",
    "TransitStubUnderlay",
    "complete_graph",
    "fixed_degree_random_graph",
    "power_law_graph",
    "random_regular_graph",
]

SUBPACKAGE_EXPORTS = {
    "repro.core": ["MPILNetwork", "NeighborMetricTable", "common_digits"],
    "repro.overlay": ["OverlayGraph", "power_law_graph", "TransitStubUnderlay"],
    "repro.pastry": ["PastryNetwork", "make_mpil_over_pastry", "pastry_neighbor_overlay"],
    "repro.perturbation": ["ChurnConfig", "ChurnSchedule", "FlappingSchedule"],
    "repro.analysis": ["expected_local_maxima_regular", "expected_replicas_complete"],
    "repro.baselines": ["flood_lookup", "random_walk_lookup"],
    "repro.experiments": ["run_experiment", "all_experiment_ids", "SCALES"],
    "repro.sim": ["EventScheduler", "derive_rng", "TrafficCounters"],
    "repro.util": ["render_table"],
}


def test_top_level_exports_exist():
    repro = importlib.import_module("repro")
    for name in TOP_LEVEL_EXPORTS:
        assert hasattr(repro, name), name
        assert name in repro.__all__


#: one lookup record (``repro.core.results.LookupResult``) replaced these
RETIRED_RECORDS = {
    "repro": ["TimedLookupResult"],
    "repro.core": ["TimedLookupResult"],
    "repro.pastry": ["PastryLookupOutcome"],
    "repro.baselines": ["BaselineLookupResult"],
}


@pytest.mark.parametrize("module_name", sorted(RETIRED_RECORDS))
def test_retired_lookup_records_are_not_exported(module_name):
    module = importlib.import_module(module_name)
    for name in RETIRED_RECORDS[module_name]:
        assert name not in module.__all__
        assert not hasattr(module, name), f"{module_name}.{name}"


def test_version_is_one_value():
    """What an installed distribution reports and what the library reports."""
    import repro
    from repro.util.toml import tomllib

    pyproject = pathlib.Path(SRC).parent / "pyproject.toml"
    declared = tomllib.loads(pyproject.read_text())["project"]["version"]
    assert repro.__version__ == declared


def test_the_toml_reader_is_the_stdlib_one_from_3_11_and_tomli_below():
    """Python 3.10 has no stdlib ``tomllib``: there the one TOML reader
    resolves through the declared ``tomli`` backport."""
    from repro.util.toml import tomllib

    if sys.version_info >= (3, 11):
        import tomllib as expected
    else:
        import tomli as expected
    assert tomllib is expected


@pytest.mark.parametrize(
    "package", ["service", "experiments", "core", "pastry", "telemetry", "api"]
)
def test_package_imports_first_in_a_fresh_interpreter(package):
    """No package may depend on another having been imported before it
    (``repro.service`` used to die on a cycle through ``experiments``)."""
    proc = subprocess.run(
        [sys.executable, "-c", f"import repro.{package}"],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=SRC),
    )
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("module_name", sorted(SUBPACKAGE_EXPORTS))
def test_subpackage_exports_exist(module_name):
    module = importlib.import_module(module_name)
    for name in SUBPACKAGE_EXPORTS[module_name]:
        assert hasattr(module, name), f"{module_name}.{name}"


def test_readme_quickstart_runs_verbatim():
    from repro import MPILConfig, MPILNetwork, fixed_degree_random_graph
    from repro.sim.rng import derive_rng

    overlay = fixed_degree_random_graph(500, degree=20, seed=7)
    net = MPILNetwork(
        overlay, config=MPILConfig(max_flows=10, per_flow_replicas=5), seed=7
    )
    rng = derive_rng(7, "objects")
    obj = net.random_object_id(rng)
    insert = net.insert(origin=0, object_id=obj)
    lookup = net.lookup(origin=250, object_id=obj)
    assert lookup.success
    assert insert.replica_count >= 1


def test_module_docstrings_present():
    """Every public module documents itself (release-quality hygiene)."""
    for module_name in [
        "repro",
        "repro.core",
        "repro.core.network",
        "repro.core.timed",
        "repro.core.routing",
        "repro.pastry.protocol",
        "repro.pastry.views",
        "repro.pastry.rejoin",
        "repro.perturbation.flapping",
        "repro.perturbation.churn",
        "repro.analysis.local_maxima",
        "repro.baselines.flooding",
        "repro.baselines.walks",
        "repro.experiments.perturbed",
    ]:
        module = importlib.import_module(module_name)
        assert module.__doc__ and len(module.__doc__.strip()) > 40, module_name


def test_api_sweep_resume_and_status(tmp_path):
    """The facade exposes the resumable-sweep surface end to end."""
    from repro import api

    report = api.sweep("fig7", seeds="0..1", scale="smoke", jobs=1,
                       store=tmp_path)
    assert len(report.outcomes) == 2

    resumed = api.sweep("fig7", seeds="0..2", scale="smoke", jobs=1,
                        store=tmp_path, resume=True)
    assert [outcome.seed for outcome in resumed.outcomes] == [2]
    assert sorted(entry.seed for entry in resumed.skipped) == [0, 1]

    rows = api.sweep_status(tmp_path, experiment="fig7")
    assert [(row.seed, row.state) for row in rows] == [
        (0, "done"), (1, "done"), (2, "done"),
    ]
    assert api.sweep_status(tmp_path, experiment="fig7", scale="paper") == []

    # each replicate is recorded once, in its cell's manifest
    from repro.errors import ExperimentError
    from repro.experiments.store import ResultStore

    manifest = ResultStore(tmp_path).manifest("fig7", "smoke")
    assert sorted(manifest["runs"]) == ["seed_0", "seed_1", "seed_2"]

    # a store no sweep has used has no ledger, and asking does not make one
    with pytest.raises(ExperimentError, match="no sweep ledger"):
        api.sweep_status(tmp_path / "absent")
    assert not (tmp_path / "absent").exists()


def test_api_serve_facade():
    """api.serve mirrors the CLI serve command, overrides included."""
    from repro import api
    from repro.errors import ExperimentError

    result = api.serve("svc-steady", scale="smoke", seed=1,
                       rate=0.5, duration=60.0, window=30.0)
    assert "latency_p99" in result.columns
    assert "_p99" in result.stat_suffixes
    # two windows per run at duration 60 / window 30
    windows = set(result.column("window"))
    assert windows == {0, 1}

    with pytest.raises(ExperimentError, match="not a service-mode"):
        api.serve("fig7", scale="smoke")
    assert "serve" in api.__all__
