"""Cross-experiment determinism regression: every registered experiment,
run twice with the same seed at smoke scale, must produce byte-identical
serialized output.

This pins the scenario-engine ``ext_*`` experiments (and any future
registration) to the same reproducibility bar as the paper figures: all
randomness must derive from the ``(experiment, scale, seed)`` triple via
named streams — no hidden global RNG, no dict-ordering or wall-clock
leakage into results.  Byte-level comparison of the ``to_dict`` JSON is
exactly what the sweep runner's jobs-parity guarantee rests on.

The same bytes are also the repository's specification (ROADMAP aim 2), so
one of the two runs is compared with ``tests/goldens/smoke_seed1.json``:
the sha256 of each experiment's canonical JSON at ``smoke`` seed 1.  The
goldens carry the python/numpy versions they were taken under (RNG streams,
and with them the overlay generators' graphs, are CPython's ``random``; the
array code is numpy's); elsewhere the comparison is skipped with the
reason.  The fingerprint still names networkx, which no longer builds any
graph, only because these goldens and the frozen ``bench/expected.json``
carry that field.  After an *intended* change of results, regenerate the
file as :func:`_golden_document` describes.

Beside the bytes, ``tests/goldens/work_counts_smoke_seed0.json`` pins how
much *work* five experiments do for them — forwarding decisions, derived
RNG streams, probed-view beliefs, Pastry-layer liveness queries, events —
because a hosted runner can gate on a count where a time means nothing.
A change of cost per call leaves the file alone; a change that lowers a
count re-pins it on purpose (:func:`_work_counts_document`).

``tests/goldens/span_streams_smoke_seed1.json`` pins the third thing a run
leaves behind: the exported span stream of one experiment per driver
(synchronous MPIL, timed MPIL beside MSPastry, the composed-timeline
Pastry path, the service driver).  ``MPILRequest.step`` is every MPIL
span's only emission site, so a refactor of the per-copy path that keeps
the artifact bytes can still reorder, drop or re-parent spans; this file
is what notices (:func:`_span_streams_document`).

``tests/goldens/telemetry_smoke_seed1.json`` holds the fourth: every
experiment's telemetry blob (``seed_1.telemetry.json``, the run registry's
per-cell snapshots) at ``smoke`` seed 1, so a change to what the drivers
count or when a series appears shows up as a diff of named series
(:func:`_telemetry_document`).

Everything above runs under whatever ``PYTHONHASHSEED`` the test process
got.  :func:`test_nothing_written_depends_on_string_hashing` is the one
place the variable is *set*: it drives the CLI in subprocesses under two
hash seeds and compares what they write (CI's "Hash-seed determinism" step
is a call of it).
"""

from __future__ import annotations

import functools
import hashlib
import importlib.metadata
import io
import json
import os
import pathlib
import platform
import subprocess
import sys

import pytest

import repro.core.protocol
import repro.experiments.base
import repro.sim.rng
from repro import api
from repro.experiments import all_experiment_ids, run_experiment
from repro.experiments.store import ResultStore, aggregate_results
from repro.pastry.rejoin import IntervalRejoinAvailability, RejoinAdjustedAvailability
from repro.pastry.views import ProbedViewOracle
from repro.sim.engine import events_processed_total
from repro.telemetry.sinks import write_jsonl
from repro.util.cache import clear_all_caches

_GOLDEN_DIR = pathlib.Path(__file__).parent / "goldens"
GOLDENS = json.loads((_GOLDEN_DIR / "smoke_seed1.json").read_text())
WORK_COUNTS = json.loads((_GOLDEN_DIR / "work_counts_smoke_seed0.json").read_text())
SPAN_STREAMS = json.loads((_GOLDEN_DIR / "span_streams_smoke_seed1.json").read_text())
TELEMETRY = json.loads((_GOLDEN_DIR / "telemetry_smoke_seed1.json").read_text())


def _fingerprint() -> dict[str, str]:
    return {
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "networkx": importlib.metadata.version("networkx"),
    }


def _payload(experiment_id: str, seed: int) -> bytes:
    result = run_experiment(experiment_id, scale="smoke", seed=seed)
    return json.dumps(result.to_dict(), sort_keys=True).encode("utf-8")


def _golden_document() -> dict:
    """What ``tests/goldens/smoke_seed1.json`` holds; to regenerate it::

        PYTHONPATH=src:tests python -c "import json, test_determinism as t; \\
            print(json.dumps(t._golden_document(), indent=2, sort_keys=True))" \\
            > /tmp/goldens.json && mv /tmp/goldens.json tests/goldens/smoke_seed1.json
    """
    return {
        "fingerprint": _fingerprint(),
        "digests": {
            experiment_id: hashlib.sha256(_payload(experiment_id, seed=1)).hexdigest()
            for experiment_id in all_experiment_ids()
        },
    }


@pytest.mark.parametrize("experiment_id", all_experiment_ids())
def test_rerun_is_byte_identical(experiment_id):
    first = _payload(experiment_id, seed=1)
    assert first == _payload(experiment_id, seed=1)
    if GOLDENS["fingerprint"] != _fingerprint():
        pytest.skip(
            f"goldens were taken under {GOLDENS['fingerprint']}, "
            f"this is {_fingerprint()}"
        )
    assert hashlib.sha256(first).hexdigest() == GOLDENS["digests"][experiment_id]


_SWEEP_WITHOUT_NETWORKX = """
import hashlib, json, sys
sys.modules["networkx"] = None  # every import of networkx now raises
from repro import api
report = api.sweep(["fig9", "fig10", "tab3"], seeds=[1], scale="smoke", jobs=2, store=None)
assert not report.failures, report.failures
print(json.dumps({
    outcome.experiment_id: hashlib.sha256(
        json.dumps(outcome.result.to_dict(), sort_keys=True).encode("utf-8")
    ).hexdigest()
    for outcome in report.outcomes
}))
"""


def test_the_library_runs_without_networkx():
    """networkx is only the overlay generators' test oracle: with every
    import of it made to fail, in the sweep's parent and in the forked
    workers that inherit the block, the experiments that build random and
    power-law overlays run and write the golden bytes."""
    done = subprocess.run(
        [sys.executable, "-c", _SWEEP_WITHOUT_NETWORKX],
        env=dict(os.environ, PYTHONPATH=str(pathlib.Path(__file__).parent.parent / "src")),
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stderr
    digests = json.loads(done.stdout.splitlines()[-1])
    assert sorted(digests) == ["fig10", "fig9", "tab3"]
    if GOLDENS["fingerprint"] != _fingerprint():
        pytest.skip(f"goldens were taken under {GOLDENS['fingerprint']}")
    assert digests == {key: GOLDENS["digests"][key] for key in digests}


_SECTION_5_WITHOUT_SCIPY = """
import hashlib, json, sys
sys.modules["scipy"] = None  # every import of scipy now raises
from repro import api
digests = {
    experiment_id: hashlib.sha256(json.dumps(
        api.run(experiment_id, scale="smoke", seed=1).to_dict(), sort_keys=True
    ).encode("utf-8")).hexdigest()
    for experiment_id in ("fig7", "fig8")
}
report = api.sweep(["fig7", "fig9"], seeds=[1, 2, 3], scale="smoke", jobs=1, store=sys.argv[1])
assert not report.failures, report.failures
print(json.dumps(digests))
"""


def test_section_5_runs_without_scipy(tmp_path, monkeypatch):
    """scipy is only a test oracle for the library's statistics: with every
    import of it made to fail, Figures 7 and 8 run and give the golden
    bytes, and a durable sweep writes the aggregates that scipy's own
    Student-t quantile gives for the same replicates."""
    store_dir = tmp_path / "store"
    done = subprocess.run(
        [sys.executable, "-c", _SECTION_5_WITHOUT_SCIPY, str(store_dir)],
        env=dict(os.environ, PYTHONPATH=str(pathlib.Path(__file__).parent.parent / "src")),
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stderr
    stats = pytest.importorskip("scipy.stats")
    monkeypatch.setattr(
        repro.experiments.base, "t_critical_95", lambda dof: float(stats.t.ppf(0.975, dof))
    )
    store, oracle = ResultStore(store_dir), ResultStore(tmp_path / "oracle")
    for experiment_id in ("fig7", "fig9"):
        seeds = store.seeds(experiment_id, "smoke")
        assert seeds == [1, 2, 3]
        replicates = [store.load(experiment_id, "smoke", seed) for seed in seeds]
        ours = store.result_dir(experiment_id, "smoke")
        for theirs in oracle.write_aggregate(aggregate_results(replicates), seeds):
            assert (ours / theirs.name).read_bytes() == theirs.read_bytes()
    digests = json.loads(done.stdout.splitlines()[-1])
    assert sorted(digests) == ["fig7", "fig8"]
    if GOLDENS["fingerprint"] != _fingerprint():
        pytest.skip(f"goldens were taken under {GOLDENS['fingerprint']}")
    assert digests == {key: GOLDENS["digests"][key] for key in digests}


_SWEEP_WITHOUT_SQLITE = """
import hashlib, json, sys
sys.modules["sqlite3"] = None  # every import of sqlite3 now raises
from repro import api
from repro.experiments.cli import main
store, ids = sys.argv[1], ["fig9", "fig10", "tab3"]
report = api.sweep(ids, seeds=[1], scale="smoke", jobs=2, store=store)
assert not report.failures, report.failures
resumed = api.sweep(ids, seeds=[1], scale="smoke", jobs=2, store=store, resume=True)
assert not resumed.outcomes and len(resumed.skipped) == 3, resumed
assert main(["sweep", *ids, "--seeds", "1", "--scale", "smoke", "--out", store,
             "--resume"]) == 0
for experiment_id in ids:
    assert main(["status", experiment_id, "--out", store]) == 0
print(json.dumps({
    outcome.experiment_id: hashlib.sha256(
        json.dumps(outcome.result.to_dict(), sort_keys=True).encode("utf-8")
    ).hexdigest()
    for outcome in report.outcomes
}))
"""


def test_a_durable_sweep_runs_without_sqlite(tmp_path):
    """The task ledger is a journal, not a database: with every import of
    sqlite3 made to fail, a durable two-worker sweep, its ``--resume`` and
    ``status`` all succeed and the replicates carry the golden bytes."""
    done = subprocess.run(
        [sys.executable, "-c", _SWEEP_WITHOUT_SQLITE, str(tmp_path / "store")],
        env=dict(os.environ, PYTHONPATH=str(pathlib.Path(__file__).parent.parent / "src")),
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stderr
    digests = json.loads(done.stdout.splitlines()[-1])
    assert sorted(digests) == ["fig10", "fig9", "tab3"]
    if GOLDENS["fingerprint"] != _fingerprint():
        pytest.skip(f"goldens were taken under {GOLDENS['fingerprint']}")
    assert digests == {key: GOLDENS["digests"][key] for key in digests}


def test_goldens_cover_every_registered_experiment():
    assert sorted(GOLDENS["digests"]) == sorted(all_experiment_ids())


def test_distinct_seeds_change_some_output():
    """Sanity check the comparison has teeth: at least one experiment's
    payload must differ across seeds (analytic experiments like fig7/fig8
    legitimately ignore the seed)."""
    differing = [
        experiment_id
        for experiment_id in all_experiment_ids()
        if _payload(experiment_id, 0) != _payload(experiment_id, 2)
    ]
    assert differing


#: synchronous inserts, synchronous lookups, timed MPIL beside MSPastry under
#: flapping (the one with most ``derive_rng`` streams), and the two routes
#: into the Pastry liveness path: four period labels through
#: ``RejoinAdjustedAvailability``, a composed timeline through
#: ``IntervalRejoinAvailability``
_WORK_COUNT_EXPERIMENTS = ("fig9", "tab1", "fig11", "fig1", "ext-outage")


def _counting(function, calls: list[int]):
    @functools.wraps(function)
    def wrapper(*args, **kwargs):
        calls[0] += 1
        return function(*args, **kwargs)

    return wrapper


def _count_calls(patch: pytest.MonkeyPatch, function) -> list[int]:
    """Rebind ``function`` to a counting wrapper in every loaded ``repro``
    module that holds it (``from x import f`` copies included) until
    ``patch`` is undone; the count so far is element 0 of the result."""
    calls = [0]
    wrapper = _counting(function, calls)
    for module_name, module in list(sys.modules.items()):
        if module_name.split(".")[0] == "repro":
            for name, value in list(vars(module).items()):
                if value is function:
                    patch.setattr(module, name, wrapper)
    return calls


def _count_method_calls(patch: pytest.MonkeyPatch, name: str, *classes: type) -> list[int]:
    """The same for the method ``name`` of each class, into one count."""
    calls = [0]
    for cls in classes:
        patch.setattr(cls, name, _counting(getattr(cls, name), calls))
    return calls


def _work_counts(experiment_id: str) -> dict[str, int]:
    """Calls and events of one cold ``smoke`` seed-0 run."""
    clear_all_caches()
    with pytest.MonkeyPatch.context() as patch:
        decide_calls = _count_calls(patch, repro.core.protocol.decide_forwarding)
        derive_calls = _count_calls(patch, repro.sim.rng.derive_rng)
        believes_calls = _count_method_calls(patch, "believes_alive", ProbedViewOracle)
        pastry_online_calls = _count_method_calls(
            patch, "is_online", RejoinAdjustedAvailability, IntervalRejoinAvailability
        )
        events_before = events_processed_total()
        run_experiment(experiment_id, scale="smoke", seed=0)
        return {
            "decide_forwarding_calls": decide_calls[0],
            "derive_rng_calls": derive_calls[0],
            "believes_alive_calls": believes_calls[0],
            "pastry_is_online_calls": pastry_online_calls[0],
            "events_processed": events_processed_total() - events_before,
        }


def _work_counts_document() -> dict:
    """What ``tests/goldens/work_counts_smoke_seed0.json`` holds; regenerate
    it like ``smoke_seed1.json``, with ``t._work_counts_document()``."""
    return {
        "fingerprint": _fingerprint(),
        "counts": {
            experiment_id: _work_counts(experiment_id)
            for experiment_id in _WORK_COUNT_EXPERIMENTS
        },
    }


def test_work_counts_match_the_golden():
    if WORK_COUNTS["fingerprint"] != _fingerprint():
        pytest.skip(
            f"work counts were taken under {WORK_COUNTS['fingerprint']}, "
            f"this is {_fingerprint()}"
        )
    assert _work_counts_document() == WORK_COUNTS


#: one experiment per span-emitting driver: synchronous MPIL, timed MPIL
#: beside MSPastry under flapping (DS and no-DS), the Pastry figure,
#: a composed outage timeline, and the open-loop service driver
_SPAN_STREAM_EXPERIMENTS = ("fig9", "fig10", "fig11", "ext-outage", "svc-outage")


def _span_stream(experiment_id: str) -> dict:
    """Span count and sha256 of the JSONL export of one traced ``smoke``
    seed-1 run (what ``cli run ... --trace FILE`` writes)."""
    traced = api.telemetry(experiment_id, scale="smoke", seed=1)
    assert traced.spans.dropped == 0
    buffer = io.StringIO()
    count = write_jsonl(traced.spans, buffer)
    return {
        "spans": count,
        "sha256": hashlib.sha256(buffer.getvalue().encode("utf-8")).hexdigest(),
    }


def _span_streams_document() -> dict:
    """What ``tests/goldens/span_streams_smoke_seed1.json`` holds; regenerate
    it like ``smoke_seed1.json``, with ``t._span_streams_document()``."""
    return {
        "fingerprint": _fingerprint(),
        "streams": {
            experiment_id: _span_stream(experiment_id)
            for experiment_id in _SPAN_STREAM_EXPERIMENTS
        },
    }


@pytest.mark.parametrize("experiment_id", _SPAN_STREAM_EXPERIMENTS)
def test_span_stream_matches_the_golden(experiment_id):
    if SPAN_STREAMS["fingerprint"] != _fingerprint():
        pytest.skip(
            f"span streams were taken under {SPAN_STREAMS['fingerprint']}, "
            f"this is {_fingerprint()}"
        )
    assert _span_stream(experiment_id) == SPAN_STREAMS["streams"][experiment_id]


def _telemetry_blob(experiment_id: str) -> dict:
    """The telemetry blob of one ``smoke`` seed-1 run (what a store writes
    to ``seed_1.telemetry.json``)."""
    return run_experiment(experiment_id, scale="smoke", seed=1).metrics


def _telemetry_document() -> dict:
    """What ``tests/goldens/telemetry_smoke_seed1.json`` holds; regenerate
    it like ``smoke_seed1.json``, with ``t._telemetry_document()``."""
    return {
        "fingerprint": _fingerprint(),
        "blobs": {
            experiment_id: _telemetry_blob(experiment_id)
            for experiment_id in all_experiment_ids()
        },
    }


@pytest.mark.parametrize("experiment_id", all_experiment_ids())
def test_telemetry_blob_matches_the_golden(experiment_id):
    if TELEMETRY["fingerprint"] != _fingerprint():
        pytest.skip(
            f"telemetry blobs were taken under {TELEMETRY['fingerprint']}, "
            f"this is {_fingerprint()}"
        )
    blob = json.dumps(_telemetry_blob(experiment_id), sort_keys=True, indent=2)
    assert blob == json.dumps(TELEMETRY["blobs"][experiment_id], sort_keys=True, indent=2)


def _cli_under_hash_seed(hash_seed: int, *args: str) -> None:
    env = dict(
        os.environ,
        PYTHONPATH=str(pathlib.Path(__file__).parent.parent / "src"),
        PYTHONHASHSEED=str(hash_seed),
    )
    done = subprocess.run(
        [sys.executable, "-m", "repro.experiments.cli", *args],
        env=env,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stderr


def test_nothing_written_depends_on_string_hashing(tmp_path):
    """Set/dict iteration order, ``hash()``-derived seeds and scheduler
    tie-breaks all move with ``PYTHONHASHSEED``; nothing a run writes may.

    Every experiment is swept under hash seed 1 with two workers and under
    hash seed 2 with one — so the comparison also crosses two task-to-worker
    histories — and every replicate, telemetry blob and aggregate must be
    byte-identical (manifests and the ledger carry timestamps).  The span
    stream gets the same treatment: one traced ``fig11`` (timed MPIL beside
    MSPastry) under each hash seed.
    """
    for hash_seed, jobs in ((1, "2"), (2, "1")):
        _cli_under_hash_seed(
            hash_seed, "sweep", "all", "--seeds", "0", "--scale", "smoke",
            "--jobs", jobs, "--out", str(tmp_path / f"store{hash_seed}"),
        )  # fmt: skip
        _cli_under_hash_seed(
            hash_seed, "run", "fig11", "--scale", "smoke", "--seed", "1",
            "--trace", str(tmp_path / f"trace{hash_seed}.jsonl"),
        )  # fmt: skip
    first, second = tmp_path / "store1", tmp_path / "store2"
    written = sorted(
        path.relative_to(first)
        for pattern in ("seed_*.json", "aggregate.*")
        for path in first.glob(f"*/smoke/{pattern}")
    )
    # per experiment: the replicate, its telemetry blob, aggregate.json/.csv
    assert len(written) == 4 * len(all_experiment_ids())
    differing = [
        str(name)
        for name in written
        if (first / name).read_bytes() != (second / name).read_bytes()
    ]
    assert differing == []
    trace = (tmp_path / "trace1.jsonl").read_bytes()
    assert trace and trace == (tmp_path / "trace2.jsonl").read_bytes()
