#!/usr/bin/env python3
"""The repo's benchmark: ``python3 bench/run.py --workload NAME | --all``.

One process measures one workload.  Without ``--trace`` it sets up three
times, runs identical passes for ``--seconds`` and reports the end-to-end
metrics of ``BENCHMARK.json``; with ``--trace`` it repeats the passes with
``bench/tracing.py`` installed and reports the per-layer metrics.  Either
way it checks the results (digests equal across passes, between traced and
untraced, and against ``bench/expected.json``), prints every metric by
name with its unit, and ends with one JSON line for the driver.  ``--all``
runs each workload in its own process, one after another.

See ``bench/README.md`` for the glossary and how to compare two records.
"""

from __future__ import annotations

import time

_PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import importlib  # noqa: E402
import importlib.metadata  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import pathlib  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from typing import Any, Optional  # noqa: E402

BENCH_DIR = pathlib.Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

from bench.clock import SpeedMeter, quartiles  # noqa: E402

CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text())
EXPECTED_PATH = BENCH_DIR / "expected.json"
OUT_DIR = BENCH_DIR / ".out"

#: the cold set-up is repeated so ``setup_s`` is a median, not one sample
SETUP_REPEATS = 3
MIN_PASSES = 3
#: share of ``--seconds`` the traced run spends on traced passes
TRACED_SHARE = 0.4

WORKLOAD_NAMES = [entry["name"] for entry in CONTRACT["workloads"]]


def fingerprint() -> dict[str, str]:
    """The environment the pinned digests were taken in.

    Read from package metadata: importing networkx here would hand it to
    every forked sweep worker for free and hide the per-child import cost
    the ``sweep-smoke`` workload exists to measure.
    """
    return {
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "networkx": importlib.metadata.version("networkx"),
    }


def provenance() -> dict[str, Any]:
    from repro.experiments.store import git_revision

    nproc = os.cpu_count() or 1
    load = os.getloadavg()[0]
    if load > nproc:
        print(
            f"warning: 1-min load average {load:.2f} exceeds nproc {nproc}; "
            f"timings will be noisy",
            file=sys.stderr,
        )
    return {
        "nproc": nproc,
        "loadavg_1min_at_start": load,
        "git_revision": git_revision(ROOT),
        "platform": platform.platform(),
        **fingerprint(),
    }


def peak_rss_mb(children: bool) -> float:
    """Max resident set in MiB (Linux reports KiB); for the sweep the
    largest child counts too."""
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if children:
        peak = max(peak, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return peak / 1024.0


def _summary(samples: list[float], unit: str, value: Optional[float] = None) -> dict[str, Any]:
    q1, median, q3 = quartiles(samples)
    return {
        "value": median if value is None else value,
        "unit": unit,
        "q1": q1,
        "q3": q3,
        "n": len(samples),
    }


class Gate:
    """Counts attempted and failed operations and keeps the reasons."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.reference: Optional[Any] = None

    def admit(self, label: str, result: Any) -> None:
        """Count one pass; its digests and event count must equal the
        first admitted pass's."""
        self.attempted += result.attempted
        self.failed += result.failed
        self.errors += [f"{label}: {error}" for error in result.errors]
        if self.reference is None:
            self.reference = result
            return
        if result.failed:
            return
        if result.digests != self.reference.digests:
            self.failed += 1
            self.errors.append(f"{label}: result digests differ from the first pass")
        if result.events != self.reference.events:
            self.failed += 1
            self.errors.append(
                f"{label}: {result.events} events, first pass had {self.reference.events}"
            )

    def check_pinned(self, workload: Any) -> str:
        """Compare against ``expected.json``: same environment and another
        digest is a failure; another environment only downgrades."""
        if workload.quick or self.reference is None:
            return "unpinned"
        expected = json.loads(EXPECTED_PATH.read_text()) if EXPECTED_PATH.exists() else {}
        pinned = expected.get("digests", {}).get(workload.name, {}).get(str(workload.seed))
        if pinned is None:
            return "unpinned"
        if pinned == self.reference.digests:
            return "ok"
        if expected.get("fingerprint") != fingerprint():
            return "digest_unverified"
        self.attempted += 1
        self.failed += 1
        self.errors.append("result digests differ from bench/expected.json")
        return "mismatch"


def pin(workload: Any, digests: dict[str, str]) -> None:
    """Record this run's digests as the expected ones for its seed."""
    expected = json.loads(EXPECTED_PATH.read_text()) if EXPECTED_PATH.exists() else {}
    if expected.get("fingerprint") != fingerprint():
        expected = {"fingerprint": fingerprint(), "digests": {}}
    expected["digests"].setdefault(workload.name, {})[str(workload.seed)] = digests
    EXPECTED_PATH.write_text(json.dumps(expected, indent=2, sort_keys=True) + "\n")


def run_untraced(workload: Any, meter: SpeedMeter, import_s: float, seconds: float) -> dict:
    gate = Gate()
    setups = []
    for index in range(SETUP_REPEATS):
        setups.append(workload.setup(meter))
        gate.admit(f"setup {index}", setups[-1])
    passes = []
    started = time.perf_counter()
    while len(passes) < MIN_PASSES or time.perf_counter() - started < seconds:
        passes.append(workload.run_pass(meter))
        gate.admit(f"pass {len(passes) - 1}", passes[-1])
    good = [p for p in passes if not p.failed] or passes
    walls = [p.wall_s for p in good]
    wall = statistics.median(walls)
    setup_samples = [import_s + s.wall_s for s in setups]
    ops, events = good[0].ops, good[0].events
    end_to_end = {
        "setup_s": _summary(setup_samples, "s"),
        "wall_s": _summary(walls, "s"),
        "ops_per_s": _summary([ops / w for w in walls], "1/s", ops / wall),
        "peak_rss_mb": _summary([peak_rss_mb(children=workload.name == "sweep-smoke")], "MiB"),
    }
    named = {
        name: {"value": value, "unit": unit}
        for name, (value, unit) in workload.named_metrics(good, setups, ops / wall).items()
    }
    # not in BENCHMARK.json: events per pass move with the seed (5.7 % between
    # quartiles on perturbed) where most of the wall is not event work
    named["events_per_s"] = {"value": events / wall, "unit": "1/s"}
    named["failure_rate"] = {"value": gate.failed / max(1, gate.attempted), "unit": "ratio"}
    return {
        "end_to_end": end_to_end,
        "named": named,
        "op": workload.op,
        "ops_per_pass": ops,
        "events_per_pass": events,
        "passes": {
            "raw_wall_s": [p.raw_s for p in passes],
            "wall_s": [p.wall_s for p in passes],
            "parts_s": [p.parts for p in passes],
        },
        "setup": {
            "import_s": import_s,
            "raw_s": [s.raw_s for s in setups],
            "wall_s": [s.wall_s for s in setups],
        },
        "gate": gate,
    }


def run_traced(workload: Any, meter: SpeedMeter, seconds: float) -> dict:
    from bench import layers, probes
    from bench.tracing import Tracer, calibrate_wrapper_cost

    gate = Gate()
    gate.admit("setup", workload.setup(meter))
    # passes keep getting faster for a while after a set-up (the sweep's
    # fifth is a quarter faster than its second), so the untraced reference
    # is taken on both sides of the traced passes
    untraced = []

    def run_untraced_passes() -> None:
        for _ in range(2):
            untraced.append(workload.run_pass(meter))
            gate.admit(f"untraced pass {len(untraced) - 1}", untraced[-1])

    run_untraced_passes()

    costs = calibrate_wrapper_cost()
    tracer = Tracer()
    phase = "setup"

    def mark(label: str) -> None:
        tracer.op = f"{phase}/{label}"

    workload.mark = mark
    traced = []
    with tracer:
        gate.admit("traced setup", workload.setup(meter))
        tracer.reset_cells()
        started = time.perf_counter()
        while not traced or time.perf_counter() - started < seconds * TRACED_SHARE:
            phase = f"pass{len(traced)}"
            traced.append(workload.run_pass(meter))
            gate.admit(f"traced {phase}", traced[-1])
    run_untraced_passes()
    baseline = untraced[-1]
    baseline_wall_s = statistics.median(p.wall_s for p in untraced)
    cold_spans = [span for span in tracer.spans if span[6].startswith("setup/")]
    hot_spans = [span for span in tracer.spans if span[6].startswith("pass")]

    OUT_DIR.mkdir(exist_ok=True)
    # the recorded spans are millions of live objects; a full collection
    # landing inside a microsecond-scale probe would swamp it
    gc.collect()
    gc.disable()
    try:
        measured = probes.run_for(
            workload, meter, baseline, baseline_wall_s, tracer.peak_pending, OUT_DIR
        )
    finally:
        gc.enable()

    span_path = OUT_DIR / f"spans-{workload.name}-{workload.seed}.jsonl"
    tracer.write_jsonl(span_path)
    detail = dict(traced[-1].detail)
    detail["outcomes"] = [o for p in traced for o in p.detail.get("outcomes", ())]
    traced_raw_s = sum(p.raw_s for p in traced)
    # the host's speed while the traced passes ran, relative to reference
    speed = traced_raw_s / sum(p.wall_s for p in traced)
    per_layer = layers.derive(
        tracer,
        passes=len(traced),
        traced_wall_s=traced_raw_s,
        untraced_wall_s=baseline_wall_s * speed,
        costs=costs,
        hot_spans=hot_spans,
        cold_spans=cold_spans,
        events_per_pass=baseline.events,
        detail=detail,
        probes=measured,
    )
    return {
        "per_layer": {
            name: {"value": value, "unit": layers.UNITS[name]} for name, value in per_layer.items()
        },
        "layers_missing": tracer.missing_layers,
        "boundaries_missing": [boundary.target for boundary in tracer.missing],
        "traced_passes": len(traced),
        # what one untraced pass takes at the speed the traced ones ran at:
        # the layers' self times should add up to it
        "untraced_pass_raw_s": baseline_wall_s * speed,
        "spans_file": str(span_path.relative_to(ROOT)),
        "gate": gate,
    }


def measure(name: str, seed: int, seconds: float, trace: bool, quick: bool, do_pin: bool) -> dict:
    """One run of one workload in this process; returns its record."""
    record: dict[str, Any] = {
        "workload": name,
        "seed": seed,
        "trace": int(trace),
        "quick": quick,
        "seconds": seconds,
    }
    meter = SpeedMeter()
    # process start to here is interpreter start-up plus this file's own
    # imports; the program's imports are timed like any other region
    preamble = time.perf_counter() - _PROCESS_START
    try:
        workloads, _raw, import_s = meter.timed(importlib.import_module, "bench.workloads")
    except ModuleNotFoundError as exc:
        # a directory holding only BENCHMARK.json and bench/ has no program
        sys.exit(f"bench/run.py: cannot import the program under {ROOT / 'src'}: {exc}")
    record["provenance"] = provenance()
    workload = workloads.WORKLOADS[name](seed, quick)
    record["sizes"] = workload.sizes
    try:
        if trace:
            record.update(run_traced(workload, meter, seconds))
        else:
            record.update(run_untraced(workload, meter, preamble + import_s, seconds))
        gate: Gate = record.pop("gate")
        if do_pin and gate.reference is not None and not gate.failed:
            pin(workload, gate.reference.digests)
        record["digest_status"] = gate.check_pinned(workload)
    finally:
        workload.close()
    kernel_q1, kernel_median, kernel_q3 = quartiles(meter.readings)
    record["provenance"]["reference_kernel_s"] = {
        "median": kernel_median, "q1": kernel_q1, "q3": kernel_q3, "n": len(meter.readings)
    }  # fmt: skip
    record["digests"] = gate.reference.digests if gate.reference is not None else {}
    record["attempted"] = gate.attempted
    record["failed"] = gate.failed
    record["errors"] = gate.errors
    record["correct"] = gate.failed == 0 and gate.attempted > 0
    return record


def render(record: dict) -> str:
    """Every metric of one run by name, with its unit."""
    lines = [
        f"== {record['workload']}  seed={record['seed']}  trace={record['trace']}  "
        f"sizes={json.dumps(record['sizes'], sort_keys=True)}"
    ]
    for name, entry in record.get("end_to_end", {}).items():
        lines.append(
            f"  {name:<44}{entry['value']:>16.6g} {entry['unit']:<6}"
            f" q1={entry['q1']:.6g} q3={entry['q3']:.6g} n={entry['n']}"
        )
    for name, entry in record.get("named", {}).items():
        lines.append(f"  {name:<44}{entry['value']:>16.6g} {entry['unit']}")
    for name, entry in record.get("per_layer", {}).items():
        value = "missing" if entry["value"] is None else f"{entry['value']:.6g}"
        lines.append(f"  {name:<44}{value:>16} {entry['unit']}")
    if record.get("layers_missing"):
        lines.append(f"  layers_missing: {', '.join(record['layers_missing'])}")
    if "untraced_pass_raw_s" in record:
        layers_s = sum(
            entry["value"] or 0.0
            for name, entry in record["per_layer"].items()
            if name.endswith(".self_s")
        )
        lines.append(
            f"  layer self times add up to {layers_s:.4g} s = "
            f"{layers_s / record['untraced_pass_raw_s']:.1%} of the untraced pass"
        )
    if "passes" in record:
        raw = ", ".join(f"{wall:.3f}" for wall in record["passes"]["raw_wall_s"])
        lines.append(f"  raw pass walls (s): {raw}")
    lines.append(
        f"  digests: {record['digest_status']}   attempted={record['attempted']} "
        f"failed={record['failed']}"
    )
    lines += [f"  FAILED {error}" for error in record["errors"]]
    return "\n".join(lines)


def driver_line(record: dict) -> str:
    """The last line of standard output: the driver's contract."""
    source = record["per_layer"] if record["trace"] else record["end_to_end"]
    # a metric whose boundary is gone reads -1: never a value it could take
    metrics = {
        name: {"value": -1.0 if entry["value"] is None else entry["value"], "unit": entry["unit"]}
        for name, entry in source.items()
    }
    return json.dumps(
        {
            "correct": record["correct"],
            "attempted": record["attempted"],
            "failed": record["failed"],
            "metrics": metrics,
        }
    )


def append_record(path: pathlib.Path, runs: list[dict]) -> None:
    existing = json.loads(path.read_text()) if path.exists() else {"schema": 1, "runs": []}
    existing["runs"] += runs
    path.write_text(json.dumps(existing, indent=1, sort_keys=True) + "\n")


def run_all(args: argparse.Namespace) -> int:
    """Each workload in its own process, so ``peak_rss_mb`` and the
    construction caches are the workload's own."""
    OUT_DIR.mkdir(exist_ok=True)
    runs = []
    status = 0
    for name in WORKLOAD_NAMES:
        for trace in (0, 1) if args.trace else (0,):
            scratch = OUT_DIR / f"run-{os.getpid()}-{name}-{trace}.json"
            command = [
                sys.executable, str(BENCH_DIR / "run.py"), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(trace), "--out", str(scratch),
            ]  # fmt: skip
            command += ["--quick"] if args.quick else []
            command += ["--pin"] if args.pin and not trace else []
            done = subprocess.run(command, stdout=subprocess.PIPE, text=True)
            # the child's last line is the driver's; the table is above it
            print(done.stdout.rsplit("\n", 2)[0])
            status = status or done.returncode
            if scratch.exists():
                runs += json.loads(scratch.read_text())["runs"]
                scratch.unlink()
    if args.out:
        append_record(pathlib.Path(args.out), runs)
    return status


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    which = parser.add_mutually_exclusive_group(required=True)
    which.add_argument("--workload", choices=WORKLOAD_NAMES)
    which.add_argument("--all", action="store_true", help="every workload, one process each")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=float(CONTRACT["run_seconds"]))
    parser.add_argument(
        "--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
        help="1: the traced, per-layer run (with --all: both runs)",
    )  # fmt: skip
    parser.add_argument("--out", help="JSON record file; runs are appended to it")
    parser.add_argument("--quick", action="store_true", help="tiny sizes, for bench/tests")
    parser.add_argument(
        "--pin", action="store_true", help="write this run's digests to bench/expected.json"
    )
    args = parser.parse_args(argv)
    if args.all:
        return run_all(args)
    record = measure(
        args.workload, args.seed, args.seconds, bool(args.trace), args.quick, args.pin
    )
    if args.out:
        append_record(pathlib.Path(args.out), [record])
    print(render(record))
    print(driver_line(record))
    return 0 if record["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
