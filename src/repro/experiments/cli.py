"""Command-line interface: ``mpil-experiments list|scenarios|run|sweep|status|trace|compose|serve|lint``.

Nine commands:

- ``list`` — show every registered experiment id and title, with
  ``--tags`` filtering on the registry metadata (``list --tags ext``);
- ``scenarios`` — show the perturbation-scenario catalogue (one line per
  availability-process family with the experiments that sweep it, joined
  from the registry metadata), one family's details (process class,
  parameters, experiments), or a figure's flapping sweep cells;
- ``run``  — run experiments one seed at a time, print their tables, and
  (with ``--out``) persist each replicate through the result store plus a
  legacy ``<id>_<scale>_seed<seed>.txt`` table;
- ``sweep`` — run experiments over a *set* of seeds across a
  crash-tolerant worker pool, persisting per-seed JSON artifacts, a
  durable sqlite task ledger, and a mean/stdev/ci95 aggregate per
  experiment; ``--resume`` re-runs only what an interrupted sweep left
  unfinished, ``--max-retries``/``--task-timeout`` bound crashed and hung
  workers (see :mod:`repro.experiments.runner`,
  :mod:`repro.experiments.runtime`, :mod:`repro.experiments.store`);
- ``status`` — render one experiment's ledger progress (done/running/
  failed/pending per seed, attempts, errors) without running anything,
  plus the per-task telemetry summary indexed in the ledger;
- ``trace`` — re-run one experiment with span recording on and print a
  parent-linked hop tree for a recorded trace (every send/forward/
  dup-drop/reply of one lookup or insert, in causal order); ``--kind``/
  ``--node`` select which traces, ``--out`` exports them as sorted JSONL
  (see :mod:`repro.telemetry`);
- ``compose`` — build an experiment from a declarative TOML/JSON spec
  (see :mod:`repro.experiments.compose`) and run it, no module required;
- ``serve`` — run a sustained-traffic service experiment (open-loop
  arrivals, per-window latency percentiles and SLO verdicts; see
  :mod:`repro.service`), with ``--rate/--duration/--window`` overriding
  the scale's traffic knobs and ``--format json`` for scripted callers;
- ``lint`` — run the determinism-contract static analyzer
  (:mod:`repro.lint`) over source trees (default ``src``):
  exit 0 when clean, 1 when any rule fires, 2 on usage errors;
  ``--format json`` emits the versioned report, ``--report FILE`` also
  writes it to disk (the CI artifact), ``--list-rules`` names every rule,
  and ``--explain DET001`` prints one rule's rationale and fix pattern.

The sweep store layout is ``<out>/<experiment>/<scale>/seed_<n>.json`` with
a ``manifest.json`` (git revision, timestamps, wall-clock, event counts)
and ``aggregate.json``/``aggregate.csv`` alongside.  Per-seed JSON is
byte-identical across reruns of the same spec, regardless of ``--jobs``.

Examples::

    mpil-experiments list
    mpil-experiments list --tags ext
    mpil-experiments scenarios
    mpil-experiments scenarios regional-outage
    mpil-experiments scenarios --figure fig11
    mpil-experiments run fig9 --scale smoke
    mpil-experiments run all --scale default --out results/
    mpil-experiments sweep fig9 tab1 --seeds 0..3 --jobs 2 --format json
    mpil-experiments sweep fig9 --seeds 0,2,5 --scale smoke --format csv
    mpil-experiments sweep fig9 --seeds 0..99 --jobs 4 --resume --task-timeout 300
    mpil-experiments status fig9 --out results
    mpil-experiments trace fig9 --scale smoke --seed 1
    mpil-experiments trace ext-outage --scale smoke --kind lookup --out spans.jsonl
    mpil-experiments compose my-sweep.toml --scale smoke --seed 1
    mpil-experiments serve svc-outage --scale smoke --rate 2 --format json
    mpil-experiments lint src
    mpil-experiments lint --explain DET003
    mpil-experiments lint src --format json --report repro-lint-report.json

(Without an installed entry point, invoke the same CLI as
``PYTHONPATH=src python -m repro.experiments.cli ...``.)
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
import time
from typing import Optional, Sequence

from repro.errors import ConfigurationError, ExperimentError
from repro.experiments.compose import compose_spec, load_spec_file
from repro.experiments.ledger import TASK_STATES
from repro.experiments.registry import (
    all_experiment_ids,
    get_spec,
    list_experiments,
    register,
    run_experiment,
)
from repro.experiments.runner import SweepSpec, TaskOutcome, parse_seeds, run_sweep
from repro.experiments.scales import available_scales, with_service_overrides
from repro.experiments.spec import ExperimentSpec
from repro.experiments.store import ResultStore, result_to_csv
from repro.lint import all_rules, get_rule, lint_paths, load_config
from repro.perturbation.scenario import get_family, scenario_families, scenarios_for
from repro.sim.engine import events_processed_total
from repro.telemetry import Telemetry, reset_runtime_metrics
from repro.telemetry.progress import ProgressMeter, service_window_line
from repro.telemetry.sinks import render_hop_tree, write_jsonl


def _scale_help(extra: str = "") -> str:
    """The ``--scale`` help line: built-in rungs plus registered ones."""
    return (
        f"experiment scale rung ({', '.join(available_scales())}, "
        f"or a rung registered via repro.api.register_scale){extra}"
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mpil-experiments",
        description="Regenerate the paper's figures and tables (MPIL, DSN 2005)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    list_parser = sub.add_parser("list", help="list available experiments")
    list_parser.add_argument(
        "--tags",
        default=None,
        help="only experiments carrying every given tag (comma-separated, e.g. 'ext')",
    )
    list_parser.add_argument(
        "--verbose",
        action="store_true",
        help="also show each experiment's tags and paper figure",
    )

    scenarios_parser = sub.add_parser(
        "scenarios", help="show the perturbation-scenario catalogue"
    )
    scenarios_parser.add_argument(
        "family",
        nargs="?",
        default=None,
        help="scenario family to detail (e.g. regional-outage)",
    )
    scenarios_parser.add_argument(
        "--figure",
        default=None,
        help="list the paper's flapping sweep cells for a figure (fig1, fig11)",
    )

    run_parser = sub.add_parser("run", help="run one or more experiments")
    run_parser.add_argument(
        "experiments",
        nargs="+",
        help="experiment ids (or 'all')",
    )
    run_parser.add_argument(
        "--scale",
        default="default",
        metavar="SCALE",
        help=_scale_help(),
    )
    run_parser.add_argument("--seed", type=int, default=0, help="root seed")
    run_parser.add_argument(
        "--out",
        type=pathlib.Path,
        default=None,
        help=(
            "result-store root: writes <out>/<id>/<scale>/seed_<n>.json plus "
            "one <id>_<scale>_seed<n>.txt table per experiment"
        ),
    )
    run_parser.add_argument(
        "--trace",
        type=pathlib.Path,
        default=None,
        metavar="JSONL",
        help=(
            "record telemetry spans and export them as sorted JSONL "
            "(with several experiments the id is appended to the filename)"
        ),
    )

    sweep_parser = sub.add_parser(
        "sweep", help="run experiments over many seeds, in parallel"
    )
    sweep_parser.add_argument(
        "experiments",
        nargs="+",
        help="experiment ids (or 'all')",
    )
    sweep_parser.add_argument(
        "--scale",
        default="default",
        metavar="SCALE",
        help=_scale_help(),
    )
    sweep_parser.add_argument(
        "--seeds",
        default="0..9",
        help="seed set: '7', an inclusive range '0..9', or a list '0,2,5'",
    )
    sweep_parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="worker processes, reused from task to task (default: 1)",
    )
    sweep_parser.add_argument(
        "--out",
        type=pathlib.Path,
        default=pathlib.Path("results"),
        help="result-store root directory (default: results/)",
    )
    sweep_parser.add_argument(
        "--format",
        choices=("table", "json", "csv"),
        default="table",
        help="how to print each experiment's aggregate",
    )
    sweep_parser.add_argument(
        "--resume",
        action="store_true",
        help=(
            "resume an interrupted sweep: skip ledger-verified complete "
            "tasks, reclaim orphaned ones, and retry failed ones"
        ),
    )
    sweep_parser.add_argument(
        "--max-retries",
        type=int,
        default=2,
        help="re-attempts per task after a crash/hang/error (default: 2)",
    )
    sweep_parser.add_argument(
        "--task-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="kill and retry any task attempt running longer than this",
    )

    status_parser = sub.add_parser(
        "status", help="show a sweep's ledger progress for one experiment"
    )
    status_parser.add_argument("experiment", help="experiment id")
    status_parser.add_argument(
        "--scale",
        default=None,
        metavar="SCALE",
        help="only this scale's tasks (default: every scale in the ledger)",
    )
    status_parser.add_argument(
        "--out",
        type=pathlib.Path,
        default=pathlib.Path("results"),
        help="result-store root holding the ledger (default: results/)",
    )

    trace_parser = sub.add_parser(
        "trace",
        help="run one experiment with span recording and print a hop tree",
    )
    trace_parser.add_argument("experiment", help="experiment id")
    trace_parser.add_argument(
        "--scale",
        default="smoke",
        metavar="SCALE",
        help=_scale_help(" (default: smoke)"),
    )
    trace_parser.add_argument("--seed", type=int, default=0, help="root seed")
    trace_parser.add_argument(
        "--kind",
        default=None,
        help="only traces of this kind (e.g. lookup, insert, timed-lookup)",
    )
    trace_parser.add_argument(
        "--node",
        type=int,
        default=None,
        help="only traces that touch this node id",
    )
    trace_parser.add_argument(
        "--trees",
        type=int,
        default=1,
        metavar="N",
        help="hop trees to print from the matching traces (default: 1)",
    )
    trace_parser.add_argument(
        "--out",
        type=pathlib.Path,
        default=None,
        metavar="JSONL",
        help="also export every matching span as sorted JSONL",
    )

    compose_parser = sub.add_parser(
        "compose",
        help="build an experiment from a TOML/JSON spec file and run it",
    )
    compose_parser.add_argument(
        "spec",
        type=pathlib.Path,
        help="declarative spec file (.toml or .json; see repro.experiments.compose)",
    )
    compose_parser.add_argument(
        "--scale",
        default="default",
        metavar="SCALE",
        help=_scale_help(),
    )
    compose_parser.add_argument("--seed", type=int, default=0, help="root seed")
    compose_parser.add_argument(
        "--out",
        type=pathlib.Path,
        default=None,
        help="result-store root (same layout as `run --out`)",
    )

    serve_parser = sub.add_parser(
        "serve",
        help="run a sustained-traffic service experiment (latency percentiles)",
    )
    serve_parser.add_argument(
        "experiment",
        nargs="?",
        default="svc-steady",
        help="a service-mode experiment id (default: svc-steady; "
        "see `list --tags service`)",
    )
    serve_parser.add_argument(
        "--scale",
        default="default",
        metavar="SCALE",
        help=_scale_help(),
    )
    serve_parser.add_argument("--seed", type=int, default=0, help="root seed")
    serve_parser.add_argument(
        "--rate",
        type=float,
        default=None,
        help="override the scale's baseline arrival rate (arrivals/s)",
    )
    serve_parser.add_argument(
        "--duration",
        type=float,
        default=None,
        help="override the scale's traffic duration (simulated seconds)",
    )
    serve_parser.add_argument(
        "--window",
        type=float,
        default=None,
        help="override the scale's metric window length (seconds)",
    )
    serve_parser.add_argument(
        "--format",
        choices=("table", "json"),
        default="table",
        help="print the per-window result as a table or as JSON",
    )
    serve_parser.add_argument(
        "--out",
        type=pathlib.Path,
        default=None,
        help="result-store root (same layout as `run --out`)",
    )

    lint_parser = sub.add_parser(
        "lint",
        help="run the determinism-contract static analyzer (repro.lint)",
    )
    lint_parser.add_argument(
        "paths",
        nargs="*",
        default=["src"],
        help="files/directories to analyze (default: src)",
    )
    lint_parser.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="report as grep-able lines or as the versioned JSON schema",
    )
    lint_parser.add_argument(
        "--rules",
        default=None,
        metavar="RULE[,RULE...]",
        help="only run these rule ids (default: every registered rule)",
    )
    lint_parser.add_argument(
        "--config",
        type=pathlib.Path,
        default=None,
        metavar="PYPROJECT",
        help="explicit pyproject.toml holding [tool.repro-lint] "
        "(default: nearest one at or above the first path)",
    )
    lint_parser.add_argument(
        "--report",
        type=pathlib.Path,
        default=None,
        metavar="FILE",
        help="also write the JSON report here (regardless of --format)",
    )
    lint_parser.add_argument(
        "--explain",
        default=None,
        metavar="RULE",
        help="print one rule's rationale and fix pattern, then exit",
    )
    lint_parser.add_argument(
        "--list-rules",
        action="store_true",
        help="list every registered rule id with its one-line title",
    )
    return parser


def _parse_tags(text: Optional[str]) -> tuple[str, ...]:
    if text is None:
        return ()
    return tuple(tag.strip() for tag in text.split(",") if tag.strip())


def _cmd_list(args: argparse.Namespace) -> int:
    tags = _parse_tags(args.tags)
    specs = list_experiments(tags)
    if not specs:
        raise ExperimentError(
            f"no experiments carry all of the tags {list(tags)}; "
            f"try `list --verbose` to see every experiment's tags"
        )
    for spec in specs:
        print(f"{spec.experiment_id:18s} {spec.title}")
        if args.verbose:
            detail = f"tags: {', '.join(spec.tags) or '-'}"
            if spec.figure is not None:
                detail += f"; reproduces {spec.figure}"
            if spec.scenario_family is not None:
                detail += f"; sweeps scenario family {spec.scenario_family}"
            print(f"{'':18s} {detail}")
    return 0


def _experiments_by_family() -> dict[str, list[str]]:
    """scenario family -> experiment ids, joined from the registry metadata."""
    by_family: dict[str, list[str]] = {}
    for spec in list_experiments():
        if spec.scenario_family is not None:
            by_family.setdefault(spec.scenario_family, []).append(spec.experiment_id)
    return by_family


def _cmd_scenarios(args: argparse.Namespace) -> int:
    if args.figure is not None and args.family is not None:
        raise ConfigurationError(
            f"give either a scenario family ({args.family!r}) or --figure "
            f"({args.figure!r}), not both"
        )
    if args.figure is not None:
        for cell in scenarios_for(args.figure):
            print(f"{args.figure}  {cell.period_label:>8s}  p={cell.probability}")
        return 0
    by_family = _experiments_by_family()
    if args.family is not None:
        family = get_family(args.family)
        experiment_ids = by_family.get(family.name, [])
        print(f"{family.name}: {family.summary}")
        print(f"  process:    {family.process}")
        for name, kind in family.schema.items():
            need = "optional" if name in family.optional else "required"
            print(f"  parameter:  {name} ({kind.__name__}, {need})")
        for experiment_id in experiment_ids:
            print(f"  experiment: {experiment_id} (run it via "
                  f"`sweep {experiment_id} --seeds 0..9`)")
        return 0
    for family in scenario_families():
        experiments = ",".join(by_family.get(family.name, [])) or "-"
        print(f"{family.name:20s} {experiments:16s} {family.summary}")
    return 0


def _requested_ids(experiments: Sequence[str]) -> list[str]:
    requested = list(experiments)
    if requested == ["all"]:
        return all_experiment_ids()
    return requested


def _make_store(out: pathlib.Path) -> ResultStore:
    out.mkdir(parents=True, exist_ok=True)
    return ResultStore(out)


def _persist_replicate(
    store: ResultStore, result, seed: int, elapsed: float, text: str
) -> None:
    """``--out`` behaviour shared by ``run``, ``compose`` and ``serve``:
    store the replicate JSON (+ manifest) plus a legacy seed-qualified
    table file (seed in the name so replicates never overwrite each other).
    The handler zeroed the runtime metrics before the run, so the process
    event total is this run's count."""
    store.save(
        result,
        seed=seed,
        wall_clock=elapsed,
        events_processed=events_processed_total(),
    )
    path = store.root / f"{result.experiment_id}_{result.scale}_seed{seed}.txt"
    path.write_text(text + "\n")


def _trace_destination(
    trace: pathlib.Path, experiment_id: str, many: bool
) -> pathlib.Path:
    """Where one experiment's spans go: ``--trace`` verbatim for a single
    experiment, id-qualified for several (so runs never overwrite)."""
    if not many:
        return trace
    return trace.with_name(f"{trace.stem}_{experiment_id}{trace.suffix or '.jsonl'}")


def _cmd_run(args: argparse.Namespace) -> int:
    store = _make_store(args.out) if args.out is not None else None
    experiment_ids = _requested_ids(args.experiments)
    for experiment_id in experiment_ids:
        # one handle per experiment so metrics blobs and trace files never
        # mix counts or spans across experiments in a multi-id invocation
        telemetry = (
            Telemetry.with_spans() if args.trace is not None else Telemetry()
        )
        reset_runtime_metrics()
        started = time.perf_counter()
        result = run_experiment(
            experiment_id, scale=args.scale, seed=args.seed, telemetry=telemetry
        )
        elapsed = time.perf_counter() - started
        text = result.table()
        print(text)
        print(f"({experiment_id} completed in {elapsed:.1f}s)\n")
        if args.trace is not None and telemetry.spans is not None:
            destination = _trace_destination(
                args.trace, experiment_id, many=len(experiment_ids) > 1
            )
            destination.parent.mkdir(parents=True, exist_ok=True)
            count = write_jsonl(telemetry.spans, destination)
            dropped = telemetry.spans.dropped
            suffix = f" ({dropped} dropped)" if dropped else ""
            print(
                f"({count} spans{suffix} -> {destination})", file=sys.stderr
            )
        if store is not None:
            # store.save falls back to result.metrics, so the telemetry
            # blob rides along without an extra argument here
            _persist_replicate(store, result, args.seed, elapsed, text)
    return 0


def _cmd_compose(args: argparse.Namespace) -> int:
    spec: ExperimentSpec = compose_spec(load_spec_file(args.spec))
    # Register so the composed id resolves like a built-in for the rest of
    # this process (duplicate ids fail with a one-line error, which also
    # stops a spec file from shadowing a registered experiment).
    register(spec)
    reset_runtime_metrics()
    started = time.perf_counter()
    result = spec.run(scale=args.scale, seed=args.seed)
    elapsed = time.perf_counter() - started
    text = result.table()
    print(text)
    print(f"({spec.experiment_id} composed from {args.spec} "
          f"and completed in {elapsed:.1f}s)\n")
    if args.out is not None:
        _persist_replicate(_make_store(args.out), result, args.seed, elapsed, text)
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    spec = get_spec(args.experiment)
    if "service" not in spec.tags:
        raise ExperimentError(
            f"{args.experiment!r} is not a service-mode experiment; "
            f"pick one tagged 'service' (see `list --tags service`)"
        )
    scale = with_service_overrides(
        args.scale, rate=args.rate, duration=args.duration, window=args.window
    )
    telemetry = Telemetry()
    reset_runtime_metrics()
    started = time.perf_counter()
    result = spec.run(scale=scale, seed=args.seed, telemetry=telemetry)
    elapsed = time.perf_counter() - started
    for line in _service_window_lines(telemetry):
        print(line, file=sys.stderr)
    if args.format == "json":
        # pure JSON on stdout so scripted callers (e.g. the CI smoke step)
        # can parse it directly
        print(json.dumps(result.to_dict(), sort_keys=True, indent=2))
    else:
        print(result.table())
    print(f"({spec.experiment_id} served in {elapsed:.1f}s)", file=sys.stderr)
    if args.out is not None:
        _persist_replicate(
            _make_store(args.out), result, args.seed, elapsed, result.table()
        )
    return 0


def _service_window_lines(telemetry: Telemetry) -> list[str]:
    """Per-window service lines rendered from the run's registry gauges."""
    by_window: dict[tuple[str, int], dict[str, float]] = {}
    for gauge in telemetry.metrics.series(kind="gauge"):
        if not gauge.name.startswith("svc_window_"):
            continue
        labels = dict(gauge.labels)
        key = (str(labels.get("variant", "?")), int(str(labels.get("window", 0))))
        by_window.setdefault(key, {})[gauge.name] = float(gauge.value)
    return [
        service_window_line(
            variant=variant,
            window_index=window,
            arrivals=int(values.get("svc_window_arrivals", 0)),
            success_rate=values.get("svc_window_success_rate", 0.0),
            p99=values.get("svc_window_p99", 0.0),
            in_flight=int(values.get("svc_window_in_flight", 0)),
        )
        for (variant, window), values in sorted(by_window.items())
    ]


def _cmd_sweep(args: argparse.Namespace) -> int:
    spec = SweepSpec(
        experiment_ids=tuple(_requested_ids(args.experiments)),
        seeds=parse_seeds(args.seeds),
        scale=args.scale,
    )
    store = ResultStore(args.out)
    meter = ProgressMeter(total_tasks=len(spec.tasks()))

    def progress(outcome: TaskOutcome) -> None:
        meter.task_finished(ok=True, events_processed=outcome.events_processed)
        print(
            f"{meter.line(label=f'{outcome.experiment_id} seed={outcome.seed}')} "
            f"({outcome.wall_clock:.1f}s) -> "
            f"{store.seed_path(outcome.experiment_id, outcome.scale, outcome.seed)}",
            file=sys.stderr,
        )

    try:
        report = run_sweep(
            spec,
            store,
            jobs=args.jobs,
            progress=progress,
            resume=args.resume,
            max_retries=args.max_retries,
            task_timeout=args.task_timeout,
        )
    except KeyboardInterrupt:
        # the runtime has already retired its workers and released their
        # claims; committed artifacts stay, so --resume picks up from here
        print(
            f"mpil-experiments sweep: interrupted after {meter.done} of "
            f"{meter.total_tasks} tasks; re-run with --resume",
            file=sys.stderr,
        )
        return 130
    for entry in report.skipped:
        print(
            f"[{entry.experiment_id} seed={entry.seed}] skipped "
            f"(complete, checksum verified)",
            file=sys.stderr,
        )
    for failure in report.failures:
        print(
            f"[{failure.experiment_id} seed={failure.seed}] FAILED after "
            f"{failure.attempts} attempts: {failure.error}",
            file=sys.stderr,
        )
    for aggregate in report.aggregates:
        if args.format == "table":
            print(aggregate.table())
            print()
        elif args.format == "json":
            print(json.dumps(aggregate.to_dict(), sort_keys=True, indent=2))
        else:
            print(result_to_csv(aggregate), end="")
    print(
        f"(swept {len(report.outcomes)} tasks, skipped {len(report.skipped)}, "
        f"failed {len(report.failures)} "
        f"[{len(spec.experiment_ids)} experiments x {len(spec.seeds)} seeds] "
        f"in {report.wall_clock:.1f}s with jobs={args.jobs}; "
        f"artifacts under {args.out}/)",
        file=sys.stderr,
    )
    if report.failures:
        print(
            f"mpil-experiments sweep: {len(report.failures)} task(s) failed "
            f"permanently; re-run with `sweep --resume` to retry them",
            file=sys.stderr,
        )
        return 1
    return 0


def _cmd_status(args: argparse.Namespace) -> int:
    store = ResultStore(args.out)
    if not store.ledger_path.exists():
        raise ExperimentError(
            f"no sweep ledger at {store.ledger_path}; "
            f"run `sweep --out {args.out}` first"
        )
    rows = store.ledger.rows(experiment_id=args.experiment, scale=args.scale)
    if not rows:
        get_spec(args.experiment)  # unknown ids get the one-line error
        where = f"scale {args.scale!r} of " if args.scale else ""
        raise ExperimentError(
            f"no ledger entries for {where}experiment {args.experiment!r} "
            f"under {args.out}"
        )
    records = {
        (record.scale, record.seed): record
        for record in store.ledger.query_results(
            experiment_id=args.experiment, scale=args.scale
        )
    }
    by_scale: dict[str, list] = {}
    for row in rows:
        by_scale.setdefault(row.scale, []).append(row)
    for scale, scale_rows in by_scale.items():
        counts = {state: 0 for state in TASK_STATES}
        for row in scale_rows:
            counts[row.state] += 1
        attempts = sum(row.attempts for row in scale_rows)
        summary = ", ".join(f"{counts[state]} {state}" for state in TASK_STATES)
        print(
            f"{args.experiment}/{scale}: {summary} "
            f"({len(scale_rows)} tasks, {attempts} attempts)"
        )
        for row in scale_rows:
            detail = row.checksum if row.state == "done" else (row.error or "-")
            print(
                f"  seed {row.seed:<6d} {row.state:<8s} "
                f"attempts={row.attempts}  {detail}"
            )
            record = records.get((row.scale, row.seed))
            if record is not None and record.metrics:
                line = _metrics_status_line(record.metrics)
                if line:
                    print(f"    metrics: {line}")
    return 0


def _metrics_status_line(metrics: dict) -> str:
    """One compact line from a replicate's indexed telemetry summary:
    series count plus the largest scalar series (histograms elided)."""
    final = metrics.get("final") or {}
    scalars = {
        key: value
        for key, value in final.items()
        if isinstance(value, (int, float))
    }
    parts = [f"{len(final)} series"]
    highlights = sorted(scalars.items(), key=lambda item: (-item[1], item[0]))[:3]
    parts += [f"{key}={value:g}" for key, value in highlights]
    spans = metrics.get("spans")
    if spans:
        parts.append(f"spans={spans.get('recorded', 0)}")
    return ", ".join(parts)


def _cmd_trace(args: argparse.Namespace) -> int:
    telemetry = Telemetry.with_spans()
    started = time.perf_counter()
    run_experiment(
        args.experiment, scale=args.scale, seed=args.seed, telemetry=telemetry
    )
    elapsed = time.perf_counter() - started
    recorder = telemetry.spans
    assert recorder is not None
    all_trace_ids = recorder.trace_ids()
    kinds = sorted({trace_id.split(":", 1)[1] for trace_id in all_trace_ids})
    selected = all_trace_ids
    if args.kind is not None:
        selected = [
            trace_id
            for trace_id in selected
            if trace_id.split(":", 1)[1] == args.kind
        ]
        if not selected:
            raise ExperimentError(
                f"no {args.kind!r} traces in {args.experiment} "
                f"(scale {args.scale}, seed {args.seed}); recorded kinds: "
                f"{', '.join(kinds) or 'none'}"
            )
    if args.node is not None:
        selected = [
            trace_id
            for trace_id in selected
            if recorder.spans(trace_id=trace_id, node=args.node)
        ]
        if not selected:
            raise ExperimentError(
                f"no matching traces touch node {args.node} in "
                f"{args.experiment} (scale {args.scale}, seed {args.seed})"
            )
    dropped = f", {recorder.dropped} dropped" if recorder.dropped else ""
    print(
        f"{args.experiment} scale={args.scale} seed={args.seed}: "
        f"{len(recorder)} spans in {len(all_trace_ids)} traces{dropped}; "
        f"{len(selected)} traces match ({elapsed:.1f}s)",
        file=sys.stderr,
    )
    for trace_id in selected[: max(args.trees, 0)]:
        print()
        print(render_hop_tree(recorder.spans(trace_id=trace_id), trace_id=trace_id))
    if args.out is not None:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        spans = [
            span
            for trace_id in selected
            for span in recorder.spans(trace_id=trace_id)
        ]
        count = write_jsonl(spans, args.out)
        print(f"({count} spans -> {args.out})", file=sys.stderr)
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    if args.explain is not None:
        print(get_rule(args.explain).explain())
        return 0
    if args.list_rules:
        for rule in all_rules():
            print(f"{rule.rule_id:8s} {rule.title}")
        return 0
    config = (
        load_config(pyproject=args.config) if args.config is not None else None
    )
    rules = None
    if args.rules is not None:
        rules = [name.strip() for name in args.rules.split(",") if name.strip()]
        for rule_id in rules:
            get_rule(rule_id)  # unknown ids get the one-line error up front
    report = lint_paths(args.paths, config=config, rules=rules)
    if args.report is not None:
        args.report.parent.mkdir(parents=True, exist_ok=True)
        args.report.write_text(report.to_json())
        print(f"report written: {args.report}", file=sys.stderr)
    if args.format == "json":
        print(report.to_json(), end="")
    else:
        print(report.render_text())
    return 0 if report.ok else 1


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "list":
            return _cmd_list(args)
        if args.command == "scenarios":
            return _cmd_scenarios(args)
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "compose":
            return _cmd_compose(args)
        if args.command == "serve":
            return _cmd_serve(args)
        if args.command == "lint":
            return _cmd_lint(args)
        if args.command == "status":
            return _cmd_status(args)
        if args.command == "trace":
            return _cmd_trace(args)
        return _cmd_sweep(args)
    except (ExperimentError, ConfigurationError) as exc:
        # one line per expected user-facing error (unknown ids/scenarios,
        # bad seed specs, invalid scenario compositions), never a traceback;
        # internal-bug classes (RoutingError, SimulationError, ...) still
        # propagate with their stack
        print(f"mpil-experiments {args.command}: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
