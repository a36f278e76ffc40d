"""Command-line interface: ``mpil-experiments list|scenarios|run|sweep|status|trace|compose|serve``.

Eight commands (``<command> --help`` has each one's options):

- ``list`` — registered experiment ids and titles, ``--tags``-filtered;
- ``scenarios`` — the perturbation-scenario catalogue, one family's
  details (process class, parameters, experiments), or a figure's cells;
- ``run`` — experiments at one seed: print their tables, and with ``--out``
  persist each replicate exactly as a sweep's commit does;
- ``sweep`` — experiments over a *set* of seeds on a crash-tolerant worker
  pool: per-seed artifacts, a durable task journal, one
  mean/stdev/ci95 aggregate per experiment; ``--resume`` re-runs only what
  an interrupted sweep left unfinished (:mod:`repro.experiments.runner`);
- ``status`` — a sweep's ledger progress for one experiment, plus one line
  from each replicate's ``seed_<n>.telemetry.json``; runs and locks nothing;
- ``trace`` — run with span recording on and print parent-linked hop
  trees; ``--out`` exports the spans as sorted JSONL (:mod:`repro.telemetry`);
- ``compose`` — build an experiment from a declarative TOML/JSON spec
  (:mod:`repro.experiments.compose`) and run it, no module required;
- ``serve`` — a sustained-traffic service experiment: open-loop arrivals,
  per-window latency percentiles and SLO verdicts (:mod:`repro.service`).

This module is argument parsing and printing.  Every replicate that
``run``/``compose``/``serve``/``trace`` measure goes through
:func:`repro.experiments.runtime.execute_task` (the one place a run is timed
and its events counted) and is recorded by
:func:`repro.experiments.runner.save_outcome`; each rule shared with
:mod:`repro.api` (service-tag check, compose + register, ledger rows,
seeds → ``SweepSpec``) is stated there or in the runner, once.
Expected errors are one stderr line and exit 2, never a traceback.

The store layout is ``<out>/<experiment>/<scale>/seed_<n>.json`` with a
``manifest.json`` (git revision, timestamps, wall-clock, event counts)
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

(Without an installed entry point, invoke the same CLI as
``PYTHONPATH=src python -m repro.experiments.cli ...``.)
"""

from __future__ import annotations

import argparse
import collections
import json
import pathlib
import sys
from typing import Iterable, Optional, Sequence

from repro import api
from repro.errors import ConfigurationError, ExperimentError
from repro.experiments.base import ExperimentResult
from repro.experiments.ledger import TASK_STATES
from repro.experiments.registry import all_experiment_ids, get_spec, list_experiments
from repro.experiments.runner import SweepSpec, TaskOutcome, run_sweep, save_outcome
from repro.experiments.runtime import execute_task
from repro.experiments.scales import available_scales
from repro.experiments.store import ResultStore, result_to_csv
from repro.perturbation.scenario import get_family, scenario_families, scenarios_for
from repro.service.driver import SERVICE_COLUMNS
from repro.telemetry import Span, Telemetry
from repro.telemetry.progress import ProgressMeter, service_window_line
from repro.telemetry.sinks import render_hop_tree, write_jsonl


def _add_experiments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("experiments", nargs="+", help="experiment ids (or 'all')")


def _add_scale(
    parser: argparse.ArgumentParser,
    default: Optional[str] = "default",
    help: Optional[str] = None,
) -> None:
    """``--scale``: the built-in rungs plus registered ones, unless ``help``
    says the option means something else for this command."""
    note = "" if default == "default" else f" (default: {default})"
    parser.add_argument(
        "--scale",
        default=default,
        metavar="SCALE",
        help=help
        or (
            f"experiment scale rung ({', '.join(available_scales())}, "
            f"or a rung registered via repro.api.register_scale){note}"
        ),
    )


def _add_seed(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--seed", type=int, default=0, help="root seed")


def _add_out(
    parser: argparse.ArgumentParser,
    help: str,
    default: Optional[pathlib.Path] = None,
    metavar: Optional[str] = None,
) -> None:
    parser.add_argument(
        "--out", type=pathlib.Path, default=default, metavar=metavar, help=help
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mpil-experiments",
        description="Regenerate the paper's figures and tables (MPIL, DSN 2005)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, handler, help: str) -> argparse.ArgumentParser:
        """One subcommand; ``main`` dispatches on the handler set here."""
        subparser = sub.add_parser(name, help=help)
        subparser.set_defaults(handler=handler)
        return subparser

    list_parser = command("list", _cmd_list, "list available experiments")
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

    scenarios_parser = command(
        "scenarios", _cmd_scenarios, "show the perturbation-scenario catalogue"
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

    run_parser = command("run", _cmd_run, "run one or more experiments")
    _add_experiments(run_parser)
    _add_scale(run_parser)
    _add_seed(run_parser)
    _add_out(
        run_parser,
        "result-store root: writes <out>/<id>/<scale>/seed_<n>.json, its "
        "telemetry blob and a manifest.json entry per experiment",
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

    sweep_parser = command(
        "sweep", _cmd_sweep, "run experiments over many seeds, in parallel"
    )
    _add_experiments(sweep_parser)
    _add_scale(sweep_parser)
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
    _add_out(
        sweep_parser,
        "result-store root directory (default: results/)",
        pathlib.Path("results"),
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

    status_parser = command(
        "status", _cmd_status, "show a sweep's ledger progress for one experiment"
    )
    status_parser.add_argument("experiment", help="experiment id")
    _add_scale(
        status_parser,
        default=None,
        help="only this scale's tasks (default: every scale in the ledger)",
    )
    _add_out(
        status_parser,
        "result-store root holding the ledger (default: results/)",
        pathlib.Path("results"),
    )

    trace_parser = command(
        "trace",
        _cmd_trace,
        "run one experiment with span recording and print a hop tree",
    )
    trace_parser.add_argument("experiment", help="experiment id")
    _add_scale(trace_parser, default="smoke")
    _add_seed(trace_parser)
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
    _add_out(
        trace_parser, "also export every matching span as sorted JSONL", metavar="JSONL"
    )

    compose_parser = command(
        "compose",
        _cmd_compose,
        "build an experiment from a TOML/JSON spec file and run it",
    )
    compose_parser.add_argument(
        "spec",
        type=pathlib.Path,
        help="declarative spec file (.toml or .json; see repro.experiments.compose)",
    )
    _add_scale(compose_parser)
    _add_seed(compose_parser)
    _add_out(compose_parser, "result-store root (same layout as `run --out`)")

    serve_parser = command(
        "serve",
        _cmd_serve,
        "run a sustained-traffic service experiment (latency percentiles)",
    )
    serve_parser.add_argument(
        "experiment",
        nargs="?",
        default="svc-steady",
        help="a service-mode experiment id (default: svc-steady; "
        "see `list --tags service`)",
    )
    _add_scale(serve_parser)
    _add_seed(serve_parser)
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
    _add_out(serve_parser, "result-store root (same layout as `run --out`)")
    return parser


def _cmd_list(args: argparse.Namespace) -> int:
    tags = tuple(part.strip() for part in (args.tags or "").split(",") if part.strip())
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


def _save(out: Optional[pathlib.Path], outcome: TaskOutcome) -> None:
    """``--out`` of ``run``, ``compose`` and ``serve``: record the replicate
    the way a sweep's commit does (no ledger — that is a sweep's)."""
    if out is not None:
        save_outcome(ResultStore(out), outcome)


def _export_spans(
    spans: Iterable[Span], dropped: int, destination: pathlib.Path
) -> None:
    """``run --trace`` and ``trace --out``: sorted JSONL, and one stderr line
    that says so — and says when the recorder filled, so that a truncated
    file never looks complete."""
    destination.parent.mkdir(parents=True, exist_ok=True)
    count = write_jsonl(spans, destination)
    suffix = f" ({dropped} dropped)" if dropped else ""
    print(f"({count} spans{suffix} -> {destination})", file=sys.stderr)


def _cmd_run(args: argparse.Namespace) -> int:
    experiment_ids = _requested_ids(args.experiments)
    for experiment_id in experiment_ids:
        # one handle per experiment so metrics blobs and trace files never
        # mix counts or spans across experiments in a multi-id invocation
        telemetry = Telemetry.with_spans() if args.trace is not None else Telemetry()
        outcome = execute_task(experiment_id, args.scale, args.seed, telemetry=telemetry)
        print(outcome.result.table())
        print(f"({experiment_id} completed in {outcome.wall_clock:.1f}s)\n")
        if telemetry.spans is not None:
            destination = args.trace
            if len(experiment_ids) > 1:  # id-qualified, so runs never overwrite
                destination = args.trace.with_name(
                    f"{args.trace.stem}_{experiment_id}{args.trace.suffix or '.jsonl'}"
                )
            _export_spans(telemetry.spans, telemetry.spans.dropped, destination)
        _save(args.out, outcome)
    return 0


def _cmd_compose(args: argparse.Namespace) -> int:
    # registered, so the composed id resolves like a built-in for the rest
    # of this process — and a spec file cannot shadow a registered id
    spec = api.compose(args.spec, register_spec=True)
    outcome = execute_task(spec, args.scale, args.seed)
    print(outcome.result.table())
    print(f"({spec.experiment_id} composed from {args.spec} "
          f"and completed in {outcome.wall_clock:.1f}s)\n")
    _save(args.out, outcome)
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    spec, scale = api.service_run(
        args.experiment, args.scale, args.rate, args.duration, args.window
    )
    outcome = execute_task(spec, scale, args.seed)
    for line in _service_window_lines(outcome.result):
        print(line, file=sys.stderr)
    if args.format == "json":
        # pure JSON on stdout so scripted callers can parse it directly
        print(json.dumps(outcome.result.to_dict(), sort_keys=True, indent=2))
    else:
        print(outcome.result.table())
    print(
        f"({spec.experiment_id} served in {outcome.wall_clock:.1f}s)", file=sys.stderr
    )
    _save(args.out, outcome)
    return 0


def _service_window_lines(result: ExperimentResult) -> list[str]:
    """One line per row of a service result — columns ``(cell,
    *SERVICE_COLUMNS)``, the shape every service pipeline emits — naming
    the row's cell; none for a result of another shape."""
    cell_column, *columns = result.columns
    if tuple(columns) != SERVICE_COLUMNS:
        return []
    lines = []
    for cell, *values in result.rows:
        row = dict(zip(SERVICE_COLUMNS, values))
        lines.append(
            service_window_line(
                cell=f"{cell_column}={cell}",
                variant=row["variant"],
                window_index=row["window"],
                arrivals=row["arrivals"],
                success_rate=row["success_rate"],
                p99=row["latency_p99"],
                in_flight=row["peak_in_flight"],
            )
        )
    return lines


def _cmd_sweep(args: argparse.Namespace) -> int:
    spec = SweepSpec.parse(_requested_ids(args.experiments), args.seeds, args.scale)
    store = ResultStore(args.out)
    meter = ProgressMeter(total_tasks=len(spec.tasks()))

    def progress(outcome: TaskOutcome) -> None:
        meter.task_finished(outcome.events_processed)
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
    for row in report.skipped:
        print(
            f"[{row.experiment_id} seed={row.seed}] skipped "
            f"(complete, checksum verified)",
            file=sys.stderr,
        )
    for row in report.failures:  # attempts as `status` counts them
        print(
            f"[{row.experiment_id} seed={row.seed}] FAILED after "
            f"{row.attempts} attempts: {row.error}",
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
        f"in {report.wall_clock:.1f}s with jobs={args.jobs}, "
        f"{report.cache_clears} cache clears; "
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
    rows = api.sweep_status(store, args.experiment, args.scale)
    if not rows:
        get_spec(args.experiment)  # unknown ids get the one-line error
        where = f"scale {args.scale!r} of " if args.scale else ""
        raise ExperimentError(
            f"no ledger entries for {where}experiment {args.experiment!r} "
            f"under {args.out}"
        )
    by_scale: dict[str, list] = {}
    for row in rows:
        by_scale.setdefault(row.scale, []).append(row)
    for scale, scale_rows in by_scale.items():
        counts = collections.Counter(row.state for row in scale_rows)
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
            line = _metrics_status_line(
                store.telemetry(row.experiment_id, row.scale, row.seed)
            )
            if line:
                print(f"    metrics: {line}")
    return 0


def _metrics_status_line(metrics: dict) -> str:
    """One compact line from a replicate's telemetry blob — series count plus
    the largest scalar series (histograms elided) — or ``""`` without one."""
    if not metrics:
        return ""
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
    outcome = execute_task(args.experiment, args.scale, args.seed, telemetry=telemetry)
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
        f"{len(selected)} traces match ({outcome.wall_clock:.1f}s)",
        file=sys.stderr,
    )
    for trace_id in selected[: max(args.trees, 0)]:
        print()
        print(render_hop_tree(recorder.spans(trace_id=trace_id), trace_id=trace_id))
    if args.out is not None:
        spans = [
            span
            for trace_id in selected
            for span in recorder.spans(trace_id=trace_id)
        ]
        _export_spans(spans, recorder.dropped, args.out)
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except (ExperimentError, ConfigurationError) as exc:
        # one line per expected user-facing error (unknown ids/scenarios,
        # bad seed specs, invalid scenario compositions), never a traceback;
        # internal-bug classes (RoutingError, SimulationError, ...) still
        # propagate with their stack
        print(f"mpil-experiments {args.command}: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
