"""Structured, on-disk storage for experiment results.

A :class:`ResultStore` persists every :class:`~repro.experiments.base.ExperimentResult`
as JSON under a stable layout::

    <root>/<experiment_id>/<scale>/seed_<n>.json    one file per replicate
    <root>/<experiment_id>/<scale>/seed_<n>.telemetry.json  its metrics snapshots
    <root>/<experiment_id>/<scale>/manifest.json    provenance + run stats
    <root>/<experiment_id>/<scale>/aggregate.json   merged replicate table
    <root>/<experiment_id>/<scale>/aggregate.csv    same table as CSV

Per-seed files contain only the *deterministic* payload
(:meth:`ExperimentResult.to_dict` plus the seed), serialised with sorted
keys and fixed indentation, so re-running the same sweep spec yields
byte-identical artifacts — the determinism contract the test suite checks.
All volatile provenance (git revision, timestamps, wall-clock seconds,
:func:`repro.sim.engine.events_processed_total` deltas) lives in
``manifest.json`` instead.

Every artifact (seed JSON, manifest, aggregates) is committed atomically:
the bytes go to a temp file in the same directory and are renamed into
place with ``os.replace``, so a crash — even SIGKILL — mid-write can never
leave a truncated ``seed_<n>.json`` behind.  A replicate is recorded once:
its ``runs`` entry in the cell's manifest.  ``<root>/tasks.jsonl``, the
sweep runtime's task journal (:mod:`repro.experiments.ledger`), and its
``sweep.lock`` are written only through :attr:`ResultStore.ledger` — saving
a replicate never touches them, so a store no sweep has used has neither.

:func:`aggregate_results` merges replicate rows into a new table where
every column that varies across seeds is replaced by ``_mean`` / ``_stdev``
/ ``_ci95`` columns, ready to compare against the paper's Monte-Carlo
aggregates.

Examples::

    from repro.experiments import run_experiment
    from repro.experiments.store import ResultStore, aggregate_results

    store = ResultStore("results")
    for seed in range(4):
        store.save(run_experiment("fig9", scale="smoke", seed=seed), seed=seed)
    replicates = [store.load("fig9", "smoke", seed) for seed in store.seeds("fig9", "smoke")]
    print(aggregate_results(replicates).table())
"""

from __future__ import annotations

import csv
import datetime
import functools
import io
import json
import os
import pathlib
import subprocess
from typing import Optional, Sequence, Union

from repro.errors import ExperimentError
from repro.experiments.base import (
    ExperimentResult,
    ci95,
    mean,
    p50,
    p95,
    p99,
    stdev,
)
from repro.experiments.ledger import TaskKey, TaskLedger, file_checksum

#: every aggregation statistic a result may request, suffix -> reducer
STAT_FUNCTIONS = {
    "_mean": mean,
    "_stdev": stdev,
    "_ci95": ci95,
    "_p50": p50,
    "_p95": p95,
    "_p99": p99,
}


@functools.cache
def git_revision(cwd: Union[str, pathlib.Path, None] = None) -> str:
    """The commit hash of the checkout holding ``cwd`` — by default this
    package's own directory, not the process's working directory, which
    may sit in some other repository — or ``"unknown"`` outside a checkout.
    Resolved once per process and directory: the checkout cannot change
    under a running sweep, and ``rev-parse`` is a subprocess."""
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=cwd if cwd is not None else pathlib.Path(__file__).parent,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    if proc.returncode != 0:
        return "unknown"
    return proc.stdout.strip()


def _atomic_write_text(path: pathlib.Path, text: str) -> None:
    """Commit ``text`` to ``path`` via write-then-rename.

    The temp file lives in the target directory so ``os.replace`` is a
    same-filesystem rename — atomic on POSIX.  A crash before the rename
    leaves at worst a stale ``*.tmp`` file; the destination is only ever
    absent or complete, never truncated.
    """
    temp = path.with_name(path.name + ".tmp")
    temp.write_text(text, encoding="utf-8")
    os.replace(temp, path)


class ResultStore:
    """Persist and reload experiment results under a root directory.

    The store is write-through: :meth:`save` writes the per-seed JSON and
    updates ``manifest.json`` in one call.  Reads never consult the
    manifest, so a store survives manual deletion of manifests or seeds.
    """

    def __init__(self, root: Union[str, pathlib.Path]):
        self.root = pathlib.Path(root)
        self._ledger: Optional[TaskLedger] = None

    @property
    def ledger_path(self) -> pathlib.Path:
        """The sweep task ledger's journal (absent until a sweep runs)."""
        return self.root / "tasks.jsonl"

    @property
    def ledger(self) -> TaskLedger:
        """The store's task ledger, folded on first access; it creates no
        file before its first write."""
        if self._ledger is None:
            self._ledger = TaskLedger(self.ledger_path)
        return self._ledger

    # ------------------------------------------------------------------ paths

    def result_dir(self, experiment_id: str, scale: str) -> pathlib.Path:
        """Directory holding one experiment/scale cell's artifacts."""
        return self.root / experiment_id / scale

    def seed_path(self, experiment_id: str, scale: str, seed: int) -> pathlib.Path:
        """Path of one replicate's JSON artifact."""
        return self.result_dir(experiment_id, scale) / f"seed_{seed}.json"

    def telemetry_path(
        self, experiment_id: str, scale: str, seed: int
    ) -> pathlib.Path:
        """Path of one replicate's telemetry blob (metrics snapshots)."""
        return self.result_dir(experiment_id, scale) / f"seed_{seed}.telemetry.json"

    def manifest_path(self, experiment_id: str, scale: str) -> pathlib.Path:
        """Path of the cell's provenance manifest."""
        return self.result_dir(experiment_id, scale) / "manifest.json"

    # ------------------------------------------------------------------ write

    def save(
        self,
        result: ExperimentResult,
        seed: int,
        wall_clock: float = 0.0,
        events_processed: int = 0,
    ) -> pathlib.Path:
        """Persist one replicate and record its provenance in the manifest.

        The JSON artifact is deterministic (sorted keys, fixed indent, no
        timestamps) and committed atomically (write-then-rename), so an
        interrupted save leaves either the old artifact or the new one,
        never a truncated file; wall-clock and event counts go only to the
        manifest.  ``result.metrics`` (the run's telemetry snapshots —
        sim-derived values only, so deterministic too) is committed the
        same way to ``seed_<n>.telemetry.json``; a run whose memory budget
        could not be enforced says so in its manifest entry too.
        """
        # read first: a corrupt manifest must fail before any byte is written
        manifest = self.manifest(result.experiment_id, result.scale)
        payload = result.to_dict()
        payload["seed"] = seed
        text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
        path = self.seed_path(result.experiment_id, result.scale, seed)
        path.parent.mkdir(parents=True, exist_ok=True)
        _atomic_write_text(path, text)
        if result.metrics:
            _atomic_write_text(
                self.telemetry_path(result.experiment_id, result.scale, seed),
                json.dumps(result.metrics, sort_keys=True, indent=2) + "\n",
            )
        # the replicate's one record: its ``runs`` entry in the cell's manifest
        if manifest is None:
            manifest = {
                "experiment_id": result.experiment_id,
                "scale": result.scale,
                "runs": {},
            }
        written_at = datetime.datetime.now(datetime.timezone.utc).isoformat()
        manifest["git_rev"] = git_revision()
        manifest["updated_at"] = written_at
        run = manifest["runs"][f"seed_{seed}"] = {
            "seed": seed,
            "wall_clock": round(wall_clock, 6),  # seconds inside the run
            "events_processed": events_processed,
            "events_per_sec": (
                round(events_processed / wall_clock, 3) if wall_clock > 0 else 0.0
            ),
            "rows": len(result.rows),
            "written_at": written_at,
        }
        if result.metrics and "memory_budget_enforced" in result.metrics:
            run["memory_budget_enforced"] = result.metrics["memory_budget_enforced"]
        _atomic_write_text(
            self.manifest_path(result.experiment_id, result.scale),
            json.dumps(manifest, sort_keys=True, indent=2) + "\n",
        )
        return path

    def write_aggregate(
        self, aggregate: ExperimentResult, seeds: Sequence[int]
    ) -> tuple[pathlib.Path, pathlib.Path]:
        """Write ``aggregate.json`` and ``aggregate.csv`` for one cell."""
        directory = self.result_dir(aggregate.experiment_id, aggregate.scale)
        directory.mkdir(parents=True, exist_ok=True)
        payload = aggregate.to_dict()
        payload["seeds"] = sorted(seeds)
        json_path = directory / "aggregate.json"
        _atomic_write_text(
            json_path, json.dumps(payload, sort_keys=True, indent=2) + "\n"
        )
        csv_path = directory / "aggregate.csv"
        _atomic_write_text(csv_path, result_to_csv(aggregate))
        return json_path, csv_path

    # ------------------------------------------------------------------- read

    def manifest(self, experiment_id: str, scale: str) -> Optional[dict]:
        """The cell's manifest dict, or None if nothing was saved yet.

        A manifest that does not parse is a one-line
        :class:`~repro.errors.ExperimentError` naming the file; no read
        depends on it, so deleting it is always safe.
        """
        path = self.manifest_path(experiment_id, scale)
        if not path.exists():
            return None
        try:
            return json.loads(path.read_text(encoding="utf-8"))
        except ValueError as exc:
            raise ExperimentError(
                f"manifest at {path} is not valid JSON ({exc}); delete it and "
                f"the next save regenerates it"
            ) from None

    def telemetry(self, experiment_id: str, scale: str, seed: int) -> dict:
        """One replicate's telemetry blob — ``{}`` when the file is missing
        or does not parse: it is run metadata, and no read depends on it."""
        try:
            blob = json.loads(
                self.telemetry_path(experiment_id, scale, seed).read_text(encoding="utf-8")
            )
        except (OSError, ValueError):
            return {}
        return blob if isinstance(blob, dict) else {}

    def seeds(self, experiment_id: str, scale: str) -> list[int]:
        """Seeds with a persisted artifact for this cell, ascending."""
        directory = self.result_dir(experiment_id, scale)
        if not directory.is_dir():
            return []
        # sorted() on the glob: directory enumeration order is
        # filesystem-dependent, and every consumer of this scan (manifest
        # updates, resume, aggregation) must see one canonical order;
        # the final numeric sort then fixes seed_10 < seed_9 lexicography
        found = []
        for path in sorted(directory.glob("seed_*.json")):
            try:
                found.append(int(path.stem.removeprefix("seed_")))
            except ValueError:
                continue
        return sorted(found)

    def load(self, experiment_id: str, scale: str, seed: int) -> ExperimentResult:
        """Reload one replicate; raises :class:`ExperimentError` if missing."""
        path = self.seed_path(experiment_id, scale, seed)
        if not path.exists():
            raise ExperimentError(f"no stored result at {path}")
        return ExperimentResult.from_dict(json.loads(path.read_text(encoding="utf-8")))

    def verify_artifact(self, task: TaskKey, checksum: str) -> bool:
        """True iff the task's artifact exists and hashes to ``checksum``.

        This is the resume planner's gate: a ``done`` ledger row only
        counts if the bytes on disk still match what was committed —
        truncated, deleted, or hand-edited artifacts force a re-run.
        """
        experiment_id, scale, seed = task
        path = self.seed_path(experiment_id, scale, seed)
        if not path.exists():
            return False
        return file_checksum(path) == checksum


def _is_number(value: object) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def aggregate_results(replicates: Sequence[ExperimentResult]) -> ExperimentResult:
    """Merge replicate tables into one mean/stdev/CI table.

    Replicates must share experiment id, scale, columns, and row count (the
    runner guarantees this: same spec, different seeds), and must declare
    ``key_columns`` (every pipeline does).  Those columns pass through
    unchanged and *every other numeric column* is replaced by a stat
    column group — so the aggregate schema depends only on the experiment,
    never on which values the sampled seeds happened to produce.  The
    group is the result's ``stat_suffixes`` (default
    ``_mean``/``_stdev``/``_ci95``; service experiments add
    ``_p50``/``_p95``/``_p99`` for cross-seed tail statistics).  ``_ci95``
    is the half-width of the Student-t 95% confidence interval.
    """
    if not replicates:
        raise ExperimentError("cannot aggregate zero replicates")
    first = replicates[0]
    suffixes = tuple(first.stat_suffixes)
    unknown_stats = [s for s in suffixes if s not in STAT_FUNCTIONS]
    if unknown_stats:
        raise ExperimentError(
            f"unknown stat suffix(es) {unknown_stats} on {first.experiment_id}; "
            f"available: {sorted(STAT_FUNCTIONS)}"
        )
    for other in replicates[1:]:
        if other.experiment_id != first.experiment_id or other.scale != first.scale:
            raise ExperimentError(
                f"cannot aggregate across cells: {first.experiment_id}/{first.scale} "
                f"vs {other.experiment_id}/{other.scale}"
            )
        if other.columns != first.columns or len(other.rows) != len(first.rows):
            raise ExperimentError(
                f"replicates of {first.experiment_id} have mismatched shapes"
            )

    num_rows = len(first.rows)
    num_cols = len(first.columns)
    is_numeric = [
        all(_is_number(r.rows[i][j]) for r in replicates for i in range(num_rows))
        for j in range(num_cols)
    ]
    if not first.key_columns:
        raise ExperimentError(
            f"cannot aggregate {first.experiment_id}: it declares no key_columns"
        )
    unknown = set(first.key_columns) - set(first.columns)
    if unknown:
        raise ExperimentError(
            f"key_columns {sorted(unknown)} not in columns of "
            f"{first.experiment_id}"
        )
    is_key = [name in first.key_columns for name in first.columns]

    columns: list[str] = []
    for j, name in enumerate(first.columns):
        if is_key[j]:
            columns.append(name)
        elif is_numeric[j]:
            columns.extend(name + suffix for suffix in suffixes)
        else:
            # Non-numeric and varying (should not happen for registered
            # experiments); keep the first replicate's value.
            columns.append(name)

    rows: list[tuple] = []
    for i in range(num_rows):
        cells: list[object] = []
        for j in range(num_cols):
            if is_key[j] or not is_numeric[j]:
                cells.append(first.rows[i][j])
            else:
                values = [r.rows[i][j] for r in replicates]
                cells.extend(
                    round(STAT_FUNCTIONS[suffix](values), 6) for suffix in suffixes
                )
        rows.append(tuple(cells))

    return ExperimentResult(
        experiment_id=first.experiment_id,
        title=first.title,
        columns=tuple(columns),
        rows=rows,
        notes=f"aggregate of {len(replicates)} replicates; {first.notes}".rstrip("; "),
        scale=first.scale,
        key_columns=first.key_columns,
        stat_suffixes=suffixes,
    )


def result_to_csv(result: ExperimentResult) -> str:
    """Render a result as CSV text (header row + one line per table row)."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(result.columns)
    writer.writerows(result.rows)
    return buffer.getvalue()
