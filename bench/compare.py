#!/usr/bin/env python3
"""Compare two benchmark records: ``python3 bench/compare.py A.json B.json``.

A record is what ``bench/run.py --out FILE`` writes; repeated runs append
to it, so each side is a *set* of runs.  For every workload and every
end-to-end metric of ``BENCHMARK.json`` this prints each side's median and
quartiles over its runs, B's change as a share of A's median, the metric's
bound, and a verdict:

- ``regressed``  — B's median is worse than A's by more than the bound;
- ``unresolved`` — either side's run-to-run spread (quartile distance over
  median) is wider than the bound and the two sides' runs interleave, so
  the runs cannot tell ``unchanged`` from ``changed``;
- ``ok``         — otherwise.

Result digests and event counts must be identical between the sides.
Exits 1 on any ``regressed`` or differing digest, else 0.
"""

from __future__ import annotations

import json
import pathlib
import sys

BENCH_DIR = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent))

from bench.clock import quartiles  # noqa: E402

CONTRACT = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())


def load_runs(path: str) -> dict[str, list[dict]]:
    """Untraced runs of a record file, by workload."""
    runs: dict[str, list[dict]] = {}
    for run in json.loads(pathlib.Path(path).read_text())["runs"]:
        if not run["trace"]:
            runs.setdefault(run["workload"], []).append(run)
    return runs


def verdict(a: list[float], b: list[float], better: str, bound: float) -> tuple[str, float]:
    """``(verdict, B's change as a share of A's median)``."""
    sign = 1.0 if better == "lower" else -1.0
    a_q1, a_median, a_q3 = quartiles(a)
    b_q1, b_median, b_q3 = quartiles(b)
    change = (b_median - a_median) / a_median
    worse_by = sign * change
    spread = max((a_q3 - a_q1) / a_median, (b_q3 - b_q1) / b_median)
    if spread > bound:
        all_better = max(sign * value for value in b) < min(sign * value for value in a)
        all_worse = min(sign * value for value in b) > max(sign * value for value in a)
        if all_better:
            return "ok", change
        if not (all_worse and worse_by > bound):
            return "unresolved", change
    return ("regressed" if worse_by > bound else "ok"), change


def _cell(values: list[float]) -> str:
    q1, median, q3 = quartiles(values)
    return f"{median:>11.5g} [{q1:.5g}, {q3:.5g}] n={len(values)}"


def compare(path_a: str, path_b: str) -> int:
    side_a, side_b = load_runs(path_a), load_runs(path_b)
    status = 0
    print(f"A = {path_a}\nB = {path_b}")
    header = f"{'workload':<12}{'metric':<14}{'A median [q1, q3]':<42}{'B median [q1, q3]':<42}"
    print(header + f"{'B vs A':>9}{'bound':>8}  verdict")
    for workload in sorted(set(side_a) | set(side_b)):
        runs_a, runs_b = side_a.get(workload, []), side_b.get(workload, [])
        if not runs_a or not runs_b:
            print(f"{workload:<12}only in {'A' if runs_a else 'B'}")
            continue
        for metric in CONTRACT["end_to_end"]:
            name = metric["name"]
            a = [run["end_to_end"][name]["value"] for run in runs_a]
            b = [run["end_to_end"][name]["value"] for run in runs_b]
            result, change = verdict(a, b, metric["better"], metric["bound"])
            status = status or int(result == "regressed")
            print(
                f"{workload:<12}{name:<14}{_cell(a):<42}{_cell(b):<42}"
                f"{change * 100:>+8.1f}%{metric['bound'] * 100:>7.0f}%  {result}"
            )
        for key in ("digests", "events_per_pass"):
            # a seed both sides ran must have produced the same bytes and events
            seeds = {run["seed"] for run in runs_a} & {run["seed"] for run in runs_b}
            mine = {(run["seed"], json.dumps(run[key], sort_keys=True)) for run in runs_a}
            theirs = {(run["seed"], json.dumps(run[key], sort_keys=True)) for run in runs_b}
            differing = sorted({seed for seed, _ in mine ^ theirs if seed in seeds})
            if differing:
                status = 1
                print(f"{workload:<12}{key}: DIFFER for seed(s) {differing}")
            elif seeds:
                print(f"{workload:<12}{key}: identical on {len(seeds)} shared seed(s)")
            else:
                print(f"{workload:<12}{key}: no shared seed to compare")
    return status


if __name__ == "__main__":
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    sys.exit(compare(sys.argv[1], sys.argv[2]))
