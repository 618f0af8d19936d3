"""Judge the committed e2e trajectory against its own recent past.

``BENCH_e2e_history.jsonl`` at the repo root is appended to by
``benchmarks/e2e/run.py --append-history``. For each workload the newest
untraced row is compared, metric by metric, with the median of up to five
earlier rows that share its seed, run length and machine shape; names,
directions and bounds are read from ``BENCHMARK.json``'s ``end_to_end``
table, so this script names no metric of its own. With no such earlier
row the comparison is skipped. This is where a slower engine, control
loop, wire or observer shows — in place, on the workload that uses it.

A machine's *shape* is the ``nproc``, ``cpu`` and ``python`` of the
fingerprint every row carries; its ``platform`` string holds the host
kernel build, which differs between sandboxes of one shape.

Gains never fail. When a slowdown is expected, append a fresh history
pass and commit it in the same PR. Every run ends with one summary line,
``e2e trend: N compared, M skipped, K failed``.

Usage::

    python benchmarks/perf/check_trend.py
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path
from typing import Iterator, List, NamedTuple, Optional

REPO_ROOT = Path(__file__).resolve().parents[2]
HISTORY = REPO_ROOT / "BENCH_e2e_history.jsonl"
BENCHMARK = REPO_ROOT / "BENCHMARK.json"

#: earlier rows of the trajectory whose median the newest row is held to
HISTORY_WINDOW = 5


class Comparison(NamedTuple):
    """One bounded metric of one workload's newest row, ready to judge."""

    label: str
    now: float
    base: float = 0.0
    better: str = "higher"
    allowed: float = 0.0
    skip: Optional[str] = None


def shape(fingerprint: dict) -> tuple:
    return fingerprint["nproc"], fingerprint["cpu"], fingerprint["python"]


def history_gates(rows: List[dict], declared: List[dict]
                  ) -> Iterator[Comparison]:
    """Newest untraced row per workload against its same-shape predecessors."""
    def comparable(row: dict) -> tuple:
        return row["seed"], row["seconds"], shape(row["fingerprint"])

    by_workload = {}
    for row in rows:
        if not row["trace"]:  # bounds apply to the untraced, end-to-end runs
            by_workload.setdefault(row["workload"], []).append(row)
    for workload, runs in by_workload.items():
        newest = runs[-1]
        peers = [r for r in runs[:-1]
                 if comparable(r) == comparable(newest)][-HISTORY_WINDOW:]
        for metric in declared:
            name = metric["name"]
            label = f"e2e {workload} {name}"
            if not peers:
                yield Comparison(label, newest["metrics"][name], skip=(
                    "no earlier row with this seed, run length and "
                    "machine shape"))
                continue
            base = statistics.median(r["metrics"][name] for r in peers)
            yield Comparison(f"{label} (vs median of {len(peers)})",
                             newest["metrics"][name], base,
                             metric["better"], metric["bound"],
                             None if base > 0
                             else f"baseline {base} is not positive")


def judge(c: Comparison) -> Optional[str]:
    """Print one comparison's verdict; return the failure, if it is one."""
    change = (c.now - c.base) / c.base
    worse = -change if c.better == "higher" else change
    ok = worse <= c.allowed
    print(f"{c.label}: {c.base:.6g} -> {c.now:.6g} ({change:+.1%}, "
          f"{c.better} is better, {c.allowed:.0%} allowed) "
          f"[{'OK' if ok else 'FAIL'}]")
    return None if ok else (f"{c.label} is {worse:.1%} worse "
                            f"(> {c.allowed:.0%} allowed)")


def main() -> int:
    rows = [json.loads(line)
            for line in HISTORY.read_text().splitlines() if line.strip()]
    declared = json.loads(BENCHMARK.read_text())["end_to_end"]
    compared = skipped = 0
    failures = []
    for c in history_gates(rows, declared):
        if c.skip:
            print(f"{c.label}: skip — {c.skip}")
            skipped += 1
            continue
        compared += 1
        failure = judge(c)
        if failure:
            failures.append(failure)
    for failure in failures:
        print(f"PERF TREND FAILURE: {failure}", file=sys.stderr)
    if not compared:
        print(f"e2e trend: NOTHING COMPARED in {HISTORY.name} — no workload's "
              "newest untraced row has an earlier untraced row with the same "
              "seed, run length and machine shape (nproc, cpu, python)")
    print(f"e2e trend: {compared} compared, {skipped} skipped, "
          f"{len(failures)} failed")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
