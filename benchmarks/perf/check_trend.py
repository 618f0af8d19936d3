"""Judge a fresh perf report and the e2e trajectory against what is committed.

CI runs the perf harness on every push, then calls this script. It names
no metric of its own: every comparison it makes is declared by the data
it reads, and one loop judges them all.

* **The fresh report's gates.** Each tier of ``bench_engine.py``'s report
  carries a ``gates`` list (see that module's docstring). A ``true`` gate
  must hold in the fresh report. A ``trend`` gate compares the fresh value
  with the committed baseline's and fails when it is worse by more than
  the gate's own ``tolerance``; it is *skipped* (printed, never failed)
  when either report's tier records a ``skip_reason``, when the two
  reports come from different machine shapes, or when the baseline has no
  such value yet. A tier present in the baseline but missing from the
  fresh report fails: a deleted tier must be deleted from the baseline
  too, never silently unguarded.
* **The e2e trajectory.** ``BENCH_e2e_history.jsonl`` at the repo root is
  appended to by ``benchmarks/e2e/run.py --append-history``. For each
  workload the newest untraced row is compared, metric by metric, with
  the median of up to five earlier rows that share its seed, run length
  and machine shape; names, directions and bounds are read from
  ``BENCHMARK.json``'s ``end_to_end`` table. With no such earlier row the
  comparison is skipped. This is where a slower engine, control loop,
  wire or observer shows — in place, on the workload that uses it.

A machine's *shape* is the ``nproc``, ``cpu`` and ``python`` of the
fingerprint both files carry; its ``platform`` string holds the host
kernel build, which differs between sandboxes of one shape.

Gains never fail. When a slowdown is expected, regenerate the baseline
(``PYTHONPATH=src python benchmarks/perf/bench_engine.py``) or append a
fresh history pass, and commit it in the same PR.

Usage::

    python benchmarks/perf/check_trend.py BENCH_engine.json BENCH_fresh.json
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from itertools import chain
from pathlib import Path
from typing import Iterator, List, NamedTuple, Optional

REPO_ROOT = Path(__file__).resolve().parents[2]
HISTORY = REPO_ROOT / "BENCH_e2e_history.jsonl"
BENCHMARK = REPO_ROOT / "BENCHMARK.json"

#: earlier rows of the trajectory whose median the newest row is held to
HISTORY_WINDOW = 5


class Comparison(NamedTuple):
    """One declared gate, ready to judge (``base is None``: must be true)."""

    label: str
    now: object
    base: Optional[float] = None
    better: str = "higher"
    allowed: float = 0.0
    skip: Optional[str] = None


def shape(fingerprint: dict) -> tuple:
    return fingerprint["nproc"], fingerprint["cpu"], fingerprint["python"]


def report_gates(baseline: dict, fresh: dict) -> Iterator[Comparison]:
    """The fresh report's declared gates against the committed baseline."""
    moved = shape(baseline["fingerprint"]) != shape(fresh["fingerprint"])
    for name in baseline["tiers"]:
        yield Comparison(f"{name}: baseline tier is in the fresh report",
                         name in fresh["tiers"])
    for name, tier in fresh["tiers"].items():
        old = baseline["tiers"].get(name, {})
        for gate in tier["gates"]:
            metric = gate["metric"]
            label = f"{name}.{metric}"
            if gate["kind"] == "true":
                yield Comparison(label, tier[metric])
                continue
            skip = tier.get("skip_reason") or old.get("skip_reason")
            if not skip and moved:
                skip = ("baseline and fresh report come from different "
                        "machine shapes")
            if not skip and metric not in old:
                skip = "no baseline value yet"
            yield Comparison(label, tier[metric], old.get(metric, 0.0),
                             gate["better"], gate["tolerance"], skip)


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
                             metric["better"], metric["bound"])


def judge(c: Comparison) -> Optional[str]:
    """Print one comparison's verdict; return the failure, if it is one."""
    if c.skip:
        print(f"{c.label}: skip — {c.skip}")
        return None
    if c.base is None:
        print(f"{c.label}: {c.now} [{'OK' if c.now else 'FAIL'}]")
        return None if c.now else f"{c.label} is false"
    if c.base <= 0:
        print(f"{c.label}: skip — baseline {c.base} is not positive")
        return None
    change = (c.now - c.base) / c.base
    worse = -change if c.better == "higher" else change
    ok = worse <= c.allowed
    print(f"{c.label}: {c.base:.6g} -> {c.now:.6g} ({change:+.1%}, "
          f"{c.better} is better, {c.allowed:.0%} allowed) "
          f"[{'OK' if ok else 'FAIL'}]")
    return None if ok else (f"{c.label} is {worse:.1%} worse "
                            f"(> {c.allowed:.0%} allowed)")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("baseline", type=Path,
                        help="committed BENCH_engine.json")
    parser.add_argument("fresh", type=Path,
                        help="report from this run")
    args = parser.parse_args(argv)

    rows = [json.loads(line)
            for line in HISTORY.read_text().splitlines() if line.strip()]
    comparisons = chain(
        report_gates(json.loads(args.baseline.read_text()),
                     json.loads(args.fresh.read_text())),
        history_gates(rows, json.loads(BENCHMARK.read_text())["end_to_end"]))
    failures = [f for f in map(judge, comparisons) if f]
    for failure in failures:
        print(f"PERF TREND FAILURE: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
