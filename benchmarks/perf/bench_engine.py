"""Perf harness for the two things ``benchmarks/e2e`` cannot see.

Speed is measured in one place: ``benchmarks/e2e/run.py`` times the path a
tuple really takes (socket -> buffer -> route -> shed -> engine -> sink) on
four named workloads and, with ``--append-history``, adds its rows to the
committed ``BENCH_e2e_history.jsonl``. What is left here is one
comparison *between two ways of running the same work*, which no single
e2e workload contains, and one step no workload times on its own. Each
writes one section ("tier") of ``BENCH_engine.json``:

* ``figure_fanout`` — wall-clock for the multi-strategy Fig. 12 job matrix
  (strategies x workloads) run serially vs. via the process pool, whose
  records must be identical;
* ``migration`` — the drain half of the live source-migration transaction:
  a loaded shard flushes its whole engine queue, timed per drained tuple.

Every tier is a plain function whose returned dict carries its own
``gates`` list, so ``check_trend.py`` lists no metric of its own:

* ``{"metric": m, "kind": "true"}`` — ``tier[m]`` must be true in every
  report, on any machine (this harness also exits non-zero when one is
  not);
* ``{"metric": m, "kind": "trend", "better": "higher", "tolerance": t}`` —
  ``tier[m]`` may not be worse than the committed baseline's by more than
  ``t``; skipped when either report's tier records a ``skip_reason`` (the
  machine has fewer CPUs than the tier has workers, so a sub-1x
  "speedup" is machine topology, not a regression) or when the two
  reports come from different machine shapes (``fingerprint``).

Each tolerance is sized from the gate's own run-to-run spread (a speedup
is a ratio of two wall times, so the noise of both compounds): identical
runs on a shared 2-CPU box read the 2-worker pool speedup 1.17-2.06. The
gates exist to catch a pool that no longer parallelises, not 5% jitter.

Usage::

    PYTHONPATH=src python benchmarks/perf/bench_engine.py           # quick
    PYTHONPATH=src python benchmarks/perf/bench_engine.py --full    # paper-scale
    PYTHONPATH=src python benchmarks/perf/bench_engine.py --workers 4
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from datetime import datetime, timezone
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(REPO_ROOT / "src"))
sys.path.insert(0, str(REPO_ROOT / "benchmarks" / "e2e"))

from repro.experiments import (  # noqa: E402
    ExperimentConfig,
    Job,
    run_jobs,
)
# the one machine fingerprint: the e2e history rows carry the same dict
from run import fingerprint  # noqa: E402

OUTPUT = REPO_ROOT / "BENCH_engine.json"

STRATEGIES = ("CTRL", "BASELINE", "AURORA")
WORKLOADS = ("web", "pareto")


def too_few_cpus(degree: int, unit: str):
    """Why a ``degree``-way parallel speedup means nothing here, if so."""
    cpus = os.cpu_count() or 1
    if cpus >= degree:
        return None
    return (f"cpu_count {cpus} < {unit} {degree}: the speedup is machine "
            "topology, not a regression")


def bench_figure_fanout(duration: float, workers: int) -> dict:
    """Fig. 12 job matrix: serial vs process-pool wall-clock."""
    cfg = ExperimentConfig(duration=duration)
    jobs = [
        Job(strategy=s, config=cfg, workload_kind=w, key=f"{w}/{s}")
        for w in WORKLOADS
        for s in STRATEGIES
    ]
    start = time.perf_counter()
    serial = run_jobs(jobs, workers=1)
    serial_wall = time.perf_counter() - start
    start = time.perf_counter()
    parallel = run_jobs(jobs, workers=workers)
    parallel_wall = time.perf_counter() - start
    identical = all(
        a.periods == b.periods and a.departures == b.departures
        for a, b in zip(serial, parallel)
    )
    return {
        "jobs": len(jobs),
        "workers": workers,
        # a pool cannot beat serial without a core per worker
        "skip_reason": too_few_cpus(workers, "workers"),
        "sim_duration_seconds": duration,
        "serial_wall_seconds": round(serial_wall, 4),
        "parallel_wall_seconds": round(parallel_wall, 4),
        "speedup": round(serial_wall / parallel_wall, 2),
        "records_identical": identical,
        "gates": [
            {"metric": "records_identical", "kind": "true"},
            {"metric": "speedup", "kind": "trend", "better": "higher",
             "tolerance": 0.30},
        ],
    }


def bench_migration() -> dict:
    """Raw drain latency of the live source-migration transaction.

    A loaded shard flushes its whole engine queue (the safety half of the
    cutover) and we time the wall clock per drained tuple. That the
    hotspot scenario triggers a move and recovers the worst shard is a
    tier-1 test (``tests/service/test_migration.py``) and a check of the
    e2e ``sim_hotspot`` workload; only the drain is timed nowhere else.
    """
    from repro.service.shard import build_shard

    cfg = ExperimentConfig(seed=7)
    shard = build_shard("drain", cfg, headroom=0.25, target=cfg.target,
                        engine_seed=3)
    record = shard.loop.begin()
    due = [(i * 0.002, (0.5, 0.5, 0.5, 0.5), shard.entry_source)
           for i in range(2000)]
    shard.loop.run_period(record, 0, due)
    start = time.perf_counter()
    report = shard.drain_source("bench", budget=600.0)
    drain_wall = time.perf_counter() - start
    return {
        "drain_backlog": report.backlog,
        "drain_wall_seconds": round(drain_wall, 4),
        "drain_virtual_seconds": round(report.virtual_seconds, 4),
        "drain_tuples_per_second": round(report.drained / drain_wall, 1),
        "drained_whole_backlog": bool(report.leftover == 0
                                      and not report.truncated),
        "gates": [
            {"metric": "drained_whole_backlog", "kind": "true"},
        ],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--full", action="store_true",
                        help="paper-scale durations (slower, steadier numbers)")
    parser.add_argument("--workers", type=int, default=None,
                        help="pool size for the fan-out benchmark "
                             "(default: min(4, cpu_count) but at least 2)")
    parser.add_argument("--output", type=Path, default=OUTPUT,
                        help=f"where to write the JSON (default {OUTPUT})")
    args = parser.parse_args(argv)

    fanout_duration = 400.0 if args.full else 60.0
    workers = args.workers or max(2, min(4, os.cpu_count() or 1))

    tiers = {}
    print(f"figure fan-out ({fanout_duration:.0f}s sim x "
          f"{len(STRATEGIES) * len(WORKLOADS)} jobs, "
          f"{workers} workers)...", flush=True)
    tiers["figure_fanout"] = bench_figure_fanout(fanout_duration, workers)
    print("migration (whole-queue drain of a loaded shard)...", flush=True)
    tiers["migration"] = bench_migration()

    report = {
        "generated_utc": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "fingerprint": fingerprint(),
        "mode": "full" if args.full else "quick",
        "tiers": tiers,
    }
    args.output.write_text(json.dumps(report, indent=2) + "\n")
    print(json.dumps(report, indent=2))
    print(f"\nwrote {args.output}")

    failures = [f"{name}.{gate['metric']}"
                for name, tier in tiers.items() for gate in tier["gates"]
                if gate["kind"] == "true" and not tier[gate["metric"]]]
    for failure in failures:
        print(f"PERF REGRESSION: {failure} is false", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
