"""Python calls per unit of work: a host-independent perf counter.

Wall-clock speed on a shared host cannot resolve a change, but the number
of CPython calls a fixed, seeded unit of work makes is exact and moves the
way per-call interpreter overhead does. Each unit runs once to warm caches
and lazy imports, then once under ``cProfile``:

* ``full`` / ``full_cost`` — the CTRL loop on the full engine over the web
  trace, without and with the Fig. 14 cost trace: all calls and
  ``repro.dsms`` calls per admitted tuple;
* ``fluid`` — the same loop on the fluid engine: calls per period;
* ``wire_csv`` / ``wire_json`` — ``decode_line`` + ``IngestBuffer.push``
  per wire tuple;
* ``service`` — period 0 of a 2-shard lockstep service, outside the engine.

Run in a fresh interpreter (a logging level or bus subscriber left in a
process adds calls), this file prints the counts and exits 1 when one is
above its ceiling in ``CEILINGS``; ``tests/test_call_counts.py`` runs it.
A change that lowers a count lowers its ceiling.
"""

from __future__ import annotations

import cProfile
import pstats
import sys
from functools import partial
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "src"))

from repro.core.clock import ManualClock  # noqa: E402
from repro.experiments import (  # noqa: E402
    ExperimentConfig, build_service_workload, make_cost_trace, make_workload,
    run_strategy)
from repro.serve.ingest import IngestBuffer, decode_line  # noqa: E402
from repro.service import ServiceConfig, build_topology, run_service_period  # noqa: E402

CONFIG = ExperimentConfig(duration=10.0, seed=1)
WIRE_TUPLES = 2000
DSMS = "/repro/dsms/"

#: the recorded count of every metric; a count may only go down
CEILINGS = {
    "full.calls_per_admitted": 418.1,
    "full.dsms_calls_per_admitted": 399.0,
    "full_cost.calls_per_admitted": 486.4,
    "full_cost.dsms_calls_per_admitted": 398.3,
    "fluid.calls_per_period": 7381.8,
    "wire_csv.calls_per_tuple": 24.0,
    "wire_json.calls_per_tuple": 29.0,
    "service.calls_outside_engines": 1585.0,
}


def dsms_calls(key, row) -> int:
    """A row's calls made by ``repro.dsms`` (a builtin's, by its callers)."""
    if DSMS in key[0]:
        return row[1]
    if key[0] == "~":
        return sum(c[1] for caller, c in row[4].items() if DSMS in caller[0])
    return 0


def calls(make):
    """``(result, all calls, repro.dsms calls)`` of a profiled ``make()()``,
    run after one warm-up ``make()()``."""
    make()()
    profile = cProfile.Profile()
    result = profile.runcall(make())
    rows = pstats.Stats(profile).stats.items()
    total = sum(row[1] for __, row in rows)
    dsms = sum(dsms_calls(key, row) for key, row in rows)
    return result, total, dsms


def loop_counts(engine_kind: str, cost_trace=None):
    workload = make_workload("web", CONFIG)
    return calls(lambda: partial(run_strategy, "CTRL", workload, CONFIG,
                                 cost_trace=cost_trace,
                                 engine_kind=engine_kind))


def wire_counts(line: bytes) -> float:
    def unit():
        buffer = IngestBuffer(ManualClock())
        for __ in range(WIRE_TUPLES):
            values, source, __sent = decode_line(line)
            buffer.push(values, source)
    return calls(lambda: unit)[1] / WIRE_TUPLES


def service_counts() -> int:
    svc = ServiceConfig(n_shards=2, n_sources=2)
    due = [a for a in build_service_workload(CONFIG, svc)
           if a[0] < CONFIG.period]

    def first_period():
        """Period 0 of a freshly built service, ready to run."""
        shards, table, coordinator = build_topology(CONFIG, svc)
        records = [shard.loop.begin() for shard in shards]
        return lambda: run_service_period(0, due, table.shard_of, shards,
                                          records, coordinator, table)
    __, total, dsms = calls(first_period)
    return total - dsms


def measure() -> dict:
    counts = {}
    for name, kind, trace in (("full", "full", None),
                              ("full_cost", "full", make_cost_trace(CONFIG))):
        record, total, dsms = loop_counts(kind, trace)
        admitted = sum(p.admitted for p in record.periods)
        counts[f"{name}.calls_per_admitted"] = round(total / admitted, 1)
        counts[f"{name}.dsms_calls_per_admitted"] = round(dsms / admitted, 1)
    record, total, __ = loop_counts("fluid")
    counts["fluid.calls_per_period"] = round(total / len(record.periods), 1)
    for name, line in (("wire_csv", b"0.1,0.2,0.3,0.4\n"),
                       ("wire_json", b'{"v":[0.1,0.2,0.3,0.4],"s":"s1"}\n')):
        counts[f"{name}.calls_per_tuple"] = round(wire_counts(line), 1)
    counts["service.calls_outside_engines"] = float(service_counts())
    return counts


if __name__ == "__main__":
    over = []
    for name, count in measure().items():
        print(f"{name:36s} {count:9.1f}  ceiling {CEILINGS[name]:9.1f}")
        if count > CEILINGS[name]:
            over.append(name)
    sys.exit(f"above the ceiling: {over}" if over else 0)
