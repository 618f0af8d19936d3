"""The metric tables: names, units, direction, bounds.

``BENCHMARK.json`` at the repo root carries the same two tables for the
driver; ``tests/test_contract.py`` fails when they drift apart.

A bound is the share of the baseline's median by which a metric may get
worse before ``compare.py`` calls it a regression.
"""

from __future__ import annotations

from shims import LAYERS

#: (name, unit, better, bound) — what a user of the system would see.
#: Every gated timing is a *quiet quarter* (``stats.quiet``): the mean of
#: the fastest quarter of its per-block or per-period samples. Medians and
#: tails are printed and saved beside them, not gated: between identical
#: runs on a shared host they spread 0.2-0.8 whenever a neighbour is busy,
#: more than any bound the driver allows (0.25), and a gate that noise
#: alone trips protects nothing.
END_TO_END = (
    # build node -> ingest port accepts (sim: build_service); 32 set-ups
    # in four batches over the run (sim: 16 in two)
    ("setup_s", "s", "lower", 0.25),
    # paced: offered tuples per wall second, fixed work through the socket
    ("tuples_per_s", "1/s", "higher", 0.25),
    # paced: process user+sys CPU per offered tuple
    ("cpu_us_per_tuple", "us", "lower", 0.25),
    # open: accepted tuples/s on the highest ladder rung that passes
    ("sustained_tuples_per_s", "1/s", "higher", 0.25),
    # open, reference rate: period boundary -> monitor stamp
    ("decision_ms_quiet", "ms", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.15),
    # paced (deterministic): delivered inside the window / offered, and the
    # mean delay of what was delivered — the paper's trade, loss vs delay
    ("qos.delivered_frac", "frac", "higher", 0.10),
    ("qos.mean_delay_ms", "ms", "lower", 0.25),
)

#: (name, unit, better) — single layers; no bounds
PER_LAYER = (
    ("serve.protocol.decode_us_per_tuple", "us", "lower"),
    ("serve.protocol.frames", "count", "lower"),
    ("serve.protocol.malformed", "count", "lower"),
    ("serve.protocol.bytes_per_tuple", "B", "lower"),
    ("serve.ingest.wire_us_per_tuple", "us", "lower"),
    ("serve.ingest.push_us_per_tuple", "us", "lower"),
    ("serve.ingest.drain_ms_per_period", "ms", "lower"),
    ("serve.ingest.dropped", "count", "lower"),
    ("serve.ingest.buffered_peak", "count", "lower"),
    ("serve.ingest.lag_ms_p99", "ms", "lower"),
    ("serve.live.tick_ms_p50", "ms", "lower"),
    ("serve.live.tick_late_ms_p90", "ms", "lower"),
    ("service.router.shard_of_us_per_tuple", "us", "lower"),
    ("service.router.calls", "count", "lower"),
    ("core.actuator.admit_us_per_tuple", "us", "lower"),
    ("core.actuator.arm_us_per_period", "us", "lower"),
    ("core.actuator.admitted_frac", "frac", "higher"),
    ("dsms.engine.submit_us_per_tuple", "us", "lower"),
    ("dsms.engine.run_until_ms_per_period", "ms", "lower"),
    ("dsms.engine.us_per_admitted", "us", "lower"),
    ("dsms.engine.departed", "count", "higher"),
    ("dsms.engine.outstanding_peak", "count", "lower"),
    ("core.monitor.measure_ms_per_period", "ms", "lower"),
    ("core.controller.decide_us_per_period", "us", "lower"),
    ("core.loop.run_period_self_ms_per_period", "ms", "lower"),
    ("core.loop.finish_s", "s", "lower"),
    ("service.coordinator.rebalance_ms_per_period", "ms", "lower"),
    ("service.coordinator.migrations", "count", "lower"),
    ("service.service.dispatch_ms_per_period", "ms", "lower"),
    ("obs.bus.emit_ms_per_period", "ms", "lower"),
    ("obs.bus.events_per_period", "count", "lower"),
    ("obs.tuptrace.sampled", "count", "higher"),
    ("obs.tracing.coverage", "frac", "higher"),
    ("trace.overhead_frac", "frac", "lower"),
    ("trace.coverage_frac", "frac", "higher"),
    ("gen.late_ms_p99", "ms", "lower"),
    ("gen.gen_s", "s", "lower"),
) + tuple((f"{layer}.self_frac", "frac", "lower") for layer in LAYERS)

#: paced counts that must repeat exactly between runs of one seed
EXACT_COUNTS = ("offered", "admitted", "departed")
