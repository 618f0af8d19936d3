#!/usr/bin/env python3
"""Live source migration: drain, cutover, recover — without a restart.

Eight sources are pinned round-robin across four shards, which puts the
4x hotspot s0 *and* regular source s4 together on shard0. The per-shard
headroom ceiling (32% of the machine) binds on shard0, so CPU-share
rebalancing alone cannot save it: the coordinator's headroom pool has
nothing left to give. Run the same skewed workload twice:

* ``rebalancing only`` — shard0 pegs at its ceiling and regulates at the
  delay target only by accumulating QoS violation;
* ``rebalancing + migration`` — the coordinator's migration policy
  notices the persistent deficit next to idle surplus, drains s4's
  in-flight work from shard0, journals the cutover epoch, and re-pins
  s4 onto a cold shard. The hotspot shard recovers within periods.

The cutover is a transaction (docs/THEORY.md §13): the old shard drains
*before* the routing table commits, so no admitted tuple is discarded or
split across shards, and every runtime that replays the journal lands on
the same epoch.

Run:  python examples/live_migration.py
"""

from repro.experiments import ExperimentConfig, build_service_workload
from repro.metrics.report import ascii_series
from repro.obs import EventBus
from repro.service import ServiceConfig, build_service

DURATION = 60.0

MIGRATION = ServiceConfig(n_shards=4, n_sources=8, hotspot_factor=4.0,
                          per_source_rate=14.0, headroom_ceiling=0.32,
                          migration=True, migration_patience=3,
                          migration_cooldown=10)


def run(config, service_config, workload, bus=None):
    service = build_service(config, service_config)
    if bus is not None:
        service.bus = bus
        service.coordinator.bus = bus
        for shard in service.shards:
            scoped = bus.scoped(shard.name)
            shard.loop.bus = scoped
            shard.engine.bus = scoped
    result = service.run(workload, config.duration)
    return service, result


def main() -> None:
    config = ExperimentConfig(duration=DURATION, seed=7)
    workload = build_service_workload(config, MIGRATION)

    baseline_cfg = ServiceConfig(
        **{**{f: getattr(MIGRATION, f) for f in (
            "n_shards", "n_sources", "hotspot_factor",
            "per_source_rate", "headroom_ceiling")},
           "migration": False})

    bus = EventBus()
    events = []
    bus.subscribe(events.append,
                  kinds=("route_changed", "migration_completed"))

    print("=== stuck hotspot: s0 (4x) and s4 share shard0, "
          "ceiling H <= 0.32 ===\n")
    __, baseline = run(config, baseline_cfg, workload)
    service, migrated = run(config, MIGRATION, workload, bus=bus)

    moves = [(e["k"], e["migration"])
             for e in migrated.coordinator_history if "migration" in e]
    if not moves:
        raise SystemExit("no migration triggered — policy tuning regressed")
    for k, plan in moves:
        print(f"period {k}: coordinator moved {plan['source']} "
              f"shard{plan['from']} -> shard{plan['to']} "
              f"(deficit {plan['deficit']:.3f}, epoch {plan['epoch']})")
    done = next(e for e in events if e.kind == "migration_completed")
    print(f"  drained {done.drained} of {done.backlog} in-flight tuples in "
          f"{done.virtual_seconds:.2f}s of virtual time before cutover\n")

    for label, result in (("rebalancing only", baseline),
                          ("rebalancing + migration", migrated)):
        worst_name, worst_violation = result.worst_shard(
            "accumulated_violation")
        qos = result.aggregate_qos()
        print(f"--- {label} ---")
        print(f"  worst shard:            {worst_name} "
              f"(accumulated violation {worst_violation:.1f} s)")
        print(f"  fleet tuples delivered: {qos.delivered}")
        print(f"  fleet tuples shed:      {qos.shed} "
              f"(loss ratio {qos.loss_ratio:.3f})\n")

    hot = "shard0"  # round-robin pins s0 and s4 there
    for label, result in (("rebalancing only", baseline),
                          ("rebalancing + migration", migrated)):
        rec = result.shard_records[hot]
        print(f"{hot} delay estimate over time [{label}]:")
        print(ascii_series(rec.estimated_delays(), width=72, height=10))
        print()

    print(f"final routing table (epoch {service.router.epoch}):")
    for source, shard in sorted(service.router.routes().items()):
        print(f"  {source} -> shard{shard}")

    __, worst_without = baseline.worst_shard("accumulated_violation")
    __, worst_with = migrated.worst_shard("accumulated_violation")
    assert worst_with < 0.1 * worst_without, (worst_with, worst_without)
    print(f"\nworst-shard violation: {worst_without:.1f}s -> "
          f"{worst_with:.1f}s after one migration")


if __name__ == "__main__":
    main()
