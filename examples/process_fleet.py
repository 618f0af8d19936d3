#!/usr/bin/env python3
"""Process fleet: one worker process per shard, observed live.

Runs the hotspot workload through a true-parallel
:class:`~repro.service.fleet.ProcessFleet` — every shard is its own OS
process driving its own Monitor -> Controller -> Actuator loop, while
this (parent) process runs the headroom coordinator over relayed
per-period summaries. The observability uplink is attached, so every
worker's period decisions stream back here and are visible while the
fleet is in flight at:

* ``/``         the live dashboard (SSE-fed control-signal charts)
* ``/metrics``  Prometheus text scrape — relayed series carry
                ``shard="pid<pid>/<shard>"`` provenance labels, one pid
                per shard worker
* ``/health``   online health-detector verdicts (worker deaths included)
* ``/status``   the coordinator's live per-shard view: headroom, delay
                target, drop demand, worker pid, restarts

A deliberately killed worker (set ``REPRO_FLEET_FAIL_AT``) shows the
whole recovery story: ``worker_down`` in ``/health``, a new pid in
``/status``, and final aggregates identical to an undisturbed run —
recovery is deterministic replay from the coordinator's command journal.

Run:  PYTHONPATH=src python examples/process_fleet.py

Knobs: ``REPRO_OBS_PORT`` pins the port (default: ephemeral, printed),
``REPRO_FLEET_DURATION`` sets simulated seconds (default 120),
``REPRO_FLEET_SHARDS`` the worker count (default 4),
``REPRO_FLEET_FAIL_AT`` kills shard0's worker at that period (default
off, set e.g. 40), and ``REPRO_OBS_LINGER`` keeps the server up that
many seconds after the run so the final state can still be scraped.
"""

import os
import time

from repro.experiments import ExperimentConfig
from repro.experiments.service_demo import build_service_workload
from repro.obs import ObsServer, configure_logging, get_bus, get_logger, \
    install_metrics
from repro.service import FleetConfig, build_fleet

DURATION = float(os.environ.get("REPRO_FLEET_DURATION", "120"))
SHARDS = int(os.environ.get("REPRO_FLEET_SHARDS", "4"))
FAIL_AT = os.environ.get("REPRO_FLEET_FAIL_AT")
LINGER = float(os.environ.get("REPRO_OBS_LINGER", "0"))


def main() -> None:
    configure_logging()
    log = get_logger("examples.fleet")
    bus = get_bus()
    install_metrics(bus)

    config = ExperimentConfig(duration=DURATION, seed=11)
    svc = FleetConfig(n_shards=SHARDS, n_sources=SHARDS,
                      relay=True, health=True)
    fail_at = {"shard0": int(FAIL_AT)} if FAIL_AT else None
    fleet = build_fleet(config, svc, bus=bus, fail_at=fail_at)

    server = ObsServer(bus=bus, status_fn=fleet.status).start()
    print(f"dashboard:  {server.url}/")
    print(f"metrics:    {server.url}/metrics")
    print(f"health:     {server.url}/health")
    print(f"status:     {server.url}/status")

    arrivals = build_service_workload(config, svc)
    log.info("launching %d shard workers (duration %.0fs%s)",
             SHARDS, DURATION,
             f", shard0 dies at period {FAIL_AT}" if fail_at else "")
    result = fleet.run(arrivals, config.duration)

    print(f"\nfleet finished in {result.wall_seconds:.2f}s wall-clock")
    for name, state in fleet.status()["shards"].items():
        print(f"  {name}: pid {state['pid']}, "
              f"restarts {state['restarts']}, "
              f"headroom {state['headroom']:.3f}")
    worst, violation = result.worst_shard()
    qos = result.aggregate_qos()
    print(f"worst shard {worst} violation={violation:.1f} tuple-s, "
          f"fleet loss={100 * qos.loss_ratio:.1f}%")
    if result.health is not None:
        downs = result.health["counts"].get("worker_down", 0)
        print(f"health: {'healthy' if result.health['healthy'] else 'degraded'}"
              f" ({downs} worker outage(s) on record)")

    if LINGER > 0:
        print(f"\nserver stays up for {LINGER:.0f}s (REPRO_OBS_LINGER) "
              f"at {server.url}/ ...")
        time.sleep(LINGER)
    server.stop()


if __name__ == "__main__":
    main()
