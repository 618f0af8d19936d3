"""Health detectors fed through the process-fleet event relay.

The parent's :class:`HealthMonitor` never sees a worker's bus directly —
every event crosses the relay, which stamps ``pid<pid>/<shard>``
provenance onto the shard label.  These tests pin down that the
detectors (a) still open episodes on relayed streams and (b) keep the
provenance, so a fleet post-mortem names the exact worker process.
"""

import pytest

from repro.experiments import ExperimentConfig
from repro.experiments.service_demo import run_service_experiment
from repro.service.config import FleetConfig

pytestmark = pytest.mark.skipif(
    __import__("multiprocessing").get_all_start_methods() == ["spawn"],
    reason="fleet tests assume a fork-capable platform")


class TestRelayedDetectors:
    def test_qos_violation_opens_from_relayed_worker_events(self):
        # hard overload on both shards under a controller that regulates
        # the queue length, not the delay (BACKPRESSURE): QoS cannot hold,
        # every worker's relayed period stream must open its own qos
        # episode upstream
        cfg = ExperimentConfig(duration=40.0, seed=3, headroom=0.2)
        svc = FleetConfig(n_shards=2, n_sources=2, health=True,
                          strategy="BACKPRESSURE")
        result = run_service_experiment(cfg, svc, "web")
        assert result.health is not None
        qos = [r for r in result.health["reports"]
               if r["kind"] == "qos_violation"]
        assert qos, "overloaded fleet must flag sustained QoS violation"
        shards = {r["shard"] for r in qos}
        # provenance: the report names the worker process, not just the shard
        assert all(s.startswith("pid") and "/" in s for s in shards)
        assert {s.split("/", 1)[1] for s in shards} == {"shard0", "shard1"}

    def test_shard_imbalance_opens_from_relayed_worker_events(self):
        # no coordination + a hotspot: shard0 drowns while shard1 idles;
        # the imbalance detector correlates the two relayed streams
        cfg = ExperimentConfig(duration=60.0, seed=7)
        svc = FleetConfig(n_shards=2, n_sources=2, health=True,
                          mode="independent", hotspot_factor=6.0)
        result = run_service_experiment(cfg, svc, "web")
        reports = [r for r in result.health["reports"]
                   if r["kind"] == "shard_imbalance"]
        assert reports, "skewed independent fleet must flag imbalance"
        worst = reports[0]
        # the worst shard carries worker provenance and is the hotspot
        assert worst["shard"].startswith("pid")
        assert worst["shard"].endswith("/shard0")

    def test_healthy_fleet_run_stays_clean(self):
        cfg = ExperimentConfig(duration=30.0, seed=5)
        svc = FleetConfig(n_shards=2, n_sources=2, health=True,
                          per_source_rate=25.0)
        result = run_service_experiment(cfg, svc, "web")
        assert result.health is not None
        assert result.health["critical_open"] is False
        assert not any(r["kind"] == "qos_violation"
                       for r in result.health["reports"])
