"""The process fleet: lockstep equivalence and failure recovery.

The fleet's whole contract is that promoting shards to worker processes
changes the execution substrate, not the trajectory: the coordinator
sees identical per-period records in identical order, so every signal
must come out float-for-float equal to the single-process
:class:`~repro.service.StreamService` — including after a worker is
killed mid-run and its replacement rejoins by deterministic replay.
"""

import pytest

from repro.errors import ServiceError
from repro.experiments import (
    ExperimentConfig,
    FleetComparison,
    build_service_workload,
    fleet_comparison,
    run_service_experiment,
)
from repro.obs import EventBus, WorkerDown, WorkerRestarted
from repro.service import (
    FleetConfig,
    ServiceConfig,
    ShardProxy,
    build_fleet,
    build_service,
)

CFG = ExperimentConfig(duration=60.0, seed=11)
SVC = FleetConfig(n_shards=2, n_sources=2)


@pytest.fixture(scope="module")
def workload():
    return build_service_workload(CFG, SVC)


@pytest.fixture(scope="module")
def lockstep(workload):
    return build_service(CFG, SVC.as_lockstep()).run(workload, CFG.duration)


def assert_records_equal(lock, fleet):
    """Bit-for-bit equality of every shard's full record set."""
    assert set(lock.shard_records) == set(fleet.shard_records)
    for name, ref in lock.shard_records.items():
        got = fleet.shard_records[name]
        assert got.periods == ref.periods, name
        assert got.departures == ref.departures, name
        assert got.offered_total == ref.offered_total, name
        assert got.entry_dropped_total == ref.entry_dropped_total, name


# --------------------------------------------------------------------- #
# deterministic lockstep equivalence
# --------------------------------------------------------------------- #
class TestSyncEquivalence:
    def test_fleet_matches_lockstep_bit_for_bit(self, workload, lockstep):
        fleet = build_fleet(CFG, SVC).run(workload, CFG.duration)
        assert_records_equal(lockstep, fleet)

    def test_coordinator_history_identical(self, workload, lockstep):
        fleet = build_fleet(CFG, SVC).run(workload, CFG.duration)
        assert fleet.coordinator_history == lockstep.coordinator_history

    def test_run_service_experiment_routes_fleet_config(self):
        result = run_service_experiment(CFG, SVC)
        reference = run_service_experiment(CFG, SVC.as_lockstep())
        assert_records_equal(reference, result)

    def test_fleet_comparison_helper(self):
        comp = fleet_comparison(CFG, SVC)
        assert isinstance(comp, FleetComparison)
        assert comp.aggregates_match()
        assert comp.speedup > 0


# --------------------------------------------------------------------- #
# failure injection: kill a worker mid-run, replay, rejoin
# --------------------------------------------------------------------- #
class TestFailureRecovery:
    @pytest.fixture(scope="class")
    def killed_run(self, workload):
        bus = EventBus()
        seen = []
        bus.subscribe(seen.append, kinds=("worker_down", "worker_restarted"))
        svc = FleetConfig(n_shards=2, n_sources=2, health=True)
        fleet = build_fleet(CFG, svc, bus=bus, fail_at={"shard1": 30})
        result = fleet.run(workload, CFG.duration)
        return result, seen, fleet

    def test_aggregates_survive_worker_death(self, killed_run, lockstep):
        result, __, __fleet = killed_run
        assert_records_equal(lockstep, result)
        assert result.coordinator_history == lockstep.coordinator_history

    def test_down_and_restart_events_emitted(self, killed_run):
        __, seen, __fleet = killed_run
        downs = [e for e in seen if isinstance(e, WorkerDown)]
        restarts = [e for e in seen if isinstance(e, WorkerRestarted)]
        assert len(downs) == 1 and downs[0].shard == "shard1"
        assert downs[0].exitcode == 17
        assert len(restarts) == 1 and restarts[0].restarts == 1
        # the replacement replayed up to the last acknowledged period
        assert restarts[0].resumed_k == downs[0].last_k

    def test_health_monitor_surfaces_the_outage(self, killed_run):
        result, __, __fleet = killed_run
        assert result.health is not None
        assert result.health["counts"].get("worker_down") == 1
        report = next(r for r in result.health["reports"]
                      if r["kind"] == "worker_down")
        assert report["shard"] == "shard1"
        assert report["severity"] == "critical"
        assert not report["open"]          # closed once the worker rejoined

    def test_status_counts_the_restart(self, killed_run):
        __, __, fleet = killed_run
        status = fleet.status()
        assert status["shards"]["shard1"]["restarts"] == 1
        assert status["shards"]["shard0"]["restarts"] == 0

    def test_max_restarts_exhaustion_fails_the_run(self, workload):
        svc = FleetConfig(n_shards=2, n_sources=2, max_restarts=0)
        fleet = build_fleet(CFG, svc, fail_at={"shard0": 10})
        with pytest.raises(ServiceError, match="max_restarts"):
            fleet.run(workload, CFG.duration)


# --------------------------------------------------------------------- #
# config + proxy surface
# --------------------------------------------------------------------- #
class TestConfigAndProxy:
    def test_as_lockstep_strips_fleet_knobs(self):
        svc = FleetConfig(n_shards=3, n_sources=3, serve=True)
        lock = svc.as_lockstep()
        assert type(lock) is ServiceConfig
        assert lock.n_shards == 3
        assert not lock.serve        # never fight the fleet over the port

    def test_fleet_config_validation(self):
        with pytest.raises(ServiceError, match="max_restarts"):
            FleetConfig(max_restarts=-1)
        with pytest.raises(ServiceError, match="worker_patience"):
            FleetConfig(worker_patience=0.0)

    def test_plain_service_config_is_promoted(self, workload, lockstep):
        fleet = build_fleet(CFG, ServiceConfig(n_shards=2, n_sources=2))
        result = fleet.run(workload, CFG.duration)
        assert_records_equal(lockstep, result)

    def test_trace_mode_rejected(self):
        with pytest.raises(ServiceError, match="trac"):
            build_fleet(CFG, FleetConfig(n_shards=2, n_sources=2, trace=True))

    def test_fail_at_unknown_shard_rejected(self):
        with pytest.raises(ServiceError, match="unknown shards"):
            build_fleet(CFG, SVC, fail_at={"nope": 3})

    def test_proxy_mirrors_shard_validation(self):
        proxy = ShardProxy("s", headroom=0.5, base_target=2.0, period=1.0)
        with pytest.raises(ServiceError):
            proxy.set_headroom(0.0)
        proxy.set_headroom(0.25)
        assert proxy.take_ops() == [("headroom", 0.25)]
        assert proxy.take_ops() == []      # drained
