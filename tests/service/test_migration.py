"""Live source migration: drain -> cutover -> recover, on every runtime.

The migration transaction's contract is threefold (docs/THEORY.md §13):

* **safety** — the old shard drains its in-flight work before the
  routing table commits the cutover, so no admitted tuple is discarded
  or split across shards;
* **determinism** — the process fleet reproduces the lockstep
  service float-for-float *through* a coordinator-triggered migration,
  including after a worker dies and replays a journalled cutover epoch;
* **efficacy** — for a persistent hotspot that CPU-share rebalancing
  cannot fix (the per-shard ceiling binds), migration + rebalancing
  beats rebalancing alone on worst-shard QoS violation.
"""

import pytest

from repro.experiments import ExperimentConfig, build_service_workload
from repro.obs import EventBus
from repro.service import (
    FleetConfig,
    MigrationPolicy,
    ServiceConfig,
    build_fleet,
    build_service,
    build_shard,
)

# A persistent hotspot one shard cannot absorb: 8 sources round-robin on
# 4 shards puts s0 (the 4x hotspot) and s4 together on shard0; the 0.32
# per-shard ceiling binds there while every other shard has surplus, so
# the coordinator's migration policy moves s4 off shard0 early in the run.
CFG = ExperimentConfig(duration=60.0, seed=7)
MIG = FleetConfig(n_shards=4, n_sources=8, hotspot_factor=4.0,
                  per_source_rate=14.0, headroom_ceiling=0.32,
                  migration=True, migration_patience=3,
                  migration_cooldown=10)


@pytest.fixture(scope="module")
def workload():
    return build_service_workload(CFG, MIG)


@pytest.fixture(scope="module")
def lockstep(workload):
    """The reference run, with the bus taps the migration must fire."""
    bus = EventBus()
    events = []
    bus.subscribe(events.append,
                  kinds=("route_changed", "migration_completed"))
    service = build_service(CFG, MIG.as_lockstep())
    # rewire the service (and its shards) onto the test-local bus
    service.bus = bus
    service.coordinator.bus = bus
    for shard in service.shards:
        scoped = bus.scoped(shard.name)
        shard.loop.bus = scoped
        shard.engine.bus = scoped
    result = service.run(workload, CFG.duration)
    return result, events, service


def migration_entries(history):
    return [(e["k"], e["migration"]) for e in history if "migration" in e]


def assert_records_equal(lock, fleet):
    assert set(lock.shard_records) == set(fleet.shard_records)
    for name, ref in lock.shard_records.items():
        got = fleet.shard_records[name]
        assert got.periods == ref.periods, name
        assert got.departures == ref.departures, name
        assert got.offered_total == ref.offered_total, name


# --------------------------------------------------------------------- #
# the drain half of the transaction, in isolation
# --------------------------------------------------------------------- #
class TestDrainSource:
    def build(self):
        shard = build_shard("s", CFG, headroom=0.25, target=CFG.target,
                            engine_seed=3)
        bus = EventBus()
        events = []
        bus.subscribe(events.append)
        shard.loop.bus = bus
        return shard, events

    def load(self, shard, n=200):
        record = shard.loop.begin()
        due = [(i * 0.004, (0.5, 0.5, 0.5, 0.5), shard.entry_source)
               for i in range(n)]
        shard.loop.run_period(record, 0, due)
        return record

    def test_drain_empties_the_backlog(self):
        shard, events = self.build()
        self.load(shard)
        backlog = shard.engine.outstanding
        assert backlog > 0
        report = shard.drain_source("s4", budget=30.0, k=0,
                                    from_shard=0, to_shard=3)
        assert report.backlog == backlog
        assert report.leftover == 0 and not report.truncated
        assert report.drained == backlog
        assert 0 < report.virtual_seconds <= 30.0
        assert shard.engine.outstanding == 0
        done, = [e for e in events if e.kind == "migration_completed"]
        assert done.backlog == backlog
        assert done.drained == backlog and done.to_shard == 3

    def test_exhausted_budget_truncates(self):
        shard, __ = self.build()
        self.load(shard)
        report = shard.drain_source("s4", budget=0.01)
        assert report.truncated
        assert report.leftover > 0
        # may overshoot the deadline by at most one operator execution
        assert report.virtual_seconds < 0.1

    def test_zero_budget_is_a_pure_measurement(self):
        shard, __ = self.build()
        self.load(shard)
        report = shard.drain_source("s4", budget=0.0)
        assert report.drained == 0
        assert report.leftover == report.backlog


# --------------------------------------------------------------------- #
# lockstep: the coordinator plans, the service executes
# --------------------------------------------------------------------- #
class TestLockstepMigration:
    def test_exactly_one_migration_planned_and_stamped(self, lockstep):
        result, __, service = lockstep
        entries = migration_entries(result.coordinator_history)
        assert len(entries) == 1
        k, plan = entries[0]
        assert plan["from"] == 0          # the hotspot shard
        assert plan["to"] != 0
        assert plan["source"] in ("s0", "s4")
        # the executing runtime stamped the cutover epoch into the history
        assert plan["epoch"] == 1
        assert service.router.epoch == 1
        assert service.router.shard_of(plan["source"]) == plan["to"]
        assert service.router.snapshot()["source_epochs"][plan["source"]] \
            == plan["epoch"]

    def test_migration_events_on_the_bus(self, lockstep):
        result, events, __ = lockstep
        (k, plan), = migration_entries(result.coordinator_history)
        kinds = [e.kind for e in events]
        assert kinds.count("route_changed") == 1
        assert kinds.count("migration_completed") == 1
        route = next(e for e in events if e.kind == "route_changed")
        assert (route.k, route.source) == (k, plan["source"])
        assert (route.from_shard, route.to_shard) == (plan["from"], plan["to"])
        assert route.epoch == plan["epoch"]
        done = next(e for e in events if e.kind == "migration_completed")
        assert done.shard == f"shard{plan['from']}"
        assert done.backlog >= done.drained + done.leftover

    def test_status_reports_epoch_and_migrations(self, lockstep):
        __, __, service = lockstep
        status = service.status()
        assert status["routing_epoch"] == 1
        assert status["migrations"] == 1

    def test_tuple_conservation_across_the_move(self, lockstep, workload):
        result, __, __svc = lockstep
        offered = sum(r.offered_total for r in result.shard_records.values())
        assert offered == len(workload)


# --------------------------------------------------------------------- #
# fleet: journalled cutovers reproduce the lockstep trajectory
# --------------------------------------------------------------------- #
class TestFleetMigration:
    def test_sync_fleet_matches_lockstep_through_migration(
            self, workload, lockstep):
        reference, __, __svc = lockstep
        fleet = build_fleet(CFG, MIG)
        result = fleet.run(workload, CFG.duration)
        assert_records_equal(reference, result)
        assert result.coordinator_history == reference.coordinator_history
        status = fleet.status()
        assert status["routing_epoch"] == 1
        assert status["migrations"] == 1

    def test_worker_killed_after_cutover_replays_the_epoch(
            self, workload, lockstep):
        reference, __, __svc = lockstep
        (cut_k, plan), = migration_entries(reference.coordinator_history)
        target = f"shard{plan['to']}"
        # kill the migration *target* well after the cutover: its
        # replacement must replay the journalled route op to host the
        # migrated source's post-cutover tuples, or the records diverge
        fail_k = cut_k + 15
        fleet = build_fleet(CFG, MIG, fail_at={target: fail_k})
        result = fleet.run(workload, CFG.duration)
        assert_records_equal(reference, result)
        assert result.coordinator_history == reference.coordinator_history
        status = fleet.status()
        assert status["shards"][target]["restarts"] == 1
        # the rejoined worker reported the post-migration routing epoch
        assert status["shards"][target]["epoch"] == plan["epoch"]
        assert status["routing_epoch"] == plan["epoch"]


# --------------------------------------------------------------------- #
# acceptance: migration beats rebalancing alone on a stuck hotspot
# --------------------------------------------------------------------- #
class TestMigrationEfficacy:
    def test_migration_recovers_worst_shard_qos(self, workload, lockstep):
        with_migration, __, __svc = lockstep
        baseline_svc = ServiceConfig(
            **{**{f: getattr(MIG, f) for f in (
                "n_shards", "n_sources", "hotspot_factor",
                "per_source_rate", "headroom_ceiling")},
               "migration": False})
        baseline = build_service(CFG, baseline_svc).run(workload, CFG.duration)
        assert not migration_entries(baseline.coordinator_history)
        __, worst_without = baseline.worst_shard("accumulated_violation")
        __, worst_with = with_migration.worst_shard("accumulated_violation")
        # rebalancing alone cannot fix a shard stuck at the ceiling...
        assert worst_without > 10.0
        # ...moving a source off it can
        assert worst_with < 0.1 * worst_without

    def test_hotspot_shard_itself_recovers(self, workload, lockstep):
        with_migration, __, __svc = lockstep
        qos = with_migration.shard_qos()
        assert qos["shard0"].accumulated_violation < 5.0


# --------------------------------------------------------------------- #
# policy-level guards (no runtime needed)
# --------------------------------------------------------------------- #
class TestMigrationPolicyGuards:
    def entry(self, demands, headrooms):
        return {"demand": list(demands), "headroom": list(headrooms)}

    def test_no_plan_when_everyone_is_overloaded(self):
        from repro.service import RoutingTable

        policy = MigrationPolicy(patience=1)
        table = RoutingTable(2, pins={"a": 0, "b": 0, "c": 1})
        shards = [_FakeShard(), _FakeShard()]
        periods = [_FakePeriod(), _FakePeriod()]
        counts = {"a": 10, "b": 10, "c": 10}
        # both shards run a deficit: there is no cold shard to move to
        plan = policy.consider(0, self.entry([0.9, 0.9], [0.4, 0.4]),
                               shards, periods, table, counts)
        assert plan is None

    def test_single_source_shard_is_never_drained(self):
        from repro.service import RoutingTable

        policy = MigrationPolicy(patience=1)
        table = RoutingTable(2, pins={"only": 0, "x": 1, "y": 1})
        shards = [_FakeShard(), _FakeShard()]
        periods = [_FakePeriod(), _FakePeriod()]
        counts = {"only": 50, "x": 1, "y": 1}
        plan = policy.consider(0, self.entry([0.9, 0.1], [0.4, 0.4]),
                               shards, periods, table, counts)
        assert plan is None      # moving the only source just moves the spot

    def test_cooldown_blocks_back_to_back_moves(self):
        from repro.service import RoutingTable

        policy = MigrationPolicy(patience=1, cooldown=5)
        table = RoutingTable(2, pins={"a": 0, "b": 0, "c": 1})
        shards = [_FakeShard(), _FakeShard()]
        periods = [_FakePeriod(), _FakePeriod()]
        counts = {"a": 30, "b": 10, "c": 5}
        hot = self.entry([0.9, 0.1], [0.4, 0.4])
        first = policy.consider(0, hot, shards, periods, table, counts)
        assert first is not None
        table.migrate(first["source"], first["from"], first["to"])
        again = policy.consider(1, hot, shards, periods, table, counts)
        assert again is None     # inside the cooldown window
        assert policy.migrations == 1

    def test_max_migrations_caps_the_run(self):
        from repro.service import RoutingTable

        policy = MigrationPolicy(patience=1, cooldown=0, max_migrations=1)
        table = RoutingTable(2, pins={"a": 0, "b": 0, "c": 1})
        shards = [_FakeShard(), _FakeShard()]
        periods = [_FakePeriod(), _FakePeriod()]
        counts = {"a": 30, "b": 10, "c": 5}
        hot = self.entry([0.9, 0.1], [0.4, 0.4])
        first = policy.consider(0, hot, shards, periods, table, counts)
        assert first is not None
        table.migrate(first["source"], first["from"], first["to"])
        for k in range(1, 6):
            assert policy.consider(k, hot, shards, periods,
                                   table, counts) is None


class _FakeLoop:
    period = 1.0


class _FakeShard:
    loop = _FakeLoop()


class _FakePeriod:
    cost = 0.005
    offered = 100
    queue_length = 0.0
