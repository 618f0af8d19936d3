"""Cross-runtime differential: the live server ≡ the lockstep service.

Both drivers call one period step
(:func:`repro.service.service.run_service_period`), so feeding the live
node a stream by hand — ``clock.advance`` + ``buffer.push`` on a
:class:`~repro.core.clock.ManualClock`, no socket — and feeding the
lockstep service the *stamped* arrivals the ingest buffer recorded must
produce the same trajectory float-for-float: per shard and per period,
and the same coordinator history, *through* a coordinator-planned
migration. Only ``PeriodRecord.time`` may differ (the live monitor
stamps measurements with the wall clock).
"""

import pytest

from repro.core.clock import ManualClock
from repro.experiments import ExperimentConfig, build_service_workload
from repro.obs import EventBus
from repro.serve import build_live_service
from repro.service import ServiceConfig, build_service

# the persistent-hotspot knobs of tests/service/test_migration.py: the
# 0.32 ceiling binds on shard0 (s0 at 4x plus s4), so the coordinator
# moves a source off it early in the run
CFG = ExperimentConfig(duration=60.0, seed=7)
SVC = ServiceConfig(n_shards=4, n_sources=8, hotspot_factor=4.0,
                    per_source_rate=14.0, headroom_ceiling=0.32,
                    migration=True, migration_patience=3,
                    migration_cooldown=10)

COMPARED = ("offered", "admitted", "shed_retro", "alpha", "v", "u",
            "delay_estimate", "queue_length", "target")


def trajectory(record):
    return [tuple(getattr(p, name) for name in COMPARED)
            for p in record.periods]


@pytest.fixture(scope="module")
def runs():
    n_periods = int(round(CFG.duration / CFG.period))
    clock = ManualClock()
    live = build_live_service(CFG, SVC, clock=clock, bus=EventBus(),
                              max_periods=n_periods)
    stamped = []
    live.start()
    try:
        for t, values, source in build_service_workload(CFG, SVC):
            if t > clock.now():
                clock.advance(t - clock.now())
            assert live.buffer.push(values, source)
            stamped.append((clock.now(), values, source))
        clock.advance(CFG.duration + CFG.period - clock.now())
        assert live.wait(timeout=120), "the live ticker never finished"
    finally:
        live_result = live.stop()
    lock_result = build_service(CFG, SVC).run(stamped, CFG.duration)
    return live_result, lock_result


def test_the_run_migrates(runs):
    live_result, __ = runs
    moves = [e for e in live_result.coordinator_history if "migration" in e]
    assert moves, "the hotspot knobs no longer trigger a migration"
    assert moves[0]["migration"]["epoch"] >= 1


def test_shard_trajectories_match_float_for_float(runs):
    live_result, lock_result = runs
    assert set(live_result.shard_records) == set(lock_result.shard_records)
    for name, lock in lock_result.shard_records.items():
        live = live_result.shard_records[name]
        assert len(live.periods) == len(lock.periods) == 60
        for k, (a, b) in enumerate(zip(trajectory(live), trajectory(lock))):
            assert a == b, f"{name} period {k}: live {a} != lockstep {b}"
        assert live.offered_total == lock.offered_total, name
        assert live.entry_dropped_total == lock.entry_dropped_total, name
        assert live.departures == lock.departures, name


def test_coordinator_histories_match(runs):
    live_result, lock_result = runs
    assert live_result.coordinator_history == lock_result.coordinator_history
