"""Unit tests for the online health detectors (synthetic event streams)."""

import pytest

from repro.metrics import PeriodRecord
from repro.obs import EventBus, HealthMonitor
from repro.obs.events import DrainTruncated, IngestStats, PeriodDecision


def period(k, delay=1.0, target=2.0, alpha=0.1, v=180.0, u=180.0):
    return PeriodRecord(
        k=k, time=float(k + 1), target=target, delay_estimate=delay,
        queue_length=10, cost=0.005, inflow_rate=180.0, outflow_rate=180.0,
        offered=200, admitted=180, shed_retro=0, v=v, u=u,
        error=target - delay, alpha=alpha,
    )


def feed(bus, records, shard=None):
    emitter = bus.scoped(shard) if shard else bus
    for p in records:
        emitter.emit(PeriodDecision(record=p))


class TestQosViolation:
    def test_sustained_violation_reported_as_one_episode(self):
        bus = EventBus()
        hm = HealthMonitor(bus, qos_patience=3)
        feed(bus, [period(k, delay=5.0) for k in range(6)])
        reports = hm.reports("qos_violation")
        assert len(reports) == 1
        r = reports[0]
        assert (r.first_k, r.last_k, r.periods) == (0, 5, 6)
        assert r.value == pytest.approx(3.0)  # worst excess over the target
        assert r.severity == "critical"
        assert r.open  # still ongoing at end of stream

    def test_short_blips_below_patience_stay_clean(self):
        bus = EventBus()
        hm = HealthMonitor(bus, qos_patience=3)
        feed(bus, [period(0, delay=5.0), period(1, delay=5.0),
                   period(2, delay=1.0), period(3, delay=5.0),
                   period(4, delay=5.0)])
        assert hm.healthy()

    def test_recovery_closes_the_episode(self):
        bus = EventBus()
        hm = HealthMonitor(bus, qos_patience=2)
        feed(bus, [period(k, delay=5.0) for k in range(3)])
        feed(bus, [period(3, delay=1.0)])
        (r,) = hm.reports("qos_violation")
        assert not r.open
        assert r.last_k == 2

    def test_per_shard_streaks_are_independent(self):
        bus = EventBus()
        hm = HealthMonitor(bus, qos_patience=2)
        for k in range(3):
            feed(bus, [period(k, delay=5.0)], shard="hot")
            feed(bus, [period(k, delay=0.5)], shard="cold")
        reports = hm.reports("qos_violation")
        assert [r.shard for r in reports] == ["hot"]


class TestActuatorSaturation:
    def test_pinned_alpha_reported(self):
        bus = EventBus()
        hm = HealthMonitor(bus, saturation_patience=3)
        feed(bus, [period(k, alpha=1.0) for k in range(4)])
        (r,) = hm.reports("actuator_saturated")
        assert r.first_k == 0 and r.last_k == 3

    def test_heavy_but_unsaturated_shedding_is_fine(self):
        bus = EventBus()
        hm = HealthMonitor(bus, saturation_patience=2)
        feed(bus, [period(k, alpha=0.95) for k in range(10)])
        assert not hm.has("actuator_saturated")


class TestControllerWindup:
    def test_diverging_clamped_command_reported(self):
        bus = EventBus()
        hm = HealthMonitor(bus, windup_patience=3)
        feed(bus, [period(k, v=0.0, u=-100.0 * (k + 1)) for k in range(5)])
        (r,) = hm.reports("controller_windup")
        assert r.severity == "warning"
        assert r.periods >= 3

    def test_stable_zero_command_is_not_windup(self):
        bus = EventBus()
        hm = HealthMonitor(bus, windup_patience=2)
        feed(bus, [period(k, v=0.0, u=-100.0) for k in range(6)])
        assert not hm.has("controller_windup")


class TestDrainTruncation:
    def test_event_becomes_report(self):
        bus = EventBus()
        hm = HealthMonitor(bus)
        bus.scoped("s1").emit(DrainTruncated(leftover=42, time=400.0))
        (r,) = hm.reports("drain_truncated")
        assert r.shard == "s1" and r.value == 42.0 and not r.open


class TestShardImbalance:
    def _run(self, hm, bus, spreads):
        # two shards per period; shard "a" carries the spread
        for k, spread in enumerate(spreads):
            bus.scoped("a").emit(PeriodDecision(
                record=period(k, delay=1.0 + spread)))
            bus.scoped("b").emit(PeriodDecision(record=period(k, delay=1.0)))
        hm.finalize()

    def test_sustained_spread_reported_with_worst_shard(self):
        bus = EventBus()
        hm = HealthMonitor(bus, imbalance_spread=1.0, imbalance_patience=3)
        self._run(hm, bus, spreads=[5.0] * 4)  # spread 5 > 1.0 * target 2.0
        (r,) = hm.reports("shard_imbalance")
        assert r.shard == "a"
        assert r.value == pytest.approx(5.0)
        assert r.first_k == 0

    def test_balanced_fleet_stays_clean(self):
        bus = EventBus()
        hm = HealthMonitor(bus, imbalance_spread=1.0, imbalance_patience=2)
        self._run(hm, bus, spreads=[0.5] * 6)
        assert hm.healthy()

    def test_single_shard_never_imbalanced(self):
        bus = EventBus()
        hm = HealthMonitor(bus, imbalance_patience=1)
        for k in range(4):
            bus.scoped("only").emit(PeriodDecision(
                record=period(k, delay=50.0, target=0.1)))
        hm.finalize()
        assert not hm.has("shard_imbalance")


class TestIngestDrops:
    def _feed(self, bus, dropped, shard="live"):
        for k, d in enumerate(dropped):
            bus.scoped(shard).emit(IngestStats(k=k, accepted=100, dropped=d))

    def test_sustained_drops_reported_as_one_episode(self):
        bus = EventBus()
        hm = HealthMonitor(bus, ingest_patience=3)
        self._feed(bus, [10, 25, 5, 40])
        (r,) = hm.reports("ingest_drops")
        assert r.shard == "live"
        assert (r.first_k, r.last_k, r.periods) == (0, 3, 4)
        assert r.value == 40.0               # worst drops/period
        assert r.severity == "warning"
        assert "no backpressure" in r.detail
        assert r.open

    def test_blips_below_patience_stay_clean(self):
        bus = EventBus()
        hm = HealthMonitor(bus, ingest_patience=3)
        self._feed(bus, [10, 10, 0, 10, 10])
        assert hm.healthy()
        assert not hm.has("ingest_drops")

    def test_recovery_closes_the_episode(self):
        bus = EventBus()
        hm = HealthMonitor(bus, ingest_patience=2)
        self._feed(bus, [5, 5, 5, 0])
        (r,) = hm.reports("ingest_drops")
        assert not r.open
        assert r.last_k == 2

    def test_clean_ingest_never_reports(self):
        bus = EventBus()
        hm = HealthMonitor(bus, ingest_patience=1)
        self._feed(bus, [0, 0, 0])
        assert hm.healthy()


class TestSeverityFiltering:
    def _warning_only(self):
        # a windup episode is warning-severity; nothing critical fires
        bus = EventBus()
        hm = HealthMonitor(bus, windup_patience=2)
        feed(bus, [period(k, delay=1.0, v=0.0, u=-100.0 * (k + 1))
                   for k in range(4)])
        return hm

    def test_min_severity_critical_ignores_warnings(self):
        hm = self._warning_only()
        assert not hm.healthy()                       # strict form fails
        assert hm.healthy(min_severity="critical")    # filtered form passes

    def test_min_severity_critical_fails_on_critical(self):
        bus = EventBus()
        hm = HealthMonitor(bus, qos_patience=1)
        feed(bus, [period(0, delay=9.0)])
        assert not hm.healthy(min_severity="critical")

    def test_unknown_severity_rejected(self):
        with pytest.raises(ValueError):
            self._warning_only().healthy(min_severity="catastrophic")

    def test_critical_open_tracks_the_live_episode(self):
        bus = EventBus()
        hm = HealthMonitor(bus, qos_patience=2)
        assert not hm.critical_open()
        feed(bus, [period(k, delay=9.0) for k in range(3)])
        assert hm.critical_open()           # episode running -> 503 territory
        feed(bus, [period(3, delay=0.5)])
        assert not hm.critical_open()       # recovered, but history remains
        assert hm.has("qos_violation")


class TestFinalize:
    def test_finalize_seals_open_episodes(self):
        bus = EventBus()
        hm = HealthMonitor(bus, qos_patience=2)
        feed(bus, [period(k, delay=9.0) for k in range(3)])
        hm.finalize()
        (r,) = hm.reports("qos_violation")
        assert r.open  # sealed open: the episode outlived the run
        # a late "good" straggler must NOT flip the sealed report closed
        feed(bus, [period(3, delay=0.5)])
        assert r.open
        assert r.last_k == 2

    def test_late_bad_events_start_a_fresh_episode(self):
        bus = EventBus()
        hm = HealthMonitor(bus, qos_patience=2)
        feed(bus, [period(k, delay=9.0) for k in range(3)])
        hm.finalize()
        # more bad periods after sealing: a second episode, not an
        # extension of the first
        feed(bus, [period(k, delay=9.0) for k in range(10, 13)])
        reports = hm.reports("qos_violation")
        assert len(reports) == 2
        assert reports[0].last_k == 2
        assert reports[1].first_k == 10


class TestLifecycle:
    def test_summary_shape(self):
        bus = EventBus()
        hm = HealthMonitor(bus, qos_patience=1)
        feed(bus, [period(0, delay=5.0)])
        s = hm.summary()
        assert s["healthy"] is False
        assert s["counts"] == {"qos_violation": 1}
        assert s["reports"][0]["kind"] == "qos_violation"
        assert s["reports"][0]["periods"] == 1

    def test_close_detaches_from_bus(self):
        bus = EventBus()
        with HealthMonitor(bus, qos_patience=1) as hm:
            pass
        assert not bus
        feed(bus, [period(0, delay=9.0)])
        assert hm.healthy()

    def test_bad_patience_rejected(self):
        with pytest.raises(ValueError):
            HealthMonitor(EventBus(), qos_patience=0)
