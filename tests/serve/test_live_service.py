"""Multi-shard live serving: socket tuples routed through the live table.

The property under test is the tentpole of live migration: the ticker
routes every tick's tuples by the routing table's *current* state, so a
mid-run cutover redirects a source's future tuples to its new shard
while the sender keeps writing the same source name to the same socket.
Run on a :class:`~repro.core.clock.ManualClock` so period boundaries,
and therefore the cutover point, are exact.
"""

import time

import pytest

from repro.core.clock import ManualClock
from repro.errors import ServeError
from repro.experiments.config import ExperimentConfig
from repro.obs import EventBus
from repro.serve import LiveService, build_live_service
from repro.service import ServiceConfig

CFG = ExperimentConfig(capacity=200.0, period=1.0, target=0.5)
SVC = ServiceConfig(n_shards=2, n_sources=2, backend="fluid")


def _eventually(predicate, timeout=10.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.01)
    return predicate()


def _manual_service(**kwargs):
    clock = ManualClock()
    service = build_live_service(CFG, SVC, clock=clock, bus=EventBus(),
                                 **kwargs)
    return service, clock


def _push(service, source, n):
    for i in range(n):
        service.buffer.push((float(i),), source)


class TestBuild:
    def test_shards_table_and_coordinator_wired(self):
        service, __ = _manual_service(max_periods=1)
        assert isinstance(service, LiveService)
        assert len(service.shards) == 2
        assert service.table.n_shards == 2
        # explicit routing pins the wire protocol's default source too,
        # so bare tuples (no source field) cannot kill the ticker
        assert service.table.routes() == {"s0": 0, "s1": 1, "live": 0}
        assert service.coordinator.mode == SVC.mode

    def test_bad_max_periods_rejected(self):
        with pytest.raises(ServeError):
            build_live_service(CFG, SVC, max_periods=0)

    def test_stop_before_start_reports_zero_wall(self):
        """No ticker ever ran, so there is no wall time to report (it used
        to read ``perf_counter()`` since boot)."""
        service, __ = _manual_service(max_periods=1)
        assert service.stop().wall_seconds == 0.0

    def test_double_start_rejected(self):
        service, __ = _manual_service(max_periods=1)
        service.start()
        try:
            with pytest.raises(ServeError):
                service.start()
        finally:
            service.stop()


class TestLiveRouting:
    def test_sources_route_to_their_shards_and_follow_a_migration(self):
        service, clock = _manual_service(max_periods=3)
        service.start()
        try:
            # period 0: both sources send; the table splits them
            clock.advance(0.5)
            _push(service, "s0", 3)
            _push(service, "s1", 2)
            clock.advance(0.6)      # close period 0
            assert _eventually(
                lambda: service.status()["periods_done"] == 1)
            assert service.records["shard0"].periods[0].offered == 3
            assert service.records["shard1"].periods[0].offered == 2

            # cutover between ticks: the sender changes NOTHING
            epoch = service.table.migrate("s0", 0, 1)
            assert epoch == 1

            # period 1: the same source name now lands on shard1
            _push(service, "s0", 4)
            clock.advance(1.0)      # close period 1
            assert _eventually(
                lambda: service.status()["periods_done"] == 2)
            assert service.records["shard0"].periods[1].offered == 0
            assert service.records["shard1"].periods[1].offered == 4

            clock.advance(1.0)      # close period 2; ticker retires
            assert service.wait(timeout=10)
        finally:
            result = service.stop()
        assert service.status()["routing_epoch"] == 1
        assert service.status()["routes"]["s0"] == 1
        offered = sum(r.offered_total for r in result.shard_records.values())
        assert offered == 9
        assert len(result.coordinator_history) == 3

    def test_unknown_source_falls_back_to_default_pin(self):
        # the wire default source is pinned at build time, so a tuple
        # with no source field routes to shard0 instead of raising
        service, clock = _manual_service(max_periods=1)
        service.start()
        try:
            clock.advance(0.5)
            _push(service, "live", 2)
            clock.advance(0.6)
            assert service.wait(timeout=10)
        finally:
            service.stop()
        assert service.records["shard0"].periods[0].offered == 2

    def test_stop_returns_a_service_result(self):
        from repro.service import ServiceResult

        service, clock = _manual_service(max_periods=1)
        service.start()
        clock.advance(1.1)
        assert service.wait(timeout=10)
        result = service.stop()
        assert isinstance(result, ServiceResult)
        assert set(result.shard_records) == {"shard0", "shard1"}
        assert result.mode == SVC.mode


class TestObservers:
    """The live node honours every observer knob of ``ServiceConfig``
    through the same attach point as the lockstep service."""

    def _run(self, svc, periods=3):
        from dataclasses import replace
        bus = EventBus()
        clock = ManualClock()
        service = build_live_service(
            CFG, replace(svc, n_shards=2, n_sources=2, backend="fluid"),
            clock=clock, bus=bus, max_periods=periods)
        service.start()
        try:
            for __ in range(periods):
                clock.advance(0.5)
                _push(service, "s0", 5)
                _push(service, "s1", 5)
                clock.advance(0.5)
            assert service.wait(timeout=10)
        finally:
            result = service.stop()
        return service, bus, result

    @pytest.mark.parametrize("knob, value, field", [
        ("health", True, "health"),
        ("trace", True, "trace_summary"),
        ("tuptrace", 1.0, "tail_summary"),
        ("sysid", True, "sysid"),
    ])
    def test_each_knob_fills_its_result_field(self, knob, value, field):
        __, __, result = self._run(ServiceConfig(**{knob: value}))
        assert getattr(result, field) is not None
        others = {"health", "trace_summary", "tail_summary", "sysid",
                  "incidents"} - {field}
        assert all(getattr(result, name) is None for name in others)

    def test_tracers_use_the_lockstep_seeds(self):
        from repro.service import build_service
        svc = ServiceConfig(n_shards=2, n_sources=2, backend="fluid",
                            tuptrace=0.5, trace=True)
        live = build_live_service(CFG, svc, clock=ManualClock(),
                                  bus=EventBus(), max_periods=1)
        lock = build_service(CFG, svc)
        try:
            for a, b in zip(live.shards, lock.shards):
                assert a.loop.tracer is not None
                assert a.loop.tuple_tracer.seed == b.loop.tuple_tracer.seed
            assert (live.shards[0].loop.tuple_tracer.seed
                    != live.shards[1].loop.tuple_tracer.seed)
        finally:
            live.stop()

    def test_trace_summary_covers_shards_and_service(self):
        __, __, result = self._run(ServiceConfig(trace=True))
        trace = result.trace_summary
        assert set(trace["shards"]) == {"shard0", "shard1", "service"}
        assert {"ingest", "engine", "dispatch", "coordinator"} \
            <= set(trace["segments"])

    def test_defaults_arm_nothing(self):
        service, bus, result = self._run(ServiceConfig())
        assert not bus
        assert service.flight_recorder is None
        assert all(shard.loop.tracer is None
                   and shard.loop.tuple_tracer is None
                   for shard in service.shards)
        assert result.health is result.trace_summary is None

    def test_stop_detaches_every_observer(self, tmp_path):
        svc = ServiceConfig(health=True, sysid=True, flight=8,
                            flight_dir=str(tmp_path))
        service, bus, result = self._run(svc)
        assert not bus, "observers still subscribed after stop()"
        assert result.incidents == []
        service.stop()  # idempotent, still detached
        assert not bus
