"""Integration: the control loop observed live through bus + tracer."""

import pytest

from repro.core import (
    ControlLoop,
    DsmsModel,
    EntryActuator,
    EwmaEstimator,
    Monitor,
    PolePlacementController,
)
from repro.dsms import make_engine
from repro.obs import (
    EventBus,
    HealthMonitor,
    PeriodTracer,
    install_metrics,
)
from repro.obs.metrics import MetricsRegistry
from repro.workloads import arrivals_from_trace, constant_rate, step_rate

COST = 1.0 / 190.0
HEADROOM = 0.97


def make_loop(bus=None, tracer=None, target=2.0):
    engine = make_engine("fluid", cost=COST, headroom=HEADROOM)
    model = DsmsModel(cost=COST, headroom=HEADROOM, period=1.0)
    monitor = Monitor(engine, model, cost_estimator=EwmaEstimator(COST, 0.3))
    loop = ControlLoop(engine, PolePlacementController(model), monitor,
                       EntryActuator(), target=target, period=1.0,
                       bus=bus, tracer=tracer)
    return loop


def run_loop(loop, trace, seed=1):
    return loop.run(arrivals_from_trace(trace, seed=seed), len(trace.values))


class TestLoopEvents:
    def test_per_period_event_stream(self):
        bus = EventBus()
        events = []
        bus.subscribe(events.append)
        loop = make_loop(bus=bus)
        rec = run_loop(loop, constant_rate(300.0, 20))
        # the period record is the one per-period event; completions
        # carry its delay samples
        assert {e.kind for e in events} == {"period", "completions"}
        periods = [e for e in events if e.kind == "period"]
        assert len(periods) == 20
        # the event carries exactly the record rows, in order, live
        assert [e.record for e in periods] == rec.periods
        # overload run: the entry shedder dropped tuples, and the period
        # events carry the count
        entry_shed = rec.offered_total - sum(p.admitted for p in rec.periods)
        assert entry_shed > 0
        assert sum(e.record.offered - e.record.admitted
                   for e in periods) == entry_shed

    def test_silent_bus_emits_nothing_and_run_is_identical(self):
        bus = EventBus()
        rec_silent = run_loop(make_loop(bus=bus), constant_rate(300.0, 15))
        observed = EventBus()
        observed.subscribe(lambda e: None)
        rec_observed = run_loop(make_loop(bus=observed),
                                constant_rate(300.0, 15))
        assert rec_silent.periods == rec_observed.periods

    def test_target_schedule_steps_show_in_period_events(self):
        bus = EventBus()
        periods = []
        bus.subscribe(periods.append, kinds=("period",))
        loop = make_loop(bus=bus, target=lambda k: 1.0 if k < 10 else 3.0)
        run_loop(loop, constant_rate(300.0, 20))
        targets = [e.record.target for e in periods]
        assert targets == [1.0] * 10 + [3.0] * 10

    def test_metrics_bridge_end_to_end(self):
        bus = EventBus()
        bridge = install_metrics(bus, MetricsRegistry())
        rec = run_loop(make_loop(bus=bus), constant_rate(300.0, 20))
        assert bridge.periods.value(shard="main") == 20
        assert bridge.offered.value(shard="main") == rec.offered_total
        text = bridge.registry.prometheus_text()
        assert "repro_periods_total" in text
        assert "repro_period_delay_seconds_bucket" in text


class TestLoopTracing:
    def test_spans_cover_the_run_wall_clock(self):
        tracer = PeriodTracer()
        loop = make_loop(tracer=tracer)
        rec = run_loop(loop, constant_rate(300.0, 40))
        assert len(tracer.periods) == 40
        flame = tracer.flame()
        assert flame["wall_seconds"] == pytest.approx(rec.wall_seconds)
        # acceptance: traced segments sum to within 10% of the measured wall
        assert flame["coverage"] == pytest.approx(1.0, abs=0.1)
        assert set(flame["segments"]) <= {
            "ingest", "engine", "monitor", "controller", "actuator",
            "bookkeeping", "drain"}

    def test_untraced_loop_records_nothing(self):
        loop = make_loop()
        run_loop(loop, constant_rate(200.0, 5))
        assert loop.tracer is None


class TestLoopHealth:
    def test_saturating_overload_raises_saturation_and_qos(self):
        bus = EventBus()
        hm = HealthMonitor(bus)
        # slam 10x capacity for 5 s, then trickle: the backlog holds the
        # delay estimate far above the tight target while the controller
        # commands zero admission -> alpha pins at 1.0 for many periods
        loop = make_loop(bus=bus, target=0.5)
        run_loop(loop, step_rate(30, 5, low=2000.0, high=60.0))
        assert hm.has("actuator_saturated")
        assert hm.has("qos_violation")
        sat = hm.reports("actuator_saturated")[0]
        assert sat.value == pytest.approx(1.0)

    def test_nominal_run_stays_clean(self):
        bus = EventBus()
        hm = HealthMonitor(bus)
        loop = make_loop(bus=bus, target=2.0)
        run_loop(loop, constant_rate(100.0, 30))  # well under capacity
        hm.finalize()
        assert hm.healthy(), hm.summary()
