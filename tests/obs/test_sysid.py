"""Unit tests for online system identification (repro.obs.sysid)."""

import pytest

from repro.experiments import ExperimentConfig
from repro.experiments.runner import run_strategy
from repro.metrics import PeriodRecord
from repro.obs import (
    EventBus,
    HealthMonitor,
    RlsGainEstimator,
    SysIdMonitor,
    oscillation_score,
)
from repro.obs.events import HeadroomChanged, PeriodDecision
from repro.workloads import CostTrace, constant_rate


def record(k, *, queue, delay, admitted=200, shed_retro=0, alpha=0.2,
           outflow=180.0, target=2.0):
    return PeriodRecord(
        k=k, time=float(k + 1), target=target, delay_estimate=delay,
        queue_length=queue, cost=1.0 / 180.0, inflow_rate=200.0,
        outflow_rate=outflow, offered=200, admitted=admitted,
        shed_retro=shed_retro, v=180.0, u=180.0,
        error=target - delay, alpha=alpha,
    )


def feed_plant(bus, n, *, drain=180.0, delay_rate=None, start_queue=800.0,
               admitted=200, alpha=0.2, shard=None):
    """Synthetic busy plant: queue_k = start + k*(admitted - drain).

    ``delay_rate`` sets the service rate the *delay estimate* implies
    (Eq. 11); defaulting it to ``drain`` makes measurement and plant
    agree, so the identified gain ratio is 1.
    """
    emitter = bus.scoped(shard) if shard else bus
    rate = drain if delay_rate is None else delay_rate
    q = start_queue
    for k in range(n):
        q += admitted - drain
        emitter.emit(PeriodDecision(record=record(
            k, queue=q, delay=(q + 1.0) / rate, admitted=admitted,
            alpha=alpha)))


class TestRlsGainEstimator:
    def test_identifies_a_constant_service_rate_exactly(self):
        est = RlsGainEstimator()
        for _ in range(12):
            est.update(du=200.0, dy=16.0, period=1.0)  # worked off 184/T
        assert est.service_rate == pytest.approx(184.0, rel=1e-6)

    def test_forgetting_tracks_a_rate_step(self):
        est = RlsGainEstimator(forgetting=0.7)
        for _ in range(12):
            est.update(du=200.0, dy=20.0, period=1.0)   # s = 180
        for _ in range(24):
            est.update(du=200.0, dy=110.0, period=1.0)  # s = 90
        assert est.service_rate == pytest.approx(90.0, rel=1e-3)

    def test_rescale_service_applies_known_headroom_step(self):
        est = RlsGainEstimator()
        for _ in range(10):
            est.update(du=200.0, dy=20.0, period=1.0)
        est.rescale_service(0.5)
        assert est.service_rate == pytest.approx(90.0, rel=1e-6)
        est.rescale_service(-1.0)  # non-positive factors are ignored
        assert est.service_rate == pytest.approx(90.0, rel=1e-6)

    def test_bad_parameters_rejected(self):
        with pytest.raises(ValueError):
            RlsGainEstimator(forgetting=0.0)
        with pytest.raises(ValueError):
            RlsGainEstimator(forgetting=1.5)
        with pytest.raises(ValueError):
            RlsGainEstimator(delta=0.0)


class TestOscillationScore:
    def test_short_or_quiet_windows_score_zero(self):
        assert oscillation_score([1.0, -1.0, 1.0]) == 0.0
        assert oscillation_score([3.0] * 32) == 0.0

    def test_alternating_error_scores_high(self):
        xs = [1.0 if k % 2 == 0 else -1.0 for k in range(32)]
        assert oscillation_score(xs) > 0.8

    def test_hunting_outranks_a_smooth_ramp(self):
        # a ramp autocorrelates but never alternates; a limit cycle does
        # both, so the blended score must separate them
        ramp = [0.01 * k for k in range(32)]
        hunt = [1.0 if k % 2 == 0 else -1.0 for k in range(32)]
        assert oscillation_score(ramp) < oscillation_score(hunt)
        assert oscillation_score(ramp) < 0.6


class TestSysIdMonitor:
    def test_matching_plant_converges_to_ratio_one(self):
        bus = EventBus()
        mon = SysIdMonitor(bus)
        feed_plant(bus, 20, drain=180.0)
        st = mon.summary()["main"]
        assert st["converged"]
        assert st["service_rate"] == pytest.approx(180.0, rel=1e-3)
        assert st["gain_ratio"] == pytest.approx(1.0, rel=1e-3)
        assert not st["mismatch"]
        mon.close()

    def test_matched_closed_loop_identifies_gain_within_10pct(self):
        """The same claim on the real loop instead of synthetic events: a
        constant overload keeps the queue busy and the cost model is
        exact, so CTRL's own (du, dy) pairs identify the design gain."""
        bus = EventBus()
        mon = SysIdMonitor(bus)
        run_strategy("CTRL", constant_rate(250.0, 120),
                     ExperimentConfig(duration=120.0), bus=bus)
        st = mon.summary()["main"]
        mon.close()
        assert st["converged"]
        assert abs(st["gain_ratio"] - 1.0) <= 0.10

    def test_stale_cost_model_emits_mismatch_events(self):
        bus = EventBus()
        mon = SysIdMonitor(bus)
        seen = []
        bus.subscribe(seen.append, kinds=("model_mismatch",))
        # the delay estimate implies twice the rate the queue actually
        # drains at: the design gain is 2x off the identified gain
        feed_plant(bus, 20, drain=90.0, delay_rate=180.0, admitted=200)
        st = mon.summary()["main"]
        assert st["converged"]
        assert st["gain_ratio"] == pytest.approx(2.0, rel=1e-2)
        assert st["mismatch"]
        assert seen and seen[0].gain_ratio > 1.35
        # the effective gain margin halves with the gain ratio
        assert st["gain_margin"] == pytest.approx(
            float(mon.nominal_margins.gain_margin) / 2.0, rel=1e-2)
        mon.close()

    def test_saturated_periods_are_excluded(self):
        bus = EventBus()
        mon = SysIdMonitor(bus)
        feed_plant(bus, 20, drain=180.0, alpha=1.0)
        st = mon.summary()["main"]
        assert st["samples"] == 0
        assert st["excluded"] == 19  # all but the priming period
        assert not st["converged"]
        mon.close()

    def test_idle_queues_are_excluded(self):
        bus = EventBus()
        mon = SysIdMonitor(bus)
        # queue far below one period's worth of departures: the busy
        # guard must reject every sample rather than identify garbage
        feed_plant(bus, 20, drain=180.0, start_queue=5.0, admitted=181)
        st = mon.summary()["main"]
        assert st["samples"] == 0
        assert st["excluded"] == 19
        mon.close()

    def test_headroom_change_rescales_the_estimate(self):
        bus = EventBus()
        mon = SysIdMonitor(bus)
        feed_plant(bus, 16, drain=180.0)
        bus.emit(HeadroomChanged(old=0.9, new=0.45, shard=None))
        st = mon.summary()["main"]
        assert st["service_rate"] == pytest.approx(90.0, rel=1e-3)
        mon.close()

    def test_shards_identify_independently(self):
        bus = EventBus()
        mon = SysIdMonitor(bus)
        feed_plant(bus, 16, drain=180.0, shard="shard0")
        feed_plant(bus, 16, drain=90.0, delay_rate=90.0, shard="shard1")
        out = mon.summary()
        assert out["shard0"]["service_rate"] == pytest.approx(180.0, rel=1e-3)
        assert out["shard1"]["service_rate"] == pytest.approx(90.0, rel=1e-3)
        assert not out["shard0"]["mismatch"]
        assert not out["shard1"]["mismatch"]
        mon.close()


class TestMismatchBeatsQos:
    def test_cost_step_opens_mismatch_before_qos_violation(self):
        """The PR's acceptance scenario: a mid-run 2x cost step under a
        capped actuator. The identified-gain detector must open before
        the QoS detector — the model break is visible in (du, dy) while
        the queue is still dragging the measured delay up."""
        n = 140
        config = ExperimentConfig(duration=float(n), seed=42)
        workload = constant_rate(250.0, n)
        base = config.base_cost
        trace = CostTrace([base] * 100 + [2.0 * base] * (n - 100), 1.0)
        bus = EventBus()
        mon = SysIdMonitor(bus)
        hm = HealthMonitor(bus, qos_tolerance=2.0)
        run_strategy("CTRL", workload, config, cost_trace=trace,
                     alpha_cap=0.5, bus=bus)
        hm.finalize()
        mon.close()
        hm.close()
        kinds = [r.kind for r in hm.reports()]
        assert "model_mismatch" in kinds
        assert "qos_violation" in kinds
        # reports append in opening order
        assert kinds.index("model_mismatch") < kinds.index("qos_violation")
        mismatch = hm.reports("model_mismatch")[0]
        qos = hm.reports("qos_violation")[0]
        assert mismatch.first_k < qos.first_k
        assert mismatch.severity == "critical"
        assert mismatch.value > 1.35
