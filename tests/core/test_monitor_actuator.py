"""Unit tests for the monitor and the actuators."""

import random

import pytest

from repro.core import (
    DsmsModel,
    EntryActuator,
    EwmaEstimator,
    InNetworkActuator,
    Monitor,
)
from repro.dsms import Engine, identification_network
from repro.errors import SheddingError
from repro.shedding import LsrmShedder, QueueShedder


def make_engine(seed=0):
    return Engine(identification_network(), headroom=0.97,
                  rng=random.Random(seed))


def feed(engine, rate, start, duration, seed=0):
    rng = random.Random(seed)
    for k in range(int(duration)):
        for i in range(int(rate)):
            engine.submit(start + k + i / rate,
                          tuple(rng.random() for _ in range(4)), "src")


class TestMonitor:
    def test_first_measurement(self):
        eng = make_engine()
        model = DsmsModel(cost=1 / 190, headroom=0.97, period=1.0)
        mon = Monitor(eng, model)
        feed(eng, 100, 0.0, 1)
        eng.run_until(1.0)
        m = mon.measure()
        assert m.k == 0
        assert m.admitted == 100
        assert m.inflow_rate == pytest.approx(100, abs=2)
        assert m.queue_length == eng.outstanding

    def test_delay_estimate_uses_eq11(self):
        eng = make_engine()
        model = DsmsModel(cost=1 / 190, headroom=0.97, period=1.0)
        mon = Monitor(eng, model)
        feed(eng, 400, 0.0, 2)
        eng.run_until(2.0)
        m = mon.measure()
        assert m.delay_estimate == pytest.approx(
            (m.queue_length + 1) * m.cost / 0.97
        )

    def test_period_index_increments(self):
        eng = make_engine()
        model = DsmsModel(cost=1 / 190, headroom=0.97, period=1.0)
        mon = Monitor(eng, model)
        eng.run_until(1.0)
        assert mon.measure().k == 0
        eng.run_until(2.0)
        assert mon.measure().k == 1

    def test_cost_estimator_fed_by_measurement(self):
        eng = make_engine()
        model = DsmsModel(cost=0.002, headroom=0.97, period=1.0)  # wrong prior
        mon = Monitor(eng, model, cost_estimator=EwmaEstimator(0.002, 0.5))
        for k in range(10):
            feed(eng, 100, float(k), 1, seed=k)
            eng.run_until(float(k + 1))
            m = mon.measure()
        # estimate pulled toward the true ~1/190 ≈ 0.00526
        assert m.cost == pytest.approx(1 / 190, rel=0.15)

    def test_departures_delivered_once(self):
        eng = make_engine()
        model = DsmsModel(cost=1 / 190, headroom=0.97, period=1.0)
        mon = Monitor(eng, model)
        feed(eng, 50, 0.0, 1)
        eng.run_until(1.0)
        m1 = mon.measure()
        eng.run_until(2.0)
        m2 = mon.measure()
        assert len(m1.departures) + len(m2.departures) == 50
        assert m2.departures == [] or m1.departures != m2.departures


class TestEntryActuator:
    def test_unarmed_admits_everything(self):
        act = EntryActuator()
        act.begin_period(float("inf"), 0.0)
        assert all(act.admit() for _ in range(50))

    def test_allowance_sets_drop_rate(self):
        act = EntryActuator(random.Random(0))
        act.begin_period(50.0, 200.0)  # alpha = 0.75
        admitted = sum(1 for _ in range(4000) if act.admit())
        assert admitted / 4000 == pytest.approx(0.25, abs=0.03)

    def test_counters_track_offers_and_drops(self):
        act = EntryActuator(random.Random(0))
        act.begin_period(0.0, 100.0)  # drop everything
        for _ in range(100):
            act.admit()
        assert act.offered_total == 100
        assert act.dropped_total == 100
        assert act.loss_ratio == 1.0

    def test_end_period_is_noop(self):
        act = EntryActuator()
        assert act.end_period(100) == 0

    def test_alpha_exposed(self):
        act = EntryActuator(random.Random(0))
        act.begin_period(100.0, 200.0)
        assert act.alpha == pytest.approx(0.5)


class TestInNetworkActuator:
    def _loaded(self, seed=1):
        eng = make_engine(seed)
        feed(eng, 400, 0.0, 3, seed=seed)
        eng.run_until(3.0)
        return eng

    def test_admit_always_true(self):
        eng = self._loaded()
        act = InNetworkActuator(QueueShedder(eng, random.Random(0)))
        act.begin_period(10.0, 100.0)
        assert all(act.admit() for _ in range(20))

    def test_surplus_culled_at_boundary(self):
        eng = self._loaded()
        backlog = sum(len(q) for q in eng.queues.values())
        act = InNetworkActuator(QueueShedder(eng, random.Random(0)))
        act.begin_period(100.0, 400.0)
        shed = act.end_period(admitted=400)
        assert shed == 300
        assert sum(len(q) for q in eng.queues.values()) == backlog - 300
        assert act.dropped_total == 300

    def test_no_surplus_no_shedding(self):
        eng = self._loaded()
        act = InNetworkActuator(QueueShedder(eng, random.Random(0)))
        act.begin_period(500.0, 400.0)
        assert act.end_period(admitted=400) == 0

    def test_negative_allowance_clamped(self):
        eng = self._loaded()
        act = InNetworkActuator(QueueShedder(eng, random.Random(0)))
        act.begin_period(-50.0, 400.0)
        shed = act.end_period(admitted=100)
        assert shed == 100  # everything admitted this period is culled

    def test_negative_admitted_rejected(self):
        eng = self._loaded()
        act = InNetworkActuator(QueueShedder(eng, random.Random(0)))
        act.begin_period(10.0, 10.0)
        with pytest.raises(SheddingError):
            act.end_period(admitted=-1)

    def test_works_with_lsrm(self):
        eng = self._loaded()
        act = InNetworkActuator(LsrmShedder(eng))
        act.begin_period(100.0, 400.0)
        assert act.end_period(admitted=400) == 300
