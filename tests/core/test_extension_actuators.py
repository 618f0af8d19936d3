"""Integration tests for the extension actuators and the loop predictor."""

import random

import pytest

from repro.core import (
    ControlLoop,
    DsmsModel,
    EntryActuator,
    EwmaEstimator,
    HoltPredictor,
    Monitor,
    PolePlacementController,
    PriorityEntryActuator,
    SemanticEntryActuator,
)
from repro.dsms import Engine, QueryNetwork, MapOperator, identification_network
from repro.workloads import arrivals_from_trace, constant_rate, ramp_rate


def make_loop(actuator, engine=None, predictor=None, period=1.0, target=2.0):
    engine = engine or Engine(identification_network(), headroom=0.97,
                              rng=random.Random(0))
    model = DsmsModel(cost=1 / 190, headroom=0.97, period=period)
    monitor = Monitor(engine, model, cost_estimator=EwmaEstimator(1 / 190, 0.3))
    return ControlLoop(engine, PolePlacementController(model), monitor,
                       actuator, target=target, period=period,
                       predictor=predictor), engine


class TestSemanticActuator:
    def test_retains_more_utility_than_random(self):
        def run(actuator):
            loop, __ = make_loop(actuator)
            arrivals = arrivals_from_trace(constant_rate(370.0, 50), seed=2)
            return loop.run(arrivals, 50.0)

        semantic = SemanticEntryActuator(
            utility=lambda v: v[0] if v else 0.0, rng=random.Random(3))
        rec_sem = run(semantic)
        rec_rand = run(EntryActuator())
        # equal loss ...
        assert rec_sem.qos().loss_ratio == pytest.approx(
            rec_rand.qos().loss_ratio, abs=0.05)
        # ... but the semantic shedder kept the valuable tuples
        assert semantic.utility_retention > 0.62

    def test_loop_still_regulates(self):
        actuator = SemanticEntryActuator(
            utility=lambda v: v[0] if v else 0.0, rng=random.Random(4))
        loop, __ = make_loop(actuator)
        rec = loop.run(arrivals_from_trace(constant_rate(370.0, 50), seed=4),
                       50.0)
        est = [p.delay_estimate for p in rec.periods[20:45]]
        assert sum(est) / len(est) == pytest.approx(2.0, abs=0.4)


class TestPriorityActuator:
    def _two_source_network(self):
        net = QueryNetwork("two")
        net.add_source("gold")
        net.add_source("bronze")
        net.add_operator(MapOperator("g1", 1 / 380), ["gold"])
        net.add_operator(MapOperator("b1", 1 / 380), ["bronze"])
        return net

    def test_low_priority_absorbs_the_loss(self):
        net = self._two_source_network()
        engine = Engine(net, headroom=0.97, rng=random.Random(5))
        actuator = PriorityEntryActuator({"gold": 2.0, "bronze": 1.0},
                                         rng=random.Random(6))
        loop, __ = make_loop(actuator, engine=engine)
        rng = random.Random(7)
        arrivals = []
        for k in range(60):
            for i in range(300):  # 300/s per source: 600 vs capacity ~369
                arrivals.append((k + i / 300, (rng.random(),), "gold"))
                arrivals.append((k + i / 300 + 1e-4, (rng.random(),), "bronze"))
        rec = loop.run(arrivals, 60.0)
        loss = actuator.loss_by_source()
        assert loss["gold"] < 0.1
        assert loss["bronze"] > 0.4
        # and the aggregate delay is still regulated
        est = [p.delay_estimate for p in rec.periods[20:55]]
        assert sum(est) / len(est) == pytest.approx(2.0, abs=0.5)


class TestLoopPredictor:
    def test_holt_predictor_reduces_ramp_violations(self):
        """The Fig. 8A ramp: trend-aware inflow forecasting sheds earlier."""
        def run(predictor):
            loop, __ = make_loop(EntryActuator(), predictor=predictor)
            trace = ramp_rate(80, start=100.0, slope=8.0)  # 100 -> 732 t/s
            return loop.run(arrivals_from_trace(trace, seed=8), 80.0).qos()

        q_last = run(None)
        q_holt = run(HoltPredictor())
        assert q_holt.accumulated_violation <= q_last.accumulated_violation
