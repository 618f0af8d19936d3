"""Property-based invariants of the full control loop.

Whatever the workload, controller, or actuator, some things must always
hold: tuples are conserved (offered = admitted + dropped; every admitted
tuple eventually departs), loss ratios stay in [0, 1], the virtual queue
never goes negative, and time series have consistent lengths.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import (
    AuroraOpenLoopController,
    BaselineController,
    ControlLoop,
    DsmsModel,
    EntryActuator,
    EwmaEstimator,
    Monitor,
    PolePlacementController,
)
from repro.dsms import Engine, identification_network
from repro.experiments import ExperimentConfig
from repro.service import build_loop
from repro.service.shard import build_engine
from repro.workloads import RateTrace, arrivals_from_trace

CONTROLLERS = [PolePlacementController, BaselineController,
               AuroraOpenLoopController]


def run_loop(rates, controller_cls, actuator=None, seed=0, target=2.0):
    engine = Engine(identification_network(), headroom=0.97,
                    rng=random.Random(seed))
    model = DsmsModel(cost=1 / 190, headroom=0.97, period=1.0)
    monitor = Monitor(engine, model,
                      cost_estimator=EwmaEstimator(1 / 190, 0.3))
    loop = ControlLoop(engine, controller_cls(model), monitor,
                       actuator or EntryActuator(), target=target)
    trace = RateTrace([max(0.0, r) for r in rates], 1.0)
    arrivals = arrivals_from_trace(trace, seed=seed)
    return loop.run(arrivals, float(len(rates))), engine


@settings(max_examples=10, deadline=None)
@given(rates=st.lists(st.floats(min_value=0, max_value=500), min_size=5,
                      max_size=25),
       controller_idx=st.integers(min_value=0, max_value=2),
       seed=st.integers(min_value=0, max_value=100))
def test_tuple_conservation(rates, controller_idx, seed):
    record, engine = run_loop(rates, CONTROLLERS[controller_idx], seed=seed)
    # every offered tuple was either dropped at entry or admitted
    admitted = sum(p.admitted for p in record.periods)
    assert admitted + record.entry_dropped_total == record.offered_total
    # after the drain, every admitted tuple departed
    assert engine.departed_total == admitted
    assert engine.outstanding == 0
    # departures recorded match the engine's count
    assert len(record.departures) == admitted


@settings(max_examples=10, deadline=None)
@given(rates=st.lists(st.floats(min_value=0, max_value=500), min_size=5,
                      max_size=25),
       seed=st.integers(min_value=0, max_value=100))
def test_qos_metrics_well_formed(rates, seed):
    record, __ = run_loop(rates, PolePlacementController, seed=seed)
    q = record.qos()
    assert 0.0 <= q.loss_ratio <= 1.0
    assert 0.0 <= q.violation_ratio <= 1.0
    assert q.accumulated_violation >= 0.0
    assert q.max_overshoot >= 0.0
    assert q.delivered + q.shed <= q.offered
    assert q.delayed_tuples <= q.delivered


@settings(max_examples=8, deadline=None)
@given(rates=st.lists(st.floats(min_value=0, max_value=400), min_size=5,
                      max_size=20))
def test_series_lengths_consistent(rates):
    record, __ = run_loop(rates, PolePlacementController)
    n = len(rates)
    assert len(record.periods) == n
    assert len(record.estimated_delays()) == n
    # period indices are sequential
    assert [p.k for p in record.periods] == list(range(n))


@settings(max_examples=6, deadline=None)
@given(seed=st.integers(min_value=0, max_value=1000))
def test_queue_never_negative_and_alpha_in_range(seed):
    rng = random.Random(seed)
    rates = [rng.uniform(0, 500) for __ in range(20)]
    record, __ = run_loop(rates, PolePlacementController, seed=seed)
    for p in record.periods:
        assert p.queue_length >= 0
        assert 0.0 <= p.alpha <= 1.0
        assert p.offered >= p.admitted >= 0


@pytest.mark.parametrize("c, n", [(0.003, 5), (0.25, 8)])
def test_cycle_cost_is_charged_after_each_boundary(c, n):
    """An idle loop still pays ``control_overhead`` every period.

    The engine runs to each boundary and only then charges the cycle, so
    after ``n`` periods the CPU meter reads ``n·c`` and the clock sits
    ``c/H`` past the last boundary — the per-period cost that makes tiny
    control periods expensive in Fig. 19.
    """
    config = ExperimentConfig(period=0.5, control_overhead=c)
    engine = build_engine(config, "fluid", headroom=config.headroom, seed=0)
    loop = build_loop(config, PolePlacementController, engine=engine,
                      actuator=EntryActuator(), target=config.target,
                      estimator=config.make_cost_estimator())
    loop.run([], n * config.period)
    assert engine.cpu_used == pytest.approx(n * c, rel=1e-12)
    assert engine.now == pytest.approx(
        n * config.period + c / config.headroom, rel=1e-12)
