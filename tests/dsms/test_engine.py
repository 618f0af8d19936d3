"""Integration tests for the discrete-event engine."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.dsms import (
    AggregateOperator,
    DepthFirstScheduler,
    Engine,
    MapOperator,
    QueryNetwork,
    Sink,
    WindowJoinOperator,
    chain_network,
    identification_network,
)
from repro.errors import SchedulingError


def uniform_arrivals(rate, duration, seed=0, source="src", start=0.0):
    """Evenly spaced arrivals with four independent uniform value fields
    (the identification network's filters test fields 0-3)."""
    rng = random.Random(seed)
    out = []
    for k in range(int(duration)):
        for i in range(int(rate)):
            values = (rng.random(), rng.random(), rng.random(), rng.random())
            out.append((start + k + i / rate, values, source))
    return out


class TestBasicExecution:
    def test_single_tuple_through_chain(self):
        net = chain_network(3, capacity=1000.0)
        eng = Engine(net)
        eng.submit(0.0, (0.5,), "src")
        eng.run_until(1.0)
        assert eng.admitted_total == 1
        assert eng.departed_total == 1
        deps = eng.drain_departures()
        assert len(deps) == 1
        assert deps[0].delay == pytest.approx(3 * (1 / 1000.0) / 0.97 / 3, rel=0.5)

    def test_headroom_validation(self):
        net = chain_network(1)
        with pytest.raises(SchedulingError):
            Engine(net, headroom=0.0)
        with pytest.raises(SchedulingError):
            Engine(net, headroom=1.5)

    def test_unknown_source_rejected(self):
        eng = Engine(chain_network(1))
        with pytest.raises(SchedulingError):
            eng.submit(0.0, (), "nope")

    def test_out_of_order_submit_rejected(self):
        eng = Engine(chain_network(1))
        eng.submit(5.0, (0.5,), "src")
        with pytest.raises(SchedulingError):
            eng.submit(1.0, (0.5,), "src")

    def test_running_backwards_rejected(self):
        eng = Engine(chain_network(1))
        eng.run_until(5.0)
        with pytest.raises(SchedulingError):
            eng.run_until(1.0)

    def test_idle_engine_advances_clock(self):
        eng = Engine(chain_network(1))
        eng.run_until(10.0)
        assert eng.now == 10.0


class TestThroughputAndDelay:
    def test_underload_constant_small_delay(self):
        """Below capacity, all tuples finish promptly (paper Fig. 5B, 150/s)."""
        eng = Engine(identification_network(capacity=190.0), headroom=0.97)
        eng.submit_many(uniform_arrivals(150, 20))
        eng.run_until(20.0)
        deps = [d for d in eng.drain_departures() if d.arrived >= 5.0]
        delays = [d.delay for d in deps]
        assert max(delays) < 0.2
        assert eng.outstanding < 50

    def test_overload_queue_integrates(self):
        """Above capacity, the virtual queue grows linearly (Fig. 5B, 300/s)."""
        eng = Engine(identification_network(capacity=190.0), headroom=0.97)
        eng.submit_many(uniform_arrivals(300, 20))
        q_at = []
        for k in range(1, 21):
            eng.run_until(float(k))
            q_at.append(eng.outstanding)
        # expected growth ~ (300 - 190*0.97)/s
        growth = (q_at[-1] - q_at[4]) / 15.0
        assert growth == pytest.approx(300 - 190 * 0.97, rel=0.15)

    def test_capacity_matches_configuration(self):
        """Sustained service rate equals capacity * headroom."""
        eng = Engine(identification_network(capacity=190.0), headroom=0.97)
        eng.submit_many(uniform_arrivals(400, 10))
        eng.run_until(10.0)
        # warm saturated server: departures ≈ capacity * H * t
        assert eng.departed_total == pytest.approx(190 * 0.97 * 10, rel=0.1)

    def test_cost_multiplier_scales_capacity(self):
        eng = Engine(identification_network(capacity=190.0), headroom=0.97,
                     cost_multiplier=lambda t: 2.0)
        eng.submit_many(uniform_arrivals(400, 10))
        eng.run_until(10.0)
        assert eng.departed_total == pytest.approx(0.5 * 190 * 0.97 * 10, rel=0.1)

    def test_conservation_of_tuples(self):
        eng = Engine(identification_network(), headroom=0.97)
        eng.submit_many(uniform_arrivals(250, 10))
        eng.run_until(30.0)  # enough time to drain
        assert eng.departed_total == eng.admitted_total == 2500
        assert eng.outstanding == 0

    def test_measured_cost_converges_to_analytic(self):
        eng = Engine(identification_network(capacity=190.0), headroom=0.97)
        eng.submit_many(uniform_arrivals(150, 30, seed=5))
        eng.run_until(40.0)
        measured = eng.cpu_used / eng.departed_total
        assert measured == pytest.approx(1.0 / 190.0, rel=0.05)


class TestSheddingHooks:
    def test_shed_queue_fraction(self):
        eng = Engine(identification_network(), headroom=0.97, rng=random.Random(9))
        eng.submit_many(uniform_arrivals(400, 5))
        eng.run_until(5.0)
        before = eng.outstanding
        assert before > 100
        shed = eng.shed_queue_count("f1", len(eng.queues["f1"]) // 2)
        assert shed > 0
        assert eng.shed_total == shed
        assert eng.outstanding == before - shed

    def test_shed_marks_departures_as_lost(self):
        eng = Engine(identification_network(), headroom=0.97, rng=random.Random(9))
        eng.submit_many(uniform_arrivals(400, 3))
        eng.run_until(3.0)
        eng.drain_departures()
        eng.shed_queue_count("f1", 10)
        lost = [d for d in eng.drain_departures() if d.shed]
        assert len(lost) == 10


class TestStatefulPaths:
    def test_join_network_produces_matches(self):
        net = QueryNetwork("joins")
        net.add_source("left")
        net.add_source("right")
        net.add_operator(
            WindowJoinOperator("j", 0.0001, 100.0, key=lambda v: v[0]),
            ["left", "right"],
        )
        net.add_operator(Sink("out"), ["j"])
        eng = Engine(net)
        eng.submit(0.0, (1,), "left")
        eng.submit(0.1, (1,), "right")
        eng.run_until(1.0)
        assert net.operators["out"].consumed == 1
        assert eng.outstanding == 0

    def test_aggregate_departures_balance(self):
        net = QueryNetwork("agg")
        net.add_source("s")
        net.add_operator(
            AggregateOperator("a", 0.0001, 1.0, fn=lambda rows: (len(rows),)),
            ["s"],
        )
        net.add_operator(Sink("out"), ["a"])
        eng = Engine(net)
        for i in range(10):
            eng.submit(i * 0.3, (i,), "s")
        eng.run_until(10.0)
        eng.flush()
        assert eng.departed_total == eng.admitted_total == 10
        assert eng.outstanding == 0
        # windows closed by a timer or the flush count as emitted too
        assert net.operators["a"].emitted == net.operators["out"].consumed

    def test_topological_scheduler_also_conserves(self):
        net = identification_network()
        eng = Engine(net, scheduler=DepthFirstScheduler(net))
        eng.submit_many(uniform_arrivals(100, 5))
        eng.run_until(20.0)
        assert eng.departed_total == eng.admitted_total


@settings(max_examples=20, deadline=None)
@given(rate=st.integers(min_value=10, max_value=400),
       seed=st.integers(min_value=0, max_value=1000))
def test_no_tuple_ever_lost_without_shedding(rate, seed):
    """Conservation: without shedding, admitted == departed after drain."""
    eng = Engine(identification_network(), headroom=0.97, rng=random.Random(seed))
    eng.submit_many(uniform_arrivals(rate, 5, seed=seed))
    eng.run_until(5.0 + 5.0 * rate / 100.0)  # generous drain time
    eng.run_until(eng.now + 30.0)
    assert eng.admitted_total == rate * 5
    assert eng.departed_total == eng.admitted_total
    assert eng.shed_total == 0


@settings(max_examples=15, deadline=None)
@given(rate=st.integers(min_value=200, max_value=500))
def test_delays_match_virtual_queue_model(rate):
    """Sanity for Eq. 2: overloaded delays ≈ q * c / H within a loose band."""
    eng = Engine(identification_network(capacity=190.0), headroom=0.97)
    eng.submit_many(uniform_arrivals(rate, 8))
    qs = {}
    for k in range(1, 9):
        eng.run_until(float(k))
        qs[k] = eng.outstanding
    eng.run_until(60.0)  # drain so all delays are known
    deps = eng.drain_departures()
    by_period = {}
    for d in deps:
        by_period.setdefault(int(d.arrived), []).append(d.delay)
    c_over_h = (1.0 / 190.0) / 0.97
    for k in (4, 6):
        measured = sum(by_period[k]) / len(by_period[k])
        model = qs[k] * c_over_h
        assert measured == pytest.approx(model, rel=0.35, abs=0.05)
