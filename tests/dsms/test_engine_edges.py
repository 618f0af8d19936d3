"""Edge-case tests for the engine: timers, flush, multi-entry, CPU charge."""

import random

import pytest

from repro.dsms import (
    AggregateOperator,
    Engine,
    MapOperator,
    QueryNetwork,
    Sink,
    WindowJoinOperator,
    chain_network,
    identification_network,
)
from repro.errors import SchedulingError


class TestConsumeCpu:
    def test_advances_clock_by_headroom_scaled_time(self):
        eng = Engine(chain_network(1), headroom=0.5)
        eng.consume_cpu(1.0)
        assert eng.now == pytest.approx(2.0)
        assert eng.cpu_used == pytest.approx(1.0)

    def test_negative_rejected(self):
        eng = Engine(chain_network(1))
        with pytest.raises(SchedulingError):
            eng.consume_cpu(-0.1)

    def test_overhead_reduces_throughput(self):
        def run(overhead):
            eng = Engine(identification_network(), headroom=0.97,
                         rng=random.Random(0))
            rng = random.Random(1)
            for k in range(10):
                for i in range(400):
                    eng.submit(k + i / 400,
                               tuple(rng.random() for _ in range(4)), "src")
            for k in range(1, 11):
                eng.run_until(float(k))
                if overhead:
                    eng.consume_cpu(overhead)
            return eng.departed_total

        assert run(0.1) < run(0.0)


class TestMultiEntrySources:
    def test_source_feeding_two_operators_counts_once(self):
        net = QueryNetwork()
        net.add_source("s")
        net.add_operator(MapOperator("a", 0.001), ["s"])
        net.add_operator(MapOperator("b", 0.001), ["s"])
        eng = Engine(net)
        eng.submit(0.0, (1,), "s")
        eng.run_until(1.0)
        assert eng.admitted_total == 1
        assert eng.departed_total == 1  # departs when BOTH paths finish
        assert net.operators["a"].executions == 1
        assert net.operators["b"].executions == 1

    def test_source_wired_to_nothing_departs_immediately(self):
        net = QueryNetwork()
        net.add_source("used")
        net.add_source("dangling")
        net.add_operator(MapOperator("a", 0.001), ["used"])
        eng = Engine(net)
        eng.submit(0.0, (1,), "dangling")
        eng.run_until(1.0)
        assert eng.departed_total == 1
        deps = eng.drain_departures()
        assert deps[0].delay == pytest.approx(0.0, abs=1e-9)


class TestTimersAndFlush:
    def make_agg_net(self, window=1.0):
        net = QueryNetwork()
        net.add_source("s")
        net.add_operator(
            AggregateOperator("agg", 0.0001, window,
                              fn=lambda rows: (len(rows),)),
            ["s"],
        )
        net.add_operator(Sink("out"), ["agg"])
        return net

    def test_timer_fires_without_new_arrivals(self):
        net = self.make_agg_net(window=1.0)
        eng = Engine(net)
        eng.submit(0.0, (1,), "s")
        # no more arrivals; the window must still close at t = 1
        eng.run_until(5.0)
        assert net.operators["out"].consumed == 1
        assert eng.outstanding == 0

    def test_flush_closes_open_window_and_drains(self):
        net = self.make_agg_net(window=100.0)
        eng = Engine(net)
        eng.submit(0.0, (1,), "s")
        eng.run_until(2.0)
        assert eng.outstanding == 1  # held by the open window
        eng.flush()
        assert eng.outstanding == 0
        assert net.operators["out"].consumed == 1

    def test_flush_on_stateless_network_is_noop(self):
        eng = Engine(chain_network(2))
        eng.submit(0.0, (1,), "src")
        eng.run_until(1.0)
        before = eng.departed_total
        eng.flush()
        assert eng.departed_total == before


class TestQueueSheddingEdges:
    """Edge cases of the in-network shedding primitives."""

    def make_backlogged_engine(self, n=50):
        """A chain engine with ``n`` tuples parked before op0."""
        eng = Engine(chain_network(2, capacity=10.0), headroom=1.0,
                     rng=random.Random(4))
        for i in range(n):
            eng.submit(i * 0.001, (float(i),), "src")
        # deliver the buffered arrivals to op0's queue without letting the
        # (slow) operators chew through them
        eng.run_until(0.1)
        assert len(eng.queues["op0"]) > 0
        return eng

    def test_count_larger_than_queue_clamps(self):
        eng = self.make_backlogged_engine()
        queued = len(eng.queues["op0"])
        assert eng.shed_queue_count("op0", queued + 1000) == queued
        assert len(eng.queues["op0"]) == 0

    def test_negative_count_rejected(self):
        eng = self.make_backlogged_engine()
        with pytest.raises(ValueError):
            eng.shed_queue_count("op0", -1)

    def test_empty_queue_sheds_nothing(self):
        eng = Engine(chain_network(2), rng=random.Random(4))
        assert eng.shed_queue_count("op0", 10) == 0

    def test_victims_counted_as_shed_and_released_exactly_once(self):
        eng = self.make_backlogged_engine()
        departed_before = eng.departed_total  # served during the warm-up
        eng.drain_departures()
        queued = len(eng.queues["op0"])
        victims = eng.shed_queue_count("op0", queued)
        # each victim departs exactly once, flagged as shed
        assert eng.shed_total == victims
        assert eng.departed_total == departed_before + victims
        deps = eng.drain_departures()
        assert len(deps) == victims
        assert all(d.shed for d in deps)
        # the survivors process normally afterwards; total conservation
        eng.run_until(100.0)
        assert eng.outstanding == 0
        assert eng.departed_total == eng.admitted_total
        assert eng.shed_total == victims  # no double counting later

    def test_discarded_lineage_departs_at_shed_time(self):
        eng = self.make_backlogged_engine()
        now = eng.now
        eng.shed_queue_count("op0", len(eng.queues["op0"]))
        deps = eng.drain_departures()
        assert deps and all(d.departed == pytest.approx(now) for d in deps)


class TestJoinLineage:
    def test_join_outputs_share_probe_lineage(self):
        net = QueryNetwork()
        net.add_source("l")
        net.add_source("r")
        net.add_operator(
            WindowJoinOperator("j", 0.0001, 100.0, key=lambda v: v[0]),
            ["l", "r"],
        )
        net.add_operator(Sink("out"), ["j"])
        eng = Engine(net)
        eng.submit(0.0, (7,), "l")
        eng.submit(0.1, (7,), "r")
        eng.submit(0.2, (7,), "r")  # second probe matches the stored left
        eng.run_until(1.0)
        assert net.operators["out"].consumed == 2
        assert eng.departed_total == 3
        assert eng.outstanding == 0

    def test_window_residency_does_not_block_departure(self):
        """A tuple parked in a join window has already 'departed'."""
        net = QueryNetwork()
        net.add_source("l")
        net.add_source("r")
        net.add_operator(
            WindowJoinOperator("j", 0.0001, 1000.0, key=lambda v: v[0]),
            ["l", "r"],
        )
        eng = Engine(net)
        eng.submit(0.0, (1,), "l")
        eng.run_until(1.0)
        assert eng.departed_total == 1
        assert len(net.operators["j"].windows[0]) == 1
