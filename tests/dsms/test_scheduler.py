"""Unit tests for operator schedulers."""

import random

import pytest

from repro.dsms import (
    DepthFirstScheduler,
    Engine,
    MapOperator,
    OperatorQueue,
    QueryNetwork,
    RoundRobinScheduler,
    identification_network,
    make_source_tuple,
)
from repro.errors import SchedulingError


def three_op_net():
    net = QueryNetwork()
    net.add_source("s")
    net.add_operator(MapOperator("a", 0.001), ["s"])
    net.add_operator(MapOperator("b", 0.001), ["a"])
    net.add_operator(MapOperator("c", 0.001), ["b"])
    return net


def queues_for(net, depths):
    queues = {name: OperatorQueue(name) for name in net.operators}
    for name, depth in depths.items():
        for i in range(depth):
            queues[name].push(make_source_tuple((i,), 0.0))
    return queues


class TestRoundRobin:
    def test_batch_validation(self):
        with pytest.raises(SchedulingError):
            RoundRobinScheduler(three_op_net(), batch=0)

    def test_drain_per_visit_by_default(self):
        net = three_op_net()
        sched = RoundRobinScheduler(net)
        queues = queues_for(net, {"a": 3, "b": 2})
        picks = []
        for _ in range(5):
            name = sched.next_operator(queues)
            picks.append(name)
            queues[name].pop()
        # drains all of 'a' before moving to 'b'
        assert picks == ["a", "a", "a", "b", "b"]

    def test_finite_batch_rotates(self):
        net = three_op_net()
        sched = RoundRobinScheduler(net, batch=1)
        queues = queues_for(net, {"a": 2, "b": 2})
        picks = []
        for _ in range(4):
            name = sched.next_operator(queues)
            picks.append(name)
            queues[name].pop()
        assert picks == ["a", "b", "a", "b"]

    def test_empty_queues_return_none(self):
        net = three_op_net()
        sched = RoundRobinScheduler(net)
        assert sched.next_operator(queues_for(net, {})) is None


class TestDepthFirst:
    def test_most_downstream_first(self):
        net = three_op_net()
        sched = DepthFirstScheduler(net)
        queues = queues_for(net, {"a": 1, "c": 1})
        assert sched.next_operator(queues) == "c"

    def test_empty_returns_none(self):
        net = three_op_net()
        assert DepthFirstScheduler(net).next_operator(queues_for(net, {})) is None


class TestSchedulerEquivalence:
    """The paper conjectures (Section 5.2) that the virtual-queue model holds
    for any scheduler without tuple priorities: throughput must agree."""

    def _run(self, scheduler_factory, rate=300, duration=10):
        net = identification_network()
        eng = Engine(net, headroom=0.97, scheduler=scheduler_factory(net))
        rng = random.Random(5)
        for k in range(duration):
            for i in range(rate):
                eng.submit(k + i / rate, tuple(rng.random() for _ in range(4)), "src")
        eng.run_until(float(duration))
        return eng

    def test_round_robin_matches_depth_first_throughput(self):
        rr = self._run(RoundRobinScheduler)
        df = self._run(DepthFirstScheduler)
        assert rr.departed_total == pytest.approx(df.departed_total, rel=0.10)

    def test_round_robin_finite_batch_throughput(self):
        rr = self._run(lambda n: RoundRobinScheduler(n, batch=50))
        df = self._run(DepthFirstScheduler)
        assert rr.departed_total == pytest.approx(df.departed_total, rel=0.15)
