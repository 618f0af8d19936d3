"""Incremental scheduler bookkeeping and engine hot-path fast paths.

The schedulers keep a watcher-maintained set of non-empty queues once an
engine binds them; these tests pin that bookkeeping to the ground truth
(the actual queue contents) through dispatching, in-network shedding and
resets, and check the observable scheduling policy is unchanged against
an unbound scan-based scheduler.
"""

import logging
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


def uniform_arrivals(n, rate, seed=0, fields=4):
    rng = random.Random(seed)
    out = []
    t = 0.0
    for __ in range(n):
        t += rng.expovariate(rate)
        out.append((t, tuple(rng.random() for _ in range(fields)), "src"))
    return out


def nonempty_truth(engine):
    return {name for name, q in engine.queues.items() if q}


def scheduler_view(scheduler):
    return {scheduler._order[i] for i in scheduler._nonempty}


class TestBookkeepingMirrorsQueues:
    @pytest.mark.parametrize("factory", [
        DepthFirstScheduler,
        RoundRobinScheduler,
        lambda net: RoundRobinScheduler(net, batch=7),
    ])
    def test_view_consistent_during_run(self, factory):
        net = identification_network()
        engine = Engine(net, scheduler=factory(net))
        engine.submit_many(uniform_arrivals(400, rate=400.0))
        # step in small increments, checking the incremental view each time
        for i in range(1, 40):
            engine.run_until(i * 0.05)
            assert scheduler_view(engine.scheduler) == nonempty_truth(engine)

    def test_view_consistent_under_shedding(self):
        net = identification_network()
        engine = Engine(net)
        engine.submit_many(uniform_arrivals(500, rate=2000.0))
        engine.run_until(0.05)  # build a backlog
        shed_total = 0
        for name in list(engine.queues):
            shed_total += engine.shed_queue_count(
                name, len(engine.queues[name]) // 2)
            assert scheduler_view(engine.scheduler) == nonempty_truth(engine)
        # shed counters stay consistent with enqueue/dequeue accounting
        for q in engine.queues.values():
            assert q.enqueued - q.dequeued - q.shed == len(q)
        assert sum(q.shed for q in engine.queues.values()) == shed_total
        # and a full drain still works off the incremental view
        engine.run_until(60.0)
        assert scheduler_view(engine.scheduler) == nonempty_truth(engine) == set()

    def test_shed_count_notifies_watcher(self):
        net = identification_network()
        engine = Engine(net)
        engine.submit_many(uniform_arrivals(200, rate=2000.0))
        engine.run_until(0.05)
        for name in list(engine.queues):
            engine.shed_queue_count(name, len(engine.queues[name]))
        assert scheduler_view(engine.scheduler) == nonempty_truth(engine)


class TestPolicyUnchanged:
    """Bound (incremental) and unbound (scanning) scheduling pick the same
    operators in the same order."""

    def _network(self):
        net = QueryNetwork()
        net.add_source("s")
        net.add_operator(MapOperator("a", 0.001), ["s"])
        net.add_operator(MapOperator("b", 0.001), ["a"])
        net.add_operator(MapOperator("c", 0.001), ["b"])
        return net

    @pytest.mark.parametrize("factory", [
        DepthFirstScheduler,
        RoundRobinScheduler,
        lambda net: RoundRobinScheduler(net, batch=2),
    ])
    def test_bound_matches_scanning(self, factory):
        rng = random.Random(11)
        net_a, net_b = self._network(), self._network()
        bound = factory(net_a)
        scanning = factory(net_b)
        queues_bound = {n: OperatorQueue(n) for n in net_a.operators}
        queues_scan = {n: OperatorQueue(n) for n in net_b.operators}
        bound.bind(queues_bound)  # scanning stays unbound on purpose
        for step in range(300):
            if rng.random() < 0.5:
                name = rng.choice(["a", "b", "c"])
                tup = make_source_tuple((step,), 0.0)
                queues_bound[name].push(tup)
                queues_scan[name].push(tup)
            pick_bound = bound.next_operator(queues_bound)
            pick_scan = scanning.next_operator(queues_scan)
            assert pick_bound == pick_scan
            if pick_bound is not None:
                queues_bound[pick_bound].pop()
                queues_scan[pick_scan].pop()

    def test_engine_end_to_end_matches_across_binding(self):
        """Same arrivals through a bound engine and a manually-scanned
        drain must process identical tuple counts per operator."""
        results = []
        for use_manual in (False, True):
            net = identification_network()
            engine = Engine(net)
            if use_manual:
                # strip the binding: forces the fallback scan path
                sched = DepthFirstScheduler(net)
                engine.scheduler = sched
                for q in engine.queues.values():
                    q.set_watcher(None)
            engine.submit_many(uniform_arrivals(300, rate=400.0, seed=3))
            engine.run_until(5.0)
            results.append({name: op.executions
                            for name, op in net.operators.items()})
        assert results[0] == results[1]


class TestLateArrivals:
    def test_counted_and_logged_once(self, caplog):
        net = identification_network()
        engine = Engine(net)
        engine.submit(1.0, (0.5, 0.5, 0.5, 0.5), "src")
        engine.run_until(2.0)
        with caplog.at_level(logging.WARNING, logger="repro.dsms"):
            engine.submit(0.5, (0.5, 0.5, 0.5, 0.5), "src")  # in the past
            engine.submit(1.0, (0.5, 0.5, 0.5, 0.5), "src")  # also late
        assert engine.late_arrivals == 2
        # logged once per run, counted every time
        assert len([r for r in caplog.records
                    if "rewriting to 'now'" in r.message]) == 1

    def test_late_arrival_events_replace_the_log_warning(self, caplog):
        from repro.obs import get_bus

        net = identification_network()
        engine = Engine(net)
        engine.submit(1.0, (0.5, 0.5, 0.5, 0.5), "src")
        engine.run_until(2.0)
        seen = []
        bus = get_bus()
        bus.subscribe(seen.append, kinds=("late_arrival",))
        try:
            with caplog.at_level(logging.WARNING, logger="repro.dsms"):
                engine.submit(0.5, (0.5, 0.5, 0.5, 0.5), "src")
                engine.submit(1.0, (0.5, 0.5, 0.5, 0.5), "src")
        finally:
            bus.unsubscribe(seen.append)
        # with a subscriber every occurrence is an event and nothing is logged
        assert [e.total for e in seen] == [1, 2]
        assert seen[0].clock == 2.0 and seen[0].submitted == 0.5
        assert not caplog.records

    def test_on_time_arrivals_do_not_warn(self, caplog):
        net = identification_network()
        engine = Engine(net)
        with caplog.at_level(logging.WARNING, logger="repro.dsms"):
            engine.submit(0.0, (0.5, 0.5, 0.5, 0.5), "src")
            engine.submit(1.0, (0.5, 0.5, 0.5, 0.5), "src")
        assert engine.late_arrivals == 0
        assert not caplog.records


class TestNetworkCaches:
    def test_expected_cost_tracks_selectivity_updates(self):
        net = identification_network()
        before = net.expected_cost()
        assert net.expected_cost() == before
        # execute the first filter with zero emissions: selectivity drops
        op = net.operators["f1"]
        op.record(0)
        after = net.expected_cost()
        assert after < before  # the observed selectivity moved c

    def test_topological_order_cached_and_invalidated(self):
        net = QueryNetwork()
        net.add_source("s")
        net.add_operator(MapOperator("a", 0.001), ["s"])
        first = net.topological_order()
        assert net.topological_order() == first
        first.append("tampered")  # caller copies are isolated
        assert net.topological_order() == ["a"]
        net.add_operator(MapOperator("b", 0.001), ["a"])
        assert net.topological_order() == ["a", "b"]

    def test_explicit_selectivities_bypass_cache(self):
        net = identification_network()
        cached = net.expected_cost()
        overridden = net.expected_cost({"f1": 0.0})
        assert overridden < cached
        assert net.expected_cost() == cached
