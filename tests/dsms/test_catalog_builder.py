"""Unit tests for the statistics catalog and prebuilt networks."""

import random

import pytest

from repro.dsms import (
    Catalog,
    Engine,
    chain_network,
    identification_network,
    monitoring_network,
)
from repro.errors import NetworkError


def feed(engine, rate, duration, source="src", fields=4, start=0.0, seed=0):
    rng = random.Random(seed)
    for k in range(int(duration)):
        for i in range(int(rate)):
            engine.submit(start + k + i / rate,
                          tuple(rng.random() for _ in range(fields)), source)


class TestCatalog:
    def test_period_differencing(self):
        eng = Engine(identification_network(), headroom=0.97)
        cat = Catalog(eng)
        feed(eng, 100, 2)
        eng.run_until(1.0)
        p1 = cat.period()
        eng.run_until(2.0)
        p2 = cat.period()
        assert p1.duration == pytest.approx(1.0, abs=0.01)
        # the arrival stamped exactly t=1.0 may land in either period
        assert p1.admitted in (100, 101)
        assert p1.admitted + p2.admitted == eng.admitted_total == 200

    def test_inflow_outflow_rates(self):
        eng = Engine(identification_network(), headroom=0.97)
        cat = Catalog(eng)
        feed(eng, 150, 1)
        eng.run_until(1.0)
        p = cat.period()
        assert p.inflow_rate == pytest.approx(150, abs=1)
        assert p.outflow_rate > 0

    def test_cost_per_tuple_none_when_idle(self):
        eng = Engine(identification_network(), headroom=0.97)
        cat = Catalog(eng)
        eng.run_until(1.0)
        assert cat.period().cost_per_tuple is None

    def test_measured_cost_close_to_analytic(self):
        eng = Engine(identification_network(capacity=190.0), headroom=0.97)
        cat = Catalog(eng)
        feed(eng, 150, 5)
        eng.run_until(6.0)
        p = cat.period()
        assert p.cost_per_tuple == pytest.approx(1 / 190, rel=0.1)

    def test_operator_stats_exposed(self):
        eng = Engine(identification_network(), headroom=0.97)
        cat = Catalog(eng)
        feed(eng, 50, 1)
        eng.run_until(2.0)
        f1 = eng.network.operators["f1"]
        assert f1.executions == 50
        assert f1.selectivity == pytest.approx(0.9, abs=0.1)


class TestBuilders:
    def test_identification_capacity_validation(self):
        with pytest.raises(NetworkError):
            identification_network(capacity=0.0)

    def test_identification_has_14_operators(self):
        assert len(identification_network()) == 14

    def test_chain_validation(self):
        with pytest.raises(NetworkError):
            chain_network(0)
        with pytest.raises(NetworkError):
            chain_network(3, selectivity=0.0)

    def test_chain_capacity_with_filters(self):
        """A filter chain with per-field thresholds hits the target capacity."""
        net = chain_network(4, capacity=100.0, selectivity=0.8)
        eng = Engine(net, headroom=1.0)
        feed(eng, 300, 10, fields=4)
        eng.run_until(10.0)
        assert eng.departed_total == pytest.approx(1000, rel=0.08)

    def test_monitoring_network_runs_end_to_end(self):
        net = monitoring_network(capacity=500.0)
        eng = Engine(net, headroom=0.97)
        rng = random.Random(2)
        arrivals = []
        for k in range(5):
            for i in range(50):
                t = k + i / 50
                arrivals.append((t, (rng.random(), rng.randrange(10)), "flows"))
            arrivals.append((k + 0.5, (0.0, rng.randrange(10)), "alerts"))
        arrivals.sort(key=lambda a: a[0])
        eng.submit_many(arrivals)
        eng.run_until(10.0)
        eng.flush()
        assert eng.departed_total == eng.admitted_total
        stats_out = net.operators["stats_out"]
        assert stats_out.consumed > 0
