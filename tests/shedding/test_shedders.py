"""Unit tests for load shedders and the LSRM."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import EntryActuator
from repro.dsms import Engine, identification_network
from repro.errors import SheddingError
from repro.shedding import (
    DropLocation,
    LoadSheddingRoadmap,
    LsrmShedder,
    QueueShedder,
    drop_probability,
    output_yield,
    rank_locations,
)


def loaded_engine(rate=400, duration=4, seed=0):
    """An engine with a substantial backlog in its queues."""
    eng = Engine(identification_network(), headroom=0.97,
                 rng=random.Random(seed))
    rng = random.Random(seed)
    for k in range(duration):
        for i in range(rate):
            eng.submit(k + i / rate, tuple(rng.random() for _ in range(4)),
                       "src")
    eng.run_until(float(duration))
    return eng


def queued(eng):
    return sum(len(q) for q in eng.queues.values())


class TestDropProbability:
    def test_eq13_basic(self):
        # v = 150 allowed of 200 expected -> drop 25%
        assert drop_probability(150.0, 200.0) == pytest.approx(0.25)

    def test_saturation_low(self):
        """Controller wants more than arrives: admit everything."""
        assert drop_probability(300.0, 200.0) == 0.0

    def test_saturation_high(self):
        """Controller wants negative admissions: drop everything."""
        assert drop_probability(-50.0, 200.0) == 1.0

    def test_zero_inflow(self):
        assert drop_probability(100.0, 0.0) == 0.0

    def test_negative_inflow_rejected(self):
        with pytest.raises(SheddingError):
            drop_probability(100.0, -1.0)


class TestEntryShedder:
    """The entry coin flip (now :class:`EntryActuator` itself)."""

    def test_alpha_zero_admits_all(self):
        s = EntryActuator(random.Random(0))
        s.begin_period(100.0, 100.0)
        assert all(s.admit() for _ in range(100))
        assert s.loss_ratio == 0.0

    def test_alpha_one_drops_all(self):
        s = EntryActuator(random.Random(0))
        s.begin_period(0.0, 100.0)
        assert not any(s.admit() for _ in range(100))
        assert s.loss_ratio == 1.0

    def test_statistical_drop_rate(self):
        s = EntryActuator(random.Random(42))
        s.begin_period(70.0, 100.0)  # alpha = 0.3
        n = 10_000
        admitted = sum(1 for _ in range(n) if s.admit())
        assert admitted / n == pytest.approx(0.7, abs=0.02)

    def test_counters(self):
        s = EntryActuator(random.Random(1))
        s.begin_period(50.0, 100.0)
        for _ in range(200):
            s.admit()
        assert s.offered_total == 200
        assert s.dropped_total + sum(
            0 for _ in ()) <= 200


class TestQueueShedder:
    def test_shed_tuples_exact(self):
        eng = loaded_engine()
        backlog = queued(eng)
        assert backlog > 200
        s = QueueShedder(eng, random.Random(1))
        got = s.shed_tuples(100)
        assert got == 100
        assert queued(eng) == backlog - 100

    def test_shed_tuples_clamps_to_backlog(self):
        eng = loaded_engine(rate=100, duration=1)
        eng.run_until(30.0)  # drain completely
        s = QueueShedder(eng, random.Random(1))
        assert s.shed_tuples(50) == 0

    def test_negative_targets_rejected(self):
        eng = loaded_engine(rate=50, duration=1)
        s = QueueShedder(eng, random.Random(0))
        with pytest.raises(SheddingError):
            s.shed_tuples(-1)

    def test_zero_target_noop(self):
        eng = loaded_engine(rate=50, duration=1)
        s = QueueShedder(eng, random.Random(0))
        assert s.shed_tuples(0) == 0


class TestRoadmap:
    def test_rank_by_loss_gain(self):
        a = DropLocation("a", gain=2.0, loss=1.0)   # ratio 0.5
        b = DropLocation("b", gain=1.0, loss=1.0)   # ratio 1.0
        c = DropLocation("c", gain=4.0, loss=1.0)   # ratio 0.25
        assert [l.operator for l in rank_locations([a, b, c])] == ["c", "a", "b"]

    def test_zero_gain_ranked_last(self):
        a = DropLocation("a", gain=0.0, loss=0.0)
        b = DropLocation("b", gain=1.0, loss=10.0)
        assert rank_locations([a, b])[-1].operator == "a"

    def test_output_yield_exit_is_selectivity(self):
        net = identification_network()
        sels = {"f1": 0.9, "f3": 0.8, "f6": 0.7, "f11": 0.85}
        y = output_yield(net, sels)
        assert y["m14"] == pytest.approx(1.0)
        # entering f1 eventually yields ~ 0.9*(0.8+0.7)*0.85 outputs
        assert y["f1"] == pytest.approx(0.9 * (0.8 + 0.7) * 0.85)

    def test_roadmap_covers_all_operators(self):
        rm = LoadSheddingRoadmap(identification_network())
        assert len(rm.locations) == 14


class TestLsrmShedder:
    def test_sheds_at_cheapest_locations_first(self):
        """LSRM walks its roadmap in ascending loss/gain order: victims
        come from the cheapest non-empty location before any other."""
        eng = loaded_engine(seed=3)
        lsrm = LsrmShedder(eng)
        ratios = [l.loss_gain_ratio for l in lsrm.roadmap.locations]
        assert ratios == sorted(ratios)
        first = next(l.operator for l in lsrm.roadmap.locations
                     if eng.queues[l.operator])
        depths = {name: len(q) for name, q in eng.queues.items()}
        take = min(depths[first], 5)
        assert lsrm.shed_tuples(take) == take
        assert {name: len(q) for name, q in eng.queues.items()} == dict(
            depths, **{first: depths[first] - take})

    def test_shed_tuples_interface(self):
        eng = loaded_engine(seed=5)
        s = LsrmShedder(eng)
        assert s.shed_tuples(50) == 50
        with pytest.raises(SheddingError):
            s.shed_tuples(-1)


@settings(max_examples=20, deadline=None)
@given(allowed=st.floats(min_value=-100, max_value=400),
       inflow=st.floats(min_value=0, max_value=400))
def test_drop_probability_always_valid(allowed, inflow):
    p = drop_probability(allowed, inflow)
    assert 0.0 <= p <= 1.0
