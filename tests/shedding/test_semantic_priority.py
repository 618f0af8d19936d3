"""Unit tests for semantic and priority-aware shedding."""

import random

import pytest

from repro.core import PriorityEntryActuator, SemanticEntryActuator
from repro.errors import SheddingError
from repro.shedding import StreamingQuantile


class TestStreamingQuantile:
    def test_window_validation(self):
        with pytest.raises(SheddingError):
            StreamingQuantile(window=2)

    def test_empty_returns_none(self):
        assert StreamingQuantile().quantile(0.5) is None

    def test_quantile_bounds_checked(self):
        q = StreamingQuantile()
        q.add(1.0)
        with pytest.raises(SheddingError):
            q.quantile(1.5)

    def test_median_of_uniform(self):
        q = StreamingQuantile(window=1000)
        rng = random.Random(0)
        for __ in range(1000):
            q.add(rng.random())
        assert q.quantile(0.5) == pytest.approx(0.5, abs=0.05)

    def test_window_slides(self):
        q = StreamingQuantile(window=10)
        for v in range(100):
            q.add(float(v))
        assert len(q) == 10
        assert q.quantile(0.0) == 90.0


class TestSemanticShedder:
    def make(self, seed=0, **kw):
        return SemanticEntryActuator(utility=lambda v: v[0],
                                     rng=random.Random(seed), **kw)

    def test_no_shedding_admits_all(self):
        s = self.make()
        s.begin_period(100.0, 100.0)
        assert all(s.admit((random.random(),)) for _ in range(100))
        assert s.utility_retention == 1.0

    def test_full_shedding_drops_all(self):
        s = self.make()
        s.begin_period(0.0, 100.0)
        assert not any(s.admit((0.9,)) for _ in range(50))

    def test_loss_ratio_matches_alpha(self):
        s = self.make(seed=1)
        s.begin_period(60.0, 100.0)  # alpha = 0.4
        rng = random.Random(2)
        n = 8000
        dropped = sum(1 for _ in range(n) if not s.admit((rng.random(),)))
        assert dropped / n == pytest.approx(0.4, abs=0.05)

    def test_drops_low_utility_first(self):
        """At the same loss ratio, the retained utility beats random."""
        s = self.make(seed=3)
        s.begin_period(50.0, 100.0)  # alpha = 0.5
        rng = random.Random(4)
        # warm the quantile window
        for _ in range(600):
            s.admit((rng.random(),))
        admitted_scores = []
        dropped_scores = []
        for _ in range(4000):
            v = rng.random()
            if s.admit((v,)):
                admitted_scores.append(v)
            else:
                dropped_scores.append(v)
        assert (sum(admitted_scores) / len(admitted_scores)
                > sum(dropped_scores) / len(dropped_scores) + 0.2)
        assert s.utility_retention > 0.6  # > the 0.5 a fair coin would keep

    def test_dither_validation(self):
        with pytest.raises(SheddingError):
            self.make(dither=-0.1)


class TestPriorityShedder:
    def make(self, seed=0):
        return PriorityEntryActuator(
            {"gold": 3.0, "silver": 2.0, "bronze": 1.0},
            rng=random.Random(seed),
        )

    def test_needs_priorities(self):
        with pytest.raises(SheddingError):
            PriorityEntryActuator({})

    def test_unknown_source_rejected(self):
        s = self.make()
        with pytest.raises(SheddingError):
            s.admit(source="platinum")

    def _run_period(self, s, counts):
        admitted = {name: 0 for name in counts}
        offered = []
        for name, n in counts.items():
            offered.extend([name] * n)
        random.Random(9).shuffle(offered)
        for name in offered:
            if s.admit(source=name):
                admitted[name] += 1
        return admitted

    def test_drops_concentrate_on_low_priority(self):
        s = self.make(seed=5)
        counts = {"gold": 100, "silver": 100, "bronze": 100}
        # period 0: learn the mix (no allowance pressure yet)
        s.begin_period(300.0, 300.0)
        self._run_period(s, counts)
        # period 1: only 150 of 300 allowed -> gold full, silver ~50%,
        # bronze nothing
        s.begin_period(150.0, 300.0)
        admitted = self._run_period(s, counts)
        assert admitted["gold"] == 100
        assert admitted["bronze"] < 15
        assert 25 < admitted["silver"] < 75

    def test_everything_admitted_when_allowance_covers_demand(self):
        s = self.make(seed=6)
        s.begin_period(1000.0, 300.0)
        admitted = self._run_period(s, {"gold": 50, "silver": 50, "bronze": 50})
        assert admitted == {"gold": 50, "silver": 50, "bronze": 50}

    def test_equal_priorities_share_proportionally(self):
        s = PriorityEntryActuator({"a": 1.0, "b": 1.0},
                                  rng=random.Random(7))
        s.begin_period(400.0, 400.0)
        self._run_period(s, {"a": 200, "b": 200})
        s.begin_period(200.0, 400.0)
        admitted = self._run_period(s, {"a": 200, "b": 200})
        assert admitted["a"] == pytest.approx(100, abs=30)
        assert admitted["b"] == pytest.approx(100, abs=30)

    def test_loss_by_source(self):
        s = self.make(seed=8)
        s.begin_period(300.0, 300.0)
        self._run_period(s, {"gold": 100, "silver": 100, "bronze": 100})
        s.begin_period(100.0, 300.0)
        self._run_period(s, {"gold": 100, "silver": 100, "bronze": 100})
        loss = s.loss_by_source()
        assert loss["gold"] < loss["bronze"]
