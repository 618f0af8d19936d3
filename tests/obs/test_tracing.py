"""Unit tests for the per-period tracer and flame merging."""

import pytest

from repro.errors import ObservabilityError
from repro.obs import PeriodTracer, merge_flames


class TestPeriodTracer:
    def test_segments_accumulate_per_period_and_per_run(self):
        tr = PeriodTracer()
        tr.begin_period(0)
        tr.add("engine", 0.2)
        tr.add("monitor", 0.1)
        tr.end_period()
        tr.begin_period(1)
        tr.add("engine", 0.3)
        tr.end_period()
        assert tr.segments == pytest.approx({"engine": 0.5, "monitor": 0.1})
        assert tr.periods[0] == pytest.approx(
            {"k": 0.0, "engine": 0.2, "monitor": 0.1})
        assert tr.periods[1] == pytest.approx({"k": 1.0, "engine": 0.3})
        assert tr.total_seconds() == pytest.approx(0.6)

    def test_span_context_manager_measures_wall_time(self):
        tr = PeriodTracer()
        with tr.span("drain"):
            sum(range(1000))
        assert tr.segments["drain"] >= 0.0
        assert list(tr.segments) == ["drain"]

    def test_negative_charge_clamped(self):
        tr = PeriodTracer()
        tr.add("engine", -5.0)  # clock went backwards
        assert tr.segments["engine"] == 0.0

    def test_out_of_period_charges_hit_run_totals_only(self):
        tr = PeriodTracer()
        tr.add("drain", 1.0)
        assert tr.periods == []
        assert tr.segments["drain"] == 1.0

    def test_flame_summary(self):
        tr = PeriodTracer()
        tr.begin_period(0)
        tr.add("engine", 0.6)
        tr.add("monitor", 0.2)
        tr.end_period()
        tr.wall_seconds = 1.0
        flame = tr.flame()
        assert flame["periods"] == 1
        assert flame["total_seconds"] == pytest.approx(0.8)
        assert flame["coverage"] == pytest.approx(0.8)
        # ordered by descending share, with fractions of accounted time
        assert list(flame["segments"]) == ["engine", "monitor"]
        assert flame["fractions"]["engine"] == pytest.approx(0.75)


class TestMergeFlames:
    def _flame(self, engine, wall, periods=10):
        tr = PeriodTracer()
        tr.add("engine", engine)
        tr.wall_seconds = wall
        flame = tr.flame()
        flame["periods"] = periods
        return flame

    def test_sums_segments_across_shards(self):
        merged = merge_flames({
            "s0": self._flame(0.4, wall=1.0),
            "s1": self._flame(0.2, wall=0.8),
        })
        assert merged["segments"]["engine"] == pytest.approx(0.6)
        assert merged["wall_seconds"] == pytest.approx(1.0)  # max shard wall
        assert set(merged["shards"]) == {"s0", "s1"}

    def test_explicit_wall_override(self):
        merged = merge_flames({"s0": self._flame(0.4, wall=0.5)},
                              wall_seconds=2.0)
        assert merged["wall_seconds"] == pytest.approx(2.0)
        assert merged["coverage"] == pytest.approx(0.2)

    def test_empty_input_raises(self):
        with pytest.raises(ObservabilityError):
            merge_flames({})
