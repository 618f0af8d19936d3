"""Unit tests for arrival materialization."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.workloads import (
    RateTrace,
    arrivals_from_trace,
    load_ita_trace,
    merge_arrivals,
    uniform_values,
)
from repro.workloads.arrivals import _poisson
from repro.errors import WorkloadError


class TestUniformValues:
    def test_field_count(self):
        v = uniform_values(random.Random(0), 6)
        assert len(v) == 6
        assert all(0.0 <= x < 1.0 for x in v)


class TestArrivalsFromTrace:
    def test_counts_match_trace(self):
        tr = RateTrace([100.0, 50.0], period=1.0)
        arr = arrivals_from_trace(tr, seed=0)
        assert len(arr) == 150
        first = [a for a in arr if a[0] < 1.0]
        assert len(first) == 100

    def test_time_ordered(self):
        tr = RateTrace([100.0, 300.0, 50.0])
        times = [a[0] for a in arrivals_from_trace(tr, seed=1)]
        assert times == sorted(times)

    def test_source_and_fields(self):
        tr = RateTrace([10.0])
        arr = arrivals_from_trace(tr, source="web", n_fields=3, seed=2)
        assert all(a[2] == "web" for a in arr)
        assert all(len(a[1]) == 3 for a in arr)

    def test_poisson_mode_mean(self):
        tr = RateTrace([200.0] * 50)
        arr = arrivals_from_trace(tr, poisson=True, seed=3)
        assert len(arr) == pytest.approx(200 * 50, rel=0.05)

    def test_zero_rate_period(self):
        tr = RateTrace([0.0, 10.0])
        arr = arrivals_from_trace(tr, seed=5)
        assert len(arr) == 10
        assert all(a[0] >= 1.0 for a in arr)


class TestMerge:
    def test_merge_orders_by_time(self):
        a = [(0.0, (), "a"), (2.0, (), "a")]
        b = [(1.0, (), "b"), (3.0, (), "b")]
        merged = merge_arrivals(a, b)
        assert [m[0] for m in merged] == [0.0, 1.0, 2.0, 3.0]


class TestPoissonSampler:
    def test_zero_mean(self):
        assert _poisson(random.Random(0), 0.0) == 0

    def test_negative_mean_rejected(self):
        with pytest.raises(WorkloadError):
            _poisson(random.Random(0), -1.0)

    def test_small_mean_statistics(self):
        rng = random.Random(1)
        samples = [_poisson(rng, 3.0) for _ in range(5000)]
        assert sum(samples) / len(samples) == pytest.approx(3.0, rel=0.05)

    def test_large_mean_statistics(self):
        rng = random.Random(2)
        samples = [_poisson(rng, 200.0) for _ in range(2000)]
        assert sum(samples) / len(samples) == pytest.approx(200.0, rel=0.02)


class TestItaLoader:
    def test_roundtrip(self, tmp_path):
        p = tmp_path / "trace.txt"
        p.write_text("# comment\n100.0 x\n100.5 x\n101.2 x\n103.9 x\n")
        tr = load_ita_trace(p, period=1.0)
        assert list(tr) == [2.0, 1.0, 0.0, 1.0]

    def test_missing_file(self):
        with pytest.raises(WorkloadError):
            load_ita_trace("/nonexistent/file.txt")

    def test_bad_line(self, tmp_path):
        p = tmp_path / "bad.txt"
        p.write_text("not-a-number\n")
        with pytest.raises(WorkloadError):
            load_ita_trace(p)

    def test_empty_file(self, tmp_path):
        p = tmp_path / "empty.txt"
        p.write_text("# only comments\n")
        with pytest.raises(WorkloadError):
            load_ita_trace(p)


@settings(max_examples=20, deadline=None)
@given(rates=st.lists(st.floats(min_value=0, max_value=500), min_size=1,
                      max_size=20),
       seed=st.integers(min_value=0, max_value=100))
def test_arrival_count_equals_rounded_rate_sum(rates, seed):
    tr = RateTrace(rates, period=1.0)
    arr = arrivals_from_trace(tr, seed=seed)
    assert len(arr) == sum(int(round(r)) for r in rates)
