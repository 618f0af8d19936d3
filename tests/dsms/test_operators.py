"""Unit tests for query-network operators."""

import random

import pytest

from repro.dsms import (
    AggregateOperator,
    FilterOperator,
    MapOperator,
    Sink,
    UnionOperator,
    WindowJoinOperator,
    make_source_tuple,
)
from repro.errors import NetworkError


def tup(values, arrived=0.0):
    return make_source_tuple(tuple(values), arrived)


class TestFilter:
    def test_pass_and_drop(self):
        f = FilterOperator("f", 0.001, lambda v: v[0] > 0)
        assert f.apply(tup([1]), 0, 0.0) != []
        assert f.apply(tup([-1]), 0, 0.0) == []

    def test_threshold_filter_selectivity_semantics(self):
        f = FilterOperator.threshold("f", 0.001, selectivity=0.3)
        assert f.apply(tup([0.29]), 0, 0.0) != []
        assert f.apply(tup([0.31]), 0, 0.0) == []

    def test_threshold_validation(self):
        with pytest.raises(NetworkError):
            FilterOperator.threshold("f", 0.001, selectivity=1.5)

    def test_observed_selectivity(self):
        f = FilterOperator.threshold("f", 0.001, selectivity=0.5)
        rng = random.Random(3)
        for _ in range(2000):
            out = f.apply(tup([rng.random()]), 0, 0.0)
            f.record(len(out))
        assert f.selectivity == pytest.approx(0.5, abs=0.05)

    def test_negative_cost_rejected(self):
        with pytest.raises(NetworkError):
            MapOperator("m", -1.0)

    def test_empty_name_rejected(self):
        with pytest.raises(NetworkError):
            MapOperator("", 0.0)


class TestMapUnion:
    def test_identity_map(self):
        m = MapOperator("m", 0.001)
        t = tup([1, 2])
        assert m.apply(t, 0, 0.0) == [t]

    def test_transforming_map_preserves_lineage(self):
        m = MapOperator("m", 0.001, fn=lambda v: (v[0] * 2,))
        t = tup([3])
        out = m.apply(t, 0, 0.0)
        assert out[0].values == (6,)
        assert out[0].lineage is t.lineage

    def test_union_passthrough_any_port(self):
        u = UnionOperator("u", 0.001)
        t = tup([1])
        assert u.apply(t, 0, 0.0) == [t]
        assert u.apply(t, 7, 0.0) == [t]


class TestWindowJoin:
    def make_join(self, window=10.0, by_time=True):
        return WindowJoinOperator("j", 0.001, window,
                                  key=lambda v: v[0], window_in_time=by_time)

    def test_match_across_ports(self):
        j = self.make_join()
        assert j.apply(tup([1, "left"]), 0, 0.0) == []
        out = j.apply(tup([1, "right"]), 1, 1.0)
        assert len(out) == 1
        assert out[0].values == (1, "right", 1, "left")

    def test_no_match_for_different_keys(self):
        j = self.make_join()
        j.apply(tup([1]), 0, 0.0)
        assert j.apply(tup([2]), 1, 1.0) == []

    def test_time_window_eviction(self):
        j = self.make_join(window=5.0)
        j.apply(tup([1]), 0, 0.0)
        # at t=10 the stored tuple is older than the 5s window
        assert j.apply(tup([1]), 1, 10.0) == []

    def test_count_window_eviction(self):
        j = self.make_join(window=2, by_time=False)
        for key in (1, 2, 3):
            j.apply(tup([key]), 0, float(key))
        # window keeps only the 2 most recent left tuples (keys 2 and 3)
        assert j.apply(tup([1]), 1, 4.0) == []
        assert len(j.apply(tup([3]), 1, 4.0)) == 1

    def test_multiple_matches(self):
        j = self.make_join()
        j.apply(tup([1, "a"]), 0, 0.0)
        j.apply(tup([1, "b"]), 0, 0.5)
        out = j.apply(tup([1, "probe"]), 1, 1.0)
        assert len(out) == 2

    def test_bad_port_raises(self):
        with pytest.raises(NetworkError):
            self.make_join().apply(tup([1]), 2, 0.0)

    def test_invalid_window(self):
        with pytest.raises(NetworkError):
            self.make_join(window=0.0)


class TestAggregate:
    def make_agg(self, window=1.0):
        return AggregateOperator("a", 0.001, window,
                                 fn=lambda rows: (sum(v[0] for v in rows),))

    def test_emits_after_window(self):
        a = self.make_agg(window=1.0)
        t1, t2 = tup([1], 0.0), tup([2], 0.1)
        assert a.apply(t1, 0, 0.0) == []
        assert a.apply(t2, 0, 0.5) == []
        out = a.on_time(1.1)
        assert len(out) == 1
        ts, total = out[0].values
        assert total == 3

    def test_carrier_reference_held_and_transferred(self):
        a = self.make_agg(window=1.0)
        t1 = tup([1], 0.0)
        a.apply(t1, 0, 0.0)
        assert t1.lineage.refcount == 2  # caller ref + held carrier ref
        t2 = tup([2], 0.1)
        a.apply(t2, 0, 0.5)
        assert t1.lineage.refcount == 1  # superseded carrier released
        out = a.on_time(2.0)
        # the emitted tuple carries t2's held reference
        assert out[0].lineage is t2.lineage
        assert t2.lineage.refcount == 2

    def test_flush_closes_open_window(self):
        a = self.make_agg(window=100.0)
        a.apply(tup([5], 0.0), 0, 0.0)
        out = a.flush(1.0)
        assert len(out) == 1
        assert out[0].values[1] == 5

    def test_on_time_before_window_end_emits_nothing(self):
        a = self.make_agg(window=1.0)
        a.apply(tup([1], 0.0), 0, 0.0)
        assert a.on_time(0.5) == []

    def test_new_window_opens_after_close(self):
        a = self.make_agg(window=1.0)
        a.apply(tup([1], 0.0), 0, 0.0)
        a.on_time(1.5)
        a.apply(tup([10], 2.0), 0, 2.0)
        out = a.on_time(3.5)
        assert out[0].values[1] == 10

    def test_invalid_window(self):
        with pytest.raises(NetworkError):
            self.make_agg(window=0.0)


class TestSink:
    def test_consumes_everything(self):
        s = Sink("out")
        assert s.apply(tup([1]), 0, 0.0) == []
        assert s.consumed == 1
