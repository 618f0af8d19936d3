"""Unit tests for operator FIFO queues."""

import random

import pytest
from hypothesis import given, strategies as st

from repro.dsms import OperatorQueue, make_source_tuple


def _tuples(n):
    return [make_source_tuple((i,), arrived=float(i)) for i in range(n)]


class TestFifo:
    def test_fifo_order(self):
        q = OperatorQueue("q")
        for t in _tuples(5):
            q.push(t)
        popped = [q.pop()[0].values[0] for _ in range(5)]
        assert popped == [0, 1, 2, 3, 4]

    def test_port_travels_with_tuple(self):
        q = OperatorQueue("q")
        t = _tuples(1)[0]
        q.push(t, port=1)
        __, port = q.pop()
        assert port == 1

    def test_pop_empty_raises(self):
        with pytest.raises(IndexError):
            OperatorQueue("q").pop()

    def test_counters(self):
        q = OperatorQueue("q")
        for t in _tuples(3):
            q.push(t)
        q.pop()
        assert q.enqueued == 3
        assert q.dequeued == 1
        assert len(q) == 2
        assert bool(q)


class TestShedding:
    def test_shed_count_exact(self):
        q = OperatorQueue("q")
        for t in _tuples(10):
            q.push(t)
        victims = q.shed_count(4, random.Random(0))
        assert len(victims) == 4
        assert len(q) == 6

    def test_shed_count_clamps_to_depth(self):
        q = OperatorQueue("q")
        for t in _tuples(3):
            q.push(t)
        assert len(q.shed_count(10, random.Random(0))) == 3

    def test_shed_count_negative_rejected(self):
        with pytest.raises(ValueError):
            OperatorQueue("q").shed_count(-1, random.Random(0))

    def test_shed_preserves_fifo_of_survivors(self):
        q = OperatorQueue("q")
        for t in _tuples(20):
            q.push(t)
        q.shed_count(5, random.Random(7))
        survivors = [q.pop()[0].values[0] for _ in range(len(q))]
        assert survivors == sorted(survivors)


@given(st.integers(min_value=0, max_value=50), st.integers(min_value=0, max_value=50),
       st.integers(min_value=0, max_value=2**31))
def test_shed_count_conserves_tuples(n, k, seed):
    q = OperatorQueue("q")
    for t in _tuples(n):
        q.push(t)
    victims = q.shed_count(k, random.Random(seed))
    assert len(victims) + len(q) == n
    assert len(victims) == min(n, k)
