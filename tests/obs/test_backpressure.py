"""Bounded-bus backpressure: drop-oldest ring, stalled consumer, lifecycle."""

import threading
import time

import pytest

from repro.errors import ObservabilityError
from repro.obs import BoundedSubscription, EventBus, MetricsRegistry
from repro.obs.events import DrainTruncated


def emit_n(bus, n, start=0):
    for i in range(start, start + n):
        bus.emit(DrainTruncated(time=float(i)))


class TestDropPolicies:
    def test_drop_oldest_keeps_the_freshest(self):
        bus = EventBus()
        registry = MetricsRegistry()
        sub = BoundedSubscription(bus, maxlen=3, name="t", registry=registry)
        emit_n(bus, 5)
        got = [sub.get(timeout=0.1).time for _ in range(3)]
        assert got == [2.0, 3.0, 4.0]
        assert sub.get(timeout=0.05) is None
        assert sub.dropped == 2
        counter = registry.get("repro_obs_dropped_total")
        assert counter.value(subscriber="t", policy="drop_oldest") == 2

    def test_invalid_arguments_rejected(self):
        bus = EventBus()
        with pytest.raises(ObservabilityError):
            BoundedSubscription(bus, maxlen=0, registry=MetricsRegistry())


class TestStalledSubscriber:
    def test_stalled_consumer_never_stalls_the_emitter(self):
        """The tentpole invariant: a consumer that stops pulling costs the
        emitting loop only an O(1) append — events beyond the buffer are
        dropped and counted, and emission latency stays flat."""
        bus = EventBus()
        sub = BoundedSubscription(bus, maxlen=8, registry=MetricsRegistry())
        start = time.perf_counter()
        emit_n(bus, 500)
        emit_wall = time.perf_counter() - start
        assert emit_wall < 1.0
        assert sub.dropped == 500 - 8
        # the consumer wakes up to the freshest window, in order
        got = [sub.get(timeout=0.1).time for _ in range(8)]
        assert got == [float(i) for i in range(492, 500)]
        assert sub.get(timeout=0.05) is None
        sub.close()


class TestLifecycle:
    def test_close_unsubscribes_and_joins(self):
        """close() wakes a consumer blocked in get(); its thread joins."""
        bus = EventBus()
        sub = BoundedSubscription(bus, registry=MetricsRegistry())
        assert len(bus) == 1
        woke = []
        consumer = threading.Thread(
            target=lambda: woke.append(sub.get(timeout=10.0)), daemon=True)
        consumer.start()
        time.sleep(0.05)
        sub.close()
        consumer.join(timeout=5.0)
        assert woke == [None]
        assert len(bus) == 0
        emit_n(bus, 1, start=99)  # after close: nothing buffered
        assert len(sub) == 0

    def test_context_manager_closes(self):
        bus = EventBus()
        with BoundedSubscription(bus, maxlen=4,
                                 registry=MetricsRegistry()) as sub:
            emit_n(bus, 2)
            assert len(sub) == 2
            assert sub.get(timeout=0.1).time == 0.0
        assert len(bus) == 0

    def test_kinds_filter_applies(self):
        bus = EventBus()
        sub = BoundedSubscription(bus, kinds=("period",),
                                  registry=MetricsRegistry())
        emit_n(bus, 3)  # drain_truncated events: filtered out
        assert sub.get(timeout=0.05) is None
        sub.close()
