"""SSE /events under tuple-trace bursts: control frames must survive.

At high sample fractions the per-tuple span stream can emit orders of
magnitude more events than the per-period control signals. The SSE
endpoint therefore excludes ``tuple_trace`` from its default subscription
(opt-in via ``?kinds=``), and each client's ``drop_oldest`` ring must
degrade by dropping its own backlog — never by wedging the emitter or
starving the period frames the dashboard lives on.
"""

import json
import urllib.request

from repro.obs import EventBus, MetricsRegistry, ObsServer
from repro.obs.bus import BoundedSubscription
from repro.obs.events import EVENT_KINDS, CompletionStats, TupleTraceCompleted
from repro.obs.serve import _Handler


def trace_event(i):
    return TupleTraceCompleted(trace={"tuple_id": f"in#{i}",
                                      "outcome": "completed",
                                      "latency": 0.5, "events": []})


class TestDefaultKinds:
    def test_tuple_trace_excluded_by_default(self):
        assert "tuple_trace" not in _Handler.SSE_DEFAULT_KINDS
        # everything else still streams, including the percentile pane feed
        assert "period" in _Handler.SSE_DEFAULT_KINDS
        assert "completions" in _Handler.SSE_DEFAULT_KINDS
        assert _Handler.SSE_DEFAULT_KINDS == set(EVENT_KINDS) - {"tuple_trace"}


class TestBoundedSubscriptionBurst:
    def test_drop_oldest_burst_drops_backlog_not_subscription(self):
        bus = EventBus()
        sub = BoundedSubscription(bus, maxlen=64)
        try:
            for i in range(5000):
                bus.emit(trace_event(i))
            assert sub.dropped == 5000 - 64
            # the ring holds the *newest* 64 — oldest went overboard
            first = sub.get(timeout=1.0)
            assert first.trace["tuple_id"] == "in#4936"
        finally:
            sub.close()

    def test_filtered_subscription_never_buffers_trace_bursts(self):
        bus = EventBus()
        sub = BoundedSubscription(bus, kinds=_Handler.SSE_DEFAULT_KINDS,
                                  maxlen=8)
        try:
            completions = CompletionStats(k=0, count=2, shed=0,
                                          delays=[0.1, 0.2], shard="shard0")
            bus.emit(completions)
            for i in range(1000):  # 125x the ring size
                bus.emit(trace_event(i))
            # the burst never entered the ring: nothing dropped, and the
            # control frame is still first in line
            assert sub.dropped == 0
            got = sub.get(timeout=1.0)
            assert got.kind == "completions"
            assert got.delays == [0.1, 0.2]
        finally:
            sub.close()


class TestSseUnderBurst:
    def _read_frames(self, resp, budget=300):
        """Yield (event, data) SSE frames, skipping keepalive comments."""
        for _ in range(budget):
            line = resp.readline().decode()
            if line.startswith("event: "):
                kind = line[len("event: "):].strip()
                data = resp.readline().decode()
                assert data.startswith("data: ")
                yield kind, json.loads(data[len("data: "):])

    def test_completions_frame_survives_trace_burst(self):
        bus = EventBus()
        server = ObsServer(bus=bus, registry=MetricsRegistry(),
                           sse_maxlen=32).start()
        try:
            resp = urllib.request.urlopen(server.url + "/events", timeout=10)
            frames = self._read_frames(resp)
            kind, _ = next(frames)
            assert kind == "hello"
            # a burst 300x the client's ring, then one control frame
            for i in range(10_000):
                bus.emit(trace_event(i))
            bus.emit(CompletionStats(k=7, count=1, shed=0, delays=[1.5],
                                     shard="shard0"))
            kind, doc = next(frames)
            assert kind == "completions", (
                "trace burst displaced the control frame")
            assert doc["k"] == 7 and doc["delays"] == [1.5]
            resp.close()
        finally:
            server.stop()

    def test_kinds_query_opts_into_tuple_trace(self):
        bus = EventBus()
        server = ObsServer(bus=bus, registry=MetricsRegistry()).start()
        try:
            resp = urllib.request.urlopen(
                server.url + "/events?kinds=tuple_trace", timeout=10)
            frames = self._read_frames(resp)
            kind, _ = next(frames)
            assert kind == "hello"
            bus.emit(CompletionStats(k=1, count=0, shed=0, delays=[]))
            bus.emit(trace_event(0))
            kind, doc = next(frames)
            # the completions event was filtered out by the opt-in list
            assert kind == "tuple_trace"
            assert doc["trace"]["tuple_id"] == "in#0"
            resp.close()
        finally:
            server.stop()
