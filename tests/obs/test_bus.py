"""Unit tests for the event bus and scoped emitters."""

import pytest

from repro.errors import ObservabilityError
from repro.obs import EventBus, get_bus
from repro.obs.events import DrainTruncated, PeriodDecision


class TestSubscription:
    def test_emit_reaches_subscribers_in_order(self):
        bus = EventBus()
        seen = []
        bus.subscribe(lambda e: seen.append(("a", e.kind)))
        bus.subscribe(lambda e: seen.append(("b", e.kind)))
        bus.emit(DrainTruncated(leftover=5))
        assert seen == [("a", "drain_truncated"), ("b", "drain_truncated")]

    def test_kind_filter(self):
        bus = EventBus()
        drains_only = []
        everything = []
        bus.subscribe(drains_only.append, kinds=("drain_truncated",))
        bus.subscribe(everything.append)
        bus.emit(DrainTruncated(leftover=5))
        bus.emit(PeriodDecision(record=None))
        assert [e.kind for e in drains_only] == ["drain_truncated"]
        assert [e.kind for e in everything] == ["drain_truncated", "period"]

    def test_unsubscribe(self):
        bus = EventBus()
        seen = []
        cb = bus.subscribe(seen.append)
        assert bus.unsubscribe(cb) is True
        assert bus.unsubscribe(cb) is False  # already gone
        bus.emit(DrainTruncated())
        assert seen == []

    def test_rejects_non_callable_and_empty_kinds(self):
        bus = EventBus()
        with pytest.raises(ObservabilityError):
            bus.subscribe("not callable")
        with pytest.raises(ObservabilityError):
            bus.subscribe(lambda e: None, kinds=())

    def test_unknown_kind_is_refused_not_silently_dead(self):
        bus = EventBus()
        with pytest.raises(ObservabilityError, match="targte_changed"):
            bus.subscribe(print, kinds=("period", "targte_changed"))
        assert not bus


class TestDisabledPath:
    def test_bus_is_falsy_without_subscribers(self):
        bus = EventBus()
        assert not bus
        assert len(bus) == 0
        cb = bus.subscribe(lambda e: None)
        assert bus
        assert len(bus) == 1
        bus.unsubscribe(cb)
        assert not bus

    def test_default_bus_is_a_singleton(self):
        assert get_bus() is get_bus()


class TestScopedEmitter:
    def test_stamps_shard_label(self):
        bus = EventBus()
        seen = []
        bus.subscribe(seen.append)
        scoped = bus.scoped("shard3")
        scoped.emit(DrainTruncated(leftover=1))
        assert seen[0].shard == "shard3"

    def test_does_not_overwrite_explicit_shard(self):
        bus = EventBus()
        seen = []
        bus.subscribe(seen.append)
        bus.scoped("outer").emit(DrainTruncated(shard="inner"))
        assert seen[0].shard == "inner"

    def test_truthiness_tracks_live_bus(self):
        bus = EventBus()
        scoped = bus.scoped("s")
        assert not scoped
        # subscribing *after* the scoped view was handed out still counts
        bus.subscribe(lambda e: None)
        assert scoped

    def test_rescoping_keeps_the_underlying_bus(self):
        bus = EventBus()
        seen = []
        bus.subscribe(seen.append)
        bus.scoped("a").scoped("b").emit(DrainTruncated())
        assert seen[0].shard == "b"
