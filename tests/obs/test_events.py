"""The event catalogue: every kind the library emits has a reader."""

import inspect
import re

from repro.obs import (
    EVENT_KINDS,
    EventBus,
    HealthMonitor,
    MetricsRegistry,
    SysIdMonitor,
    TraceCollector,
    install_metrics,
)
from repro.obs.serve import DASHBOARD_HTML, _LiveState


def reader_kinds():
    """Kinds the in-process readers subscribe to or dispatch on.

    Generic sinks (flight rings, SSE, the relay forwarder) pass every
    event through and do not count: an event only they see is one
    nothing interprets.
    """
    bus = EventBus()
    install_metrics(bus, MetricsRegistry())
    HealthMonitor(bus)
    SysIdMonitor(bus)
    TraceCollector(bus)
    kinds = set()
    for __, subscribed in bus._subs:
        kinds |= subscribed
    kinds |= set(re.findall(r'kind == "(\w+)"',
                            inspect.getsource(_LiveState._on_event)))
    kinds |= set(re.findall(r'addEventListener\("(\w+)"', DASHBOARD_HTML))
    return kinds


def test_every_event_kind_has_a_reader():
    unread = sorted(set(EVENT_KINDS) - reader_kinds())
    assert not unread, f"event kinds nothing reads: {unread}"
