"""The event bus: a typed, subscribable stream of observability events.

One process-wide default bus (:func:`get_bus`) is what the instrumented
layers emit to unless handed an explicit bus; subscribing to it is how an
operator opts into live observability. The design keeps the disabled path
near-free: every emit site guards with ``if bus:`` — a bus with no
subscribers is falsy, so when nobody is listening the event object is
never even constructed.

Subscribers are plain callables ``fn(event)``; an optional ``kinds``
filter restricts delivery to the named event kinds (see
:mod:`repro.obs.events`; a kind the library never emits is refused, not
silently never delivered). Subscriber exceptions propagate to the emitter —
observability code that raises should fail loudly, not corrupt a run
silently.

Synchronous delivery is right for the in-process consumers (metrics
bridge, health detectors): they are cheap, and seeing events in emission
order is what makes them deterministic. It is wrong for consumers that
do I/O — a JSONL sink on a slow disk, an SSE client on a congested
socket — because the emitter *is* :meth:`ControlLoop.run_period`.
:class:`BoundedSubscription` is the backpressure boundary for those: a
per-subscriber ring buffer that evicts its oldest event when full, so one
stalled sink can never stall the control loop (see docs/THEORY.md §10).

:class:`ScopedEmitter` wraps a bus and stamps a ``shard`` label on every
event passing through; the service layer hands one to each shard's loop so
fleet subscribers can tell per-shard streams apart.
"""

from __future__ import annotations

import itertools
import threading
from collections import deque
from typing import Callable, Deque, Iterable, List, Optional, Tuple

from ..errors import ObservabilityError
from .events import EVENT_KINDS, ObsEvent

Subscriber = Callable[[ObsEvent], None]

_sub_ids = itertools.count()


class EventBus:
    """Synchronous fan-out of :class:`~repro.obs.events.ObsEvent` objects."""

    def __init__(self) -> None:
        self._subs: List[Tuple[Subscriber, Optional[frozenset]]] = []

    # ------------------------------------------------------------------ #
    # subscription management
    # ------------------------------------------------------------------ #
    def subscribe(self, callback: Subscriber,
                  kinds: Optional[Iterable[str]] = None) -> Subscriber:
        """Register ``callback`` for every event (or just the given kinds).

        Returns the callback so it can be used as a decorator and as the
        token for :meth:`unsubscribe`. Naming a kind outside
        :data:`~repro.obs.events.EVENT_KINDS` raises: such a subscriber
        would never fire.
        """
        if not callable(callback):
            raise ObservabilityError(
                f"bus subscriber must be callable, got {callback!r}"
            )
        kindset = None if kinds is None else frozenset(kinds)
        if kindset is not None and not kindset:
            raise ObservabilityError("empty kinds filter would never match")
        unknown = sorted(kindset - frozenset(EVENT_KINDS)) if kindset else []
        if unknown:
            raise ObservabilityError(
                f"unknown event kinds {unknown}; pick from {EVENT_KINDS}"
            )
        self._subs.append((callback, kindset))
        return callback

    def unsubscribe(self, callback: Subscriber) -> bool:
        """Remove every registration of ``callback``; True if any removed.

        Compares with ``==`` so a bound method unsubscribes even though
        each attribute access builds a fresh method object.
        """
        before = len(self._subs)
        self._subs = [(cb, kinds) for cb, kinds in self._subs
                      if cb != callback]
        return len(self._subs) < before

    # ------------------------------------------------------------------ #
    # emission
    # ------------------------------------------------------------------ #
    def emit(self, event: ObsEvent) -> None:
        """Deliver ``event`` to every matching subscriber, in order."""
        for callback, kinds in tuple(self._subs):
            if kinds is None or event.kind in kinds:
                callback(event)

    def scoped(self, shard: str) -> "ScopedEmitter":
        """An emitter that stamps ``shard`` on every event it forwards."""
        return ScopedEmitter(self, shard)

    def __bool__(self) -> bool:
        """True when at least one subscriber is listening.

        This is the whole opt-in mechanism: emit sites guard with
        ``if bus:`` so a silent bus costs one truthiness check per control
        period and no event allocation at all.
        """
        return bool(self._subs)

    def __len__(self) -> int:
        return len(self._subs)


class BoundedSubscription:
    """A pull-mode bus subscription with a bounded drop-oldest buffer.

    The emit path only ever executes :meth:`_offer` — an O(1) deque
    append under a lock — so a consumer that stalls (slow disk, stuck
    socket, wedged thread) backs up *its own* ring buffer, never the
    control loop that is emitting. When the buffer is full the oldest
    buffered event is evicted to make room: a live view always sees the
    freshest signal.

    Every dropped event increments :attr:`dropped` and the process-wide
    ``repro_obs_dropped_total{subscriber=...,policy="drop_oldest"}``
    counter, so loss on the observation path is itself observable. The
    consumer pulls events with :meth:`get` (how the SSE endpoint streams
    to each client).
    """

    def __init__(self, bus: "EventBus", *,
                 kinds: Optional[Iterable[str]] = None, maxlen: int = 1024,
                 name: Optional[str] = None, registry=None):
        if maxlen < 1:
            raise ObservabilityError(f"buffer needs maxlen >= 1, got {maxlen}")
        self.bus = bus
        self.maxlen = int(maxlen)
        self.name = name if name is not None else f"bounded{next(_sub_ids)}"
        self.dropped = 0
        self._buf: Deque[ObsEvent] = deque()
        self._lock = threading.Lock()
        self._not_empty = threading.Condition(self._lock)
        self._closed = False
        if registry is None:
            from .metrics import get_registry  # runtime: avoids import cycle
            registry = get_registry()
        self._drop_counter = registry.counter(
            "repro_obs_dropped_total",
            "events dropped by bounded bus subscriptions")
        bus.subscribe(self._offer, kinds=kinds)

    # ------------------------------------------------------------------ #
    # emit side (called synchronously from EventBus.emit)
    # ------------------------------------------------------------------ #
    def _offer(self, event: ObsEvent) -> None:
        with self._lock:
            if self._closed:
                return
            if len(self._buf) >= self.maxlen:
                self._buf.popleft()
                self.dropped += 1
                self._drop_counter.inc(subscriber=self.name,
                                       policy="drop_oldest")
            self._buf.append(event)
            self._not_empty.notify()

    # ------------------------------------------------------------------ #
    # consume side
    # ------------------------------------------------------------------ #
    def get(self, timeout: Optional[float] = None) -> Optional[ObsEvent]:
        """Pull the next buffered event; None on timeout or after close."""
        with self._not_empty:
            if not self._buf and not self._closed:
                self._not_empty.wait(timeout)
            if not self._buf:
                return None
            return self._buf.popleft()

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    def close(self) -> None:
        """Unsubscribe and wake any consumer blocked in :meth:`get`."""
        self.bus.unsubscribe(self._offer)
        with self._lock:
            self._closed = True
            self._not_empty.notify_all()

    def __enter__(self) -> "BoundedSubscription":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __len__(self) -> int:
        with self._lock:
            return len(self._buf)


class ScopedEmitter:
    """A bus view that labels events with a shard name on the way through.

    Quacks like a bus for emit sites (``emit``, ``scoped``, ``__bool__``)
    but shares the underlying bus's subscribers — subscribing happens on
    the real bus, before or after the scoped view is created.
    """

    __slots__ = ("bus", "shard")

    def __init__(self, bus: EventBus, shard: str):
        self.bus = bus
        self.shard = str(shard)

    def emit(self, event: ObsEvent) -> None:
        if event.shard is None:
            event.shard = self.shard
        self.bus.emit(event)

    def scoped(self, shard: str) -> "ScopedEmitter":
        return ScopedEmitter(self.bus, shard)

    def __bool__(self) -> bool:
        return bool(self.bus)

    def __len__(self) -> int:
        return len(self.bus)


#: the process-wide default bus every instrumented layer falls back to
_DEFAULT_BUS = EventBus()


def get_bus() -> EventBus:
    """The process-wide default event bus (always the same object)."""
    return _DEFAULT_BUS
