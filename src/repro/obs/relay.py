"""Cross-process event relay: pool workers -> one parent-side bus.

The experiment pool (:func:`repro.experiments.parallel.run_jobs`) runs
each job in a separate process, and every process has its own default
bus — so until now a parallel grid sweep or a fanned-out service run was
observable only from inside each worker, i.e. not at all. The relay
closes that gap with plain :mod:`multiprocessing` machinery:

* **worker side** — :func:`worker_relay` subscribes a forwarder to the
  worker's bus that ships every event (pickled, with a worker label)
  onto a shared manager queue;
* **parent side** — an :class:`EventRelay` owns the manager + queue and
  runs a pump thread that re-emits each arriving event on the parent
  bus, stamped with provenance: the event's ``shard`` becomes
  ``"<worker>"`` (single-loop jobs) or ``"<worker>/<shard>"`` (service
  jobs), and an informal ``worker`` attribute carries the raw label.

Because provenance rides the existing ``shard`` label, every parent-side
consumer — metrics bridge, health monitor, SSE clients, the dashboard —
sees per-worker series with zero changes; ``repro_obs_relayed_total``
counts relayed events per worker on the default registry.

The pump re-emits on the parent bus, so a forwarder must never be
attached to that same bus (the event would loop forever). Forwarders
therefore skip any event already carrying a ``worker`` stamp, and
:func:`run_jobs` only attaches relays inside pool workers — the serial
fallback's events are already live on the parent bus, unlabelled.
"""

from __future__ import annotations

import itertools
import multiprocessing
import os
import queue as _queue
import threading
from contextlib import contextmanager
from typing import Dict, Optional

from .bus import EventBus, get_bus
from .events import ObsEvent
from .logconf import get_logger

_log = get_logger("obs.relay")

#: queue marker for flush barriers: ("__flush__", token)
_FLUSH = "__flush__"
#: queue marker that stops the pump: ("__stop__", None)
_STOP = "__stop__"
#: seconds the pump blocks on an empty queue before looking again; stop and
#: flush arrive as queue markers, so this only bounds a wake-up, not latency
POLL_INTERVAL = 0.25

_flush_tokens = itertools.count()


def relay_forwarder(relay_queue, worker: str):
    """A bus subscriber that ships events onto a relay queue.

    Events that already carry a ``worker`` stamp were relayed once and
    are skipped — the guard that makes accidentally subscribing a
    forwarder to the re-emitting bus a no-op instead of a cycle.
    """
    def forward(event: ObsEvent) -> None:
        if getattr(event, "worker", None) is not None:
            return
        relay_queue.put((worker, event))
    return forward


@contextmanager
def worker_relay(relay_queue):
    """Forward this process's bus events to a parent's relay queue.

    Meant for the worker side of a process boundary: wrap the work in
    ``with worker_relay(relay.queue):`` and every event emitted on the
    default bus while inside ships to the parent, labelled
    ``"pid<os.getpid()>"`` so provenance distinguishes pool processes.
    Yields the worker label.
    """
    bus = get_bus()
    worker = f"pid{os.getpid()}"
    forward = relay_forwarder(relay_queue, worker)
    bus.subscribe(forward)
    try:
        yield worker
    finally:
        bus.unsubscribe(forward)


class EventRelay:
    """Parent-side pump: manager queue in, provenance-stamped events out.

    Construct it where the workers should be observed, hand
    :attr:`queue` to the workers (it is a manager proxy, so it survives
    pickling into :class:`~concurrent.futures.ProcessPoolExecutor`
    submissions, unlike a raw ``multiprocessing.Queue``), and subscribe
    to the relay's bus as usual. Use as a context manager or call
    :meth:`start`/:meth:`stop`.
    """

    def __init__(self, bus: Optional[EventBus] = None, registry=None):
        self.bus = bus if bus is not None else get_bus()
        self.relayed = 0
        self.errors = 0
        self.per_worker: Dict[str, int] = {}
        if registry is None:
            from .metrics import get_registry  # runtime: avoids import cycle
            registry = get_registry()
        self._counter = registry.counter(
            "repro_obs_relayed_total",
            "events re-emitted from relay worker processes")
        self._manager: Optional[multiprocessing.managers.SyncManager] = None
        self.queue = None
        self._thread: Optional[threading.Thread] = None
        self._flush_waits: Dict[int, threading.Event] = {}

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    def start(self) -> "EventRelay":
        """Spin up the manager queue and the pump thread (idempotent)."""
        if self._thread is not None:
            return self
        self._manager = multiprocessing.Manager()
        self.queue = self._manager.Queue()
        self._thread = threading.Thread(target=self._pump, daemon=True,
                                        name="repro-obs-relay")
        self._thread.start()
        return self

    def stop(self) -> None:
        """Drain what is already queued, then stop pump and manager."""
        if self._thread is None:
            return
        self.queue.put((_STOP, None))
        self._thread.join(timeout=10.0)
        self._thread = None
        self._manager.shutdown()
        self._manager = None
        self.queue = None

    def flush(self, timeout: float = 10.0) -> bool:
        """Barrier: True once the pump has consumed everything queued
        before the call (workers must have finished putting)."""
        if self._thread is None:
            return True
        token = next(_flush_tokens)
        done = threading.Event()
        self._flush_waits[token] = done
        self.queue.put((_FLUSH, token))
        return done.wait(timeout)

    def __enter__(self) -> "EventRelay":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # ------------------------------------------------------------------ #
    # the pump
    # ------------------------------------------------------------------ #
    def _pump(self) -> None:
        while True:
            try:
                worker, event = self.queue.get(timeout=POLL_INTERVAL)
            except _queue.Empty:
                continue
            except (EOFError, OSError, ConnectionError):
                return  # manager went away under us (interpreter exit)
            if worker == _STOP:
                return
            if worker == _FLUSH:
                waiter = self._flush_waits.pop(event, None)
                if waiter is not None:
                    waiter.set()
                continue
            try:
                self._re_emit(worker, event)
            except Exception:
                self.errors += 1
                _log.exception("relay failed to re-emit an event from %s",
                               worker)

    def _re_emit(self, worker: str, event: ObsEvent) -> None:
        event.worker = worker
        event.shard = (worker if event.shard is None
                       else f"{worker}/{event.shard}")
        self.relayed += 1
        self.per_worker[worker] = self.per_worker.get(worker, 0) + 1
        self._counter.inc(worker=worker)
        self.bus.emit(event)
