"""The wall-clock control loop driver: the paper's deployment, live.

:class:`LiveRunner` turns an ordinary :class:`~repro.core.ControlLoop`
into a real-time serving node. A ticker thread sleeps to each period
boundary ``(k+1)·T`` on a :class:`~repro.core.clock.WallClock`, drains
the :class:`~repro.serve.ingest.IngestBuffer` of every tuple stamped
before the boundary, and hands them to ``ControlLoop.run_period`` — the
same per-period body every virtual experiment runs, now clocked by real
seconds. Arrival timestamps are wall seconds-since-start, so they land
directly on the engine's virtual time axis and the Fig. 3 feedback
(q(k), c(k), ŷ(k)) is computed over *real* queueing.

The engine stays a virtual-capacity simulator: ``run_until(boundary)``
executes instantly in wall time, but its queue builds exactly when the
socket's offered rate exceeds ``H/c`` tuples/s — so overload, shedding
and delay regulation are all faithful without burning a real CPU per
tuple, and the entry actuator bounds per-tick work to roughly
``capacity × T`` tuples however hard the socket is blasted.

:class:`LiveService` is the multi-shard node: the same ticker, feeding
the service layer's :func:`~repro.service.service.run_service_period`.
Both are a :class:`_LiveNode` — clock, buffer, ingest socket, lifecycle,
ticker and ``/status`` live there once — and differ only in what one
period does with the drained tuples. :func:`build_live_runner` and
:func:`build_live_service` assemble whole nodes from the specs every
other runtime builds from.
"""

from __future__ import annotations

import signal
import threading
import time as _time
from typing import Dict, List, Optional, Sequence

from ..core.clock import Clock, WallClock
from ..core.loop import ControlLoop
from ..errors import ServeError
from ..metrics.recorder import PeriodRecord, RunRecord
from ..obs.attach import ObsConfig, Observers
from ..obs.bus import get_bus
from ..obs.events import IngestStats
from ..service.service import (
    ServiceResult,
    build_topology,
    check_topology,
    run_service_period,
    service_result,
    topology_status,
)
from ..service.shard import arm_loop, arm_shard, build_shard
from .ingest import IngestBuffer, IngestServer
from .protocol import DEFAULT_SOURCE


class _LiveNode:
    """What every live node is: a clock, an ingest socket, a ticker.

    Lifecycle: :meth:`start` binds the ingest socket (and optionally an
    :class:`~repro.obs.serve.ObsServer`), anchors the clock and launches
    the ticker; :meth:`wait` blocks until ``max_periods`` have closed or
    :meth:`stop` is called; :meth:`stop` joins the ticker, runs every
    loop's virtual end-of-run drain, closes every socket and detaches
    every observer. Subclasses own a ``bus`` (set before this
    constructor arms ``obs`` on it) and supply ``_step`` (one period),
    ``_result`` (what :meth:`stop` returns) and ``_status_extra``.

    A live run depends on real arrival timing, so its flight bundles
    carry no replay spec — ``flight replay`` reports them as not
    replayable rather than guessing.
    """

    def __init__(self, loops: Dict[str, ControlLoop], obs: ObsConfig,
                 clock: Optional[Clock], host: str, ingest_port: int,
                 max_periods: Optional[int]):
        if max_periods is not None and max_periods <= 0:
            raise ServeError(f"max_periods must be positive: {max_periods}")
        self._names = list(loops)
        self._loops = list(loops.values())
        self.period = self._loops[0].period
        self.clock = clock if clock is not None else WallClock()
        self.buffer = IngestBuffer(self.clock)
        self.ingest = IngestServer(self.buffer, host=host, port=ingest_port)
        self.max_periods = max_periods
        self._records: List[RunRecord] = []
        self._lasts: List[PeriodRecord] = []
        self._jitter = 0.0
        self._periods_done = 0
        self._stop = threading.Event()
        self._ticker: Optional[threading.Thread] = None
        self._finished = False
        self._lock = threading.Lock()
        #: perf_counter at :meth:`start`; None while the ticker never ran
        self._wall_start: Optional[float] = None
        self.observers = Observers(self.bus, obs, runtime="live",
                                   status_fn=self.status)
        self.sysid_monitor = self.observers.sysid_monitor
        self.flight_recorder = self.observers.flight_recorder

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    @property
    def ingest_port(self) -> int:
        """The bound TCP port tuples should be sent to."""
        return self.ingest.port

    @property
    def obs_server(self):
        """The live ObsServer while serving; None otherwise."""
        return self.observers.server

    def start(self):
        if self._ticker is not None:
            raise ServeError(f"{type(self).__name__} already started")
        self.observers.start()
        self.ingest.start()
        # buffer-full drops happen before routing, so front-door drops
        # show up in the first loop's sampled tuple traces (mirrors the
        # service-wide "ingest" timing convention)
        self.buffer.tuple_tracer = self._loops[0].tuple_tracer
        self._wall_start = _time.perf_counter()
        for loop in self._loops:
            # the monitor stamps measurements with wall time from here on
            loop.monitor.clock = self.clock
            self._records.append(loop.begin())
        self.clock.start()  # period 0 begins *now*; arrivals stamp >= 0
        self._ticker = threading.Thread(
            target=self._run_ticker, name="repro-live-ticker", daemon=True)
        self._ticker.start()
        return self

    def wait(self, timeout: Optional[float] = None) -> bool:
        """Block until the ticker exits (max_periods or stop). True if it did."""
        if self._ticker is None:
            return True
        self._ticker.join(timeout=timeout)
        return not self._ticker.is_alive()

    def stop(self, drain: bool = True):
        """Stop ticking, close the records, shut every socket. Idempotent.

        ``drain=True`` runs each loop's usual end-of-run *virtual* drain so
        every delivered tuple's delay is resolved into the record.
        """
        self._stop.set()
        if self._ticker is not None:
            self._ticker.join(timeout=max(10.0, 3 * self.period))
        try:
            with self._lock:
                if not self._finished:
                    self._finished = True
                    for loop, record in zip(self._loops, self._records):
                        if drain:
                            loop.finish(record, self._periods_done)
                        else:
                            record.duration = self._periods_done * self.period
            self.ingest.stop()
        finally:
            wall = (0.0 if self._wall_start is None
                    else _time.perf_counter() - self._wall_start)
            summaries = self.observers.close(
                dict(zip(self._names, self._loops)), wall_seconds=wall)
        return self._result(summaries, wall)

    def handle_signals(self) -> None:
        """Route SIGINT/SIGTERM to a clean stop (call from the main thread).

        The first signal requests a graceful stop; the previous handlers
        are restored immediately after, so a second Ctrl-C still kills a
        process wedged in teardown. With a flight recorder attached,
        ``SIGUSR2`` dumps an incident bundle without stopping anything.
        """
        if self.flight_recorder is not None:
            self.flight_recorder.handle_signals()
        previous = {}

        def _on_signal(signum, frame):
            self._stop.set()
            for sig, handler in previous.items():
                try:
                    signal.signal(sig, handler)
                except (ValueError, OSError):  # pragma: no cover
                    pass

        for sig in (signal.SIGINT, signal.SIGTERM):
            try:
                previous[sig] = signal.signal(sig, _on_signal)
            except (ValueError, OSError):  # pragma: no cover - non-main thread
                pass

    def __enter__(self):
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # ------------------------------------------------------------------ #
    # the ticker: one _step call per wall-clock boundary
    # ------------------------------------------------------------------ #
    def _run_ticker(self) -> None:
        buffer, clock, period = self.buffer, self.clock, self.period
        prev = self.ingest.snapshot()
        k = 0
        while not self._stop.is_set():
            if self.max_periods is not None and k >= self.max_periods:
                break
            boundary = (k + 1) * period
            late = clock.wait_until(boundary, self._stop)
            if clock.now() < boundary:
                break  # stop fired mid-period; k never closed
            self._jitter = max(late, 0.0)
            # the buffer drain happens before run_period opens the period;
            # PeriodTracer.add charges it to the run totals so live flame
            # summaries still account for ingest time — once, on the first
            # loop's tracer, so merge_flames never double-counts it
            tracer = self._loops[0].tracer
            if tracer is not None:
                mark = _time.perf_counter()
            due = buffer.drain_until(boundary)
            if tracer is not None:
                tracer.add("ingest", _time.perf_counter() - mark)
            snap = self.ingest.snapshot()
            bus = self.bus
            if bus:
                bus.emit(IngestStats(
                    k=k,
                    accepted=snap.accepted - prev.accepted,
                    dropped=snap.dropped - prev.dropped,
                    malformed=snap.malformed - prev.malformed,
                    bytes_read=snap.bytes_read - prev.bytes_read,
                    connections=snap.open_connections,
                    rate=(snap.accepted - prev.accepted) / period,
                    skew=snap.skew_last,
                    jitter=self._jitter,
                    buffered=len(buffer),
                ))
            prev = snap
            lasts = self._step(k, due)
            with self._lock:
                self._lasts = lasts
                self._periods_done = k + 1
            k += 1

    # ------------------------------------------------------------------ #
    # live introspection (the ObsServer's ``/status`` "service" view)
    # ------------------------------------------------------------------ #
    def status(self) -> dict:
        """A JSON-able snapshot of the live node right now."""
        snap = self.ingest.snapshot()
        with self._lock:
            lasts = self._lasts
            done = self._periods_done
        doc = {
            "mode": "live",
            "running": (self._ticker is not None and self._ticker.is_alive()),
            "clock": round(self.clock.now(), 3) if self.clock else None,
            "period": self.period,
            "periods_done": done,
            "ingest_port": self.ingest.port,
            "tick_jitter": round(self._jitter, 4),
            "ingest": {
                "accepted": snap.accepted,
                "dropped": snap.dropped,
                "malformed": snap.malformed,
                "bytes_read": snap.bytes_read,
                "connections": snap.open_connections,
                "buffered": len(self.buffer),
                "skew_last": round(snap.skew_last, 4),
            },
        }
        doc.update(self._status_extra(lasts))
        return doc


class LiveRunner(_LiveNode):
    """Drives one control loop on wall-clock periods, fed by a socket.

    :meth:`stop` returns the finished
    :class:`~repro.metrics.recorder.RunRecord` (also :attr:`record`).
    Every tuple enters the loop's network at ``entry_source``, whatever
    source name it carried on the wire. ``obs`` is armed on the bus the
    loop already has: the tracers like a shard's, the observers as
    subscribers.
    """

    def __init__(self, loop: ControlLoop,
                 entry_source: str = "in",
                 clock: Optional[Clock] = None,
                 host: str = "127.0.0.1",
                 ingest_port: int = 0,
                 max_periods: Optional[int] = None,
                 obs: ObsConfig = ObsConfig()):
        self.loop = loop
        self.entry_source = entry_source
        arm_loop(loop, None, 0, obs)
        super().__init__({"live": loop}, obs, clock, host, ingest_port,
                         max_periods)

    @property
    def bus(self):
        """The loop's bus, read at every tick (it may be swapped mid-run)."""
        return self.loop.bus

    @property
    def record(self) -> Optional[RunRecord]:
        """The run's record; None until :meth:`start`."""
        return self._records[0] if self._records else None

    def _step(self, k: int, due) -> List[PeriodRecord]:
        # logical source names are a routing concept; tuples enter the
        # query network at the loop's one physical entry source
        entry_source = self.entry_source
        return [self.loop.run_period(
            self._records[0], k,
            [(t, values, entry_source) for t, values, __ in due])]

    def _result(self, summaries: dict, wall: float) -> Optional[RunRecord]:
        return self.record

    def _status_extra(self, lasts: List[PeriodRecord]) -> dict:
        if not lasts:
            return {}
        last = lasts[0]
        return {
            "k": last.k,
            "delay_estimate": last.delay_estimate,
            "target": last.target,
            "queue_length": last.queue_length,
            "alpha": last.alpha,
            "offered": last.offered,
            "admitted": last.admitted,
        }


class LiveService(_LiveNode):
    """N live shards behind one ingest socket, routed through one table.

    The real-time counterpart of
    :class:`~repro.service.service.StreamService`: at every wall-clock
    period boundary the ticker runs the service layer's period step on
    what the shared :class:`~repro.serve.ingest.IngestBuffer` drained —
    route by the wire-protocol ``source`` field, step every shard,
    rebalance, execute a planned *migration* (drain -> cutover ->
    re-pin). Because routing happens per tick against the live table,
    socket tuples follow a migrated source to its new shard without
    clients reconnecting: senders keep writing the same source name to
    the same socket and only the table entry moves.

    :meth:`stop` returns a :class:`~repro.service.service.ServiceResult`
    so live runs export/compare exactly like virtual-time service runs.
    """

    def __init__(self, shards: Sequence, table,
                 coordinator,
                 clock: Optional[Clock] = None,
                 host: str = "127.0.0.1",
                 ingest_port: int = 0,
                 bus=None,
                 max_periods: Optional[int] = None,
                 obs: ObsConfig = ObsConfig()):
        check_topology(shards, table)
        self.shards = list(shards)
        self.table = table
        self.coordinator = coordinator
        self.bus = bus if bus is not None else get_bus()
        self.coordinator.bus = self.bus
        for i, shard in enumerate(self.shards):
            arm_shard(shard, self.bus, i, obs)
        super().__init__({shard.name: shard.loop for shard in self.shards},
                         obs, clock, host, ingest_port, max_periods)

    @property
    def records(self) -> Dict[str, RunRecord]:
        """Shard name -> its run record; empty until :meth:`start`."""
        return dict(zip(self._names, self._records))

    def _step(self, k: int, due) -> List[PeriodRecord]:
        return run_service_period(
            k, due, self.table.shard_of, self.shards, self._records,
            self.coordinator, self.table,
            bus=self.bus, tracer=self.observers.tracer)

    def _result(self, summaries: dict, wall: float) -> ServiceResult:
        return service_result(self.coordinator, self.shards, self.records,
                              wall, summaries)

    def _status_extra(self, lasts: List[PeriodRecord]) -> dict:
        doc = topology_status(self.coordinator, self.table, self.shards)
        doc["coordination"] = self.coordinator.mode
        doc["routes"] = self.table.routes()
        # before the first period closes there is no last record per shard
        lasts = lasts or [None] * len(self.shards)
        for shard, last in zip(doc["shards"].values(), lasts):
            shard["delay_estimate"] = getattr(last, "delay_estimate", None)
            shard["queue_length"] = getattr(last, "queue_length", None)
        return doc


def build_live_service(config, svc,
                       clock: Optional[Clock] = None,
                       host: str = "127.0.0.1",
                       ingest_port: int = 0,
                       bus=None,
                       max_periods: Optional[int] = None) -> LiveService:
    """A complete multi-shard live node from ``(config, svc)`` specs.

    The same :class:`~repro.service.config.ServiceConfig` that builds the
    lockstep service or the process fleet builds the live front-end
    (:func:`~repro.service.service.build_topology`): same shards, same
    routing table, same coordinator (migration policy included), and
    ``svc`` is itself the observer spec the node arms — just clocked by
    real seconds and fed by a socket.
    """
    shards, table, coordinator = build_topology(
        config, svc, default_source=DEFAULT_SOURCE)
    return LiveService(shards, table, coordinator,
                       clock=clock, host=host, ingest_port=ingest_port,
                       bus=bus, max_periods=max_periods, obs=svc)


def build_live_runner(config,
                      strategy: str = "CTRL",
                      backend: str = "full",
                      host: str = "127.0.0.1",
                      ingest_port: int = 0,
                      max_periods: Optional[int] = None,
                      obs: ObsConfig = ObsConfig()) -> LiveRunner:
    """A complete live node from an ExperimentConfig.

    Reuses the service layer's :func:`~repro.service.shard.build_shard`
    (engine + model + monitor + controller + bounded entry actuator at
    the config's headroom/target), then wraps its loop in a
    :class:`LiveRunner` listening on ``host:ingest_port``.
    """
    built = build_shard("live", config,
                        headroom=config.headroom,
                        target=config.target,
                        strategy=strategy,
                        backend=backend)
    return LiveRunner(built.loop,
                      entry_source=built.entry_source,
                      host=host,
                      ingest_port=ingest_port,
                      max_periods=max_periods,
                      obs=obs)
