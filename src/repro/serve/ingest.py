"""Asyncio TCP ingestion front-end and the arrival buffer behind it.

Tuples arrive over the network, get **timestamped on arrival** against
the run's :class:`~repro.core.clock.WallClock`, and wait in an
:class:`IngestBuffer` until the live runner's next control-period
boundary drains everything stamped before that boundary into
``ControlLoop.run_period``.

Design constraints that shaped this module:

* The arrival stamp is taken *inside* ``IngestBuffer.push`` under the
  buffer lock — two asyncio connection handlers interleaving a
  stamp-then-append sequence could otherwise enqueue out of time order,
  which the engine's arrival-ordering check rightly rejects.
* The buffer is bounded. When the replay generator outruns even the
  shedder's admission capacity, the *front door* drops (counted in
  ``dropped``) rather than growing without bound — exactly the
  "load shedding starts at the socket" posture of a production node.
* The asyncio loop runs on a dedicated daemon thread so the serving
  stack composes with the rest of the repo (plain-threaded control
  loop, stdlib HTTP observability server) without an async rewrite.
"""

from __future__ import annotations

import asyncio
import threading
import time
from dataclasses import dataclass
from typing import List, Optional, Tuple

from ..core.clock import Clock
from ..errors import ServeError
from .protocol import MAX_LINE_BYTES, decode_line

#: one buffered arrival: (arrival time, values, source) — matches the
#: ``repro.workloads`` Arrival triple so run_period takes it unchanged
Arrival = Tuple[float, Tuple, str]


@dataclass(frozen=True)
class IngestStatsSnapshot:
    """Monotonic ingestion counters at one instant (thread-safe copy)."""

    accepted: int          # tuples stamped and buffered
    dropped: int           # tuples refused because the buffer was full
    malformed: int         # lines that failed to decode
    bytes_read: int        # raw bytes read off all sockets
    connections: int       # connections accepted over the server's life
    open_connections: int  # currently-open connections
    skew_last: float       # last observed (arrival - sender 't') seconds
    skew_max: float        # max observed skew


class IngestBuffer:
    """Bounded, time-stamping arrival queue between sockets and the loop."""

    def __init__(self, clock: Clock, maxlen: int = 100_000):
        if maxlen <= 0:
            raise ServeError(f"IngestBuffer maxlen must be positive: {maxlen}")
        self.clock = clock
        self.maxlen = maxlen
        self._lock = threading.Lock()
        self._items: List[Arrival] = []
        self.accepted = 0
        self.dropped = 0
        #: optional repro.obs.tuptrace.TupleTracer — front-door drops then
        #: leave a sampled "buffer_full" shed span that explains tuples
        #: which never reached the control loop
        self.tuple_tracer = None

    def push(self, values: Tuple, source: str) -> bool:
        """Stamp ``values`` with the clock's *now* and buffer it.

        Returns False (and counts a drop) when the buffer is full.
        """
        with self._lock:
            if len(self._items) >= self.maxlen:
                self.dropped += 1
                ttr = self.tuple_tracer
                if ttr is not None:
                    ttr.on_ingest_drop(self.clock.now(), source)
                return False
            self._items.append((self.clock.now(), values, source))
            self.accepted += 1
            return True

    def drain_until(self, boundary: float) -> List[Arrival]:
        """Remove and return every arrival stamped strictly before ``boundary``.

        Arrivals are appended in stamp order (the stamp is taken under
        this lock), so the prefix split preserves time order — the
        engine's submit-ordering invariant holds by construction.
        """
        with self._lock:
            cut = 0
            for cut, (t, _, _) in enumerate(self._items):
                if t >= boundary:
                    break
            else:
                cut = len(self._items)
            due, self._items = self._items[:cut], self._items[cut:]
            return due

    def __len__(self) -> int:
        with self._lock:
            return len(self._items)


class IngestServer:
    """Asyncio TCP acceptor feeding an :class:`IngestBuffer`.

    Runs its event loop on a background daemon thread. ``start()``
    blocks until the socket is bound (so ``port`` is readable
    immediately, including when requested as 0 = ephemeral); ``stop()``
    closes the listener and every live client connection, then joins
    the thread.
    """

    def __init__(self, buffer: IngestBuffer, host: str = "127.0.0.1",
                 port: int = 0):
        self.buffer = buffer
        self.host = host
        self.port = port
        self.malformed = 0
        self.bytes_read = 0
        self.connections = 0
        self.open_connections = 0
        self.skew_last = 0.0
        self.skew_max = 0.0
        self._thread: Optional[threading.Thread] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._stop_async: Optional[asyncio.Event] = None
        self._started = threading.Event()
        self._startup_error: Optional[BaseException] = None
        self._writers: set = set()

    # -- lifecycle ---------------------------------------------------

    def start(self) -> None:
        if self._thread is not None:
            raise ServeError("IngestServer already started")
        self._thread = threading.Thread(
            target=self._thread_main, name="repro-ingest", daemon=True)
        self._thread.start()
        if not self._started.wait(timeout=10.0):
            raise ServeError("ingest server failed to start within 10s")
        if self._startup_error is not None:
            raise ServeError(
                f"ingest server failed to bind {self.host}:{self.port}: "
                f"{self._startup_error}")

    def stop(self) -> None:
        """Close listener + clients and join the server thread. Idempotent."""
        loop, thread = self._loop, self._thread
        if loop is not None and self._stop_async is not None:
            try:
                loop.call_soon_threadsafe(self._stop_async.set)
            except RuntimeError:
                pass  # loop already closed
        if thread is not None:
            thread.join(timeout=5.0)
        self._thread = None
        self._loop = None

    def _thread_main(self) -> None:
        try:
            asyncio.run(self._serve())
        except Exception as exc:  # bind failures surface via start()
            self._startup_error = exc
            self._started.set()

    async def _serve(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._stop_async = asyncio.Event()
        server = await asyncio.start_server(
            self._handle_client, self.host, self.port,
            limit=MAX_LINE_BYTES + 2)
        self.port = server.sockets[0].getsockname()[1]
        self._started.set()
        try:
            await self._stop_async.wait()
        finally:
            server.close()
            await server.wait_closed()
            for writer in list(self._writers):
                writer.close()

    # -- per-connection ----------------------------------------------

    async def _handle_client(self, reader: asyncio.StreamReader,
                             writer: asyncio.StreamWriter) -> None:
        self.connections += 1
        self.open_connections += 1
        self._writers.add(writer)
        try:
            while True:
                try:
                    line = await reader.readline()
                except (asyncio.LimitOverrunError, ValueError):
                    self.malformed += 1
                    break  # unframed garbage: cut the connection
                if not line:
                    break
                self.bytes_read += len(line)
                try:
                    values, source, sent = decode_line(line)
                except ServeError:
                    self.malformed += 1
                    continue
                if sent is not None:
                    skew = time.time() - sent
                    self.skew_last = skew
                    if skew > self.skew_max:
                        self.skew_max = skew
                self.buffer.push(values, source)
        except (ConnectionResetError, BrokenPipeError):
            pass
        except asyncio.CancelledError:
            # server teardown cancelled a mid-read handler; suppressing
            # lets the task finish cleanly (no "exception never retrieved"
            # noise from the streams machinery) — we are exiting anyway
            pass
        finally:
            self.open_connections -= 1
            self._writers.discard(writer)
            try:
                writer.close()
            except Exception:
                pass

    # -- introspection -----------------------------------------------

    def snapshot(self) -> IngestStatsSnapshot:
        """Copy the counters (buffer's + socket-side) at this instant."""
        return IngestStatsSnapshot(
            accepted=self.buffer.accepted,
            dropped=self.buffer.dropped,
            malformed=self.malformed,
            bytes_read=self.bytes_read,
            connections=self.connections,
            open_connections=self.open_connections,
            skew_last=self.skew_last,
            skew_max=self.skew_max,
        )
