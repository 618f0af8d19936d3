"""Stateful windowed operators: sliding-window join and window aggregate.

Multi-stream joins in the paper's model are performed over sliding windows
whose size is specified either in number of tuples or in time (Section 3).
Window residency does not hold lineage references (see
:mod:`repro.dsms.tuple_`), so a tuple's delay stops accruing once it has
been processed into a window.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, List, Optional, Tuple

from ...errors import NetworkError
from ..tuple_ import StreamTuple
from .base import Operator, check_port


class _Window:
    """A sliding window holding (timestamp, values) pairs."""

    __slots__ = ("size", "by_time", "_items")

    def __init__(self, size: float, by_time: bool):
        if size <= 0:
            raise NetworkError(f"window size must be positive, got {size}")
        self.size = size
        self.by_time = by_time
        self._items: Deque[Tuple[float, Tuple]] = deque()

    def insert(self, ts: float, values: Tuple) -> None:
        self._items.append((ts, values))
        self.evict(ts)

    def evict(self, now: float) -> None:
        if self.by_time:
            horizon = now - self.size
            while self._items and self._items[0][0] < horizon:
                self._items.popleft()
        else:
            while len(self._items) > self.size:
                self._items.popleft()

    def __iter__(self):
        return iter(self._items)

    def __len__(self) -> int:
        return len(self._items)


class WindowJoinOperator(Operator):
    """Symmetric two-input sliding-window equi-join.

    A tuple arriving on one input probes the opposite window with
    ``key(values)`` and emits one concatenated output per match, then is
    inserted into its own window. ``window`` is seconds when
    ``window_in_time`` (default) or a tuple count otherwise.

    Cost model: each execution consumes ``cost`` (fixed) plus
    ``scan_cost`` per tuple currently stored in the opposite window —
    which is what makes *window-size adaptation* (the paper's adaptation
    (iii)) an effective actuator: :attr:`window_scale` in (0, 1] shrinks
    the effective window, trading join recall for CPU.
    """

    arity = 2

    def __init__(self, name: str, cost: float, window: float,
                 key: Callable[[Tuple], object],
                 window_in_time: bool = True,
                 scan_cost: float = 0.0):
        super().__init__(name, cost)
        if scan_cost < 0:
            raise NetworkError(f"scan cost must be non-negative, got {scan_cost}")
        self.key = key
        self.scan_cost = float(scan_cost)
        self.nominal_window = float(window)
        self._scale = 1.0
        self.windows = (_Window(window, window_in_time),
                        _Window(window, window_in_time))

    @property
    def window_scale(self) -> float:
        return self._scale

    @window_scale.setter
    def window_scale(self, scale: float) -> None:
        if not 0.0 < scale <= 1.0:
            raise NetworkError(f"window scale {scale} outside (0, 1]")
        self._scale = float(scale)
        for w in self.windows:
            w.size = self.nominal_window * scale

    def cost_of(self, tup: StreamTuple, port: int) -> float:
        check_port(self, port, 2)
        return self.cost + self.scan_cost * len(self.windows[1 - port])

    def apply(self, tup: StreamTuple, port: int, now: float) -> List[StreamTuple]:
        check_port(self, port, 2)
        own = self.windows[port]
        other = self.windows[1 - port]
        other.evict(now)
        k = self.key(tup.values)
        outputs = [
            tup.derive(tup.values + stored_values)
            for __, stored_values in other
            if self.key(stored_values) == k
        ]
        own.insert(now, tup.values)
        return outputs


class AggregateOperator(Operator):
    """Tumbling-window aggregate over event (virtual) time.

    Collects input values for ``window`` seconds of engine time, then emits
    one tuple ``(window_end, *aggregate)`` where ``aggregate`` is the value
    tuple computed by ``fn`` over the list of collected value tuples. Uses :meth:`on_time` so windows close even when
    no tuple arrives exactly at the boundary.

    Deferred emission and lineage: the engine only forks lineage for outputs
    that share the triggering input's lineage (see
    :meth:`repro.dsms.engine.Engine`), so this operator explicitly *holds*
    one reference on the most recent contributor (the "carrier") and
    transfers it to the emitted aggregate. Earlier contributors are released
    normally as each is superseded.
    """

    def __init__(self, name: str, cost: float, window: float,
                 fn: Callable[[List[Tuple]], Tuple]):
        super().__init__(name, cost)
        if window <= 0:
            raise NetworkError(f"aggregate window must be positive, got {window}")
        self.window = float(window)
        self.fn = fn
        self._bucket: List[Tuple] = []
        self._bucket_end: Optional[float] = None
        self._carrier: Optional[StreamTuple] = None

    def apply(self, tup: StreamTuple, port: int, now: float) -> List[StreamTuple]:
        out = self._close_if_due(now)
        if self._bucket_end is None:
            self._bucket_end = now + self.window
        self._bucket.append(tup.values)
        # swap the held carrier reference onto the newest contributor
        if self._carrier is not None:
            self._carrier.lineage.release(now)
        tup.lineage.fork(1)
        self._carrier = tup
        return out

    def on_time(self, now: float) -> List[StreamTuple]:
        return self._close_if_due(now)

    def next_deadline(self) -> Optional[float]:
        return self._bucket_end

    def flush(self, now: float) -> List[StreamTuple]:
        """Force-close an open window (used at end of run)."""
        if self._bucket_end is not None:
            self._bucket_end = now
        return self._close_if_due(now)

    def _close_if_due(self, now: float) -> List[StreamTuple]:
        if self._bucket_end is None or now < self._bucket_end or not self._bucket:
            return []
        carrier = self._carrier
        assert carrier is not None
        # the output reuses the reference held on the carrier (no fork here)
        result = carrier.derive((self._bucket_end,) + tuple(self.fn(self._bucket)))
        self._bucket = []
        self._bucket_end = None
        self._carrier = None
        return [result]
