"""Per-operator FIFO waiting queues.

Borealis places intermediate results in waiting queues of individual
operators and extracts them first-in-first-out (paper Section 4.2). Each
queued entry remembers the input port it is destined for (a window join has
two ports). The queue keeps enqueue/dequeue/shed counters so the monitor
and the in-network load shedder can account for outstanding load.
"""

from __future__ import annotations

import random
from collections import deque
from typing import Callable, Deque, List, Optional, Tuple

from .tuple_ import StreamTuple

#: one queued entry: (tuple, destination input port)
QueueEntry = Tuple[StreamTuple, int]


class OperatorQueue:
    """A FIFO queue in front of one operator.

    A single *watcher* callback may be attached (:meth:`set_watcher`); it is
    invoked with ``(name, nonempty)`` whenever the queue transitions between
    empty and non-empty. Incremental schedulers use this to track the set of
    serviceable operators without rescanning every queue per dispatched
    tuple.
    """

    __slots__ = ("name", "_items", "enqueued", "dequeued", "shed", "_watcher")

    def __init__(self, name: str):
        self.name = name
        self._items: Deque[QueueEntry] = deque()
        self.enqueued = 0
        self.dequeued = 0
        self.shed = 0
        self._watcher: Optional[Callable[[str, bool], None]] = None

    def set_watcher(self, watcher: Optional[Callable[[str, bool], None]]) -> None:
        """Attach (or clear) the empty/non-empty transition callback.

        The new watcher is immediately told the current state so it never
        starts out of sync with the queue contents.
        """
        self._watcher = watcher
        if watcher is not None:
            watcher(self.name, bool(self._items))

    def push(self, item: StreamTuple, port: int = 0) -> None:
        self._items.append((item, port))
        self.enqueued += 1
        if len(self._items) == 1 and self._watcher is not None:
            self._watcher(self.name, True)

    def pop(self) -> QueueEntry:
        if not self._items:
            raise IndexError(f"queue {self.name!r} is empty")
        self.dequeued += 1
        entry = self._items.popleft()
        if not self._items and self._watcher is not None:
            self._watcher(self.name, False)
        return entry

    def shed_count(self, count: int, rng: random.Random) -> List[StreamTuple]:
        """Randomly remove up to ``count`` queued tuples; return the victims."""
        if count < 0:
            raise ValueError("shed count must be non-negative")
        count = min(count, len(self._items))
        if count == 0:
            return []
        indices = set(rng.sample(range(len(self._items)), count))
        keep: Deque[QueueEntry] = deque()
        victims: List[StreamTuple] = []
        for i, entry in enumerate(self._items):
            if i in indices:
                victims.append(entry[0])
            else:
                keep.append(entry)
        self._items = keep
        self.shed += len(victims)
        if victims and not self._items and self._watcher is not None:
            self._watcher(self.name, False)
        return victims

    def __len__(self) -> int:
        return len(self._items)

    def __bool__(self) -> bool:
        return bool(self._items)

    def __repr__(self) -> str:
        return f"OperatorQueue({self.name!r}, depth={len(self._items)})"
