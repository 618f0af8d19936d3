"""Operator schedulers.

The current version of Borealis uses a round-robin policy to schedule
operators (paper Section 4.2); queues are drained FIFO, so no tuple
priorities arise and the network behaves like one virtual FIFO queue — the
observation the whole control design rests on. :class:`RoundRobinScheduler`
reproduces that policy; :class:`DepthFirstScheduler`, the engine default,
always serves the most downstream non-empty queue first, so each tuple is
pushed through to the exit before the next one starts — the virtual FIFO
queue taken literally (running both shows the model is scheduler-robust, as
the paper conjectures in Section 5.2).

Scheduling is on the engine's per-tuple hot path, so both schedulers keep
*incremental* bookkeeping: once :meth:`Scheduler.bind` attaches them to an
engine's queue map, enqueue/dequeue/shed transitions maintain the set of
non-empty queues and :meth:`next_operator` never rescans the whole
topological order. Calling :meth:`next_operator` with any *other* queue
map (as standalone unit tests do) falls back to the original scan, so the
observable policy is identical either way.
"""

from __future__ import annotations

import abc
from typing import Dict, List, Optional, Set

from ..errors import SchedulingError
from .network import QueryNetwork
from .queues import OperatorQueue


class Scheduler(abc.ABC):
    """Chooses which operator queue the engine serves next."""

    def __init__(self, network: QueryNetwork):
        self.network = network
        #: the queue map this scheduler tracks incrementally (None = unbound)
        self._bound: Optional[Dict[str, OperatorQueue]] = None
        #: indices (into the topological order) of non-empty bound queues
        self._nonempty: Set[int] = set()
        self._index: Dict[str, int] = {}

    def bind(self, queues: Dict[str, OperatorQueue]) -> None:
        """Track ``queues`` incrementally via their transition watchers.

        The engine calls this once at construction. Binding is optional:
        an unbound scheduler (or one asked about a different queue map)
        behaves identically by scanning.
        """
        order = self._topological_order()
        self._index = {name: i for i, name in enumerate(order)}
        self._bound = queues
        self._nonempty = set()
        for name in order:
            queue = queues.get(name)
            if queue is not None:
                queue.set_watcher(self._on_transition)

    def _on_transition(self, name: str, nonempty: bool) -> None:
        idx = self._index.get(name)
        if idx is None:
            return
        if nonempty:
            self._nonempty.add(idx)
        else:
            self._nonempty.discard(idx)

    def _topological_order(self) -> List[str]:
        """The operator order this scheduler cycles/scans over."""
        return self.network.topological_order()

    @abc.abstractmethod
    def next_operator(self, queues: Dict[str, OperatorQueue]) -> Optional[str]:
        """Name of the next operator with work, or None if all queues empty."""


class RoundRobinScheduler(Scheduler):
    """Serve operators in fixed cyclic order, one *train* per visit.

    By default (``batch=None``) each visit drains everything queued at the
    operator before moving on — Borealis' train processing. This keeps
    inventories bounded: with a fixed per-visit tuple quantum, an operator
    fed by two upstreams receives twice what it may serve per cycle and its
    queue grows without bound even below capacity. A finite ``batch`` is
    still available to study that effect.
    """

    def __init__(self, network: QueryNetwork, batch: Optional[int] = None):
        super().__init__(network)
        if batch is not None and batch < 1:
            raise SchedulingError(f"batch must be >= 1, got {batch}")
        self.batch = batch
        self._order: List[str] = network.topological_order()
        self._cursor = 0
        self._remaining_in_visit = batch

    def _topological_order(self) -> List[str]:
        return self._order

    def next_operator(self, queues: Dict[str, OperatorQueue]) -> Optional[str]:
        if not self._order:
            return None
        if self._bound is queues:
            return self._next_bound()
        return self._next_scanning(queues)

    def _next_bound(self) -> Optional[str]:
        nonempty = self._nonempty
        if not nonempty:
            return None
        # finish the current visit while the operator has work and quantum
        if self._cursor in nonempty and (self._remaining_in_visit is None
                                         or self._remaining_in_visit > 0):
            if self._remaining_in_visit is not None:
                self._remaining_in_visit -= 1
            return self._order[self._cursor]
        # advance cyclically: smallest non-empty index after the cursor,
        # wrapping to the smallest overall (which may be the cursor itself)
        cursor = self._cursor
        nxt = min((i for i in nonempty if i > cursor), default=None)
        if nxt is None:
            nxt = min(nonempty)
        self._cursor = nxt
        self._remaining_in_visit = None if self.batch is None else self.batch - 1
        return self._order[nxt]

    def _next_scanning(self, queues: Dict[str, OperatorQueue]
                       ) -> Optional[str]:
        n = len(self._order)
        current = self._order[self._cursor]
        if queues[current] and (self._remaining_in_visit is None
                                or self._remaining_in_visit > 0):
            if self._remaining_in_visit is not None:
                self._remaining_in_visit -= 1
            return current
        for step in range(1, n + 1):
            idx = (self._cursor + step) % n
            name = self._order[idx]
            if queues[name]:
                self._cursor = idx
                self._remaining_in_visit = None if self.batch is None else self.batch - 1
                return name
        return None


class DepthFirstScheduler(Scheduler):
    """Serve the most-downstream operator that has queued work.

    Pushes each tuple all the way through the network before admitting the
    next, so tuples are served in global arrival order with near-zero
    in-network inventory — the operator-granular realization of the paper's
    *virtual FIFO queue* idealization (Eq. 1: a tuple is not processed until
    all earlier outstanding tuples are cleared). This is the engine default
    because it is exactly the service discipline the paper's model assumes;
    the round-robin alternative reproduces Borealis' scheduler and yields
    the same average behaviour with lumpier departures.
    """

    def __init__(self, network: QueryNetwork):
        super().__init__(network)
        self._order = network.topological_order()

    def _topological_order(self) -> List[str]:
        return self._order

    def next_operator(self, queues: Dict[str, OperatorQueue]) -> Optional[str]:
        if self._bound is queues:
            # depth-first keeps in-network inventory near zero, so the
            # non-empty set is tiny and max() beats a full reverse scan
            if not self._nonempty:
                return None
            return self._order[max(self._nonempty)]
        # serving the most DOWNSTREAM non-empty queue first pushes each tuple
        # through to the exit before starting the next one
        for name in reversed(self._order):
            if queues[name]:
                return name
        return None


def make_scheduler(spec: Optional[str],
                   network: QueryNetwork) -> Optional[Scheduler]:
    """Build a scheduler from a picklable spec string.

    ``None`` keeps the engine default (depth-first). Recognized specs:
    ``'depth_first'``, ``'round_robin'``, and ``'round_robin:<batch>'``.
    """
    if spec is None:
        return None
    if spec == "depth_first":
        return DepthFirstScheduler(network)
    if spec == "round_robin":
        return RoundRobinScheduler(network)
    if spec.startswith("round_robin:"):
        try:
            batch = int(spec.split(":", 1)[1])
        except ValueError:
            raise SchedulingError(
                f"bad round_robin batch in scheduler spec {spec!r}"
            ) from None
        return RoundRobinScheduler(network, batch=batch)
    raise SchedulingError(
        f"unknown scheduler spec {spec!r}; use 'depth_first', "
        "'round_robin' or 'round_robin:<batch>'"
    )
