"""Fast virtual-queue engine.

The paper's key modeling insight (Section 4.2) is that a FIFO round-robin
query network behaves like one *virtual FIFO queue* whose entries cost
``c/H`` wall-clock seconds each. :class:`VirtualQueueEngine` implements that
abstraction directly: a single FIFO of source tuples served at the effective
rate ``H / (c(t))`` tuples per second.

It exposes the same counters and ``submit``/``run_until``/``drain_departures``
interface as the full :class:`~repro.dsms.engine.Engine`, so monitors,
actuators and the control loop work unchanged on either engine. Use it for
large parameter sweeps; use the full engine to validate that the abstraction
holds (the Figs. 5–7 experiments do exactly that).
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, List, Optional, Tuple

from ..errors import SchedulingError
from .engine import Departure, note_late_arrival


class VirtualQueueEngine:
    """Single-FIFO implementation of the paper's Eq. 2 virtual queue."""

    def __init__(self, cost: float = 1.0 / 190.0,
                 headroom: float = 0.97,
                 cost_multiplier: Optional[Callable[[float], float]] = None):
        if cost <= 0:
            raise SchedulingError(f"per-tuple cost must be positive, got {cost}")
        if not 0.0 < headroom <= 1.0:
            raise SchedulingError(f"headroom must be in (0, 1], got {headroom}")
        self.base_cost = float(cost)
        self.headroom = float(headroom)
        self.cost_multiplier = cost_multiplier or (lambda t: 1.0)

        self.now = 0.0
        self._queue: Deque[float] = deque()   # arrival timestamps, FIFO
        self._pending: Deque[float] = deque()  # submitted, not yet due
        self._progress = 0.0  # CPU seconds already spent on the head tuple
        self.admitted_total = 0
        self.departed_total = 0
        self.shed_total = 0
        self.late_arrivals = 0
        self.cpu_used = 0.0
        self._late_warned = False
        self._departures: List[Departure] = []

    # ------------------------------------------------------------------ #
    # interface shared with Engine
    # ------------------------------------------------------------------ #
    def submit(self, time: float, values: Tuple = (), source: str = "in",
               trace=None) -> None:
        """Buffer one arrival; timestamps must be non-decreasing.

        ``values`` and ``source`` are accepted for interface parity with the
        full engine but carry no information in the fluid model (a single
        virtual FIFO has one implicit source and costs are per-tuple, not
        per-value); they are intentionally ignored, as is a sampled
        ``trace`` context (the fluid model has no per-tuple lifecycle to
        record).
        """
        if time < self.now:
            self.late_arrivals += 1
            note_late_arrival(self, time)
            time = self.now  # late submission: arrives "now"
        if self._pending and time < self._pending[-1]:
            raise SchedulingError("submit arrivals in time order")
        self._pending.append(time)

    def submit_many(self, arrivals) -> None:
        for time, values, source in arrivals:
            self.submit(time, values, source)

    @property
    def outstanding(self) -> int:
        """The virtual queue length q (tuples admitted but not departed)."""
        return self.admitted_total - self.departed_total

    def drain_departures(self) -> List[Departure]:
        out = self._departures
        self._departures = []
        return out

    def run_until(self, t_end: float) -> None:
        """Serve the FIFO queue up to virtual time ``t_end``."""
        if t_end < self.now:
            raise SchedulingError(f"cannot run backwards to t={t_end}")
        while True:
            self._ingest_due()
            if self._queue:
                cost = self.base_cost * self.cost_multiplier(self.now)
                remaining = max(0.0, cost - self._progress)
                finish = self.now + remaining / self.headroom
                if finish > t_end:
                    # partial service: remember progress on the head tuple
                    self._progress += (t_end - self.now) * self.headroom
                    self.cpu_used += (t_end - self.now) * self.headroom
                    self.now = t_end
                    break
                arrived = self._queue.popleft()
                self.cpu_used += remaining
                self._progress = 0.0
                self.now = finish
                self.departed_total += 1
                self._departures.append(Departure(arrived, finish, False))
                continue
            if self._pending and self._pending[0] <= t_end:
                self.now = max(self.now, self._pending[0])
                continue
            break
        if self.now < t_end:
            self.now = t_end
        self._ingest_due()

    def flush(self) -> None:
        """No buffered operator state in the fluid model."""

    def consume_cpu(self, seconds: float) -> None:
        """Charge non-query CPU work; see :meth:`repro.dsms.Engine.consume_cpu`."""
        if seconds < 0:
            raise SchedulingError("cannot consume negative CPU time")
        self.cpu_used += seconds
        self.now += seconds / self.headroom
        self._ingest_due()

    # ------------------------------------------------------------------ #
    # internals
    # ------------------------------------------------------------------ #
    def _ingest_due(self) -> None:
        while self._pending and self._pending[0] <= self.now:
            self._queue.append(self._pending.popleft())
            self.admitted_total += 1
