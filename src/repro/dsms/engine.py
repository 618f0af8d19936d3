"""The discrete-event query engine.

Executes a :class:`~repro.dsms.network.QueryNetwork` against a virtual CPU
clock: every operator execution on one tuple consumes the operator's nominal
cost (optionally scaled by a time-varying multiplier, reproducing the
paper's Fig. 14 cost variations) and advances virtual time by
``cost / headroom`` — the headroom factor ``H < 1`` models the fraction of
CPU available to query processing (paper Eq. 2).

Arrivals are submitted with timestamps; the engine interleaves ingestion and
operator scheduling so that queues and delays evolve exactly as in a
push-based DSMS. Per-source-tuple departures (the moment the *last* derived
tuple leaves the network) are recorded for delay metrics, and inflow/outflow
counters expose the paper's *virtual queue length* ``q``.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass
from typing import Callable, Deque, Dict, List, Optional, Sequence, Tuple

from ..errors import SchedulingError
from ..obs.bus import get_bus
from ..obs.events import LateArrival
from ..obs.logconf import get_logger
from .network import QueryNetwork
from .operators.base import Operator
from .queues import OperatorQueue
from .scheduler import DepthFirstScheduler, Scheduler
from .tuple_ import Lineage, StreamTuple, make_source_tuple

_log = get_logger("dsms")


def note_late_arrival(engine, submitted: float) -> None:
    """Announce a late submission (timestamp behind the engine clock).

    Shared by all engine backends. With a bus subscriber present this emits
    a :class:`~repro.obs.events.LateArrival` event per occurrence; without
    one it degrades to a single ``repro.dsms`` logger warning per run so an
    unobserved clock bug still surfaces exactly once. The caller has
    already bumped ``engine.late_arrivals``.
    """
    bus = getattr(engine, "bus", None)
    if bus is None:
        bus = get_bus()
    if bus:
        bus.emit(LateArrival(engine=type(engine).__name__,
                             submitted=submitted, clock=engine.now,
                             total=engine.late_arrivals))
    elif not engine._late_warned:
        engine._late_warned = True
        _log.warning(
            "arrival submitted at t=%.6f while the %s clock is already at "
            "t=%.6f; rewriting to 'now' (reported once per run; see "
            "late_arrivals for the total count)",
            submitted, type(engine).__name__, engine.now,
        )


@dataclass(frozen=True)
class Departure:
    """One source tuple that has fully left the network."""

    arrived: float
    departed: float
    shed: bool

    @property
    def delay(self) -> float:
        return self.departed - self.arrived


class Engine:
    """Discrete-event simulation of a Borealis-like query engine."""

    def __init__(self, network: QueryNetwork,
                 headroom: float = 0.97,
                 scheduler: Optional[Scheduler] = None,
                 cost_multiplier: Optional[Callable[[float], float]] = None,
                 rng: Optional[random.Random] = None):
        if not 0.0 < headroom <= 1.0:
            raise SchedulingError(f"headroom must be in (0, 1], got {headroom}")
        network.validate()
        self.network = network
        self.headroom = float(headroom)
        self.scheduler = scheduler or DepthFirstScheduler(network)
        # None means "constant 1.0": the dispatch loop then skips one
        # function call per executed tuple
        self._cost_multiplier = cost_multiplier
        self.rng = rng or random.Random(0)

        self.now = 0.0
        self.queues: Dict[str, OperatorQueue] = {
            name: OperatorQueue(name) for name in network.operators
        }
        self.scheduler.bind(self.queues)
        # (time, values, source, trace) — trace is the sampled TraceContext
        # or None for the unsampled majority
        self._pending: Deque[Tuple[float, Tuple, str, object]] = deque()
        self._timed_ops: List[Operator] = [
            op for op in network.operators.values()
            if type(op).on_time is not Operator.on_time
        ]
        self._timed_names = frozenset(op.name for op in self._timed_ops)
        # cached earliest timer deadline; recomputed lazily when dirty
        self._deadline_cache: Optional[float] = None
        self._deadline_dirty = True

        # counters (cumulative over the whole run)
        self.admitted_total = 0      # source tuples entering the network
        self.departed_total = 0      # source tuples fully departed
        self.shed_total = 0          # departures lost to shedding
        self.late_arrivals = 0       # submissions with timestamps in the past
        self.cpu_used = 0.0          # CPU seconds consumed by operators
        self._late_warned = False
        self._departures: List[Departure] = []

    # ------------------------------------------------------------------ #
    # input side
    # ------------------------------------------------------------------ #
    def submit(self, time: float, values: Tuple, source: str,
               trace=None) -> None:
        """Buffer one arrival; timestamps must be non-decreasing.

        ``trace`` is an optional sampled
        :class:`~repro.obs.tuptrace.TraceContext` to attach to the
        tuple's lineage at admission.
        """
        if source not in self.network.sources:
            raise SchedulingError(f"unknown source {source!r}")
        if time < self.now:
            self.late_arrivals += 1
            note_late_arrival(self, time)
            time = self.now  # late submission: arrives "now"
        if self._pending and time < self._pending[-1][0]:
            raise SchedulingError(
                f"arrival at t={time} is earlier than a buffered arrival "
                f"at t={self._pending[-1][0]}; submit in time order"
            )
        self._pending.append((time, values, source, trace))

    def submit_many(self, arrivals: Sequence[Tuple[float, Tuple, str]]) -> None:
        for time, values, source in arrivals:
            self.submit(time, values, source)

    # ------------------------------------------------------------------ #
    # virtual queue / status
    # ------------------------------------------------------------------ #
    @property
    def outstanding(self) -> int:
        """The paper's virtual queue length q: admitted minus departed."""
        return self.admitted_total - self.departed_total

    def drain_departures(self) -> List[Departure]:
        """Return and clear the departures recorded since the last call."""
        out = self._departures
        self._departures = []
        return out

    def consume_cpu(self, seconds: float) -> None:
        """Charge non-query CPU work (e.g. the monitoring/shedding cycle).

        Advances the virtual clock by ``seconds / headroom`` just like an
        operator execution would, without touching any queue.
        """
        if seconds < 0:
            raise SchedulingError("cannot consume negative CPU time")
        self.cpu_used += seconds
        self.now += seconds / self.headroom

    # ------------------------------------------------------------------ #
    # execution
    # ------------------------------------------------------------------ #
    def run_until(self, t_end: float) -> None:
        """Advance the virtual clock to ``t_end``, processing all due work."""
        if t_end < self.now:
            raise SchedulingError(f"cannot run backwards to t={t_end}")
        while True:
            self._ingest_due()
            op_name = self.scheduler.next_operator(self.queues)
            if op_name is not None:
                if self.now >= t_end:
                    break  # overloaded: leave the backlog queued at the horizon
                self._dispatch(op_name)
                continue
            # no queued work: jump to the next event — the earliest of the
            # next arrival, the next operator timer deadline, the horizon
            next_t = t_end
            if self._pending and self._pending[0][0] < next_t:
                next_t = self._pending[0][0]
            deadline = self._next_timer_deadline()
            if deadline is not None and self.now < deadline < next_t:
                next_t = deadline
            if next_t > self.now:
                self.now = next_t
                self._fire_timers()
                continue  # timers/arrivals may have released new work
            break

    def _ingest_due(self) -> None:
        while self._pending and self._pending[0][0] <= self.now:
            time, values, source, trace = self._pending.popleft()
            self._admit(time, values, source, trace)

    def _admit(self, time: float, values: Tuple, source: str,
               trace=None) -> None:
        tup = make_source_tuple(values, time, source, self._on_departed)
        if trace is not None:
            tup.lineage.trace = trace
        entries = self.network.sources[source]
        if not entries:
            # a source wired to nothing: the tuple departs immediately
            self.admitted_total += 1
            tup.lineage.release(self.now)
            return
        self.admitted_total += 1
        tup.lineage.fork(len(entries) - 1)
        for op_name, port in entries:
            self.queues[op_name].push(tup, port)
            if trace is not None:
                trace.enqueue(op_name, time)

    def _dispatch(self, op_name: str) -> None:
        op = self.network.operators[op_name]
        tup, port = self.queues[op_name].pop()
        cost = op.cost_of(tup, port)
        if self._cost_multiplier is not None:
            cost *= self._cost_multiplier(self.now)
        self.cpu_used += cost
        trace = tup.lineage.trace
        if trace is None:
            self.now += cost / self.headroom
        else:
            start = self.now
            self.now = start + cost / self.headroom
            trace.service(op_name, start, self.now - start, cost)
        outputs = op.apply(tup, port, self.now)
        op.record(len(outputs))
        # lineage accounting: fork once per output sharing the input lineage,
        # then release the consumed input's reference
        n_same = sum(1 for out in outputs if out.lineage is tup.lineage)
        if n_same:
            tup.lineage.fork(n_same)
        tup.lineage.release(self.now)
        self._route(op_name, outputs)
        if self._timed_ops:
            if op_name in self._timed_names:
                # executing a timed operator may open/close a window and
                # move its deadline
                self._deadline_dirty = True
            self._fire_timers()

    def _route(self, op_name: str, outputs: List[StreamTuple]) -> None:
        successors = self.network.successors(op_name)
        for out in outputs:
            if not successors:
                out.lineage.release(self.now)
                continue
            if len(successors) > 1:
                out.lineage.fork(len(successors) - 1)
            trace = out.lineage.trace
            for succ, succ_port in successors:
                self.queues[succ].push(out, succ_port)
                if trace is not None:
                    trace.enqueue(succ, self.now)

    def _fire_timers(self) -> None:
        # hot path: skip the sweep entirely when there are no timed
        # operators or the earliest deadline is still in the future
        if not self._timed_ops:
            return
        deadline = self._next_timer_deadline()
        if deadline is None or deadline > self.now:
            return
        for op in self._timed_ops:
            outputs = op.on_time(self.now)
            if outputs:
                op.emitted += len(outputs)  # outputs, not executions
                self._route(op.name, outputs)
        self._deadline_dirty = True

    def _next_timer_deadline(self) -> Optional[float]:
        if self._deadline_dirty:
            deadlines = [d for d in (op.next_deadline()
                                     for op in self._timed_ops)
                         if d is not None]
            self._deadline_cache = min(deadlines) if deadlines else None
            self._deadline_dirty = False
        return self._deadline_cache

    def flush(self) -> None:
        """Force all buffered operator state (open windows) out of the network."""
        self._deadline_dirty = True
        for op in self.network.operators.values():
            outputs = op.flush(self.now)
            if outputs:
                op.emitted += len(outputs)  # outputs, not executions
                self._route(op.name, outputs)
        # drain whatever the flush released into downstream queues
        while True:
            op_name = self.scheduler.next_operator(self.queues)
            if op_name is None:
                break
            self._dispatch(op_name)

    # ------------------------------------------------------------------ #
    # in-network shedding support
    # ------------------------------------------------------------------ #
    def shed_queue_count(self, op_name: str, count: int,
                         reason: str = "retro", shedder: str = "",
                         alpha: float = 0.0) -> int:
        """Drop up to ``count`` tuples queued before ``op_name``."""
        victims = self.queues[op_name].shed_count(count, self.rng)
        self._discard(victims, op_name, reason, shedder, alpha)
        return len(victims)

    def _discard(self, victims: List[StreamTuple], where: str = "",
                 reason: str = "retro", shedder: str = "",
                 alpha: float = 0.0) -> None:
        for tup in victims:
            tup.lineage.shed = True
            trace = tup.lineage.trace
            if trace is not None:
                trace.shed(where, self.now, reason=reason, shedder=shedder,
                           alpha=alpha)
            tup.lineage.release(self.now)

    # ------------------------------------------------------------------ #
    # internals
    # ------------------------------------------------------------------ #
    def _on_departed(self, lineage: Lineage, now: float) -> None:
        self.departed_total += 1
        if lineage.shed:
            self.shed_total += 1
        if lineage.trace is not None:
            lineage.trace.finish(now, "dropped" if lineage.shed
                                 else "completed")
        self._departures.append(Departure(lineage.arrived, now, lineage.shed))
