"""The feedback control loop (paper Fig. 3).

Each control period of length ``T``:

1. arrivals due in the period pass the actuator's admission filter and the
   survivors enter the engine;
2. the engine runs to the period boundary;
3. retroactive actuators cull any surplus from the queues;
4. the monitor measures the period (``q(k)``, ``c(k)``, ``fin``, ``fout``,
   ``ŷ(k)``);
5. the controller maps the error ``yd - ŷ(k)`` to a desired admission rate
   ``v(k)``;
6. the actuator is armed for the next period with the allowance
   ``v(k) * T`` and the inflow estimate (this period's offered count — the
   paper's "use ``fin(k)`` as the estimate of ``fin(k+1)``").

The loop works with both the full discrete-event engine and the fast
virtual-queue engine.

Two driving styles share the same per-period body:

* :meth:`ControlLoop.run` — the classic single-loop experiment: one
  arrival stream, one fixed duration;
* the stepped API (:meth:`begin` / :meth:`run_period` / :meth:`finish`) —
  used by the sharded service layer (:mod:`repro.service`), which clocks
  many loops in lockstep and lets a global coordinator re-share their
  CPU headroom between periods.
"""

from __future__ import annotations

import time as _time
from contextlib import ExitStack
from typing import Callable, Iterable, List, Optional, Tuple, Union

from ..errors import ExperimentError
from ..metrics.recorder import PeriodRecord, RunRecord
from ..obs.bus import get_bus
from ..obs.events import CompletionStats, DrainTruncated, PeriodDecision
from .actuator import Actuator, EntryActuator
from .controller import Controller
from .monitor import Monitor
from .prediction import ArrivalPredictor

Arrival = Tuple[float, Tuple, str]
TargetSchedule = Union[float, Callable[[int], float]]


class ControlLoop:
    """Monitor -> controller -> actuator, clocked every T seconds."""

    def __init__(self, engine, controller: Controller, monitor: Monitor,
                 actuator: Optional[Actuator] = None,
                 target: TargetSchedule = 2.0,
                 period: float = 1.0,
                 cycle_cost: float = 0.0,
                 predictor: Optional[ArrivalPredictor] = None,
                 drain_max_extra: float = 600.0,
                 bus=None,
                 tracer=None,
                 tuple_tracer=None):
        if period <= 0:
            raise ExperimentError(f"control period must be positive, got {period}")
        if cycle_cost < 0:
            raise ExperimentError("cycle cost cannot be negative")
        if drain_max_extra < 0:
            raise ExperimentError("drain budget cannot be negative")
        self.engine = engine
        self.controller = controller
        self.monitor = monitor
        self.actuator = actuator or EntryActuator()
        self.period = period
        #: CPU seconds charged per control cycle for monitoring/actuation
        #: (statistics collection and shedder reconfiguration are not free;
        #: this is what makes very small control periods costly — Fig. 19)
        self.cycle_cost = cycle_cost
        #: forecaster for fin(k+1); None reproduces the paper's choice of
        #: reusing the current period's count verbatim
        self.predictor = predictor
        #: extra virtual seconds the end-of-run drain may spend emptying the
        #: backlog before giving up (the run record notes a truncated drain)
        self.drain_max_extra = drain_max_extra
        #: observability event bus (the process default unless overridden;
        #: the service layer swaps in a shard-scoped emitter). Falsy while
        #: nobody subscribes, so emit sites guard with ``if self.bus:`` and
        #: the disabled path never allocates an event.
        self.bus = bus if bus is not None else get_bus()
        #: optional :class:`~repro.obs.tracing.PeriodTracer`; None (the
        #: default) skips every clock read
        self.tracer = tracer
        #: optional :class:`~repro.obs.tuptrace.TupleTracer` sampling
        #: per-tuple lifecycle spans; None (the default) skips everything
        self.tuple_tracer = tuple_tracer
        self._target = target

    def target_at(self, k: int) -> float:
        if callable(self._target):
            return float(self._target(k))
        return float(self._target)

    # ------------------------------------------------------------------ #
    # stepped API (one call per control period)
    # ------------------------------------------------------------------ #
    def begin(self) -> RunRecord:
        """Start a run: arm the actuator wide open, return a fresh record."""
        record = RunRecord(period=self.period)
        # first period: nothing measured yet -> admit everything
        self.actuator.begin_period(float("inf"), 0.0)
        return record

    def run_period(self, record: RunRecord, k: int,
                   arrivals: Iterable[Arrival]) -> PeriodRecord:
        """Execute control period ``k``: feed its arrivals, measure, decide.

        ``arrivals`` must hold exactly the tuples with timestamps below the
        period boundary ``(k + 1) * period`` that have not been fed yet, in
        time order.
        """
        tracer = self.tracer
        if tracer is not None:
            tracer.begin_period(k)
            mark = _time.perf_counter()
        boundary = (k + 1) * self.period
        offered = 0
        admitted = 0
        ttr = self.tuple_tracer
        for t, values, source in arrivals:
            # advance the engine to the arrival instant so in-network
            # actuators cull against the queue state the tuple actually
            # meets (entry actuators are indifferent to this)
            if t > self.engine.now:
                self.engine.run_until(t)
            offered += 1
            ctx = ttr.on_arrival(t, source) if ttr is not None else None
            if self.actuator.admit(values, source):
                # the engine may sit slightly past the arrival instant
                # (it finishes the tuple in service); clamping to its
                # clock here is intended, so the engine's late-arrival
                # accounting stays reserved for genuine clock bugs
                t_submit = max(t, k * self.period, self.engine.now)
                if ctx is None:
                    self.engine.submit(t_submit, values, source)
                else:
                    self.engine.submit(t_submit, values, source, trace=ctx)
                admitted += 1
            elif ctx is not None:
                ttr.on_entry_drop(ctx, t, self.actuator, k)
        if tracer is not None:
            now = _time.perf_counter()
            tracer.add("ingest", now - mark)
            mark = now
        # the engine may already sit past the boundary (it finishes the
        # tuple in service, and the cycle overhead advances the clock)
        self.engine.run_until(max(boundary, self.engine.now))
        if self.cycle_cost:
            self.engine.consume_cpu(self.cycle_cost)
        if tracer is not None:
            now = _time.perf_counter()
            tracer.add("engine", now - mark)
            mark = now
        shed_retro = self.actuator.end_period(admitted)
        if tracer is not None:
            now = _time.perf_counter()
            tracer.add("actuator", now - mark)
            mark = now
        m = self.monitor.measure()
        if tracer is not None:
            now = _time.perf_counter()
            tracer.add("monitor", now - mark)
            mark = now
        target = self.target_at(k)
        decision = self.controller.decide(m, target)
        if tracer is not None:
            now = _time.perf_counter()
            tracer.add("controller", now - mark)
            mark = now
        allowance = max(0.0, decision.v) * self.period
        if self.predictor is not None:
            self.predictor.update(float(offered))
            inflow_estimate = self.predictor.predict()
        else:
            inflow_estimate = float(offered)
        self.actuator.begin_period(allowance, inflow_estimate)
        if tracer is not None:
            now = _time.perf_counter()
            tracer.add("actuator", now - mark)
            mark = now
        period_record = PeriodRecord(
            k=k,
            time=m.time,
            target=target,
            delay_estimate=m.delay_estimate,
            queue_length=m.queue_length,
            cost=m.cost,
            inflow_rate=m.inflow_rate,
            outflow_rate=m.outflow_rate,
            offered=offered,
            admitted=admitted,
            shed_retro=shed_retro,
            v=decision.v,
            u=decision.u,
            error=decision.error,
            alpha=self.actuator.alpha,
        )
        record.add(period_record, m.departures)
        record.offered_total += offered
        bus = self.bus
        if bus:
            if m.departures:
                # per-period delay samples: feeds the tuple-latency
                # histogram and the dashboard percentile pane regardless
                # of whether span sampling is on
                bus.emit(CompletionStats(
                    k=k, count=len(m.departures),
                    shed=sum(1 for d in m.departures if d.shed),
                    delays=[d.delay for d in m.departures if not d.shed]))
            bus.emit(PeriodDecision(record=period_record))
        if tracer is not None:
            tracer.add("bookkeeping", _time.perf_counter() - mark)
            tracer.end_period()
        return period_record

    def finish(self, record: RunRecord, n_periods: int) -> None:
        """Close a stepped run: account entry drops, drain the backlog."""
        record.duration = n_periods * self.period
        if self.actuator.drops_outside_engine:
            # in-network drops already appear as shed departures
            record.entry_dropped_total = self.actuator.dropped_total
        # let the backlog drain so every delivered tuple's delay is known
        with ExitStack() as scopes:
            if self.tracer is not None:
                scopes.enter_context(self.tracer.span("drain"))
            if self.tuple_tracer is not None:
                # service spans recorded during the final drain show up as
                # "drain" segments in the per-tuple traces
                scopes.enter_context(self.tuple_tracer.drain_scope("final"))
            drained = self._drain(record)
        if self.bus:
            if drained:
                # the drain's completions never close inside a period, so
                # emit them here or the latency histogram misses the tail
                self.bus.emit(CompletionStats(
                    k=len(record.periods), count=len(drained),
                    shed=sum(1 for d in drained if d.shed),
                    delays=[d.delay for d in drained if not d.shed]))
            if record.drain_truncated:
                self.bus.emit(DrainTruncated(leftover=record.drain_leftover,
                                             time=self.engine.now))

    # ------------------------------------------------------------------ #
    # classic single-call driver
    # ------------------------------------------------------------------ #
    def run(self, arrivals: Iterable[Arrival], duration: float) -> RunRecord:
        """Drive the loop for ``duration`` seconds of virtual time."""
        if duration <= 0:
            raise ExperimentError("duration must be positive")
        wall_start = _time.perf_counter()
        record = self.begin()
        arrival_iter = iter(arrivals)
        pending: Optional[Arrival] = next(arrival_iter, None)
        n_periods = int(round(duration / self.period))
        for k in range(n_periods):
            boundary = (k + 1) * self.period
            due: List[Arrival] = []
            while pending is not None and pending[0] < boundary:
                due.append(pending)
                pending = next(arrival_iter, None)
            self.run_period(record, k, due)
        self.finish(record, n_periods)
        record.wall_seconds = _time.perf_counter() - wall_start
        if self.tracer is not None:
            self.tracer.wall_seconds = record.wall_seconds
        return record

    def _drain(self, record: RunRecord,
               max_extra: Optional[float] = None) -> List:
        """Run the engine with no new input until the queue empties.

        The drain gives up after ``drain_max_extra`` virtual seconds; when
        that deadline truncates outstanding tuples the record's
        ``drain_truncated``/``drain_leftover`` fields say so (the flush that
        follows still force-completes them, but their timing is no longer a
        faithful quiescent drain). Returns the departures it resolved.
        """
        budget = self.drain_max_extra if max_extra is None else max_extra
        deadline = self.engine.now + budget
        while self.engine.outstanding > 0 and self.engine.now < deadline:
            self.engine.run_until(min(self.engine.now + 5.0, deadline))
        leftover = self.engine.outstanding
        if leftover > 0:
            record.drain_truncated = True
            record.drain_leftover = leftover
        self.engine.flush()
        drained = self.engine.drain_departures()
        record.departures.extend(drained)
        return drained
