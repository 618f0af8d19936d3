"""The one observer attach point of every runtime.

The lockstep service, the process-fleet parent and both live nodes take
the same observer knobs (``health, trace, tuptrace, serve, serve_port,
sysid, flight, flight_dir``); :class:`Observers` arms them on a bus, so
the rules between them live in one place:

* a flight recorder needs a HealthMonitor to trigger its auto-dumps even
  when health *reporting* was not requested;
* the monitor is finalized before it is closed, so an episode still open
  at the end of the run is reported as such;
* the ObsServer is imported only when serving was asked for;
* :meth:`Observers.close` detaches every observer whatever the run did —
  runtimes call it from a ``finally`` block, so a run that raises leaves
  no subscriber behind on the process bus.

Per-shard arming (scoped bus, tracers) is
:func:`repro.service.shard.arm_shard`; the summaries read those tracers.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

from .flight import FlightRecorder
from .health import HealthMonitor
from .sysid import SysIdMonitor
from .tracing import PeriodTracer, merge_flames


class Observers:
    """The armed observers of one run.

    Monitors subscribe at construction (the flight recorder must exist
    before the run, for its replay recipe and ``SIGUSR2`` handler);
    :meth:`start` brings the HTTP server up; :meth:`close` tears
    everything down and returns the result summaries.
    """

    def __init__(self, bus, *, runtime: str,
                 status_fn: Optional[Callable[[], dict]] = None,
                 health: bool = False, trace: bool = False,
                 tuptrace: float = 0.0,
                 serve: bool = False, serve_port: Optional[int] = None,
                 sysid: bool = False, flight: int = 0,
                 flight_dir: str = "incidents"):
        self.bus = bus
        self.status_fn = status_fn
        self.health = health
        self.tuptrace = tuptrace
        self.serve = serve
        self.serve_port = serve_port
        #: the runtime's own tracer (dispatch / coordinator segments);
        #: per-shard tracers hang off the shard loops
        self.tracer = PeriodTracer() if trace else None
        #: a pure bus observer, so enabling it never perturbs the loop
        self.sysid_monitor = SysIdMonitor(bus) if sysid else None
        # subscription order is dispatch order: the recorder rings a period
        # before the monitor judges it, so an auto-dump includes it
        self.flight_recorder = FlightRecorder(
            bus, ring=flight, directory=flight_dir, runtime=runtime,
            status_fn=status_fn) if flight > 0 else None
        self.health_monitor = (HealthMonitor(bus)
                               if health or flight > 0 else None)
        if self.flight_recorder is not None:
            self.flight_recorder.watch(self.health_monitor)
        #: the live ObsServer between start() and close(); None otherwise
        self.server = None
        self._summaries: Optional[dict] = None

    def set_recipe(self, experiment, service, replay_spec: dict) -> None:
        """Give incident bundles the specs that reproduce this run (only
        deterministic runtimes have them; live bundles keep ``replay: null``).
        """
        if self.flight_recorder is not None:
            self.flight_recorder.experiment = experiment
            self.flight_recorder.service = service
            self.flight_recorder.replay_spec = replay_spec

    def start(self) -> None:
        """Bring the HTTP server up, when serving was asked for."""
        if self.serve and self.server is None:
            from .serve import ObsServer  # lazy: serving is opt-in

            self.server = ObsServer(port=self.serve_port, bus=self.bus,
                                    status_fn=self.status_fn,
                                    flight=self.flight_recorder).start()

    def close(self, loops: Optional[Dict[str, object]] = None,
              wall_seconds: Optional[float] = None) -> dict:
        """Stop serving, detach every observer, return the summaries.

        ``loops`` (shard name -> control loop) and the run's
        ``wall_seconds`` feed the trace and tail summaries. The keys are
        the observer fields of ``ServiceResult``. Idempotent: later calls
        return the first call's summaries.
        """
        if self._summaries is not None:
            return self._summaries
        loops = loops or {}
        out = dict.fromkeys(("health", "trace_summary", "tail_summary",
                             "sysid", "incidents"))
        try:
            if self.server is not None:
                self.server.stop()
                self.server = None
            if self.health_monitor is not None:
                self.health_monitor.finalize()
                if self.health:
                    out["health"] = self.health_monitor.summary()
            if self.sysid_monitor is not None:
                out["sysid"] = self.sysid_monitor.summary()
            if self.flight_recorder is not None:
                out["incidents"] = [str(p)
                                    for p in self.flight_recorder.incidents]
            if self.tracer is not None and loops:
                flames = {name: loop.tracer.flame()
                          for name, loop in loops.items()}
                flames["service"] = self.tracer.flame()
                out["trace_summary"] = merge_flames(
                    flames, wall_seconds=wall_seconds)
            if self.tuptrace > 0.0 and loops:
                out["tail_summary"] = {
                    name: _tail_summary(loop.tuple_tracer)
                    for name, loop in loops.items()
                    if loop.tuple_tracer is not None}
        finally:
            for observer in (self.health_monitor, self.sysid_monitor,
                             self.flight_recorder):
                if observer is not None:
                    observer.close()
        self._summaries = out
        return out


def _tail_summary(tracer) -> dict:
    analyzer = tracer.analyzer()
    return {
        "sampled": tracer.sampled,
        "completed": tracer.completed,
        "dropped": tracer.dropped,
        "percentiles": analyzer.percentiles(),
        "decomposition": analyzer.decompose(),
    }
