"""The one observer attach point of every runtime.

The lockstep service, the process-fleet parent and both live nodes take
one :class:`ObsConfig` — the only place the observer knobs, their
defaults and their validation are declared; a ``ServiceConfig`` *is*
one, so builders pass their spec straight through. :class:`Observers`
arms it on a bus, so the rules between the knobs live in one place:

* a flight recorder needs a HealthMonitor to trigger its auto-dumps even
  when health *reporting* was not requested;
* the monitor is finalized before it is closed, so an episode still open
  at the end of the run is reported as such;
* the ObsServer is imported only when serving was asked for;
* :meth:`Observers.close` detaches every observer whatever the run did —
  runtimes call it from a ``finally`` block, so a run that raises leaves
  no subscriber behind on the process bus.

Per-loop arming (scoped bus, tracers) is
:func:`repro.service.shard.arm_shard`; the summaries read those tracers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, ClassVar, Dict, Optional

from ..errors import ObservabilityError
from .flight import FlightRecorder
from .health import HealthMonitor
from .sysid import SysIdMonitor
from .tracing import PeriodTracer, merge_flames


@dataclass(frozen=True)
class ObsConfig:
    """What to observe on a run (picklable); every runtime takes one."""

    #: run the online health detectors and report their summary
    health: bool = False
    #: per-period wall-clock tracing: a PeriodTracer on every loop plus
    #: the runtime's own (dispatch / coordinator segments)
    trace: bool = False
    #: sampled per-tuple lifecycle tracing (repro.obs.tuptrace): fraction
    #: of source arrivals stamped with a TraceContext, 0.0 = off
    tuptrace: float = 0.0
    #: serve live /metrics, /health, /status, /events and the dashboard
    #: over HTTP for the duration of the run (repro.obs.serve.ObsServer)
    serve: bool = False
    serve_port: Optional[int] = None    # None -> REPRO_OBS_PORT or ephemeral
    #: online system identification (repro.obs.sysid): per-shard RLS gain
    #: tracking + live stability margins, feeding the health detectors
    sysid: bool = False
    #: flight recorder ring size in periods (repro.obs.flight); 0 = off.
    #: Any critical health episode opening auto-dumps an incident bundle
    #: into ``flight_dir``
    flight: int = 0
    flight_dir: str = "incidents"

    #: what a bad value raises; a subclass raises its own layer's error
    error: ClassVar[type] = ObservabilityError

    def __post_init__(self) -> None:
        if self.flight < 0:
            raise self.error(
                f"flight ring size must be >= 0, got {self.flight}"
            )
        if not 0.0 <= self.tuptrace <= 1.0:
            raise self.error(
                f"tuptrace sample fraction must be in [0, 1], "
                f"got {self.tuptrace}"
            )


class Observers:
    """The armed observers of one run.

    Monitors subscribe at construction (the flight recorder must exist
    before the run, for its replay recipe and ``SIGUSR2`` handler);
    :meth:`start` brings the HTTP server up; :meth:`close` tears
    everything down and returns the result summaries.
    """

    def __init__(self, bus, obs: ObsConfig = ObsConfig(), *, runtime: str,
                 status_fn: Optional[Callable[[], dict]] = None):
        self.bus = bus
        self.obs = obs
        self.status_fn = status_fn
        #: the runtime's own tracer (dispatch / coordinator segments);
        #: per-shard tracers hang off the shard loops
        self.tracer = PeriodTracer() if obs.trace else None
        #: a pure bus observer, so enabling it never perturbs the loop
        self.sysid_monitor = SysIdMonitor(bus) if obs.sysid else None
        # subscription order is dispatch order: the recorder rings a period
        # before the monitor judges it, so an auto-dump includes it
        self.flight_recorder = FlightRecorder(
            bus, ring=obs.flight, directory=obs.flight_dir, runtime=runtime,
            status_fn=status_fn) if obs.flight > 0 else None
        self.health_monitor = (HealthMonitor(bus)
                               if obs.health or obs.flight > 0 else None)
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
        if self.obs.serve and self.server is None:
            from .serve import ObsServer  # lazy: serving is opt-in

            self.server = ObsServer(port=self.obs.serve_port, bus=self.bus,
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
                if self.obs.health:
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
            if self.obs.tuptrace > 0.0 and loops:
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
