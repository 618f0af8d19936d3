"""Live observability for the load-shedding control stack.

Four pieces, all opt-in and zero-dependency:

- **Event bus** (:mod:`repro.obs.bus`): typed events — per-period control
  decisions (with their shed counts), late arrivals, drain truncations,
  shard rebalances — emitted live from the control loop, engines and service
  layer. Nothing is allocated when nobody subscribes.
- **Metrics registry** (:mod:`repro.obs.metrics`): process-wide counters,
  gauges and histograms with Prometheus text exposition and JSON
  snapshots; :func:`install_metrics` bridges bus events into it.
- **Tracing** (:mod:`repro.obs.tracing`): per-period wall-clock spans
  (ingest / engine / monitor / controller / actuator / coordinator)
  aggregated into a flame summary.
- **Tuple tracing** (:mod:`repro.obs.tuptrace`): deterministic sampled
  per-tuple lifecycle spans — ingest to sink, including the shed
  decision that killed a tuple — with drop audit, Chrome-trace/JSONL
  export and tail-latency decomposition cross-checked against the
  monitor's QoS mean.
- **Health detectors** (:mod:`repro.obs.health`): online monitors for
  sustained QoS violation, actuator saturation, controller windup, drain
  truncation, shard imbalance, model mismatch and margin erosion,
  surfaced as structured reports.
- **System identification** (:mod:`repro.obs.sysid`): per-shard online
  RLS over the period stream — identified plant gain vs the design
  model, live stability margins for the effective loop, limit-cycle
  scoring — feeding the ``model_mismatch`` / ``margin_eroded`` health
  detectors and three new gauges.
- **Flight recorder** (:mod:`repro.obs.flight`): bounded per-shard rings
  of the recent event stream; on a critical health episode (or ``POST
  /incident``, or ``SIGUSR2``) writes a self-contained incident bundle
  that ``python -m repro.obs.flight replay`` re-runs deterministically
  and diffs float-for-float.
- **Live serving** (:mod:`repro.obs.serve`): an HTTP server over the bus
  and registry — Prometheus ``/metrics``, ``/health`` + ``/status``
  JSON, an SSE event stream and a single-file dashboard — with bounded
  per-client buffers so slow scrapers never touch the control loop.
- **Cross-process relay** (:mod:`repro.obs.relay`): pool workers forward
  their events to the parent's bus with per-worker provenance, so a
  parallel fan-out is observable from one place.
- **Attach point** (:mod:`repro.obs.attach`): :class:`ObsConfig` declares
  the health / sysid / flight / serve / tracing knobs every runtime takes
  as one object; :class:`Observers` arms it and detaches everything again
  however the run ends.

Typical live-observation session::

    from repro import obs

    bus = obs.get_bus()
    bridge = obs.install_metrics(bus)          # bus -> Prometheus metrics
    health = obs.HealthMonitor(bus)            # bus -> health reports
    bus.subscribe(print, kinds=("period",))    # raw event feed

    ...  # run any ControlLoop / StreamService in this process

    print(bridge.registry.prometheus_text())
    print(health.summary())
"""

from .attach import ObsConfig, Observers
from .bus import BoundedSubscription, EventBus, ScopedEmitter, get_bus
from .events import (
    EVENT_KINDS,
    CompletionStats,
    DrainTruncated,
    HeadroomChanged,
    IngestStats,
    LateArrival,
    ObsEvent,
    PeriodDecision,
    IncidentDumped,
    MarginEroded,
    ModelMismatch,
    ShardRebalanced,
    SysIdUpdate,
    TupleTraceCompleted,
    event_to_dict,
)
from .flight import (
    FLIGHT_FORMAT,
    FlightRecorder,
    ReplayDiff,
    load_bundle,
    replay_bundle,
)
from .health import (
    HEALTH_KINDS,
    SEVERITY_CRITICAL,
    SEVERITY_WARNING,
    HealthMonitor,
    HealthReport,
)
from .logconf import JsonLogFormatter, configure_logging, get_logger
from .metrics import (
    DEFAULT_BUCKETS,
    SUMMARY_QUANTILES,
    Counter,
    Gauge,
    Histogram,
    MetricsBridge,
    MetricsRegistry,
    PromFileDumper,
    get_registry,
    install_metrics,
    start_prom_dump,
)
from .relay import EventRelay, relay_forwarder, worker_relay
from .serve import ObsServer
from .sysid import RlsGainEstimator, SysIdMonitor, oscillation_score
from .tracing import SEGMENTS, PeriodTracer, merge_flames
from .tuptrace import (
    TailAnalyzer,
    TraceCollector,
    TraceContext,
    TupleTracer,
    traces_to_chrome,
    traces_to_jsonl,
)

__all__ = [
    # bus
    "EventBus", "ScopedEmitter", "get_bus",
    "BoundedSubscription",
    # events
    "ObsEvent", "EVENT_KINDS", "PeriodDecision",
    "LateArrival", "DrainTruncated", "HeadroomChanged",
    "ShardRebalanced", "IngestStats",
    "CompletionStats", "TupleTraceCompleted",
    "SysIdUpdate", "ModelMismatch", "MarginEroded", "IncidentDumped",
    "event_to_dict",
    # metrics
    "MetricsRegistry", "Counter", "Gauge", "Histogram", "DEFAULT_BUCKETS",
    "MetricsBridge", "get_registry", "install_metrics", "SUMMARY_QUANTILES",
    "PromFileDumper", "start_prom_dump",
    # serving & relay
    "ObsServer", "EventRelay", "worker_relay", "relay_forwarder",
    # tracing
    "PeriodTracer", "SEGMENTS", "merge_flames",
    # tuple tracing
    "TupleTracer", "TraceContext", "TraceCollector", "TailAnalyzer",
    "traces_to_jsonl", "traces_to_chrome",
    # health
    "HealthMonitor", "HealthReport", "HEALTH_KINDS",
    "SEVERITY_WARNING", "SEVERITY_CRITICAL",
    # system identification
    "SysIdMonitor", "RlsGainEstimator", "oscillation_score",
    # flight recorder
    "FlightRecorder", "ReplayDiff", "FLIGHT_FORMAT",
    "load_bundle", "replay_bundle",
    # the runtimes' observer spec and attach point
    "ObsConfig",
    "Observers",
    # logging
    "configure_logging", "get_logger", "JsonLogFormatter",
]
