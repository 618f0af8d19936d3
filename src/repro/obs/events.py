"""Typed observability events.

Every instrumented layer announces what it just did by emitting one of
these dataclasses on an :class:`~repro.obs.bus.EventBus`. Events are the
*only* coupling between the instrumented code and the observability
consumers (metrics bridge, health detectors, flight recorder, user callbacks):
producers construct an event and hand it to the bus; everything else is a
subscriber.

Each event carries a class-level ``kind`` tag (stable, snake_case) that
subscribers can filter on without ``isinstance`` chains, and an optional
``shard`` label stamped by the service layer's scoped emitters so
subscribers can tell the shards apart.

Events are deliberately plain (mutable) dataclasses: the service layer's
:class:`~repro.obs.bus.ScopedEmitter` stamps ``shard`` on the way through,
and consumers treat them as read-only.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, fields, is_dataclass
from typing import TYPE_CHECKING, ClassVar, Optional

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids an import cycle
    from ..metrics.recorder import PeriodRecord


class ObsEvent:
    """Base class for all observability events."""

    kind: ClassVar[str] = "event"
    shard: Optional[str]


@dataclass
class PeriodDecision(ObsEvent):
    """One control period closed: measurement + decision, per Fig. 3.

    Carries the full :class:`~repro.metrics.recorder.PeriodRecord` so
    subscribers see exactly what the run record will hold — the online
    view is the offline view, just earlier.
    """

    kind: ClassVar[str] = "period"
    record: "PeriodRecord" = None
    shard: Optional[str] = None


@dataclass
class LateArrival(ObsEvent):
    """A tuple was submitted with a timestamp behind the engine clock.

    The engine rewrites such timestamps to "now" (a tuple cannot arrive
    in the past), silently shortening its measured delay; a workload
    generator producing these usually has a clock bug. ``total`` is the
    engine's cumulative late-arrival count including this one.
    """

    kind: ClassVar[str] = "late_arrival"
    engine: str = ""
    submitted: float = 0.0
    clock: float = 0.0
    total: int = 0
    shard: Optional[str] = None


@dataclass
class DrainTruncated(ObsEvent):
    """The end-of-run drain hit its virtual deadline with tuples left."""

    kind: ClassVar[str] = "drain_truncated"
    leftover: int = 0
    time: float = 0.0
    shard: Optional[str] = None


@dataclass
class HeadroomChanged(ObsEvent):
    """A shard's CPU share was changed by the coordinator."""

    kind: ClassVar[str] = "headroom_changed"
    old: float = 0.0
    new: float = 0.0
    shard: Optional[str] = None


@dataclass
class ShardRebalanced(ObsEvent):
    """The coordinator closed one fleet-wide rebalancing decision.

    ``detail`` is the coordinator's history entry for the period — the
    observed demands and the allocations it handed out (mode-dependent).
    """

    kind: ClassVar[str] = "rebalanced"
    k: int = 0
    mode: str = "independent"
    detail: dict = field(default_factory=dict)
    shard: Optional[str] = None


@dataclass
class IngestStats(ObsEvent):
    """One control period's ingestion-side counters (live serving mode).

    Emitted by the live runner just before it feeds the period's arrivals
    to the loop, so the period's SSE frame and the dashboard see the
    ingest state that produced it. Counts are per-period deltas except
    ``buffered`` (queue depth now) and the skews (latest/max observed).
    """

    kind: ClassVar[str] = "ingest"
    k: int = 0
    accepted: int = 0        # tuples stamped into the buffer this period
    dropped: int = 0         # tuples refused at the full buffer this period
    malformed: int = 0       # undecodable lines this period
    bytes_read: int = 0      # socket bytes this period
    connections: int = 0     # currently-open client connections
    rate: float = 0.0        # accepted / period — offered tuples/s
    skew: float = 0.0        # latest sender-vs-arrival clock skew (s)
    jitter: float = 0.0      # how late the period tick fired (s)
    buffered: int = 0        # arrivals still waiting past the boundary
    shard: Optional[str] = None


@dataclass
class CompletionStats(ObsEvent):
    """One control period's resolved departures (delay samples).

    Emitted at every period close from the Monitor's departure list —
    independent of tuple-trace sampling — so the metrics bridge can feed a
    latency histogram and the dashboard a percentile pane even with span
    tracing off. ``delays`` holds the non-shed (completed) delays only;
    ``shed`` counts the departures lost to in-network shedding.
    """

    kind: ClassVar[str] = "completions"
    k: int = 0
    count: int = 0
    shed: int = 0
    delays: list = field(default_factory=list)
    shard: Optional[str] = None


@dataclass
class TupleTraceCompleted(ObsEvent):
    """A sampled tuple finished its lifecycle (completed or dropped).

    ``trace`` is the plain-dict trace record built by
    :class:`~repro.obs.tuptrace.TupleTracer` — deliberately a dict, not a
    dataclass, so it pickles across the relay unchanged and lands in
    a parent-side :class:`~repro.obs.tuptrace.TraceCollector` with worker
    provenance.
    """

    kind: ClassVar[str] = "tuple_trace"
    trace: dict = field(default_factory=dict)
    shard: Optional[str] = None


@dataclass
class RouteChanged(ObsEvent):
    """A routing-table entry was re-pinned (migration cutover committed).

    Emitted by the runtime that owns the authoritative table immediately
    after :meth:`~repro.service.router.RoutingTable.migrate` returns, with
    the cutover's epoch — from the *next* period on, ``source``'s tuples
    route to ``to_shard``.
    """

    kind: ClassVar[str] = "route_changed"
    k: int = 0
    source: str = ""
    from_shard: int = -1
    to_shard: int = -1
    epoch: int = 0
    shard: Optional[str] = None


@dataclass
class MigrationCompleted(ObsEvent):
    """A source migration's drain finished (cutover commits right after).

    ``backlog`` is the shard's outstanding tuple count when the drain
    started (all sources — the engine drains its whole queue so the
    source's in-flight window contribution is fully flushed).
    ``virtual_seconds`` is how much engine (virtual) time the drain
    consumed; ``truncated`` means the drain budget expired with tuples
    still queued (they stay on the old shard and complete there).
    """

    kind: ClassVar[str] = "migration_completed"
    k: int = 0
    source: str = ""
    from_shard: int = -1
    to_shard: int = -1
    backlog: int = 0
    drained: int = 0
    leftover: int = 0
    virtual_seconds: float = 0.0
    truncated: bool = False
    shard: Optional[str] = None


@dataclass
class SysIdUpdate(ObsEvent):
    """One period's online system-identification state for a shard.

    Emitted by :class:`~repro.obs.sysid.SysIdMonitor` after folding the
    period's ``(Δu, Δy)`` pair into its RLS estimator. ``gain_ratio`` is
    the identified effective plant gain over the design model's gain (the
    paper's ``K``); the margin fields are :mod:`repro.control.margins`
    re-evaluated for ``K * L_nominal``. ``converged`` turns true once the
    estimator has absorbed enough unsaturated samples to be trusted;
    detectors ignore pre-convergence values.
    """

    kind: ClassVar[str] = "sysid"
    k: int = 0
    identified_gain: float = 0.0   # plant gain cT/H with the identified cost
    design_gain: float = 0.0       # the controller's model gain this period
    gain_ratio: float = 1.0        # identified / design — the paper's K
    service_rate: float = 0.0      # identified service rate H/c (tuples/s)
    gain_margin: float = 0.0       # effective loop gain margin (nominal / K)
    phase_margin_deg: float = 0.0  # from the throttled full margin sweep
    modulus_margin: float = 0.0    # from the throttled full margin sweep
    oscillation: float = 0.0       # limit-cycle score in [0, 1]
    converged: bool = False
    saturated: bool = False        # this period's sample was excluded
    samples: int = 0               # RLS samples absorbed so far
    excluded: int = 0              # samples skipped (saturation / idle)
    mismatch: bool = False         # gain ratio beyond the mismatch threshold
    eroded: bool = False           # effective margins below their floors
    shard: Optional[str] = None


@dataclass
class ModelMismatch(ObsEvent):
    """The identified plant gain drifted beyond the design model's.

    Emitted every period the (converged) identified/design gain ratio sits
    outside ``[1/threshold, threshold]`` — the precise moment the paper's
    ``1/K`` robustness argument starts being spent for real.
    """

    kind: ClassVar[str] = "model_mismatch"
    k: int = 0
    gain_ratio: float = 1.0
    threshold: float = 1.5
    identified_gain: float = 0.0
    design_gain: float = 0.0
    shard: Optional[str] = None


@dataclass
class MarginEroded(ObsEvent):
    """The re-evaluated stability margins dipped below their floors."""

    kind: ClassVar[str] = "margin_eroded"
    k: int = 0
    gain_margin: float = 0.0
    gain_margin_floor: float = 0.0
    modulus_margin: float = 0.0
    modulus_floor: float = 0.0
    shard: Optional[str] = None


@dataclass
class IncidentDumped(ObsEvent):
    """The flight recorder wrote an incident bundle to disk."""

    kind: ClassVar[str] = "incident"
    reason: str = ""
    trigger: str = "manual"   # manual | health | http | signal
    path: str = ""
    shard: Optional[str] = None


def event_to_dict(event: ObsEvent) -> dict:
    """A JSON-able view of any event (SSE frames, ``/status`` snapshots).

    Nested dataclasses (the :class:`PeriodDecision` record) flatten to
    plain dicts; the relay's informal ``worker`` provenance stamp rides
    along when present.
    """
    doc = {"kind": event.kind}
    if is_dataclass(event):
        for f in fields(event):
            value = getattr(event, f.name)
            if is_dataclass(value) and not isinstance(value, type):
                value = asdict(value)
            doc[f.name] = value
    worker = getattr(event, "worker", None)
    if worker is not None:
        doc["worker"] = worker
    return doc


#: every event kind the library emits, for subscriber validation
EVENT_KINDS = tuple(
    cls.kind for cls in (
        PeriodDecision, LateArrival, DrainTruncated, HeadroomChanged,
        ShardRebalanced, IngestStats, CompletionStats,
        TupleTraceCompleted, RouteChanged, MigrationCompleted,
        SysIdUpdate, ModelMismatch, MarginEroded, IncidentDumped,
    )
)
