"""The service runner: N shard loops in lockstep under one coordinator.

:class:`StreamService` drives every shard's control loop period by period
on a shared clock grid: each period the due arrivals are routed through
the (possibly live-mutating) routing table to their shards, every shard
closes its period (measure -> decide -> arm), and then the coordinator
observes all shards at once and re-shares CPU headroom (and plans source
migrations) for the next period. With the coordinator in
``"independent"`` mode this degenerates to N disjoint paper loops.

Routing happens *per period*, not up front, so a coordinator-planned
migration takes effect at exactly one period boundary: the service drains
the old shard, commits the cutover on the routing table (bumping its
epoch), and the next period's dispatch follows the new pin — the same
transaction the live server applies to socket tuples (docs/THEORY.md §13).

That period body is :func:`run_service_period` — the *same function*
the live server's ticker calls on socket tuples (:mod:`repro.serve.live`)
— and :func:`build_topology` assembles both runtimes' shards, routing
table and coordinator from one ``(config, svc)`` pair.

The result keeps one :class:`~repro.metrics.recorder.RunRecord` per shard;
:meth:`ServiceResult.aggregate_qos` folds their QoS into the fleet's.
"""

from __future__ import annotations

import time as _time
from dataclasses import dataclass, field
from typing import (TYPE_CHECKING, Callable, Dict, Iterable, List, Optional,
                    Sequence, Tuple)

from ..errors import ServiceError
from ..metrics.qos import QosMetrics, combine_qos
from ..metrics.recorder import PeriodRecord, RunRecord
from ..obs.attach import ObsConfig, Observers
from ..obs.bus import get_bus
from ..obs.events import RouteChanged
from .config import ServiceConfig
from .coordinator import HeadroomCoordinator, MigrationPolicy
from .router import RoutingTable, make_router
from .shard import SEED_STRIDE, EngineShard, arm_shard, build_shard

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids a package cycle
    from ..experiments.config import ExperimentConfig

Arrival = Tuple[float, Tuple, str]


def route(due: Iterable[Arrival], shard_of: Callable[[str], int],
          n_shards: int) -> Tuple[List[List[Arrival]], Dict[str, int]]:
    """Split one period's arrivals by shard; tally them by source.

    The one routing loop of every runtime: one ``shard_of`` call per tuple
    against the mapping in force *now*, so a cutover takes effect at
    exactly the next period boundary. Arrivals keep their logical source
    names; the tally feeds the coordinator's migration policy.
    """
    per_shard: List[List[Arrival]] = [[] for __ in range(n_shards)]
    counts: Dict[str, int] = {}
    for arrival in due:
        source = arrival[2]
        per_shard[shard_of(source)].append(arrival)
        counts[source] = counts.get(source, 0) + 1
    return per_shard, counts


def run_service_period(k: int, due: Iterable[Arrival],
                       shard_of: Callable[[str], int],
                       shards: Sequence[EngineShard],
                       records: Sequence[RunRecord],
                       coordinator: HeadroomCoordinator,
                       table: Optional[RoutingTable],
                       bus=None, tracer=None) -> List[PeriodRecord]:
    """Control period ``k`` of an in-process service, start to finish.

    Route the period's arrivals, close the period on every shard, let the
    coordinator rebalance over all of them at once, and execute the
    migration it may have planned — so a cutover lands between periods
    ``k`` and ``k + 1`` on every runtime. Everything is reached through
    the instances passed in, each period, so a table or coordinator
    instrumented after build is honoured. ``tracer`` (the runtime's own
    PeriodTracer) is charged the ``dispatch`` and ``coordinator``
    segments. Returns the closed period records, in shard order.
    """
    if tracer is not None:
        mark = _time.perf_counter()
    per_shard, counts = route(due, shard_of, len(shards))
    if tracer is not None:
        tracer.add("dispatch", _time.perf_counter() - mark)
    closed = []
    for shard, record, arrivals in zip(shards, records, per_shard):
        # logical stream names route tuples to shards; inside the shard
        # they all enter at its physical source
        entry_source = shard.entry_source
        closed.append(shard.loop.run_period(
            record, k,
            [(t, values, entry_source) for t, values, __ in arrivals]))
    if tracer is not None:
        mark = _time.perf_counter()
    entry = coordinator.rebalance(k, shards, closed,
                                  source_counts=counts, table=table)
    if tracer is not None:
        tracer.add("coordinator", _time.perf_counter() - mark)
    plan = entry.get("migration")
    if plan is not None:
        # drain -> cutover -> announce. The drain advances *virtual* engine
        # time only — on a wall clock the cutover is instantaneous between
        # two ticks. The plan dict is also the coordinator's history entry,
        # so stamping the cutover epoch on it stamps the history.
        source, src, dst = plan["source"], plan["from"], plan["to"]
        shards[src].drain_source(source, plan["budget"], k=k,
                                 from_shard=src, to_shard=dst)
        plan["epoch"] = table.migrate(source, src, dst)
        if bus:
            bus.emit(RouteChanged(k=k, source=source, from_shard=src,
                                  to_shard=dst, epoch=plan["epoch"]))
    return closed


@dataclass
class ServiceResult:
    """Everything one service run produced."""

    mode: str
    base_target: float
    shard_records: Dict[str, RunRecord]
    coordinator_history: List[dict] = field(default_factory=list)
    wall_seconds: float = 0.0
    #: :meth:`~repro.obs.health.HealthMonitor.summary` of the run, when the
    #: service ran with ``health=True``; None otherwise
    health: Optional[dict] = None
    #: merged :func:`~repro.obs.tracing.merge_flames` summary, when the
    #: service ran with ``trace=True``; None otherwise
    trace_summary: Optional[dict] = None
    #: per-tuple tail-latency summary (percentiles + segment decomposition
    #: per shard), when the service ran with ``tuptrace > 0``; None
    #: otherwise
    tail_summary: Optional[dict] = None
    #: per-shard :meth:`~repro.obs.sysid.SysIdMonitor.summary` slice, when
    #: the service ran with ``sysid=True``; None otherwise
    sysid: Optional[dict] = None
    #: incident bundle paths the flight recorder wrote during the run,
    #: when the service ran with ``flight > 0``; None otherwise
    incidents: Optional[List[str]] = None

    def shard_qos(self) -> Dict[str, QosMetrics]:
        """Per-shard QoS, always judged against the *base* target.

        Using the base target (not any coordinator-adjusted schedule)
        keeps coordination modes comparable: a shard does not get credit
        for violating a target it talked the coordinator into relaxing.
        """
        return {name: rec.qos(target=self.base_target)
                for name, rec in self.shard_records.items()}

    def aggregate_qos(self) -> QosMetrics:
        return combine_qos(self.shard_qos().values())

    def worst_shard(self, metric: str = "accumulated_violation"
                    ) -> Tuple[str, float]:
        """The shard faring worst on one QoS attribute, with its value."""
        per_shard = {name: getattr(q, metric)
                     for name, q in self.shard_qos().items()}
        name = max(per_shard, key=per_shard.get)
        return name, per_shard[name]


def service_result(coordinator: HeadroomCoordinator, shards: Sequence,
                   records: Dict[str, RunRecord], wall_seconds: float,
                   summaries: dict) -> ServiceResult:
    """Every runtime's result; ``summaries`` is ``Observers.close()``'s."""
    return ServiceResult(
        mode=coordinator.mode,
        base_target=shards[0].base_target,
        shard_records=records,
        coordinator_history=list(coordinator.history),
        wall_seconds=wall_seconds,
        **summaries,
    )


def topology_status(coordinator: HeadroomCoordinator, table,
                    shards: Sequence) -> dict:
    """The routing/coordination part of every runtime's ``/status``."""
    policy = coordinator.migration_policy
    return {
        "routing_epoch": getattr(table, "epoch", None),
        "migrations": policy.migrations if policy is not None else 0,
        "shards": {
            shard.name: {
                "headroom": shard.headroom,
                "target": shard.target,
                "alpha": shard.requested_alpha,
            }
            for shard in shards
        },
    }


def check_topology(shards: Sequence[EngineShard],
                   router: RoutingTable) -> float:
    """Validate what an in-process runtime steps; returns the period.

    One coordinator observes all shards at once (one shared period), and
    results and events are keyed by shard name (unique names).
    """
    if not shards:
        raise ServiceError("a service needs at least one shard")
    if router.n_shards != len(shards):
        raise ServiceError(
            f"router covers {router.n_shards} shards but the service "
            f"has {len(shards)}"
        )
    periods = {shard.loop.period for shard in shards}
    if len(periods) != 1:
        raise ServiceError(
            "all shards must share one control period, "
            f"got {sorted(periods)}"
        )
    names = [shard.name for shard in shards]
    if len(set(names)) != len(names):
        raise ServiceError(f"shard names must be unique, got {names}")
    return periods.pop()


class StreamService:
    """N engine shards, a stream router, and a global coordinator.

    Runs once over a recorded arrival stream with the observers attached,
    and answers ``/status`` while it does.
    """

    def __init__(self, shards: Sequence[EngineShard], router: RoutingTable,
                 coordinator: HeadroomCoordinator,
                 bus=None, obs: ObsConfig = ObsConfig()):
        self.period = check_topology(shards, router)
        self.shards = list(shards)
        self.router = router
        self.coordinator = coordinator
        #: service observability: each shard's loop and engine emit through
        #: a shard-scoped view of this bus (:func:`arm_shard`), so one
        #: subscription sees every shard's events, labeled. The
        #: coordinator emits service-level events on the bus directly.
        self.bus = bus if bus is not None else get_bus()
        for i, shard in enumerate(self.shards):
            arm_shard(shard, self.bus, i, obs)
        self._k = -1          # last closed period, for the /status view
        self._running = False
        self.coordinator.bus = self.bus
        self.observers = Observers(self.bus, obs, runtime="lockstep",
                                   status_fn=self.status)
        self.sysid_monitor = self.observers.sysid_monitor
        self.flight_recorder = self.observers.flight_recorder

    @property
    def obs_server(self):
        """The live ObsServer while a served run is in flight; else None."""
        return self.observers.server

    def status(self) -> dict:
        """A live JSON-able view of the service (the ``/status`` payload)."""
        return {
            "mode": self.coordinator.mode,
            "period": self.period,
            "n_shards": len(self.shards),
            "k": self._k,
            "running": self._running,
            **topology_status(self.coordinator, self.router, self.shards),
        }

    def run(self, arrivals: Sequence[Arrival], duration: float) -> ServiceResult:
        """Drive all shards for ``duration`` seconds of virtual time.

        ``arrivals`` is time-ordered; each period takes the ones stamped
        strictly before its end boundary. With ``serve=True`` an
        :class:`~repro.obs.serve.ObsServer` is up for exactly the
        duration of this call (:attr:`obs_server` holds it, e.g. to learn
        the bound port), serving this service's bus and :meth:`status`.
        However the run ends, every observer is detached from the bus
        again.
        """
        if duration <= 0:
            raise ServiceError("duration must be positive")
        self._running = True
        try:
            self.observers.start()
            wall_start = _time.perf_counter()
            n_periods = int(round(duration / self.period))
            stream = iter(arrivals)
            pending = next(stream, None)
            records = [shard.loop.begin() for shard in self.shards]
            for k in range(n_periods):
                boundary = (k + 1) * self.period
                due: List[Arrival] = []
                while pending is not None and pending[0] < boundary:
                    due.append(pending)
                    pending = next(stream, None)
                run_service_period(
                    k, due, self.router.shard_of, self.shards, records,
                    self.coordinator, self.router,
                    bus=self.bus, tracer=self.observers.tracer)
                self._k = k
            for shard, record in zip(self.shards, records):
                shard.loop.finish(record, n_periods)
            wall = _time.perf_counter() - wall_start
            loops = {shard.name: shard.loop for shard in self.shards}
            return service_result(
                self.coordinator, self.shards, dict(zip(loops, records)),
                wall, self.observers.close(loops, wall_seconds=wall))
        finally:
            self._running = False
            self.observers.close()


def build_topology(config: "ExperimentConfig", svc: ServiceConfig,
                   default_source: Optional[str] = None
                   ) -> Tuple[List[EngineShard], RoutingTable,
                              HeadroomCoordinator]:
    """``(shards, table, coordinator)`` from picklable specs.

    The one assembly every runtime starts from: the lockstep service and
    the live server take all three. Shard ``i`` seeds its engine with
    ``config.seed + SEED_STRIDE * (i + 1)``. ``default_source`` is the
    wire protocol's fallback source, which an explicit table must pin
    somewhere.
    """
    headrooms = svc.initial_headrooms()
    shards = [build_shard(name=name, config=config, headroom=headrooms[i],
                          target=config.target, strategy=svc.strategy,
                          engine_seed=config.seed + SEED_STRIDE * (i + 1),
                          backend=svc.backend)
              for i, name in enumerate(svc.shard_names)]
    assignments = svc.default_assignments()
    if default_source is not None:
        # bare wire tuples carry no source field and fall back to
        # default_source; a pins-only table must know where to put them
        assignments.setdefault(default_source, 0)
    policy = None
    if svc.migration:
        policy = MigrationPolicy(
            patience=svc.migration_patience,
            cooldown=svc.migration_cooldown,
        )
    coordinator = HeadroomCoordinator(
        mode=svc.mode,
        headroom_ceiling=svc.headroom_ceiling,
        migration_policy=policy,
    )
    return (shards, make_router("explicit", svc.n_shards, assignments),
            coordinator)


def build_service(config: "ExperimentConfig",
                  svc: ServiceConfig) -> StreamService:
    """Assemble shards + router + coordinator from picklable specs."""
    service = StreamService(*build_topology(config, svc), obs=svc)
    # a lockstep run is a pure function of these two specs, so the
    # bundle carries everything ``flight replay`` needs
    service.observers.set_recipe(config, svc, {
        "kind": "service", "service_kind": "lockstep",
        "workload_kind": "web",
    })
    return service
