"""One engine shard: a full Monitor -> Controller -> Actuator loop.

A shard is the paper's entire Fig. 3 system in miniature — its own
discrete-event engine over its own query network, its own monitor, cost
estimator, controller and entry actuator — plus the mutation points the
global coordinator needs between control periods:

* :meth:`EngineShard.set_headroom` — shift the shard's share of the
  machine's CPU. The engine, the model the monitor estimates with, and
  the controller's gain all follow the new ``H`` at the next period, so
  the pole placement stays where it was designed (the controller gain
  ``H/(cT)`` cancels the plant gain ``cT/H`` at whatever ``H`` is in
  force — see docs/THEORY.md §7);
* :meth:`EngineShard.drain_source` — flush the shard's in-flight work so
  a source can be migrated to another shard without leaving half-filled
  windows behind (docs/THEORY.md §13).

:func:`build_engine` + :func:`build_loop` are the one assembly of that
loop, for shards and figure runs alike. :func:`build_shard` builds a shard
from picklable specs and :func:`arm_shard` wires it to a runtime's bus
and tracers — the same two calls on every runtime, in every process.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Callable, Optional

from ..core import (
    STRATEGIES,
    Actuator,
    ControlLoop,
    Controller,
    CostEstimator,
    DsmsModel,
    EntryActuator,
    Monitor,
)
from ..core.loop import TargetSchedule
from ..dsms import EngineProtocol, identification_network, make_engine
from ..dsms.scheduler import make_scheduler
from ..errors import BackendError, ServiceError
from ..obs.attach import ObsConfig
from ..obs.events import HeadroomChanged, MigrationCompleted
from ..obs.tracing import PeriodTracer
from ..obs.tuptrace import TupleTracer

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids a package cycle
    from ..experiments.config import ExperimentConfig
    from ..workloads import CostTrace

#: prime stride between per-shard seeds (engine RNG, tuple-trace sampler):
#: every runtime derives shard ``i``'s as ``base + SEED_STRIDE * (i + 1)``,
#: so a live node's shard samples what its lockstep twin does
SEED_STRIDE = 104729


@dataclass(frozen=True)
class DrainReport:
    """What one :meth:`EngineShard.drain_source` call accomplished.

    ``virtual_seconds`` is engine time consumed (the migration's service
    disruption in the modelled clock); ``truncated`` means the drain
    budget expired first and ``leftover`` tuples stay on the old shard.
    """

    source: str
    backlog: int            # outstanding tuples when the drain started
    drained: int            # departures produced by the drain
    leftover: int           # still queued when the drain stopped
    virtual_seconds: float  # engine-clock time the drain consumed
    truncated: bool


class EngineShard:
    """A named control loop, adjustable by the coordinator.

    The engine and the model are the loop's own (:func:`build_loop`).
    Logical stream names are a routing concept; inside the shard every
    admitted tuple enters the query network at its one physical source,
    ``entry_source``.
    """

    def __init__(self, name: str, loop: ControlLoop, base_target: float):
        self.name = name
        self.loop = loop
        #: the shard's own QoS requirement, before any coordination
        self.base_target = float(base_target)
        self.target = float(base_target)
        network = getattr(loop.engine, "network", None)
        # fluid backends have no query network: a single implicit source
        # accepts everything, under whatever name the router uses (the
        # engines ignore it)
        sources = ["in"] if network is None else list(network.sources)
        if len(sources) != 1:
            raise ServiceError(
                f"shard {name!r} hosts a network with sources {sources}; "
                "a shard needs exactly one entry source")
        #: where routed tuples physically enter this shard's network
        self.entry_source = sources[0]

    @property
    def engine(self) -> EngineProtocol:
        return self.loop.engine

    # ------------------------------------------------------------------ #
    # coordinator mutation points
    # ------------------------------------------------------------------ #
    @property
    def headroom(self) -> float:
        return self.engine.headroom

    def set_headroom(self, headroom: float) -> None:
        """Re-share the machine: applies from the next operator execution."""
        if not 0.0 < headroom <= 1.0:
            raise ServiceError(
                f"shard headroom must be in (0, 1], got {headroom}"
            )
        old = self.engine.headroom
        self.engine.headroom = float(headroom)
        # the monitor and the controller share one model (build_loop)
        model = replace(self.loop.monitor.model, headroom=float(headroom))
        self.loop.monitor.model = model
        self.loop.controller.model = model
        bus = self.loop.bus
        if bus and headroom != old:
            bus.emit(HeadroomChanged(old=old, new=float(headroom),
                                     shard=self.name))

    # ------------------------------------------------------------------ #
    # migration support
    # ------------------------------------------------------------------ #
    def drain_source(self, source: str, budget: float,
                     k: int = -1, to_shard: int = -1,
                     from_shard: int = -1) -> DrainReport:
        """Flush in-flight work so ``source`` can move to another shard.

        Every admitted tuple enters this shard at one physical
        ``entry_source``, so the engine's outstanding queue is the union
        of all logical sources routed here — partially-filled windows
        included. Draining the *whole* queue (rather than trying to pick
        one logical source's tuples out of shared operator state) is what
        keeps windowed-operator semantics intact at the cutover: nothing
        the old shard already admitted is discarded or split, it all
        completes here before the source's future tuples route elsewhere
        (docs/THEORY.md §13).

        Advances the engine's *virtual* clock by at most ``budget``
        seconds, in chunks, stopping early once the queue empties.
        Running past a period boundary is safe: the control loop clamps
        the next period's submissions to the engine clock and runs to
        ``max(boundary, now)``, so a drain never manufactures late
        arrivals. Departures stay in the engine's departure buffer for
        the monitor's next sample, so QoS accounting still sees them.
        """
        if budget < 0:
            raise ServiceError(f"negative drain budget {budget}")
        engine = self.engine
        backlog = engine.outstanding
        start_now = engine.now
        departed0 = engine.departed_total
        deadline = start_now + float(budget)
        chunk = max(float(budget) / 16.0, 1e-6)
        ttr = self.loop.tuple_tracer
        if ttr is not None:
            # sampled tuples executed during this drain record the hop as
            # "drain" spans labelled with the migrating source
            with ttr.drain_scope(f"migrate:{source}"):
                while engine.outstanding > 0 and engine.now < deadline:
                    engine.run_until(min(engine.now + chunk, deadline))
        else:
            while engine.outstanding > 0 and engine.now < deadline:
                engine.run_until(min(engine.now + chunk, deadline))
        leftover = engine.outstanding
        report = DrainReport(
            source=source,
            backlog=backlog,
            drained=engine.departed_total - departed0,
            leftover=leftover,
            virtual_seconds=engine.now - start_now,
            truncated=leftover > 0,
        )
        bus = self.loop.bus
        if bus:
            bus.emit(MigrationCompleted(
                k=k, source=source, from_shard=from_shard, to_shard=to_shard,
                backlog=backlog, drained=report.drained,
                leftover=report.leftover,
                virtual_seconds=report.virtual_seconds,
                truncated=report.truncated, shard=self.name))
        return report

    # ------------------------------------------------------------------ #
    # observation points (``/status``)
    # ------------------------------------------------------------------ #
    @property
    def requested_alpha(self) -> float:
        """The controller's uncapped drop demand for the armed period."""
        return self.loop.actuator.requested_alpha


def build_engine(config: "ExperimentConfig", backend: str, *,
                 headroom: float, seed: int,
                 cost_trace: Optional["CostTrace"] = None,
                 scheduler: Optional[str] = None) -> EngineProtocol:
    """The one engine recipe: ``config``'s plant at a ``headroom`` share.

    ``"full"``: the identification network at ``config.capacity`` on
    ``Random(seed)``, served by the ``scheduler`` spec; ``"fluid"``: the
    Eq. 2 queue at ``config.base_cost`` (no RNG, no scheduler).
    ``cost_trace`` adds the Fig. 14 cost variations.
    """
    multiplier = (cost_trace.as_multiplier(config.base_cost)
                  if cost_trace is not None else None)
    if backend == "full":
        network = identification_network(capacity=config.capacity)
        plant = dict(network=network,
                     scheduler=make_scheduler(scheduler, network),
                     rng=random.Random(seed))
    elif scheduler is not None:
        raise BackendError(
            f"the {backend} engine has no operator scheduler to configure")
    else:
        plant = dict(cost=config.base_cost)
    return make_engine(backend, headroom=headroom,
                       cost_multiplier=multiplier, **plant)


def build_loop(config: "ExperimentConfig",
               controller_factory: Callable[..., Controller], *,
               engine: EngineProtocol,
               actuator: Actuator,
               target: TargetSchedule,
               estimator: CostEstimator,
               controller_kwargs: Optional[dict] = None) -> ControlLoop:
    """The one Fig. 3 assembly: monitor -> controller -> actuator.

    Monitor and controller share one :class:`DsmsModel` at ``config``'s
    cost and period and the engine's headroom, so the designed gain
    ``H/(cT)`` matches the plant it drives.
    """
    model = DsmsModel(cost=config.base_cost, headroom=engine.headroom,
                      period=config.period)
    monitor = Monitor(engine, model, cost_estimator=estimator)
    controller = controller_factory(model, **(controller_kwargs or {}))
    return ControlLoop(
        engine, controller, monitor, actuator,
        target=target,
        period=config.period,
        cycle_cost=config.control_overhead,
    )


def build_shard(name: str,
                config: "ExperimentConfig",
                headroom: float,
                target: float,
                strategy: str = "CTRL",
                engine_seed: int = 0,
                backend: str = "full") -> EngineShard:
    """A fresh identification-network shard at the given headroom share.

    ``backend`` selects the shard's engine (:func:`build_engine`):
    ``"full"`` hosts a real identification network, ``"fluid"`` models
    it as the Eq. 2 virtual queue (cheaper fleets for policy studies).
    The engine draws from ``Random(engine_seed)``, the entry coin from
    ``Random(engine_seed + 1)``.
    """
    try:
        factory = STRATEGIES[strategy]
    except KeyError:
        raise ServiceError(
            f"unknown shard strategy {strategy!r}; "
            f"pick from {sorted(STRATEGIES)}"
        ) from None
    engine = build_engine(config, backend, headroom=headroom,
                          seed=engine_seed)
    loop = build_loop(config, factory, engine=engine,
                      actuator=EntryActuator(random.Random(engine_seed + 1)),
                      target=target,
                      estimator=config.make_cost_estimator())
    return EngineShard(name, loop, base_target=target)


def arm_shard(shard: EngineShard, bus, index: int,
              obs: ObsConfig = ObsConfig()) -> None:
    """Wire one shard to a runtime's bus and install its tracers.

    Loop and engine emit through a shard-scoped view of ``bus``, so one
    subscription sees every shard's events, labeled.
    """
    scoped = bus.scoped(shard.name)
    shard.loop.bus = scoped
    shard.engine.bus = scoped
    arm_loop(shard.loop, shard.name, index, obs)


def arm_loop(loop: ControlLoop, name: Optional[str], index: int,
             obs: ObsConfig) -> None:
    """Install the tracers ``obs`` asks for on one loop, on its own bus.

    The per-loop half of :func:`arm_shard`, and all a single-loop
    ``LiveRunner`` needs (its loop keeps the caller's bus). ``index``
    seeds the tuple tracer: shards sample distinct (but each
    reproducible) tuple sets.
    """
    if obs.tuptrace > 0.0:
        loop.tuple_tracer = TupleTracer(
            fraction=obs.tuptrace, seed=SEED_STRIDE * (index + 1),
            bus=loop.bus, shard=name)
    if obs.trace:
        loop.tracer = PeriodTracer()
