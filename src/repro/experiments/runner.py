"""Shared machinery: build an engine + control loop and run one strategy."""

from __future__ import annotations

import random
from typing import Callable, Dict, List, Optional, Union

from ..core import (
    STRATEGIES,
    ControlLoop,
    Controller,
    DsmsModel,
    EntryActuator,
    InNetworkActuator,
    Monitor,
)
from ..dsms import (
    DepthFirstScheduler,
    Engine,
    RoundRobinScheduler,
    Scheduler,
    identification_network,
    make_engine,
)
from ..errors import ExperimentError
from ..metrics.recorder import RunRecord
from ..obs.logconf import get_logger
from ..shedding import LsrmShedder, QueueShedder
from ..workloads import (
    CostTrace,
    RateTrace,
    cached_arrivals_from_trace,
    fig14_cost_trace,
    pareto_rate_trace_with_mean,
    web_rate_trace,
)
from .config import ExperimentConfig

ACTUATORS = ("entry", "queue", "lsrm")

_log = get_logger("experiments")


def make_workload(kind: str, config: ExperimentConfig,
                  beta: float = 1.0) -> RateTrace:
    """The paper's two input traces by name ('web' or 'pareto')."""
    n = config.n_periods
    if kind == "web":
        return web_rate_trace(n, mean_rate=config.mean_rate,
                              period=config.period, seed=config.seed)
    if kind == "pareto":
        return pareto_rate_trace_with_mean(
            n, beta=beta, target_mean=config.pareto_mean_rate,
            period=config.period, seed=config.seed,
        )
    raise ExperimentError(f"unknown workload kind {kind!r}")


def make_cost_trace(config: ExperimentConfig) -> Optional[CostTrace]:
    """The Fig. 14 cost trace, or None when the config disables it."""
    if not config.use_cost_trace:
        return None
    return fig14_cost_trace(int(config.duration), base_cost=config.base_cost,
                            seed=config.seed)


def make_scheduler(spec: Optional[str], network) -> Optional[Scheduler]:
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
            raise ExperimentError(
                f"bad round_robin batch in scheduler spec {spec!r}"
            ) from None
        return RoundRobinScheduler(network, batch=batch)
    raise ExperimentError(
        f"unknown scheduler spec {spec!r}; use 'depth_first', "
        "'round_robin' or 'round_robin:<batch>'"
    )


def build_engine(config: ExperimentConfig,
                 cost_trace: Optional[CostTrace] = None,
                 scheduler: Optional[str] = None) -> Engine:
    """A fresh identification-network engine wired to the cost trace."""
    multiplier = (cost_trace.as_multiplier(config.base_cost)
                  if cost_trace is not None else None)
    network = identification_network(capacity=config.capacity)
    return make_engine(
        "full",
        network=network,
        headroom=config.headroom,
        scheduler=make_scheduler(scheduler, network),
        cost_multiplier=multiplier,
        rng=random.Random(0),
    )


def run_strategy(strategy: Union[str, Callable[[DsmsModel], Controller]],
                 workload: RateTrace,
                 config: ExperimentConfig,
                 cost_trace: Optional[CostTrace] = None,
                 target: Union[float, Callable[[int], float], None] = None,
                 actuator: str = "entry",
                 alpha_cap: float = 1.0,
                 arrival_seed: Optional[int] = None,
                 controller_kwargs: Optional[dict] = None,
                 estimator_factory: Optional[Callable[[], object]] = None,
                 engine_kind: Optional[str] = None,
                 scheduler: Optional[str] = None,
                 bus=None,
                 tracer=None,
                 tuple_tracer=None) -> RunRecord:
    """Run one strategy over one workload; returns the full run record.

    ``estimator_factory`` overrides the config's cost estimator (used by
    the estimator ablation benchmark). ``engine_kind`` names an engine
    backend for :func:`repro.dsms.make_engine` — ``"full"`` (discrete
    event) or ``"fluid"`` (scalar Eq. 2 FIFO); ``None`` takes
    ``config.engine_backend``. The fluid engine supports only the entry
    actuator. ``scheduler`` is a spec
    string for :func:`make_scheduler` (full engine only). ``bus``,
    ``tracer`` and ``tuple_tracer`` thread straight into the
    :class:`ControlLoop` for live observability (see :mod:`repro.obs`).
    ``alpha_cap`` < 1 bounds the entry actuator's drop probability (a
    per-run loss SLA); capping below the overload's required drop rate
    saturates the actuator — the canonical way to force the
    queue-divergence regime the sysid/health detectors and the flight
    recorder's incident path are designed for.
    """
    if isinstance(strategy, str):
        try:
            factory = STRATEGIES[strategy]
        except KeyError:
            raise ExperimentError(
                f"unknown strategy {strategy!r}; pick from {sorted(STRATEGIES)}"
            ) from None
    else:
        factory = strategy
    if actuator not in ACTUATORS:
        raise ExperimentError(f"unknown actuator {actuator!r}; pick from {ACTUATORS}")
    if engine_kind is None:
        engine_kind = config.engine_backend
    if engine_kind == "full":
        engine = build_engine(config, cost_trace, scheduler=scheduler)
    elif engine_kind == "fluid":
        if actuator != "entry":
            raise ExperimentError(
                "the fluid engine has no operator queues; use actuator='entry'"
            )
        if scheduler is not None:
            raise ExperimentError(
                "the fluid engine has no operator scheduler to configure"
            )
        multiplier = (cost_trace.as_multiplier(config.base_cost)
                      if cost_trace is not None else None)
        engine = make_engine("fluid", cost=config.base_cost,
                             headroom=config.headroom,
                             cost_multiplier=multiplier)
    else:
        raise ExperimentError(f"unknown engine kind {engine_kind!r}")
    model = DsmsModel(cost=config.base_cost, headroom=config.headroom,
                      period=config.period)
    estimator = (estimator_factory() if estimator_factory is not None
                 else config.make_cost_estimator())
    monitor = Monitor(engine, model, cost_estimator=estimator)
    controller = factory(model, **(controller_kwargs or {}))
    if actuator == "entry":
        act = EntryActuator(alpha_cap=alpha_cap)
    elif actuator == "queue":
        act = InNetworkActuator(QueueShedder(engine, random.Random(config.seed)))
    else:
        act = InNetworkActuator(LsrmShedder(engine, random.Random(config.seed)))
    loop = ControlLoop(
        engine, controller, monitor, act,
        target=config.target if target is None else target,
        period=config.period,
        cycle_cost=config.control_overhead,
        bus=bus,
        tracer=tracer,
        tuple_tracer=tuple_tracer,
    )
    # memoized on disk by workload hash so pool workers materialize each
    # distinct trace once (see repro.workloads.cache)
    arrivals = cached_arrivals_from_trace(
        workload,
        poisson=config.poisson_arrivals,
        seed=config.seed if arrival_seed is None else arrival_seed,
    )
    strategy_name = strategy if isinstance(strategy, str) else factory.__name__
    _log.debug("running strategy %s over %d arrivals (engine=%s, actuator=%s)",
               strategy_name, len(arrivals), engine_kind, actuator)
    record = loop.run(arrivals, config.duration)
    _log.info("strategy %s: %d periods, %d offered, %d entry-dropped, "
              "wall %.3fs", strategy_name, len(record.periods),
              record.offered_total, record.entry_dropped_total,
              record.wall_seconds)
    return record


def run_all_strategies(workload: RateTrace, config: ExperimentConfig,
                       cost_trace: Optional[CostTrace] = None,
                       strategies: Optional[List[str]] = None,
                       actuator: str = "entry",
                       workers: Optional[int] = None) -> Dict[str, RunRecord]:
    """Run several strategies over the same workload (Fig. 12/15 helper).

    The strategies are independent seeded simulations, so they fan out over
    the experiment process pool (see :mod:`repro.experiments.parallel`);
    ``workers=1`` or ``REPRO_PARALLEL=0`` runs them serially with
    bit-identical results.
    """
    from .parallel import Job, run_jobs

    names = strategies or ["CTRL", "BASELINE", "AURORA"]
    jobs = [Job(strategy=name, config=config, workload=workload,
                cost_trace=cost_trace, actuator=actuator)
            for name in names]
    records = run_jobs(jobs, workers=workers)
    return dict(zip(names, records))
