"""Shared machinery: run one strategy through the one loop assembly."""

from __future__ import annotations

import random
from typing import Callable, Dict, List, Optional, Union

from ..core import (
    STRATEGIES,
    Controller,
    DsmsModel,
    EntryActuator,
    InNetworkActuator,
)
from ..dsms import BACKENDS
from ..errors import ExperimentError
from ..metrics.recorder import RunRecord
from ..obs.logconf import get_logger
from ..service.shard import build_engine, build_loop
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


def check_run_options(actuator: str, engine_kind: str,
                      scheduler: Optional[str], alpha_cap: float) -> None:
    """Reject an actuator / backend / scheduler / cap combination up front.

    Called by :func:`run_strategy` and at ``Job`` construction, so a bad
    spec never reaches a pool worker.
    """
    if actuator not in ACTUATORS:
        raise ExperimentError(
            f"unknown actuator {actuator!r}; pick from {ACTUATORS}")
    if engine_kind not in BACKENDS:
        raise ExperimentError(
            f"unknown engine kind {engine_kind!r}; pick from "
            f"{', '.join(sorted(BACKENDS))}"
        )
    if not 0.0 <= alpha_cap <= 1.0:
        raise ExperimentError(f"alpha_cap {alpha_cap} outside [0, 1]")
    if alpha_cap < 1.0 and actuator != "entry":
        raise ExperimentError(
            f"the {actuator!r} actuator has no cap; alpha_cap needs 'entry'")
    if engine_kind == "fluid" and (actuator, scheduler) != ("entry", None):
        raise ExperimentError(
            "the fluid engine has no operator queues or scheduler; "
            "use actuator='entry' and no scheduler")


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
                 tuple_tracer=None) -> RunRecord:
    """Run one strategy over one workload; returns the full run record.

    Engine and loop come from the runtimes' ``build_engine`` +
    ``build_loop`` (:mod:`repro.service.shard`), the engine and the entry
    coin both on ``Random(0)``. ``estimator_factory`` overrides the
    config's cost estimator (used by the estimator ablation benchmark).
    ``engine_kind`` names an engine backend — ``"full"`` (discrete event)
    or ``"fluid"`` (scalar Eq. 2 FIFO); ``None`` takes
    ``config.engine_backend``. The fluid engine supports only the entry
    actuator. ``scheduler`` is a spec string for
    :func:`repro.dsms.scheduler.make_scheduler` (full engine only).
    ``bus`` and ``tuple_tracer`` thread straight into the loop for live
    observability (see :mod:`repro.obs`). ``alpha_cap`` < 1 bounds the
    entry actuator's drop probability (a per-run loss SLA); capping below
    the overload's required drop rate saturates the actuator — the
    canonical way to force the queue-divergence regime the sysid/health
    detectors and the flight recorder's incident path are designed for.
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
    if engine_kind is None:
        engine_kind = config.engine_backend
    check_run_options(actuator, engine_kind, scheduler, alpha_cap)
    engine = build_engine(config, engine_kind, headroom=config.headroom,
                          seed=0, cost_trace=cost_trace, scheduler=scheduler)
    if actuator == "entry":
        act = EntryActuator(random.Random(0), alpha_cap=alpha_cap)
    else:
        act = InNetworkActuator(
            QueueShedder(engine, random.Random(config.seed))
            if actuator == "queue" else LsrmShedder(engine))
    loop = build_loop(
        config, factory, engine=engine, actuator=act,
        target=config.target if target is None else target,
        estimator=(estimator_factory() if estimator_factory is not None
                   else config.make_cost_estimator()),
        controller_kwargs=controller_kwargs,
    )
    if bus is not None:
        loop.bus = bus
    loop.tuple_tracer = tuple_tracer
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
