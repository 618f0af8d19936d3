"""Parallel experiment fan-out.

Every figure reproduction and ablation is a sweep of independent,
fully-seeded simulations (strategies x workloads x actuators x seeds).
This module turns one such sweep into a list of picklable :class:`Job`
specs and executes them on a :class:`~concurrent.futures.ProcessPoolExecutor`
via :func:`run_jobs`.

Determinism contract: a :class:`Job` carries *everything* that influences
its run (config, seeds, strategy, actuator, workload spec), and
:func:`execute_job` derives all randomness from those seeds, so executing a
job in a worker process, in the parent process, or twice in a row yields
bit-identical :class:`~repro.metrics.recorder.RunRecord` series (only the
informational ``wall_seconds`` stamp differs between runs). The serial
fallback therefore produces exactly the results the pool would.

Environment knobs:

* ``REPRO_PARALLEL=0`` (also ``false``/``off``/``no``) forces the serial
  fallback regardless of the requested worker count;
* ``REPRO_WORKERS=N`` sets the default pool size (default: CPU count).

Failure handling: a job that dies for *transient* infrastructure reasons
(worker process killed, pool broken) is retried once
serially in the parent process — which, by the determinism contract, gives
the same answer a healthy worker would have. Deterministic exceptions from
the experiment itself propagate to the caller unchanged. Jobs that cannot
be pickled (e.g. closure-based controller factories) quietly run serially.
"""

from __future__ import annotations

import os
import pickle
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional, Sequence, Union

try:  # BrokenProcessPool moved around across minor versions
    from concurrent.futures.process import BrokenProcessPool
except ImportError:  # pragma: no cover - ancient interpreters
    class BrokenProcessPool(RuntimeError):
        """Placeholder that never matches a raised exception."""

from ..core.estimation import (
    KalmanCostEstimator,
    LastValueEstimator,
    WindowMedianEstimator,
)
from ..errors import ExperimentError
from ..metrics.recorder import RunRecord
from ..service.config import ServiceConfig
from ..workloads import CostTrace, RateTrace
from .config import ExperimentConfig
from .runner import (check_run_options, make_cost_trace, make_workload,
                     run_strategy)

#: sentinel for "derive the Fig. 14 cost trace from the job's config"
AUTO = "auto"

#: named cost-estimator factories usable from a picklable Job spec;
#: each maps the config's base cost to a fresh estimator. ``None`` keeps
#: the config's default (the slow Borealis-like EWMA).
ESTIMATOR_SPECS: Dict[str, Callable[[float], object]] = {
    "last": LastValueEstimator,
    "median5": lambda c: WindowMedianEstimator(c, window=5),
    "kalman": KalmanCostEstimator,
}


@dataclass(frozen=True)
class Job:
    """One fully-specified experiment run.

    Exactly one of ``workload`` (an explicit :class:`RateTrace`) or
    ``workload_kind`` (``'web'``/``'pareto'``, generated in the worker from
    the job's config) must be provided. ``cost_trace`` defaults to the
    :data:`AUTO` sentinel, meaning "build the Fig. 14 trace from the
    config" (which honours ``config.use_cost_trace``); pass ``None`` to
    disable cost variations outright or an explicit :class:`CostTrace` to
    pin one.
    """

    strategy: Union[str, Callable] = "CTRL"
    config: ExperimentConfig = field(default_factory=ExperimentConfig)
    workload_kind: Optional[str] = None
    workload: Optional[RateTrace] = None
    cost_trace: Union[str, CostTrace, None] = AUTO
    actuator: str = "entry"
    target: Union[float, Callable[[int], float], None] = None
    controller_kwargs: Optional[dict] = None
    estimator: Optional[str] = None       # key into ESTIMATOR_SPECS
    #: engine backend name ('full' | 'fluid');
    #: None follows the job config's ``engine_backend``
    engine_kind: Optional[str] = None
    scheduler: Optional[str] = None       # spec string, see make_scheduler
    seed: Optional[int] = None            # overrides config.seed when set
    arrival_seed: Optional[int] = None
    key: Optional[str] = None             # caller-chosen label
    #: when set, the job runs a whole sharded service (N coordinated
    #: control loops over a skewed multi-source workload derived from
    #: ``workload_kind``) and yields a ServiceResult instead of a RunRecord
    service: Optional[ServiceConfig] = None

    def __post_init__(self) -> None:
        if (self.workload is None) == (self.workload_kind is None):
            raise ExperimentError(
                "a Job needs exactly one of 'workload' or 'workload_kind'"
            )
        if self.service is not None and self.workload_kind is None:
            raise ExperimentError(
                "a service job derives its skewed per-source workload from "
                "'workload_kind'; explicit workloads are not supported"
            )
        if self.estimator is not None and self.estimator not in ESTIMATOR_SPECS:
            raise ExperimentError(
                f"unknown estimator spec {self.estimator!r}; "
                f"pick from {sorted(ESTIMATOR_SPECS)}"
            )
        engine_kind = (self.resolved_config().engine_backend
                       if self.engine_kind is None else self.engine_kind)
        check_run_options(self.actuator, engine_kind, self.scheduler, 1.0)

    @property
    def label(self) -> str:
        if self.key is not None:
            return self.key
        strategy = (self.strategy if isinstance(self.strategy, str)
                    else getattr(self.strategy, "__name__", "custom"))
        kind = self.workload_kind or "trace"
        return f"{strategy}/{kind}/{self.actuator}/seed={self.resolved_config().seed}"

    def resolved_config(self) -> ExperimentConfig:
        """The config this job actually runs with (per-job seed applied)."""
        if self.seed is None:
            return self.config
        return replace(self.config, seed=self.seed)


def _execute_job_relayed(job: Job, relay_queue) -> RunRecord:
    """Pool-worker entry point: run the job with its bus relayed home.

    Module-level (and thus picklable) wrapper around :func:`execute_job`
    that forwards every event the job emits on this worker's default bus
    to the parent's :class:`~repro.obs.relay.EventRelay` queue, labelled
    with this worker's pid. Only the pool path uses it — serial and
    retry runs already emit on the parent bus directly.
    """
    from ..obs.relay import worker_relay  # lazy: keep plain sweeps light

    with worker_relay(relay_queue):
        return execute_job(job)


def execute_job(job: Job) -> RunRecord:
    """Run one job to completion in the current process (deterministic)."""
    config = job.resolved_config()
    if job.service is not None:
        # service jobs run a whole coordinated fleet; imported lazily so
        # plain single-loop sweeps never touch the service layer
        from .service_demo import run_service_experiment

        return run_service_experiment(  # type: ignore[return-value]
            config, job.service, workload_kind=job.workload_kind,
        )
    workload = (job.workload if job.workload is not None
                else make_workload(job.workload_kind, config))
    if isinstance(job.cost_trace, str):
        if job.cost_trace != AUTO:
            raise ExperimentError(
                f"unknown cost_trace spec {job.cost_trace!r}"
            )
        cost_trace = make_cost_trace(config)
    else:
        cost_trace = job.cost_trace
    spec = None if job.estimator is None else ESTIMATOR_SPECS[job.estimator]
    estimator_factory = (None if spec is None
                         else (lambda: spec(config.base_cost)))
    return run_strategy(
        job.strategy, workload, config, cost_trace,
        target=job.target,
        actuator=job.actuator,
        arrival_seed=job.arrival_seed,
        controller_kwargs=job.controller_kwargs,
        estimator_factory=estimator_factory,
        engine_kind=job.engine_kind,
        scheduler=job.scheduler,
    )


# ---------------------------------------------------------------------- #
# pool management
# ---------------------------------------------------------------------- #
def parallel_enabled() -> bool:
    """False when ``REPRO_PARALLEL`` disables the pool."""
    return os.environ.get("REPRO_PARALLEL", "1").strip().lower() not in (
        "0", "false", "off", "no",
    )


def default_workers() -> int:
    """Pool size: ``REPRO_WORKERS`` when set, else the CPU count."""
    env = os.environ.get("REPRO_WORKERS", "").strip()
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            raise ExperimentError(
                f"REPRO_WORKERS must be an integer, got {env!r}"
            ) from None
    return os.cpu_count() or 1


def _picklable(job: Job) -> bool:
    try:
        pickle.dumps(job)
        return True
    except Exception:
        return False


def run_jobs(jobs: Sequence[Job],
             workers: Optional[int] = None,
             relay=None) -> List[RunRecord]:
    """Execute ``jobs`` and return their records in submission order.

    ``workers`` caps the process pool (default: :func:`default_workers`,
    never more than there are jobs). A job whose worker dies is retried
    once serially in the parent. With ``REPRO_PARALLEL=0``, one job, or one
    worker, everything runs serially in-process — producing bit-identical
    records either way.

    ``relay`` (a started-or-not :class:`~repro.obs.relay.EventRelay`)
    makes pool workers stream their bus events back to the parent, so
    live consumers — metrics, health, the :class:`~repro.obs.serve.ObsServer`
    dashboard — observe the whole fan-out with per-worker provenance.
    Events relayed mid-run arrive as workers produce them; call
    ``relay.flush()`` after :func:`run_jobs` returns to barrier on the
    tail. Serial paths (fallback, unpicklable jobs, the transient-failure
    retry) skip the relay: their events are already live on the parent
    bus. The relay never changes the returned records.
    """
    jobs = list(jobs)
    if not jobs:
        return []
    if workers is None:
        workers = default_workers()
    workers = max(1, min(int(workers), len(jobs)))
    if not parallel_enabled() or workers == 1 or len(jobs) == 1:
        return [execute_job(job) for job in jobs]

    results: List[Optional[RunRecord]] = [None] * len(jobs)
    pool_indices = [i for i, job in enumerate(jobs) if _picklable(job)]
    serial_indices = [i for i in range(len(jobs)) if i not in set(pool_indices)]

    if pool_indices:
        if relay is not None:
            relay.start()  # idempotent; caller still owns stop()
        pool = ProcessPoolExecutor(max_workers=min(workers, len(pool_indices)))
        try:
            if relay is not None:
                futures = {i: pool.submit(_execute_job_relayed, jobs[i],
                                          relay.queue)
                           for i in pool_indices}
            else:
                futures = {i: pool.submit(execute_job, jobs[i])
                           for i in pool_indices}
            for i, future in futures.items():
                try:
                    results[i] = future.result()
                except (BrokenProcessPool, OSError):
                    # transient infrastructure failure: the single retry runs
                    # serially here, which determinism makes equivalent
                    results[i] = execute_job(jobs[i])
        finally:
            pool.shutdown(wait=False, cancel_futures=True)
    for i in serial_indices:
        results[i] = execute_job(jobs[i])
    return results  # type: ignore[return-value]

