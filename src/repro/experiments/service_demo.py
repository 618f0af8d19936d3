"""Sharded service experiment: skewed arrivals, coordinated vs independent.

The scenario the service layer exists for: N shards, one hotspot source
offering a multiple of the others' load. Run the same workload once with
the coordinator disabled (``"independent"`` — N disjoint paper loops) and
once per coordinated mode, and compare the worst shard's delay violation
and the fleet's loss. The per-mode runs are independent seeded
simulations, so they fan out over the experiment process pool like any
other job matrix.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence, Tuple

from ..errors import ExperimentError
from ..metrics.qos import QosMetrics
from ..service import (
    FleetConfig,
    ServiceConfig,
    ServiceResult,
    build_fleet,
    build_service,
)
from ..workloads import (
    Arrival,
    hotspot_weights,
    multi_source_arrivals,
    skewed_source_traces,
)
from .config import ExperimentConfig
from .parallel import Job, run_jobs
from .runner import make_workload

DEFAULT_MODES = ("independent", "headroom")


def build_service_workload(config: ExperimentConfig,
                           svc: ServiceConfig,
                           workload_kind: str = "web") -> List[Arrival]:
    """The skew/hotspot workload: per-source scaled copies of a base trace.

    Every source reuses the temporal shape of the named base workload
    ('web'/'pareto'); regular sources run at ``svc.per_source_rate`` mean
    tuples/s (default: 55% of one shard's baseline capacity at the equal
    headroom split) and the hotspot at ``hotspot_factor`` times that.
    """
    base = make_workload(workload_kind, config)
    shard_capacity = (svc.total_headroom / svc.n_shards) * config.capacity
    per_source = (svc.per_source_rate if svc.per_source_rate is not None
                  else 0.55 * shard_capacity)
    weights = hotspot_weights(svc.n_sources, svc.hotspot_factor,
                              svc.hotspot_index)
    traces = skewed_source_traces(base, weights, per_source_mean=per_source,
                                  names=svc.source_names)
    return multi_source_arrivals(traces, poisson=config.poisson_arrivals,
                                 seed=config.seed)


def run_service_experiment(config: ExperimentConfig,
                           svc: ServiceConfig,
                           workload_kind: str = "web") -> ServiceResult:
    """One full service run (deterministic given the two configs).

    A :class:`~repro.service.FleetConfig` spec runs as a true-parallel
    :class:`~repro.service.fleet.ProcessFleet` (deterministic too); a
    plain :class:`~repro.service.ServiceConfig` runs the lockstep
    :class:`~repro.service.StreamService`.
    """
    arrivals = build_service_workload(config, svc, workload_kind)
    runtime = (build_fleet(config, svc) if isinstance(svc, FleetConfig)
               else build_service(config, svc))
    recorder = getattr(runtime, "flight_recorder", None)
    if recorder is not None and recorder.replay_spec is not None:
        # incident bundles replay through this very function, so record
        # which synthetic workload fed the run
        recorder.replay_spec["workload_kind"] = workload_kind
    return runtime.run(arrivals, config.duration)


@dataclass(frozen=True)
class ServiceComparison:
    """The same skewed workload under several coordination modes."""

    results: Dict[str, ServiceResult]

    def worst_shard_violation(self) -> Dict[str, float]:
        """Mode -> the worst shard's accumulated delay violation."""
        return {mode: result.worst_shard("accumulated_violation")[1]
                for mode, result in self.results.items()}

    def aggregate_qos(self) -> Dict[str, QosMetrics]:
        return {mode: result.aggregate_qos()
                for mode, result in self.results.items()}

    def coordination_gain(self, mode: str = "headroom",
                          baseline: str = "independent") -> float:
        """Worst-shard violation ratio baseline/mode (> 1: coordination wins)."""
        violations = self.worst_shard_violation()
        if violations[mode] <= 0:
            return float("inf") if violations[baseline] > 0 else 1.0
        return violations[baseline] / violations[mode]


@dataclass(frozen=True)
class FleetComparison:
    """The same workload run lockstep and as a true-parallel fleet."""

    lockstep: ServiceResult
    fleet: ServiceResult

    @property
    def speedup(self) -> float:
        """Lockstep wall-clock over fleet wall-clock (> 1: fleet wins).

        Only meaningful on multi-core machines; on one CPU the fleet
        pays process overhead for no parallelism.
        """
        if self.fleet.wall_seconds <= 0:
            return float("inf")
        return self.lockstep.wall_seconds / self.fleet.wall_seconds

    def aggregates_match(self) -> bool:
        """True when both runs produced identical per-shard aggregates.

        Exact equality, not tolerance: a process fleet reproduces the
        lockstep trajectory float-for-float, so ``periods``, arrivals,
        departures and drops must agree bit-for-bit per shard.
        """
        if set(self.lockstep.shard_records) != set(self.fleet.shard_records):
            return False
        for name, lock in self.lockstep.shard_records.items():
            par = self.fleet.shard_records[name]
            for attr in ("periods", "departures", "offered_total",
                         "entry_dropped_total"):
                if getattr(lock, attr) != getattr(par, attr):
                    return False
        return True


def fleet_comparison(config: Optional[ExperimentConfig] = None,
                     svc: Optional[FleetConfig] = None,
                     workload_kind: str = "web") -> FleetComparison:
    """Run the hotspot scenario lockstep, then as a process fleet.

    The two legs share the exact same configs and workload, so
    :meth:`FleetComparison.aggregates_match` is the deterministic-
    equivalence check and :attr:`FleetComparison.speedup` the wall-clock
    win. Runs serially (the fleet wants the machine's cores to itself for
    an honest timing).
    """
    config = config or ExperimentConfig()
    svc = svc or FleetConfig()
    if not isinstance(svc, FleetConfig):
        raise ExperimentError("fleet_comparison needs a FleetConfig spec")
    lockstep = run_service_experiment(config, svc.as_lockstep(),
                                      workload_kind)
    fleet = run_service_experiment(config, svc, workload_kind)
    return FleetComparison(lockstep=lockstep, fleet=fleet)


def service_comparison(config: Optional[ExperimentConfig] = None,
                       svc: Optional[ServiceConfig] = None,
                       modes: Sequence[str] = DEFAULT_MODES,
                       workload_kind: str = "web",
                       workers: Optional[int] = None) -> ServiceComparison:
    """Run the hotspot scenario once per coordination mode (one pool pass)."""
    if not modes:
        raise ExperimentError("need at least one coordination mode")
    config = config or ExperimentConfig()
    svc = svc or ServiceConfig()
    jobs = [
        Job(config=config, workload_kind=workload_kind,
            service=svc.with_mode(mode), key=mode)
        for mode in modes
    ]
    results = run_jobs(jobs, workers=workers)
    return ServiceComparison(dict(zip(modes, results)))
