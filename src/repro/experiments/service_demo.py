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

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from ..errors import ExperimentError
from ..metrics.qos import QosMetrics
from ..service import ServiceConfig, ServiceResult, build_service
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
    """One full lockstep service run (deterministic given the two configs)."""
    arrivals = build_service_workload(config, svc, workload_kind)
    service = build_service(config, svc)
    recorder = service.flight_recorder
    if recorder is not None and recorder.replay_spec is not None:
        # incident bundles replay through this very function, so record
        # which synthetic workload fed the run
        recorder.replay_spec["workload_kind"] = workload_kind
    return service.run(arrivals, config.duration)


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
