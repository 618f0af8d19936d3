"""Strategy comparison experiments (paper Figs. 12 and 15).

Runs CTRL, BASELINE and AURORA over the Web and Pareto traces with the
Fig. 14 cost variations, and reports the paper's four metrics in absolute
form (:func:`repro.metrics.report.ratio_table` prints Fig. 12's
ratios-to-CTRL), along with the Fig. 15 transient ``y(k)`` series.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from ..metrics.qos import QosMetrics
from ..metrics.recorder import RunRecord
from .config import ExperimentConfig
from .parallel import Job, run_jobs
from .runner import make_cost_trace, make_workload, run_all_strategies

DEFAULT_STRATEGIES = ("CTRL", "BASELINE", "AURORA")


@dataclass(frozen=True)
class ComparisonResult:
    """Figs. 12 + 15 for one workload."""

    workload: str
    records: Dict[str, RunRecord]
    metrics: Dict[str, QosMetrics]

    def transient(self, strategy: str) -> List[float]:
        """Fig. 15: the y(k) series for one strategy."""
        return self.records[strategy].true_delays()


def _bundle(workload_kind: str, records: Dict[str, RunRecord]
            ) -> ComparisonResult:
    metrics = {name: rec.qos() for name, rec in records.items()}
    return ComparisonResult(
        workload=workload_kind, records=records, metrics=metrics
    )


def compare_strategies(workload_kind: str,
                       config: Optional[ExperimentConfig] = None,
                       strategies: Optional[List[str]] = None,
                       actuator: str = "entry",
                       workers: Optional[int] = None) -> ComparisonResult:
    """Run the Fig. 12/15 experiment for 'web' or 'pareto'."""
    config = config or ExperimentConfig()
    workload = make_workload(workload_kind, config)
    cost_trace = make_cost_trace(config)
    records = run_all_strategies(workload, config, cost_trace,
                                 strategies=strategies, actuator=actuator,
                                 workers=workers)
    return _bundle(workload_kind, records)


def compare_both_workloads(config: Optional[ExperimentConfig] = None,
                           strategies: Optional[List[str]] = None,
                           workers: Optional[int] = None
                           ) -> Dict[str, ComparisonResult]:
    """The full Fig. 12: both the Web and the Pareto input.

    All workload x strategy combinations fan out over one process pool, so
    the whole figure costs roughly one simulation of wall-clock time given
    enough cores (serial fallback: ``REPRO_PARALLEL=0`` or ``workers=1``).
    """
    config = config or ExperimentConfig()
    names = list(strategies or DEFAULT_STRATEGIES)
    kinds = ("web", "pareto")
    jobs = [
        Job(strategy=name, config=config, workload_kind=kind,
            key=f"{kind}/{name}")
        for kind in kinds
        for name in names
    ]
    records = run_jobs(jobs, workers=workers)
    by_kind: Dict[str, Dict[str, RunRecord]] = {kind: {} for kind in kinds}
    for job, record in zip(jobs, records):
        by_kind[job.workload_kind][job.strategy] = record
    return {kind: _bundle(kind, by_kind[kind]) for kind in kinds}
