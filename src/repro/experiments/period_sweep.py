"""Control-period sweep (paper Fig. 19).

Runs CTRL with nine control periods from 31.25 ms to 8000 ms (doubling)
and reports each metric relative to the best value observed across the
sweep. The paper finds a usable band around [250, 1000] ms: too-large T
violates the sampling theorem for the input's burst spectrum (delay
violations explode beyond ~4 s), while too-small T degrades because the
per-period measurements of y(k) and c(k) average too few tuples.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence

from ..metrics.qos import QosMetrics
from .config import ExperimentConfig
from .parallel import Job, run_jobs

#: the paper's nine periods, in seconds
PAPER_PERIODS = (0.03125, 0.0625, 0.125, 0.25, 0.5, 1.0, 2.0, 4.0, 8.0)


@dataclass(frozen=True)
class PeriodSweepResult:
    """Fig. 19 bundle: metrics per control period."""

    metrics: Dict[float, QosMetrics]

    def relative_to_best(self) -> Dict[float, Dict[str, float]]:
        """Each metric divided by the smallest value across the sweep."""
        def best(attr) -> float:
            return min(attr(q) for q in self.metrics.values())

        b_acc = best(lambda q: q.accumulated_violation) or 1e-12
        b_del = best(lambda q: q.delayed_tuples) or 1e-12
        b_ovr = best(lambda q: q.max_overshoot) or 1e-12
        b_loss = best(lambda q: q.loss_ratio) or 1e-12
        return {
            t: {
                "accumulated_violation": q.accumulated_violation / b_acc,
                "delayed_tuples": q.delayed_tuples / b_del,
                "max_overshoot": q.max_overshoot / b_ovr,
                "loss_ratio": q.loss_ratio / b_loss,
            }
            for t, q in self.metrics.items()
        }


def period_sweep(config: Optional[ExperimentConfig] = None,
                 periods: Sequence[float] = PAPER_PERIODS,
                 strategy: str = "CTRL",
                 workload_kind: str = "web",
                 workers: Optional[int] = None,
                 backend: Optional[str] = None) -> PeriodSweepResult:
    """Fig. 19: the same run at different control periods.

    Each period is an independent seeded simulation fanned out over the
    experiment process pool (workload generation included — every period
    resamples its own trace, exactly as the serial version did).
    ``backend`` names the engine (``"full"``/``"fluid"``); ``None`` takes
    ``config.engine_backend``.
    """
    config = config or ExperimentConfig()
    jobs = [
        Job(strategy=strategy, config=config.scaled(period=t),
            workload_kind=workload_kind, key=f"T={t}",
            engine_kind=backend)
        for t in periods
    ]
    records = run_jobs(jobs, workers=workers)
    metrics: Dict[float, QosMetrics] = {
        t: record.qos() for t, record in zip(periods, records)
    }
    return PeriodSweepResult(metrics=metrics)
