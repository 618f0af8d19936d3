"""Robustness experiments (paper Figs. 16 and 17).

* :func:`aurora_retuned` (Fig. 16) — can AURORA be rescued by assuming a
  smaller headroom (H = 0.96, i.e. shedding more aggressively)? The paper
  finds it stays unstable on the Web input and, where it does stabilize,
  pays substantially more data loss than CTRL.
* :func:`burstiness_sweep` (Fig. 17) — metrics across Pareto bias factors
  beta in {0.1, ..., 1.5}, each normalized to the beta = 1.5 value of the
  same strategy. CTRL stays flat; AURORA degrades sharply as the input
  becomes burstier.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence

from ..errors import ExperimentError
from ..metrics.qos import QosMetrics
from ..metrics.recorder import RunRecord
from ..workloads import pareto_rate_trace_with_mean
from .config import ExperimentConfig
from .runner import (check_run_options, make_cost_trace, make_workload,
                     run_strategy)

#: the paper's Fig. 17 sweep
PAPER_BIAS_FACTORS = (0.1, 0.25, 0.5, 1.0, 1.25, 1.5)


@dataclass(frozen=True)
class RetunedAuroraResult:
    """Fig. 16 bundle for one workload."""

    workload: str
    aurora_record: RunRecord
    aurora_metrics: QosMetrics
    ctrl_metrics: QosMetrics

    @property
    def relative_loss(self) -> float:
        """AURORA(H=0.96) data loss relative to CTRL (paper: ~1.37 on Pareto)."""
        if self.ctrl_metrics.loss_ratio == 0:
            return float("inf") if self.aurora_metrics.loss_ratio > 0 else 1.0
        return self.aurora_metrics.loss_ratio / self.ctrl_metrics.loss_ratio


def aurora_retuned(workload_kind: str,
                   config: Optional[ExperimentConfig] = None,
                   headroom_override: float = 0.96,
                   backend: Optional[str] = None) -> RetunedAuroraResult:
    """Fig. 16: AURORA with a deliberately pessimistic capacity estimate.

    ``backend`` names the engine both comparators run on
    (``"full"``/``"fluid"``); ``None`` takes ``config.engine_backend``.
    """
    config = config or ExperimentConfig()
    backend = config.engine_backend if backend is None else backend
    check_run_options("entry", backend, None, 1.0)
    workload = make_workload(workload_kind, config)
    cost_trace = make_cost_trace(config)
    aurora = run_strategy(
        "AURORA", workload, config, cost_trace,
        controller_kwargs={"headroom_override": headroom_override},
        engine_kind=backend,
    )
    ctrl = run_strategy("CTRL", workload, config, cost_trace,
                        engine_kind=backend)
    return RetunedAuroraResult(
        workload=workload_kind,
        aurora_record=aurora,
        aurora_metrics=aurora.qos(),
        ctrl_metrics=ctrl.qos(),
    )


@dataclass(frozen=True)
class BurstinessSweepResult:
    """Fig. 17 for one strategy: metrics per bias factor."""

    strategy: str
    metrics: Dict[float, QosMetrics]

    def normalized(self, reference_beta: float = 1.5) -> Dict[float, Dict[str, float]]:
        """Each metric relative to its value at ``reference_beta``."""
        try:
            ref = self.metrics[reference_beta]
        except KeyError:
            raise ExperimentError(
                f"reference beta {reference_beta} was not swept; "
                f"bias factors are {sorted(self.metrics)}"
            ) from None

        def safe(a: float, b: float) -> float:
            return a / b if b > 1e-12 else (float("inf") if a > 1e-12 else 1.0)

        return {
            beta: {
                "accumulated_violation": safe(q.accumulated_violation,
                                              ref.accumulated_violation),
                "delayed_tuples": safe(q.delayed_tuples, ref.delayed_tuples),
                "max_overshoot": safe(q.max_overshoot, ref.max_overshoot),
                "loss_ratio": safe(q.loss_ratio, ref.loss_ratio),
            }
            for beta, q in self.metrics.items()
        }

    def spread(self, metric: str = "accumulated_violation") -> float:
        """max/min of the normalized metric across the sweep — the paper's
        robustness figure of merit (small = flat = robust)."""
        values = [m[metric] for m in self.normalized().values()
                  if m[metric] != float("inf")]
        lo = min(values)
        return max(values) / lo if lo > 0 else float("inf")


def burstiness_sweep(strategy: str,
                     config: Optional[ExperimentConfig] = None,
                     bias_factors: Sequence[float] = PAPER_BIAS_FACTORS,
                     backend: Optional[str] = None
                     ) -> BurstinessSweepResult:
    """Fig. 17: one strategy across Pareto bias factors.

    ``backend`` names the engine the sweep runs on
    (``"full"``/``"fluid"``); ``None`` takes ``config.engine_backend``.
    """
    config = config or ExperimentConfig()
    backend = config.engine_backend if backend is None else backend
    check_run_options("entry", backend, None, 1.0)
    cost_trace = make_cost_trace(config)
    metrics: Dict[float, QosMetrics] = {}
    for beta in bias_factors:
        workload = pareto_rate_trace_with_mean(
            config.n_periods, beta=beta, target_mean=config.pareto_mean_rate,
            period=config.period, seed=config.seed,
        )
        record = run_strategy(strategy, workload, config, cost_trace,
                              engine_kind=backend)
        metrics[beta] = record.qos()
    return BurstinessSweepResult(strategy=strategy, metrics=metrics)
