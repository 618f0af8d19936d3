"""Experiment harness: one module per figure of the paper's evaluation.

See DESIGN.md §4 for the experiment index (figure -> module -> benchmark).
"""

from .config import PAPER_CONFIG, QUICK_CONFIG, ExperimentConfig
from .comparison import ComparisonResult, compare_both_workloads, compare_strategies
from .overhead import OverheadResult, controller_overhead
from .parallel import (
    ESTIMATOR_SPECS,
    Job,
    default_workers,
    execute_job,
    parallel_enabled,
    run_jobs,
)
from .period_sweep import PAPER_PERIODS, PeriodSweepResult, period_sweep
from .robustness import (
    PAPER_BIAS_FACTORS,
    BurstinessSweepResult,
    RetunedAuroraResult,
    aurora_retuned,
    burstiness_sweep,
)
from .runner import (
    ACTUATORS,
    STRATEGIES,
    make_cost_trace,
    make_workload,
    run_all_strategies,
    run_strategy,
)
from .service_demo import (
    DEFAULT_MODES,
    FleetComparison,
    ServiceComparison,
    build_service_workload,
    fleet_comparison,
    run_service_experiment,
    service_comparison,
)
from .setpoint import PAPER_SCHEDULE, SetpointResult, schedule_fn, setpoint_tracking
from .sysid import (
    ModelFit,
    ModelVerificationResult,
    OpenLoopRun,
    StepResponseResult,
    model_verification,
    open_loop_run,
    step_response,
)

__all__ = [
    "ACTUATORS",
    "BurstinessSweepResult",
    "ComparisonResult",
    "DEFAULT_MODES",
    "ESTIMATOR_SPECS",
    "ExperimentConfig",
    "Job",
    "ModelFit",
    "ModelVerificationResult",
    "OpenLoopRun",
    "OverheadResult",
    "PAPER_BIAS_FACTORS",
    "PAPER_CONFIG",
    "PAPER_PERIODS",
    "PAPER_SCHEDULE",
    "PeriodSweepResult",
    "QUICK_CONFIG",
    "RetunedAuroraResult",
    "STRATEGIES",
    "FleetComparison",
    "ServiceComparison",
    "SetpointResult",
    "StepResponseResult",
    "aurora_retuned",
    "build_service_workload",
    "burstiness_sweep",
    "compare_both_workloads",
    "compare_strategies",
    "controller_overhead",
    "default_workers",
    "execute_job",
    "make_cost_trace",
    "make_workload",
    "model_verification",
    "open_loop_run",
    "parallel_enabled",
    "period_sweep",
    "run_all_strategies",
    "run_jobs",
    "fleet_comparison",
    "run_service_experiment",
    "run_strategy",
    "schedule_fn",
    "service_comparison",
    "setpoint_tracking",
    "step_response",
]
