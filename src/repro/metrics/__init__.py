"""QoS metrics, run recording, and reporting."""

from .qos import (
    QosMetrics,
    combine_qos,
    delay_percentiles,
    compute_qos,
    delays_by_arrival_period,
    relative_metrics,
)
from .recorder import PeriodRecord, RunRecord

__all__ = [
    "PeriodRecord",
    "QosMetrics",
    "RunRecord",
    "combine_qos",
    "compute_qos",
    "delay_percentiles",
    "delays_by_arrival_period",
    "relative_metrics",
]
