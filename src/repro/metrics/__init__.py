"""QoS metrics, run recording, reporting, and export."""

from .export import record_to_json
from .qos import (
    QosMetrics,
    combine_qos,
    delay_percentiles,
    compute_qos,
    delays_by_arrival_period,
    relative_metrics,
)
from .recorder import PeriodRecord, RunRecord, merge_records

__all__ = [
    "PeriodRecord",
    "QosMetrics",
    "RunRecord",
    "combine_qos",
    "compute_qos",
    "delay_percentiles",
    "delays_by_arrival_period",
    "merge_records",
    "record_to_json",
    "relative_metrics",
]
