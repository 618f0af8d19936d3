"""Exporting run records for external analysis (JSON).

``RunRecord`` objects hold everything a run produced; :func:`record_to_json`
flattens one into a document a notebook or gnuplot can consume, so the
figures can be replotted outside this library.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Union

from .recorder import RunRecord

PathLike = Union[str, Path]

#: the fields of each per-period row, in order
PERIOD_FIELDS = (
    "k", "time", "target", "delay_estimate", "queue_length", "cost",
    "inflow_rate", "outflow_rate", "offered", "admitted", "shed_retro",
    "v", "u", "error", "alpha",
)


def record_to_json(record: RunRecord, path: PathLike,
                   include_departures: bool = False) -> Path:
    """Summary + per-period series as one JSON document."""
    qos = record.qos()
    doc = {
        "period": record.period,
        "duration": record.duration,
        "offered_total": record.offered_total,
        "entry_dropped_total": record.entry_dropped_total,
        "wall_seconds": record.wall_seconds,
        "drain_truncated": record.drain_truncated,
        "drain_leftover": record.drain_leftover,
        "qos": {
            "accumulated_violation": qos.accumulated_violation,
            "delayed_tuples": qos.delayed_tuples,
            "max_overshoot": qos.max_overshoot,
            "delivered": qos.delivered,
            "shed": qos.shed,
            "loss_ratio": qos.loss_ratio,
            "mean_delay": qos.mean_delay,
        },
        "periods": [
            {f: getattr(p, f) for f in PERIOD_FIELDS}
            for p in record.periods
        ],
        "true_delays": record.true_delays(),
    }
    if include_departures:
        doc["departures"] = [
            {"arrived": d.arrived, "departed": d.departed, "shed": d.shed}
            for d in record.departures
        ]
    path = Path(path)
    path.write_text(json.dumps(doc, indent=2))
    return path

