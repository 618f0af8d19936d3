"""Unit tests for run-record export."""

import json

from repro.dsms import Departure
from repro.metrics import PeriodRecord, RunRecord
from repro.metrics.export import PERIOD_FIELDS, record_to_json


def sample_record():
    rec = RunRecord(period=1.0)
    for k in range(3):
        rec.add(
            PeriodRecord(
                k=k, time=float(k + 1), target=2.0, delay_estimate=1.5 + k,
                queue_length=100 * k, cost=0.005, inflow_rate=200.0,
                outflow_rate=180.0, offered=200, admitted=180, shed_retro=0,
                v=180.0, u=0.0, error=0.5 - k, alpha=0.1,
            ),
            [Departure(float(k), float(k) + 1.2, False)],
        )
    rec.departures.append(Departure(2.5, 3.0, True))
    rec.offered_total = 600
    rec.duration = 3.0
    return rec


class TestJsonExport:
    def test_summary_fields(self, tmp_path):
        rec = sample_record()
        path = record_to_json(rec, tmp_path / "run.json")
        doc = json.loads(path.read_text())
        assert doc["offered_total"] == 600
        # the departure at t = 3.2 falls outside the 3 s window
        assert doc["qos"]["delivered"] == 2
        assert doc["qos"]["shed"] == 1
        # every per-period field survives with its value and type intact
        assert doc["periods"] == [{f: getattr(p, f) for f in PERIOD_FIELDS}
                                  for p in rec.periods]
        assert len(doc["true_delays"]) >= 3
        assert "departures" not in doc

    def test_departures_opt_in(self, tmp_path):
        rec = sample_record()
        path = record_to_json(rec, tmp_path / "run.json",
                              include_departures=True)
        doc = json.loads(path.read_text())
        assert len(doc["departures"]) == 4
