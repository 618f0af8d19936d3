"""Unit tests for run records and text reporting."""

import pytest

from repro.dsms import Departure
from repro.metrics import PeriodRecord, RunRecord, compute_qos
from repro.metrics.report import (
    ascii_series,
    format_table,
    qos_table,
    ratio_table,
)


def period_record(k, target=2.0, y=1.5, q=100):
    return PeriodRecord(
        k=k, time=float(k + 1), target=target, delay_estimate=y,
        queue_length=q, cost=0.005, inflow_rate=200.0, outflow_rate=180.0,
        offered=200, admitted=180, shed_retro=0, v=180.0, u=0.0,
        error=target - y, alpha=0.1,
    )


def dep(arrived, delay, shed=False):
    return Departure(arrived, arrived + delay, shed)


class TestRunRecord:
    def make(self):
        rec = RunRecord(period=1.0)
        rec.add(period_record(0, target=1.0), [dep(0.2, 0.5)])
        rec.add(period_record(1, target=3.0), [dep(1.2, 4.0)])
        rec.offered_total = 400
        rec.duration = 6.0  # both in-window departures resolve by t = 5.2
        return rec

    def test_series_extraction(self):
        rec = self.make()
        assert rec.estimated_delays() == [1.5, 1.5]
        assert rec.times() == [1.0, 2.0]

    def test_true_delays_by_arrival_period(self):
        rec = self.make()
        y = rec.true_delays()
        assert y[0] == pytest.approx(0.5)
        assert y[1] == pytest.approx(4.0)

    def test_qos_uses_recorded_target_schedule(self):
        rec = self.make()
        q = rec.qos()
        # tuple 1: delay 0.5 vs target 1.0 -> fine; tuple 2: 4.0 vs 3.0 -> 1.0 over
        assert q.delayed_tuples == 1
        assert q.accumulated_violation == pytest.approx(1.0)

    def test_qos_within_window_excludes_drain(self):
        rec = self.make()
        # a tuple that departs after the 2 s window (resolved during drain)
        rec.departures.append(dep(1.9, 50.0))
        q_in = rec.qos(within_window=True)
        q_all = rec.qos(within_window=False)
        assert q_in.delayed_tuples == 1
        assert q_all.delayed_tuples == 2

    def test_entry_drops_added_to_loss(self):
        rec = self.make()
        rec.entry_dropped_total = 100
        q = rec.qos()
        assert q.shed == 100
        assert q.loss_ratio == pytest.approx(100 / 400)


class TestReport:
    def test_format_table_alignment(self):
        out = format_table(["a", "bb"], [[1, 2.5], [30, 4.0]])
        lines = out.splitlines()
        assert len(lines) == 4
        assert all(len(l) == len(lines[0]) for l in lines)

    def test_qos_table_contains_strategies(self):
        q = compute_qos([dep(0.0, 3.0)], 2.0, 1)
        out = qos_table({"CTRL": q, "AURORA": q})
        assert "CTRL" in out and "AURORA" in out
        assert "loss_ratio" in out

    def test_ratio_table_reference_is_one(self):
        q1 = compute_qos([dep(0.0, 3.0)], 2.0, 1)
        q2 = compute_qos([dep(0.0, 4.0)], 2.0, 1)
        out = ratio_table({"CTRL": q1, "AURORA": q2}, reference="CTRL")
        ctrl_row = [l for l in out.splitlines() if l.strip().startswith("CTRL")][0]
        assert "1.000" in ctrl_row

    def test_ascii_series_renders(self):
        out = ascii_series([0, 1, 2, 3, 2, 1, 0], width=7, height=4,
                           title="demo", y_label="t")
        assert "demo" in out
        assert "*" in out

    def test_ascii_series_empty(self):
        assert ascii_series([]) == "(empty series)"

    def test_ascii_series_constant(self):
        out = ascii_series([5.0] * 10)
        assert "*" in out
