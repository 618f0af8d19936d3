"""Unit tests for the CTRL/BASELINE/AURORA decision laws."""

import pytest

from repro.core import (
    AuroraOpenLoopController,
    BaselineController,
    DsmsModel,
    Measurement,
    PolePlacementController,
)
from repro.errors import ControlError


def model():
    return DsmsModel(cost=1 / 190, headroom=0.97, period=1.0)


def measurement(q=0, cost=1 / 190, fin=200.0, fout=184.0, k=0):
    m = model()
    return Measurement(
        k=k, time=float(k), queue_length=q, cost=cost, measured_cost=cost,
        inflow_rate=fin, outflow_rate=fout,
        delay_estimate=m.delay_estimate(q, cost),
        admitted=int(fin), departed=int(fout), shed=0, departures=[],
    )


class TestPolePlacement:
    def test_eq10_first_step(self):
        """With zero history, u(0) = H/(cT) * b0 * e(0)."""
        ctrl = PolePlacementController(model())
        m = measurement(q=0)
        d = ctrl.decide(m, target=2.0)
        e = 2.0 - m.delay_estimate
        expected_u = 0.97 * 190 * 0.4 * e
        assert d.u == pytest.approx(expected_u)
        assert d.v == pytest.approx(expected_u + m.outflow_rate)

    def test_eq10_recursion(self):
        """Second step uses b1 e(k-1) and -a u(k-1)."""
        ctrl = PolePlacementController(model())
        m1 = measurement(q=0)
        d1 = ctrl.decide(m1, 2.0)
        m2 = measurement(q=500, k=1)
        d2 = ctrl.decide(m2, 2.0)
        e1 = 2.0 - m1.delay_estimate
        e2 = 2.0 - m2.delay_estimate
        gain = 0.97 * 190
        expected = gain * (0.4 * e2 - 0.31 * e1) + 0.8 * d1.u
        assert d2.u == pytest.approx(expected)

    def test_overloaded_queue_drives_shedding(self):
        """q far above target -> desired admissions below the service rate."""
        ctrl = PolePlacementController(model())
        m = measurement(q=2000)  # ŷ ≈ 10.9 s, way above 2 s
        d = ctrl.decide(m, 2.0)
        assert d.v < m.outflow_rate

    def test_underloaded_queue_admits_more(self):
        ctrl = PolePlacementController(model())
        d = ctrl.decide(measurement(q=0), 2.0)
        assert d.v > measurement().outflow_rate

    def test_gain_rescales_with_cost(self):
        """Time-varying c: doubled cost halves the H/(cT) gain."""
        c1 = PolePlacementController(model())
        c2 = PolePlacementController(model())
        d1 = c1.decide(measurement(q=0, cost=1 / 190), 2.0)
        d2 = c2.decide(measurement(q=0, cost=2 / 190), 2.0)
        # same error in *queue* units would give half the u; here error in
        # seconds also changes, so just check monotonicity of the gain
        assert d2.u < d1.u

    def test_negative_target_rejected(self):
        with pytest.raises(ControlError):
            PolePlacementController(model()).decide(measurement(), -1.0)

    def test_anti_windup_limits_state(self):
        """During deep saturation the wound-up state must stay bounded by
        what the actuator can realize."""
        plain = PolePlacementController(model())
        aw = PolePlacementController(model(), anti_windup=True)
        # sustained huge overload: v would go very negative, actuator
        # saturates at 0 admissions
        for k in range(20):
            m = measurement(q=20000, fin=200.0, k=k)
            plain.decide(m, 2.0)
            aw.decide(m, 2.0)
        # when the overload clears, the anti-windup controller recovers
        # admissions faster (its u state is less negative)
        m_clear = measurement(q=300, k=21)
        d_plain = plain.decide(m_clear, 2.0)
        d_aw = aw.decide(m_clear, 2.0)
        assert d_aw.u > d_plain.u


class TestBaseline:
    def test_targets_model_queue(self):
        ctrl = BaselineController(model())
        q_target = 2.0 * 0.97 * 190  # yd H / c
        d = ctrl.decide(measurement(q=0), 2.0)
        assert d.u == pytest.approx(q_target)
        assert d.v == pytest.approx(q_target + 0.97 * 190)

    def test_zero_error_at_target_queue(self):
        ctrl = BaselineController(model())
        q_target = int(2.0 * 0.97 * 190)
        d = ctrl.decide(measurement(q=q_target), 2.0)
        assert abs(d.u) < 1.0
        assert d.v == pytest.approx(0.97 * 190, abs=1.0)

    def test_cost_changes_rescale_target(self):
        ctrl = BaselineController(model())
        d1 = ctrl.decide(measurement(q=0, cost=1 / 190), 2.0)
        d2 = ctrl.decide(measurement(q=0, cost=2 / 190), 2.0)
        assert d2.u == pytest.approx(d1.u / 2)

    def test_negative_target_rejected(self):
        with pytest.raises(ControlError):
            BaselineController(model()).decide(measurement(), -0.1)


class TestAurora:
    def test_admits_capacity_regardless_of_state(self):
        """Open loop: q plays no role in the decision."""
        ctrl = AuroraOpenLoopController(model())
        d_empty = ctrl.decide(measurement(q=0), 2.0)
        d_full = ctrl.decide(measurement(q=50000), 2.0)
        assert d_empty.v == pytest.approx(d_full.v)
        assert d_empty.v == pytest.approx(0.97 * 190)

    def test_ignores_target(self):
        ctrl = AuroraOpenLoopController(model())
        assert ctrl.decide(measurement(), 1.0).v == \
            pytest.approx(ctrl.decide(measurement(), 5.0).v)

    def test_tracks_cost_estimate(self):
        ctrl = AuroraOpenLoopController(model())
        d = ctrl.decide(measurement(cost=2 / 190), 2.0)
        assert d.v == pytest.approx(0.97 * 190 / 2)

    def test_headroom_override(self):
        ctrl = AuroraOpenLoopController(model(), headroom_override=0.96)
        d = ctrl.decide(measurement(), 2.0)
        assert d.v == pytest.approx(0.96 * 190)

    def test_override_validation(self):
        with pytest.raises(ControlError):
            AuroraOpenLoopController(model(), headroom_override=1.5)

    def test_error_reported_as_zero(self):
        """Open loop has no error signal."""
        assert AuroraOpenLoopController(model()).decide(measurement(q=999), 2.0).error == 0.0
