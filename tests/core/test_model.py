"""Unit tests for the DSMS dynamic model (Eq. 2/4/11)."""

import pytest
from hypothesis import given, strategies as st

from repro.core import DsmsModel
from repro.errors import ControlError


def paper_model():
    return DsmsModel(cost=1 / 190, headroom=0.97, period=1.0)


class TestValidation:
    def test_positive_cost_required(self):
        with pytest.raises(ControlError):
            DsmsModel(cost=0.0, headroom=0.97, period=1.0)

    def test_headroom_range(self):
        with pytest.raises(ControlError):
            DsmsModel(cost=0.005, headroom=0.0, period=1.0)
        with pytest.raises(ControlError):
            DsmsModel(cost=0.005, headroom=1.2, period=1.0)

    def test_positive_period_required(self):
        with pytest.raises(ControlError):
            DsmsModel(cost=0.005, headroom=0.97, period=0.0)


class TestEq11:
    def test_empty_queue_delay_is_one_service_time(self):
        m = paper_model()
        assert m.delay_estimate(0) == pytest.approx((1 / 190) / 0.97)

    def test_delay_scales_linearly_with_queue(self):
        m = paper_model()
        y1 = m.delay_estimate(100)
        y2 = m.delay_estimate(200)
        assert (y2 - y1) == pytest.approx(100 * (1 / 190) / 0.97)

    def test_cost_override(self):
        m = paper_model()
        assert m.delay_estimate(10, cost=0.01) == pytest.approx(11 * 0.01 / 0.97)

    def test_negative_queue_rejected(self):
        with pytest.raises(ControlError):
            paper_model().delay_estimate(-1)

    def test_paper_operating_point(self):
        """yd = 2 s at c = 5.26 ms, H = 0.97 -> ~368 outstanding tuples."""
        m = paper_model()
        assert m.delay_estimate(2.0 * 0.97 * 190 - 1) == pytest.approx(2.0)


class TestPlant:
    def test_service_rate_is_l0(self):
        m = paper_model()
        assert m.service_rate() == pytest.approx(0.97 * 190)

    def test_gain(self):
        m = paper_model()
        assert m.gain == pytest.approx((1 / 190) * 1.0 / 0.97)

    def test_plant_is_integrator(self):
        g = paper_model().plant()
        assert g.poles().real.tolist() == pytest.approx([1.0])


@given(q=st.integers(min_value=0, max_value=100_000),
       c=st.floats(min_value=1e-5, max_value=0.1),
       h=st.floats(min_value=0.1, max_value=1.0))
def test_delay_estimate_roundtrip_property(q, c, h):
    m = DsmsModel(cost=c, headroom=h, period=1.0)
    assert m.delay_estimate(q) * h / c - 1.0 == pytest.approx(q, rel=1e-9,
                                                              abs=1e-6)
