"""Unit tests for arrival-rate predictors."""

import random

import pytest
from hypothesis import given, strategies as st

from repro.core import Ar1Predictor, HoltPredictor, MovingAveragePredictor
from repro.errors import ControlError

ALL = (MovingAveragePredictor, HoltPredictor, Ar1Predictor)


class TestCommon:
    @pytest.mark.parametrize("cls", ALL)
    def test_initial_prediction_is_zero(self, cls):
        assert cls().predict() == 0.0

    @pytest.mark.parametrize("cls", ALL)
    def test_never_negative(self, cls):
        p = cls()
        for v in (100.0, 0.0, 300.0, 0.0, 0.0, 0.0):
            p.update(v)
            assert p.predict() >= 0.0

    @pytest.mark.parametrize("cls", ALL)
    def test_constant_signal_predicted_exactly(self, cls):
        p = cls()
        for __ in range(50):
            p.update(200.0)
        assert p.predict() == pytest.approx(200.0, rel=0.02)

    @pytest.mark.parametrize("cls", ALL)
    def test_negative_observation_clamped(self, cls):
        p = cls()
        p.update(-10.0)
        assert p.predict() >= 0.0


class TestMovingAverage:
    def test_window_validation(self):
        with pytest.raises(ControlError):
            MovingAveragePredictor(window=0)

    def test_window_mean(self):
        p = MovingAveragePredictor(window=3)
        for v in (10.0, 20.0, 30.0, 40.0):
            p.update(v)
        assert p.predict() == pytest.approx(30.0)


class TestHolt:
    def test_parameter_validation(self):
        with pytest.raises(ControlError):
            HoltPredictor(level_alpha=0.0)
        with pytest.raises(ControlError):
            HoltPredictor(trend_beta=1.5)

    def test_unbiased_on_a_ramp(self):
        """The Fig. 8A scenario: the paper's fin(k+1) := fin(k) lags a ramp;
        Holt does not."""
        holt = HoltPredictor()
        last = 0.0
        for k in range(100):
            last = 100.0 + 5.0 * k
            holt.update(last)
        next_true = 100.0 + 5.0 * 100
        assert abs(holt.predict() - next_true) < abs(last - next_true)
        assert holt.predict() == pytest.approx(next_true, rel=0.02)


class TestAr1:
    def test_parameter_validation(self):
        with pytest.raises(ControlError):
            Ar1Predictor(mean_alpha=0.0)
        with pytest.raises(ControlError):
            Ar1Predictor(forgetting=0.4)

    def test_learns_mean_reversion(self):
        """An alternating burst process has negative phi; the predictor
        should forecast a high period to be followed by a lower one."""
        p = Ar1Predictor(mean_alpha=0.05)
        rng = random.Random(0)
        for k in range(300):
            p.update(300.0 if k % 2 == 0 else 100.0)
        assert p.phi < 0.0
        p.update(300.0)
        assert p.predict() < 250.0

    def test_phi_clamped(self):
        p = Ar1Predictor()
        for k in range(50):
            p.update(float(k * 100))  # strongly trending
        assert -0.99 <= p.phi <= 0.99


@given(st.lists(st.floats(min_value=0, max_value=1000), min_size=1,
                max_size=60))
def test_predictions_bounded_by_observation_range(values):
    """MA prediction never leaves the observed envelope."""
    p = MovingAveragePredictor(window=8)
    for v in values:
        p.update(v)
    assert min(values) - 1e-9 <= p.predict() <= max(values) + 1e-9
