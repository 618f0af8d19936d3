"""Unit tests for cost estimators."""

import math
import random

import pytest
from hypothesis import given, strategies as st

from repro.core import (
    EwmaEstimator,
    KalmanCostEstimator,
    LastValueEstimator,
    WindowMedianEstimator,
)
from repro.errors import ControlError


class TestCommonBehaviour:
    @pytest.mark.parametrize("cls", [
        LastValueEstimator,
        EwmaEstimator,
        WindowMedianEstimator,
        KalmanCostEstimator,
    ])
    def test_initial_must_be_positive(self, cls):
        with pytest.raises(ControlError):
            cls(0.0)

    @pytest.mark.parametrize("cls", [
        LastValueEstimator,
        EwmaEstimator,
        WindowMedianEstimator,
        KalmanCostEstimator,
    ])
    def test_none_measurement_coasts(self, cls):
        est = cls(0.005)
        assert est.update(None) == 0.005
        assert est.estimate == 0.005

    @pytest.mark.parametrize("cls", [
        LastValueEstimator,
        EwmaEstimator,
        WindowMedianEstimator,
        KalmanCostEstimator,
    ])
    def test_degenerate_measurements_ignored(self, cls):
        est = cls(0.005)
        est.update(-1.0)
        est.update(0.0)
        est.update(float("nan"))
        est.update(float("inf"))
        assert est.estimate == 0.005

    @pytest.mark.parametrize("cls", [
        LastValueEstimator,
        EwmaEstimator,
        WindowMedianEstimator,
        KalmanCostEstimator,
    ])
    def test_converges_to_constant_signal(self, cls):
        est = cls(0.005)
        for _ in range(500):
            est.update(0.010)
        assert est.estimate == pytest.approx(0.010, rel=0.01)


class TestLastValue:
    def test_tracks_immediately(self):
        est = LastValueEstimator(0.005)
        assert est.update(0.02) == 0.02


class TestEwma:
    def test_alpha_validation(self):
        with pytest.raises(ControlError):
            EwmaEstimator(0.005, alpha=0.0)
        with pytest.raises(ControlError):
            EwmaEstimator(0.005, alpha=1.5)

    def test_single_step_blend(self):
        est = EwmaEstimator(0.010, alpha=0.25)
        assert est.update(0.020) == pytest.approx(0.25 * 0.020 + 0.75 * 0.010)

    def test_alpha_one_is_last_value(self):
        est = EwmaEstimator(0.005, alpha=1.0)
        assert est.update(0.123) == pytest.approx(0.123)

    def test_smooths_noise(self):
        rng = random.Random(0)
        est = EwmaEstimator(0.005, alpha=0.1)
        values = []
        for _ in range(300):
            values.append(est.update(0.005 * (1 + rng.uniform(-0.5, 0.5))))
        tail = values[100:]
        spread = max(tail) - min(tail)
        assert spread < 0.005 * 0.5  # much tighter than the raw ±50%


class TestWindowMedian:
    def test_window_validation(self):
        with pytest.raises(ControlError):
            WindowMedianEstimator(0.005, window=0)

    def test_median_of_odd_window(self):
        est = WindowMedianEstimator(0.005, window=3)
        est.update(0.001)
        est.update(0.010)
        assert est.update(0.002) == pytest.approx(0.002)

    def test_median_of_even_count(self):
        est = WindowMedianEstimator(0.005, window=4)
        est.update(0.002)
        assert est.update(0.004) == pytest.approx(0.003)

    def test_spike_rejection(self):
        est = WindowMedianEstimator(0.005, window=5)
        for _ in range(5):
            est.update(0.005)
        est.update(1.0)  # one wild outlier
        assert est.estimate == pytest.approx(0.005)


class TestKalman:
    def test_variance_validation(self):
        with pytest.raises(ControlError):
            KalmanCostEstimator(0.005, process_var=0.0)
        with pytest.raises(ControlError):
            KalmanCostEstimator(0.005, measurement_var=-1.0)
        with pytest.raises(ControlError):
            KalmanCostEstimator(0.005, initial_var=0.0)

    def test_variance_shrinks_with_data(self):
        est = KalmanCostEstimator(0.005)
        v0 = est.variance
        for _ in range(50):
            est.update(0.005)
        assert est.variance < v0

    def test_gain_between_zero_and_one(self):
        est = KalmanCostEstimator(0.005)
        for _ in range(20):
            prior = est.estimate
            gain = (est.update(0.006) - prior) / (0.006 - prior)
            assert 0.0 < gain < 1.0

    def test_tracks_slow_drift(self):
        est = KalmanCostEstimator(0.005, process_var=1e-7,
                                  measurement_var=1e-6)
        target = 0.005
        for k in range(400):
            target = 0.005 * (1 + k / 400)  # slow doubling
            est.update(target)
        assert est.estimate == pytest.approx(target, rel=0.05)

    def test_more_noise_rejection_than_last_value(self):
        rng = random.Random(1)
        kalman = KalmanCostEstimator(0.005, process_var=1e-9,
                                     measurement_var=1e-5)
        errors_k, errors_lv = [], []
        lv = LastValueEstimator(0.005)
        for _ in range(300):
            noisy = 0.005 + rng.gauss(0, 0.002)
            errors_k.append(abs(kalman.update(noisy) - 0.005))
            errors_lv.append(abs(lv.update(noisy) - 0.005))
        assert sum(errors_k) < 0.5 * sum(errors_lv)


@given(st.lists(st.floats(min_value=1e-5, max_value=1.0), min_size=1,
                max_size=100))
def test_ewma_stays_within_observed_range(values):
    est = EwmaEstimator(values[0], alpha=0.3)
    for v in values:
        est.update(v)
    assert min(values) - 1e-12 <= est.estimate <= max(values) + 1e-12
