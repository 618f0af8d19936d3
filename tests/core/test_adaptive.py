"""Unit tests for the adaptive-control extension."""

import pytest

from repro.core import AdaptiveController, DsmsModel, RlsGainEstimator
from repro.core.monitor import Measurement
from repro.errors import ControlError


def model(cost=1 / 190):
    return DsmsModel(cost=cost, headroom=0.97, period=1.0)


def measurement(q, cost=1 / 190, fout=184.0, k=0):
    m = model(cost)
    return Measurement(
        k=k, time=float(k), queue_length=q, cost=cost, measured_cost=cost,
        inflow_rate=200.0, outflow_rate=fout,
        delay_estimate=m.delay_estimate(q, cost),
        admitted=200, departed=int(fout), shed=0, departures=[],
    )


class TestRlsGainEstimator:
    def test_validation(self):
        with pytest.raises(ControlError):
            RlsGainEstimator(0.0)
        with pytest.raises(ControlError):
            RlsGainEstimator(1.0, forgetting=0.4)
        with pytest.raises(ControlError):
            RlsGainEstimator(1.0, initial_covariance=0.0)

    def test_learns_a_constant_gain(self):
        est = RlsGainEstimator(initial_gain=1.0, min_excitation=0.1)
        true_gain = 0.0054
        for u in (50, -30, 80, -60, 40, 90, -20, 70, -50, 30) * 5:
            est.update(float(u), true_gain * u)
        assert est.gain == pytest.approx(true_gain, rel=0.02)
        assert est.updates > 0

    def test_skips_low_excitation(self):
        est = RlsGainEstimator(initial_gain=1.0, min_excitation=10.0)
        est.update(0.5, 42.0)  # |u| below the excitation threshold
        assert est.gain == 1.0
        assert est.updates == 0

    def test_rejects_nonpositive_gain_updates(self):
        est = RlsGainEstimator(initial_gain=0.01, min_excitation=0.1)
        # a wildly inconsistent observation that would drive gain negative
        est.update(1.0, -100.0)
        assert est.gain > 0

    def test_forgetting_tracks_drift(self):
        est = RlsGainEstimator(initial_gain=0.005, forgetting=0.9,
                               min_excitation=0.1)
        for k in range(200):
            gain = 0.005 if k < 100 else 0.010
            u = 50.0 if k % 2 == 0 else -50.0
            est.update(u, gain * u)
        assert est.gain == pytest.approx(0.010, rel=0.05)


class TestAdaptiveController:
    def test_negative_target_rejected(self):
        with pytest.raises(ControlError):
            AdaptiveController(model()).decide(measurement(0), -1.0)

    def test_first_decision_uses_prior_gain(self):
        ctrl = AdaptiveController(model())
        d = ctrl.decide(measurement(0), 2.0)
        # identical to the fixed-gain controller's first step
        e = 2.0 - measurement(0).delay_estimate
        assert d.u == pytest.approx((1 / ctrl.model.gain) * 0.4 * e)

    def test_identifies_effective_loop_gain(self):
        """RLS learns the *effective* gain of the ŷ dynamics.

        The feedback signal is built from the same cost estimate the
        controller would use, so the informative deviation is actuator
        effectiveness: here the actuator only realizes 70% of each
        commanded queue change, and the identified gain must converge to
        0.7x the model prior.
        """
        ctrl = AdaptiveController(model(), min_excitation=1.0)
        nominal_gain = ctrl.model.gain
        effectiveness = 0.7
        q = 200.0
        ctrl.decide(measurement(int(q)), 2.0)
        for k in range(1, 200):
            q = max(0.0, q + effectiveness * ctrl._u_prev)
            ctrl.decide(measurement(int(q), k=k), 2.0)
        assert ctrl.estimator.updates > 10
        assert ctrl.estimator.gain == pytest.approx(
            effectiveness * nominal_gain, rel=0.25
        )
