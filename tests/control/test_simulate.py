"""Unit tests for difference-equation simulation."""

import math

import pytest
from hypothesis import given, strategies as st

from repro.control import (
    DifferenceEquation,
    TransferFunction,
    simulate,
    step_response,
)
from repro.errors import ControlError


class TestDifferenceEquation:
    def test_improper_tf_rejected(self):
        improper = TransferFunction([1.0, 0.0, 0.0], [1.0, -0.5])
        with pytest.raises(ControlError):
            DifferenceEquation(improper)

    def test_static_gain_passthrough(self):
        eq = DifferenceEquation(TransferFunction.gain(3.0))
        assert eq.step(2.0) == pytest.approx(6.0)

    def test_pure_delay(self):
        eq = DifferenceEquation(TransferFunction.delay(1))
        assert eq.step(5.0) == pytest.approx(0.0)
        assert eq.step(0.0) == pytest.approx(5.0)

    def test_integrator_accumulates(self):
        eq = DifferenceEquation(TransferFunction.integrator(1.0))
        outputs = [eq.step(1.0) for _ in range(5)]
        # y(k) = y(k-1) + u(k-1): 0,1,2,3,4
        assert outputs == pytest.approx([0.0, 1.0, 2.0, 3.0, 4.0])

    def test_first_order_lag_converges_to_dc_gain(self):
        tf = TransferFunction([0.5], [1.0, -0.5])  # dc gain 1
        y = step_response(tf, 60)
        assert y[-1] == pytest.approx(tf.dc_gain(), abs=1e-6)


class TestResponses:
    def test_step_response_length(self):
        tf = TransferFunction([1.0], [1.0, -0.5])
        assert len(step_response(tf, 10)) == 10
        with pytest.raises(ControlError):
            step_response(tf, -1)

    def test_simulate_linearity(self):
        tf = TransferFunction([1.0, 0.3], [1.0, -0.8, 0.1])
        u = [1.0, -2.0, 0.5, 3.0, 0.0, 1.0]
        y1 = simulate(tf, u)
        y2 = simulate(tf, [2 * x for x in u])
        assert y2 == pytest.approx([2 * v for v in y1])

    def test_simulate_superposition(self):
        tf = TransferFunction([1.0, 0.3], [1.0, -0.8, 0.1])
        u1 = [1.0, 0.0, 2.0, -1.0]
        u2 = [0.5, 1.5, -0.5, 0.0]
        ya = simulate(tf, [a + b for a, b in zip(u1, u2)])
        yb = [a + b for a, b in zip(simulate(tf, u1), simulate(tf, u2))]
        assert ya == pytest.approx(yb)


@given(st.floats(min_value=-0.95, max_value=0.95),
       st.floats(min_value=-5, max_value=5))
def test_first_order_step_matches_closed_form(pole, gain):
    """y(k) for g/(z-p) under a unit step has closed form g (1-p^k)/(1-p)."""
    tf = TransferFunction([gain], [1.0, -pole])
    y = simulate(tf, [1.0] * 20)
    for k in range(20):
        expected = gain * (1 - pole ** k) / (1 - pole) if pole != 1 else gain * k
        assert math.isclose(y[k], expected, rel_tol=1e-9, abs_tol=1e-9)

