"""Unit tests for transfer-function block algebra."""

import numpy as np
import pytest

from repro.control import Polynomial, TransferFunction, as_transfer_function
from repro.errors import ControlError


def paper_plant(c=0.00526, T=1.0, H=0.97):
    """The paper's Eq. 4 plant: G(z) = cT / (H (z - 1))."""
    return TransferFunction.integrator(c * T / H)


def paper_controller(c=0.00526, T=1.0, H=0.97, b0=0.4, b1=-0.31, a=-0.8):
    """The paper's Eq. 15 controller with its published parameters."""
    k = H / (c * T)
    return TransferFunction(Polynomial([k * b0, k * b1]), Polynomial([1.0, a]))


class TestConstruction:
    def test_zero_denominator_rejected(self):
        with pytest.raises(ControlError):
            TransferFunction([1.0], [0.0])

    def test_gain_block(self):
        g = TransferFunction.gain(2.5)
        assert g.dc_gain() == pytest.approx(2.5)
        assert g.poles().size == 0

    def test_delay_block(self):
        d = TransferFunction.delay(2)
        assert d.evaluate(2.0) == pytest.approx(0.25)
        with pytest.raises(ControlError):
            TransferFunction.delay(-1)

    def test_integrator_pole_at_one(self):
        g = TransferFunction.integrator(0.5)
        assert g.poles().real.tolist() == pytest.approx([1.0])
        assert g.dc_gain() == float("inf")

    def test_coerce_from_lists(self):
        tf = TransferFunction([1.0, 0.0], [1.0, -0.5])
        assert tf.num == Polynomial([1.0, 0.0])


class TestAlgebra:
    def test_series_connection(self):
        g1 = TransferFunction.gain(2.0)
        g2 = TransferFunction.integrator(3.0)
        series = g1 * g2
        assert series.evaluate(2.0) == pytest.approx(6.0)

    def test_parallel_connection(self):
        s = TransferFunction.gain(1.0) + TransferFunction.gain(2.0)
        assert s.dc_gain() == pytest.approx(3.0)

    def test_subtraction_and_negation(self):
        g = TransferFunction.gain(2.0)
        assert (g - g).evaluate(2.0) == pytest.approx(0.0)
        assert (-g).dc_gain() == pytest.approx(-2.0)

    def test_division(self):
        g = TransferFunction.integrator(2.0)
        one = g / g
        assert one.evaluate(3.0) == pytest.approx(1.0)
        with pytest.raises(ZeroDivisionError):
            g / TransferFunction.gain(0.0)

    def test_unity_feedback_closed_loop_poles(self):
        # C*G with the paper's numbers must have both poles at 0.7 (Eq. 16/17)
        closed = (paper_controller() * paper_plant()).feedback()
        poles = sorted(closed.poles().real.tolist())
        assert poles == pytest.approx([0.7, 0.7], abs=1e-3)

    def test_feedback_static_gain_is_unity(self):
        # Eq. 19: zero steady-state error
        closed = (paper_controller() * paper_plant()).feedback()
        assert closed.dc_gain() == pytest.approx(1.0, abs=1e-6)

    def test_nonunity_feedback(self):
        g = TransferFunction.gain(4.0)
        h = TransferFunction.gain(0.5)
        closed = g.feedback(h)
        assert closed.dc_gain() == pytest.approx(4.0 / 3.0)


class TestQueries:
    def test_frequency_response_at_dc(self):
        g = TransferFunction([1.0], [1.0, -0.5])
        assert g.frequency_response(0.0) == pytest.approx(g.dc_gain())

    def test_evaluate_at_pole_raises(self):
        g = TransferFunction.integrator(1.0)
        with pytest.raises(ZeroDivisionError):
            g.evaluate(1.0)

    def test_properness(self):
        assert TransferFunction([1.0, 0.0], [1.0, -0.5]).is_proper
        assert not TransferFunction([1.0, 0.0, 0.0], [1.0, -0.5]).is_proper

    def test_almost_equal_ignores_scaling(self):
        a = TransferFunction([2.0], [2.0, -1.0])
        b = TransferFunction([1.0], [1.0, -0.5])
        assert a.almost_equal(b)

    def test_coercion_errors(self):
        with pytest.raises(ControlError):
            as_transfer_function("nope")
