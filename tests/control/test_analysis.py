"""Unit tests for stability/damping/step-metric analysis."""

import numpy as np
import pytest

from repro.control import (
    TransferFunction,
    convergence_periods,
    is_stable,
    pole_time_constant,
    step_metrics,
    step_response,
)
from repro.errors import ControlError
from .test_transfer_function import paper_controller, paper_plant


class TestStability:
    def test_stable_tf(self):
        assert is_stable(TransferFunction([1.0], [1.0, -0.5]))

    def test_integrator_is_marginally_unstable(self):
        assert not is_stable(TransferFunction.integrator(1.0))

    def test_unstable_pole(self):
        assert not is_stable(TransferFunction([1.0], [1.0, -1.5]))

    def test_gain_has_no_poles(self):
        assert is_stable(TransferFunction.gain(10.0))

    def test_paper_closed_loop_is_stable(self):
        closed = (paper_controller() * paper_plant()).feedback()
        assert is_stable(closed)
        assert np.abs(closed.poles()).max() == pytest.approx(0.7, abs=1e-3)


class TestPoleCharacteristics:
    def test_time_constant(self):
        # paper: pole at 0.7 ~ three-period convergence (e^{-1/3} ≈ 0.717)
        assert convergence_periods(0.7) == pytest.approx(2.8, abs=0.1)
        assert pole_time_constant(0.7, period=2.0) == pytest.approx(5.6, abs=0.2)
        assert pole_time_constant(1.0) == float("inf")
        assert pole_time_constant(0.0) == 0.0


class TestStepMetrics:
    def test_paper_design_nearly_monotone(self):
        # The closed-loop zero at -b1/b0 = 0.775 induces a tiny (<2%)
        # overshoot even though both poles are critically damped.
        closed = (paper_controller() * paper_plant()).feedback()
        m = step_metrics(step_response(closed, 40))
        assert m.overshoot_pct < 2.0
        assert m.steady_state_error < 1e-3
        # at least ~63% of target after 3 periods, ~98% after 12 (Appendix A;
        # the controller zero makes tracking slightly faster than pole decay)
        y = step_response(closed, 15)
        assert y[3] >= 0.63
        assert y[12] >= 0.98

    def test_overshoot_detected(self):
        # underdamped poles 0.5 ± 0.5j -> visible overshoot, dc gain 1
        tf = TransferFunction([0.5], [1.0, -1.0, 0.5])
        y = step_response(tf, 80)
        m = step_metrics(y)
        assert m.overshoot > 0.0
        assert m.oscillatory

    def test_empty_response_rejected(self):
        with pytest.raises(ControlError):
            step_metrics([])

    def test_settling_index(self):
        m = step_metrics([0.0, 0.5, 0.9, 1.0, 1.0, 1.0], reference=1.0)
        assert m.settling_index == 3


class TestLoopShaping:
    """Section 4.3.1's disturbance argument, from the transfer-function
    algebra: ``S = 1 / (1 + CG)`` and ``T = CG / (1 + CG)``."""

    @staticmethod
    def sensitivity():
        open_loop = paper_controller() * paper_plant()
        return TransferFunction(open_loop.den, open_loop.den + open_loop.num)

    def test_sensitivity_complements_tracking(self):
        """S + T = 1 at every frequency."""
        s = self.sensitivity()
        t = (paper_controller() * paper_plant()).feedback()
        for omega in (0.1, 0.5, 1.0, 2.0, 3.0):
            total = s.frequency_response(omega) + t.frequency_response(omega)
            assert total.real == pytest.approx(1.0, abs=1e-6)
            assert total.imag == pytest.approx(0.0, abs=1e-6)

    def test_integrator_rejects_dc_disturbances(self):
        """The plant integrator drives S(1) to zero: constant disturbances vanish."""
        assert abs(self.sensitivity().frequency_response(0.0)) \
            == pytest.approx(0.0, abs=1e-9)

    def test_closed_loop_poles_match_feedback(self):
        """Roots of D(z)A(z) + N(z)B(z) (Section 4.4.1): a double pole at
        0.7."""
        c, g = paper_controller(), paper_plant()
        poles = (c.den * g.den + c.num * g.num).roots()
        assert sorted(p.real for p in poles) == pytest.approx([0.7, 0.7], abs=1e-3)
