"""Unit tests for stability margins of the paper's design."""

import math

import pytest

from repro.control import TransferFunction
from repro.control.margins import stability_margins
from .test_transfer_function import paper_controller, paper_plant


class TestPaperDesignMargins:
    @pytest.fixture(scope="class")
    def margins(self):
        return stability_margins(paper_controller() * paper_plant())

    def test_gain_margin_covers_cost_estimation_error(self, margins):
        """The loop gain scales as 1/c-estimate: the gain margin is exactly
        how badly the cost statistics may undershoot before instability.
        The paper's design must tolerate at least a 2x error."""
        assert margins.gain_margin > 2.0

    def test_phase_margin_healthy(self, margins):
        """> 30 degrees is the classical rule of thumb; the 0.7/0.7 design
        should sit comfortably above it."""
        assert margins.phase_margin_deg > 30.0

    def test_modulus_margin_positive(self, margins):
        assert margins.modulus_margin > 0.3

    def test_crossovers_found(self, margins):
        assert margins.gain_crossover is not None
        assert 0.0 < margins.gain_crossover < math.pi


class TestMarginBehaviour:
    def test_faster_poles_erode_margins(self):
        """Placing poles closer to 0 demands more gain -> smaller margins
        (the paper's 'large control authority' warning, quantified)."""
        from repro.core import DsmsModel, design_gains
        model = DsmsModel(cost=1 / 190, headroom=0.97, period=1.0)
        slow = design_gains(poles=(0.8, 0.8), controller_pole=0.8)
        fast = design_gains(poles=(0.2, 0.2), controller_pole=0.8)
        m_slow = stability_margins(
            slow.transfer_function(model) * model.plant())
        m_fast = stability_margins(
            fast.transfer_function(model) * model.plant())
        assert m_fast.modulus_margin < m_slow.modulus_margin

    def test_pure_gain_loop_has_infinite_gain_margin(self):
        # L = 0.5/(z - 0.5): never reaches -180° with magnitude crossing
        loop = TransferFunction([0.5], [1.0, -0.5])
        m = stability_margins(loop)
        assert m.gain_margin == math.inf or m.gain_margin > 2.0

    def test_marginal_loop_detected(self):
        """A loop on the edge of instability has tiny margins."""
        # integrator with very high gain: nearly unstable closed loop
        loop = TransferFunction([1.9], [1.0, -1.0])
        m = stability_margins(loop)
        assert m.gain_margin < 1.2
        assert m.modulus_margin < 0.2

