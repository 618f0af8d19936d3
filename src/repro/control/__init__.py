"""Discrete-time control-theory toolkit.

This subpackage is the mathematical substrate for the paper's controller
design: z-domain polynomials and transfer functions, block-diagram algebra,
difference-equation simulation, stability/damping analysis, and generic
Diophantine pole placement. It is self-contained and reusable outside the
load-shedding context.
"""

from .analysis import (
    StepMetrics,
    closed_loop_poles,
    complementary_sensitivity,
    convergence_periods,
    disturbance_rejection_gain,
    dominant_pole,
    is_stable,
    pole_damping,
    pole_time_constant,
    sensitivity,
    spectral_radius,
    step_metrics,
)
from .design import (
    PolePlacementResult,
    desired_characteristic,
    place_poles,
    solve_diophantine,
    verify_unity_gain,
)
from .margins import StabilityMargins, bode_points, stability_margins
from .polynomial import Polynomial, as_polynomial
from .rls import rls_step
from .simulate import DifferenceEquation, impulse_response, simulate, step_response
from .transfer_function import TransferFunction, as_transfer_function

__all__ = [
    "DifferenceEquation",
    "PolePlacementResult",
    "Polynomial",
    "StabilityMargins",
    "StepMetrics",
    "TransferFunction",
    "as_polynomial",
    "as_transfer_function",
    "bode_points",
    "closed_loop_poles",
    "complementary_sensitivity",
    "convergence_periods",
    "desired_characteristic",
    "disturbance_rejection_gain",
    "dominant_pole",
    "impulse_response",
    "is_stable",
    "place_poles",
    "pole_damping",
    "pole_time_constant",
    "rls_step",
    "sensitivity",
    "simulate",
    "solve_diophantine",
    "spectral_radius",
    "stability_margins",
    "step_metrics",
    "step_response",
    "verify_unity_gain",
]
