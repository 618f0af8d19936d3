"""Discrete-time control-theory toolkit.

This subpackage is the mathematical substrate for the paper's controller
design: z-domain polynomials and transfer functions, block-diagram algebra,
difference-equation simulation, and stability, convergence and margin
analysis. It is self-contained and reusable outside the load-shedding context.
"""

from .analysis import (
    StepMetrics,
    convergence_periods,
    is_stable,
    pole_time_constant,
    step_metrics,
)
from .margins import StabilityMargins, stability_margins
from .polynomial import Polynomial, as_polynomial
from .rls import rls_step
from .simulate import DifferenceEquation, simulate, step_response
from .transfer_function import TransferFunction, as_transfer_function

__all__ = [
    "DifferenceEquation",
    "Polynomial",
    "StabilityMargins",
    "StepMetrics",
    "TransferFunction",
    "as_polynomial",
    "as_transfer_function",
    "convergence_periods",
    "is_stable",
    "pole_time_constant",
    "rls_step",
    "simulate",
    "stability_margins",
    "step_metrics",
    "step_response",
]
