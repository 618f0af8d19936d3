"""Adaptive control extension (paper Section 6, "immediate follow-up work").

The paper proposes using adaptive control to capture internal variations of
the system model (fast-changing per-tuple cost). The plant is a pure
integrator ``Δŷ(k) = g · u(k-1)`` with unknown gain ``g = c T / H``, so the
gain can be identified online by recursive least squares (RLS) with a
forgetting factor — no cost measurement needed — and the Eq. 10 control law
re-derived each period with ``1/ĝ`` in place of ``H/(cT)``.

When the loop lacks excitation (``u ≈ 0``: steady state), the RLS update is
skipped and the estimate coasts, falling back to the measurement-based cost
estimate, which keeps the adaptation well-posed.
"""

from __future__ import annotations

from typing import Optional

from ..control.rls import rls_step
from ..errors import ControlError
from .controller import ControlDecision, Controller
from .model import DsmsModel
from .monitor import Measurement
from .pole_placement import ControllerGains, design_gains


class RlsGainEstimator:
    """Scalar recursive least squares with exponential forgetting."""

    def __init__(self, initial_gain: float,
                 forgetting: float = 0.98,
                 initial_covariance: float = 1.0,
                 min_excitation: float = 1.0):
        if initial_gain <= 0:
            raise ControlError("initial gain must be positive")
        if not 0.5 < forgetting <= 1.0:
            raise ControlError(f"forgetting factor {forgetting} outside (0.5, 1]")
        if initial_covariance <= 0:
            raise ControlError("initial covariance must be positive")
        self.gain = float(initial_gain)
        self.forgetting = forgetting
        self.covariance = float(initial_covariance)
        self.min_excitation = min_excitation
        self.updates = 0

    def update(self, regressor: float, observation: float) -> float:
        """Fold in one (u(k-1), Δŷ(k)) pair; returns the gain estimate."""
        if abs(regressor) < self.min_excitation:
            return self.gain  # not enough excitation to learn from
        gain, covariance = rls_step(self.gain, self.covariance, regressor,
                                    observation, self.forgetting)
        if gain > 0:  # a non-positive plant gain is unphysical: coast
            self.gain = gain
            self.covariance = covariance
            self.updates += 1
        return self.gain


class AdaptiveController(Controller):
    """Pole-placement law with an online-identified plant gain."""

    name = "ADAPTIVE"

    def __init__(self, model: DsmsModel,
                 gains: Optional[ControllerGains] = None,
                 min_excitation: float = 1.0):
        super().__init__(model)
        self.gains = gains or design_gains()
        self.estimator = RlsGainEstimator(
            initial_gain=model.gain,
            min_excitation=min_excitation,
        )
        self._e_prev = 0.0
        self._u_prev = 0.0
        self._y_prev: Optional[float] = None

    def decide(self, m: Measurement, target: float) -> ControlDecision:
        if target < 0:
            raise ControlError(f"negative delay target {target}")
        # identification step: Δŷ(k) = g * u(k-1)
        if self._y_prev is not None:
            self.estimator.update(self._u_prev, m.delay_estimate - self._y_prev)
        self._y_prev = m.delay_estimate
        e = target - m.delay_estimate
        inv_gain = 1.0 / self.estimator.gain   # replaces H/(cT)
        u = (inv_gain * (self.gains.b0 * e + self.gains.b1 * self._e_prev)
             - self.gains.a * self._u_prev)
        v = u + m.outflow_rate
        self._e_prev = e
        self._u_prev = u
        return ControlDecision(v=v, u=u, error=e)
