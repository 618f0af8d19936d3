"""Scalar recursive least squares with exponential forgetting.

The one recursion behind both online estimators: the adaptive
controller's plant gain (:mod:`repro.core.adaptive`, ``Δŷ(k)`` on
``u(k-1)``) and the observability layer's service rate
(:mod:`repro.obs.sysid`, ``Δu - Δy`` on ``T``). Each keeps its own
*policy* — which samples to skip, whether to accept the update.
"""

from __future__ import annotations

from typing import Tuple


def rls_step(theta: float, p: float, phi: float, y: float,
             forgetting: float) -> Tuple[float, float]:
    """One update of ``y = theta * phi``; returns the new ``(theta, p)``.

    ``p`` is the scalar covariance, ``forgetting`` the factor ``λ`` in
    ``(0, 1]`` (memory ``1 / (1 - λ)`` samples). The operation order is
    fixed: flight-bundle replay compares results float-for-float.
    """
    gain = p * phi / (forgetting + phi * p * phi)
    theta = theta + gain * (y - theta * phi)
    p = (p - gain * phi * p) / forgetting
    return theta, p
