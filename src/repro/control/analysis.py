"""Closed-loop analysis helpers: stability, convergence, step metrics.

These implement the textbook facts the paper leans on in Section 4.4.1:

* a discrete system is stable iff every pole lies strictly inside the unit
  circle;
* a real pole in (0, 1) gives a non-oscillatory response; poles outside the
  unit circle give instability;
* the *convergence rate* of a discrete pole follows from mapping it back
  to the s-plane via ``z = exp(sT)``.

The paper chooses both closed-loop poles at 0.7, i.e. damping 1 (critically
damped) and a time constant of about three control periods (``e^{-1/3}`` is
approximately 0.7; the system reaches ~63% of a setpoint change in three
periods and ~98% in twelve).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..errors import ControlError
from .transfer_function import TransferFunction


def is_stable(tf: TransferFunction, tol: float = 1e-9) -> bool:
    """True when all poles are strictly inside the unit circle."""
    poles = tf.poles()
    if poles.size == 0:
        return True
    return bool(np.all(np.abs(poles) < 1.0 - tol))


def pole_time_constant(pole: complex, period: float = 1.0) -> float:
    """Time constant (in seconds) of a discrete pole: ``-T / ln|z|``."""
    r = abs(pole)
    if r >= 1.0:
        return float("inf")
    if r == 0.0:
        return 0.0
    return -period / math.log(r)


def convergence_periods(pole: complex) -> float:
    """Number of periods to decay to ``1/e`` (paper: 3 periods for z=0.7)."""
    return pole_time_constant(pole, period=1.0)


@dataclass(frozen=True)
class StepMetrics:
    """Quantities extracted from a step response sequence."""

    final_value: float
    overshoot: float          # peak excess over final value, in absolute units
    overshoot_pct: float      # as a percentage of the final value
    peak_index: int
    settling_index: int       # first index after which |y - final| <= band
    steady_state_error: float  # |reference - final value|
    oscillatory: bool         # did the response cross the final value > once?


def step_metrics(response: Sequence[float], reference: float = 1.0,
                 settle_band: float = 0.02) -> StepMetrics:
    """Summarize a step response against a reference value.

    ``settle_band`` is the fraction of ``reference`` used for the settling
    criterion (2% by default).
    """
    if not response:
        raise ControlError("empty step response")
    y = np.asarray(response, dtype=float)
    final = float(y[-1])
    peak_index = int(np.argmax(y)) if final >= 0 else int(np.argmin(y))
    peak = float(y[peak_index])
    overshoot = max(0.0, (peak - final) if final >= 0 else (final - peak))
    overshoot_pct = 100.0 * overshoot / abs(final) if final != 0 else math.inf

    band = abs(settle_band * (reference if reference != 0 else 1.0))
    settled = np.abs(y - final) <= band
    settling_index = len(y)
    for i in range(len(y)):
        if settled[i:].all():
            settling_index = i
            break

    crossings = 0
    above = y[0] > final
    for value in y[1:]:
        now_above = value > final
        if now_above != above and abs(value - final) > 1e-12:
            crossings += 1
            above = now_above
    return StepMetrics(
        final_value=final,
        overshoot=overshoot,
        overshoot_pct=overshoot_pct,
        peak_index=peak_index,
        settling_index=settling_index,
        steady_state_error=abs(reference - final),
        oscillatory=crossings > 1,
    )
