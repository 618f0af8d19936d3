"""Arrival-rate predictors (paper Section 6: "prediction strategies of
time series ... a promising direction").

The Eq. 13 actuator needs ``fin(k+1)`` and the paper simply reuses
``fin(k)`` (random-walk optimal; the loop's ``predictor=None``), which
systematically under-sheds on monotone ramps (the Fig. 8A failure it pins
on AURORA also contaminates the closed loop's actuation, though feedback
corrects it a period later). These predictors plug into
:class:`~repro.core.loop.ControlLoop` to sharpen the estimate:

* :class:`MovingAveragePredictor` — smooths heavy-tailed noise;
* :class:`HoltPredictor` — double exponential smoothing with a trend term,
  the right tool for ramps;
* :class:`Ar1Predictor` — online least-squares AR(1) around the running
  mean, the right tool for mean-reverting bursts.
"""

from __future__ import annotations

import abc
from collections import deque
from typing import Deque

from ..errors import ControlError


class ArrivalPredictor(abc.ABC):
    """One-step-ahead predictor of per-period arrival counts."""

    @abc.abstractmethod
    def update(self, observed: float) -> None:
        """Fold in the count observed for the period that just ended."""

    @abc.abstractmethod
    def predict(self) -> float:
        """Forecast the next period's count (never negative)."""


class MovingAveragePredictor(ArrivalPredictor):
    """Mean of the last ``window`` observations."""

    def __init__(self, window: int = 5):
        if window < 1:
            raise ControlError("window must be at least 1")
        self._values: Deque[float] = deque(maxlen=window)

    def update(self, observed: float) -> None:
        self._values.append(max(0.0, float(observed)))

    def predict(self) -> float:
        if not self._values:
            return 0.0
        return sum(self._values) / len(self._values)


class HoltPredictor(ArrivalPredictor):
    """Holt's linear (double exponential) smoothing: level + trend.

    ``level_alpha`` weights new observations into the level; ``trend_beta``
    weights level changes into the trend. On a steady ramp the one-step
    forecast is unbiased, which is exactly what last-value is not.
    """

    def __init__(self, level_alpha: float = 0.5, trend_beta: float = 0.3):
        if not 0.0 < level_alpha <= 1.0:
            raise ControlError(f"level_alpha {level_alpha} outside (0, 1]")
        if not 0.0 <= trend_beta <= 1.0:
            raise ControlError(f"trend_beta {trend_beta} outside [0, 1]")
        self.level_alpha = level_alpha
        self.trend_beta = trend_beta
        self._level = 0.0
        self._trend = 0.0
        self._seen = 0

    def update(self, observed: float) -> None:
        observed = max(0.0, float(observed))
        if self._seen == 0:
            self._level = observed
            self._trend = 0.0
        else:
            prev_level = self._level
            self._level = (self.level_alpha * observed
                           + (1.0 - self.level_alpha) * (self._level + self._trend))
            self._trend = (self.trend_beta * (self._level - prev_level)
                           + (1.0 - self.trend_beta) * self._trend)
        self._seen += 1

    def predict(self) -> float:
        return max(0.0, self._level + self._trend)


class Ar1Predictor(ArrivalPredictor):
    """Online AR(1) around a slowly-adapting mean.

    Model: ``x(k+1) - mu = phi (x(k) - mu) + noise``; ``phi`` is estimated
    by exponentially-weighted least squares. Mean-reverting bursts
    (phi < 1) are forecast back toward the mean instead of being assumed
    to persist.
    """

    def __init__(self, mean_alpha: float = 0.02, forgetting: float = 0.97):
        if not 0.0 < mean_alpha <= 1.0:
            raise ControlError(f"mean_alpha {mean_alpha} outside (0, 1]")
        if not 0.5 < forgetting <= 1.0:
            raise ControlError(f"forgetting {forgetting} outside (0.5, 1]")
        self.mean_alpha = mean_alpha
        self.forgetting = forgetting
        self._mean = 0.0
        self._last: float = 0.0
        self._sxx = 1e-6
        self._sxy = 0.0
        self._seen = 0

    @property
    def phi(self) -> float:
        return max(-0.99, min(0.99, self._sxy / self._sxx))

    def update(self, observed: float) -> None:
        observed = max(0.0, float(observed))
        if self._seen == 0:
            self._mean = observed
        else:
            x = self._last - self._mean
            y = observed - self._mean
            self._sxx = self.forgetting * self._sxx + x * x
            self._sxy = self.forgetting * self._sxy + x * y
            self._mean += self.mean_alpha * (observed - self._mean)
        self._last = observed
        self._seen += 1

    def predict(self) -> float:
        if self._seen == 0:
            return 0.0
        return max(0.0, self._mean + self.phi * (self._last - self._mean))
