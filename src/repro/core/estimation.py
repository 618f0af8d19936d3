"""Per-tuple cost estimators.

The monitor measures the realized CPU cost per departed tuple each period;
these estimators smooth that noisy measurement into the ``c(k)`` signal the
controller's ``H/(cT)`` gain and the BASELINE/AURORA formulas consume. The
Kalman filter is the stochastic extension the paper's conclusion proposes
("combining stochastic methods such as Kalman Filters with our controller
design").
"""

from __future__ import annotations

import abc
import math
from collections import deque
from typing import Deque, Optional

from ..errors import ControlError


class CostEstimator(abc.ABC):
    """Streaming estimator of the per-tuple cost c(k)."""

    def __init__(self, initial: float):
        if initial <= 0:
            raise ControlError("initial cost estimate must be positive")
        self._estimate = float(initial)

    @property
    def estimate(self) -> float:
        return self._estimate

    def update(self, measured: Optional[float]) -> float:
        """Fold in one measurement (None = no departures this period)."""
        if measured is not None:
            if measured <= 0 or not math.isfinite(measured):
                return self._estimate  # ignore degenerate measurements
            self._estimate = self._fold(float(measured))
        return self._estimate

    @abc.abstractmethod
    def _fold(self, measured: float) -> float:
        """Combine the current estimate with a valid measurement."""


class LastValueEstimator(CostEstimator):
    """c(k) := last measured value (the paper's c(k-1) convention)."""

    def _fold(self, measured: float) -> float:
        return measured


class EwmaEstimator(CostEstimator):
    """Exponentially weighted moving average with weight ``alpha`` on new data."""

    def __init__(self, initial: float, alpha: float = 0.4):
        super().__init__(initial)
        if not 0.0 < alpha <= 1.0:
            raise ControlError(f"alpha must be in (0, 1], got {alpha}")
        self.alpha = alpha

    def _fold(self, measured: float) -> float:
        return self.alpha * measured + (1.0 - self.alpha) * self._estimate


class WindowMedianEstimator(CostEstimator):
    """Median of the last ``window`` measurements (spike-robust)."""

    def __init__(self, initial: float, window: int = 5):
        super().__init__(initial)
        if window < 1:
            raise ControlError("window must be at least 1")
        self._values: Deque[float] = deque(maxlen=window)

    def _fold(self, measured: float) -> float:
        self._values.append(measured)
        ordered = sorted(self._values)
        n = len(ordered)
        mid = n // 2
        if n % 2:
            return ordered[mid]
        return 0.5 * (ordered[mid - 1] + ordered[mid])


class KalmanCostEstimator(CostEstimator):
    """Scalar Kalman filter over a random-walk cost model.

    State: ``c(k) = c(k-1) + w``, ``w ~ N(0, process_var)``;
    measurement: ``m(k) = c(k) + v``, ``v ~ N(0, measurement_var)``.
    Tracks slow drift (the paper's assumption that costs change more slowly
    than arrival rates) while averaging out per-period sampling noise.
    """

    def __init__(self, initial: float,
                 process_var: float = 1e-8,
                 measurement_var: float = 1e-6,
                 initial_var: float = 1e-4):
        super().__init__(initial)
        if process_var <= 0 or measurement_var <= 0 or initial_var <= 0:
            raise ControlError("Kalman variances must be positive")
        self.process_var = process_var
        self.measurement_var = measurement_var
        self.variance = initial_var

    def _fold(self, measured: float) -> float:
        # predict
        prior_var = self.variance + self.process_var
        # update
        gain = prior_var / (prior_var + self.measurement_var)
        estimate = self._estimate + gain * (measured - self._estimate)
        self.variance = (1.0 - gain) * prior_var
        return estimate
