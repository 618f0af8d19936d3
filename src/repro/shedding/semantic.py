"""Sliding-window quantile: the threshold semantic shedding drops below.

Besides statistical shedding that discards tuples randomly, the Aurora
work the paper builds on also explores *semantic* shedding that chooses
victim tuples based on a utility analysis (paper Section 2). When a
fraction ``alpha`` of the input must be shed,
:class:`~repro.core.actuator.SemanticEntryActuator` drops the tuples whose
utility falls below the running ``alpha``-quantile kept here, over a
sliding reservoir of recent scores so the threshold adapts to drifting
value distributions.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Optional

from ..errors import SheddingError


class StreamingQuantile:
    """Sliding-window quantile estimate over the last ``window`` samples."""

    def __init__(self, window: int = 512):
        if window < 8:
            raise SheddingError("quantile window must be at least 8")
        self._samples: Deque[float] = deque(maxlen=window)

    def add(self, value: float) -> None:
        self._samples.append(float(value))

    def quantile(self, q: float) -> Optional[float]:
        """The q-quantile of the window, or None before any data."""
        if not 0.0 <= q <= 1.0:
            raise SheddingError(f"quantile {q} outside [0, 1]")
        if not self._samples:
            return None
        ordered = sorted(self._samples)
        idx = min(len(ordered) - 1, int(q * len(ordered)))
        return ordered[idx]

    def __len__(self) -> int:
        return len(self._samples)
