"""Time-varying per-tuple cost traces (paper Fig. 14).

The paper simulates variations of the per-tuple cost ``c`` by generating a
Pareto-distributed base trace and then adding "circumstances": a small peak
at the 50th second, a large peak with a sudden jump starting at the 125th
second, and a high terrace with a sudden drop between the 250th and 350th
second. :func:`fig14_cost_trace` reproduces exactly that shape;
:func:`Circumstance`-based composition lets callers build their own.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import List, Optional, Sequence

from ..errors import WorkloadError
from .trace import CostTrace


@dataclass(frozen=True)
class Circumstance:
    """One shaped disturbance added onto a base cost trace.

    ``kind``:

    * ``"peak"`` — symmetric smooth bump (gradual rise and fall),
    * ``"jump_peak"`` — instantaneous jump to the top, gradual decay,
    * ``"terrace"`` — gradual rise to a plateau, instantaneous drop at the
      end (the paper's "high terrace with a sudden drop").
    """

    kind: str
    start: float          # seconds
    duration: float       # seconds
    height: float         # added cost (seconds/tuple) at the top

    def profile(self, t: float) -> float:
        """Added cost at absolute time ``t``."""
        x = (t - self.start) / self.duration
        if x < 0.0 or x > 1.0:
            return 0.0
        if self.kind == "peak":
            return self.height * 0.5 * (1.0 - math.cos(2.0 * math.pi * x))
        if self.kind == "jump_peak":
            return self.height * (1.0 - x) ** 2
        if self.kind == "terrace":
            ramp = min(1.0, x / 0.3)  # reach the plateau in the first 30%
            return self.height * ramp
        raise WorkloadError(f"unknown circumstance kind {self.kind!r}")


def cost_trace(n_periods: int,
               base_cost: float,
               circumstances: Sequence[Circumstance] = (),
               jitter_beta: Optional[float] = 3.0,
               jitter_scale: float = 0.05,
               period: float = 1.0,
               seed: Optional[int] = None) -> CostTrace:
    """Base cost + Pareto jitter + shaped circumstances.

    ``jitter_beta`` controls the Pareto shape of the multiplicative noise
    (None disables it); ``jitter_scale`` is the noise magnitude relative to
    ``base_cost``.
    """
    if base_cost <= 0:
        raise WorkloadError("base cost must be positive")
    if n_periods < 1:
        raise WorkloadError("need at least one period")
    rng = random.Random(seed)
    values: List[float] = []
    for k in range(n_periods):
        t = (k + 0.5) * period
        value = base_cost
        if jitter_beta is not None:
            u = max(rng.random(), 1e-12)
            noise = (u ** (-1.0 / jitter_beta) - 1.0)  # >= 0, long-tailed
            value += base_cost * jitter_scale * min(noise, 5.0)
        for circ in circumstances:
            value += circ.profile(t)
        values.append(value)
    return CostTrace(values, period)


def fig14_circumstances(base_cost: float) -> List[Circumstance]:
    """The paper's three Fig. 14 circumstances, scaled to ``base_cost``.

    Heights reproduce the figure: the small peak roughly doubles the ~5 ms
    base, the jump peak reaches ~25 ms, the terrace holds ~10 ms.
    """
    return [
        Circumstance("peak", start=40.0, duration=25.0, height=base_cost * 1.0),
        Circumstance("jump_peak", start=125.0, duration=40.0,
                     height=base_cost * 3.8),
        Circumstance("terrace", start=250.0, duration=100.0,
                     height=base_cost * 1.0),
    ]


def fig14_cost_trace(n_periods: int = 400,
                     base_cost: float = 1.0 / 190.0,
                     period: float = 1.0,
                     seed: Optional[int] = None) -> CostTrace:
    """The full Fig. 14 cost trace over ``n_periods`` seconds."""
    return cost_trace(
        n_periods,
        base_cost,
        circumstances=fig14_circumstances(base_cost),
        jitter_beta=3.0,
        jitter_scale=0.05,
        period=period,
        seed=seed,
    )

