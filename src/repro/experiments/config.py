"""Canonical experiment configuration (paper Section 5).

The paper's settings: identification network with capacity ~190 tuples/s,
headroom ``H = 0.97``, control period ``T = 1000 ms``, delay target
``yd = 2000 ms``, 400-second runs, CTRL gains ``b0 = 0.4, b1 = -0.31,
a = -0.8``, Fig. 14 cost variations, Web and Pareto(beta=1) input traces.

Two deliberate calibration choices (argued in DESIGN.md §5):

* the per-tuple cost estimate is smoothed with an EWMA whose *wall-clock*
  time constant is ~20 s (``cost_tau``), modeling the long sampling window
  of the Borealis statistics subsystem; that estimation lag is precisely
  what exposes the open-loop shedder's failure modes under the Fig. 14
  cost variations — an estimator converging within one period would hide
  them;
* every control cycle charges a small CPU cost (``control_overhead``) for
  monitoring and shedder reconfiguration; negligible at the paper's
  T = 1 s, it is what makes very small control periods counterproductive
  (the left side of Fig. 19's U-shape).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from ..core.estimation import CostEstimator, EwmaEstimator
from ..dsms import BACKENDS
from ..errors import ExperimentError

#: paper defaults
DEFAULT_CAPACITY = 190.0          # tuples/s at H = 1
DEFAULT_HEADROOM = 0.97
DEFAULT_PERIOD = 1.0              # seconds
DEFAULT_TARGET = 2.0              # seconds
DEFAULT_DURATION = 400.0          # seconds
DEFAULT_MEAN_RATE = 230.0         # offered load of the Web trace
DEFAULT_PARETO_MEAN_RATE = 160.0  # offered load of the Pareto trace
                                  # (spiky: long sub-capacity stretches with
                                  # bursts to the 800/s cap, as in Fig. 13)
DEFAULT_COST_TAU = 20.0           # cost-estimator time constant, seconds
DEFAULT_CONTROL_OVERHEAD = 0.003  # CPU seconds per control cycle


@dataclass(frozen=True)
class ExperimentConfig:
    """All knobs shared by the paper-reproduction experiments."""

    capacity: float = DEFAULT_CAPACITY
    headroom: float = DEFAULT_HEADROOM
    period: float = DEFAULT_PERIOD
    target: float = DEFAULT_TARGET
    duration: float = DEFAULT_DURATION
    mean_rate: float = DEFAULT_MEAN_RATE
    pareto_mean_rate: float = DEFAULT_PARETO_MEAN_RATE
    cost_tau: float = DEFAULT_COST_TAU
    control_overhead: float = DEFAULT_CONTROL_OVERHEAD
    seed: int = 42
    use_cost_trace: bool = True    # apply the Fig. 14 cost variations
    poisson_arrivals: bool = True  # Poisson within-period arrival placement
    #: engine backend driven by :func:`repro.dsms.make_engine` — "full"
    #: (discrete-event) or "fluid" (scalar Eq. 2 FIFO)
    engine_backend: str = "full"

    def __post_init__(self) -> None:
        if self.engine_backend not in BACKENDS:
            raise ExperimentError(
                f"unknown engine backend {self.engine_backend!r}; pick from "
                f"{', '.join(sorted(BACKENDS))}"
            )
        for name in ("capacity", "period", "duration"):
            if getattr(self, name) <= 0:
                raise ExperimentError(
                    f"{name} must be positive, got {getattr(self, name)}"
                )
        if not 0.0 < self.headroom <= 1.0:
            raise ExperimentError(
                f"headroom must be in (0, 1], got {self.headroom}"
            )

    @property
    def base_cost(self) -> float:
        """Expected CPU seconds per tuple (the paper's ~5.26 ms)."""
        return 1.0 / self.capacity

    @property
    def n_periods(self) -> int:
        return int(round(self.duration / self.period))

    def make_cost_estimator(self) -> CostEstimator:
        """An EWMA whose time constant is ``cost_tau`` *seconds*.

        The per-period weight is ``1 - exp(-T / tau)`` so the estimator's
        lag is the same wall-clock duration at every control period,
        mirroring a fixed statistics window.
        """
        alpha = 1.0 - math.exp(-self.period / self.cost_tau)
        return EwmaEstimator(self.base_cost, max(alpha, 1e-6))

    def scaled(self, **changes) -> "ExperimentConfig":
        """A modified copy (e.g. shorter duration for quick benchmarks)."""
        return replace(self, **changes)


#: the configuration used by the paper's evaluation
PAPER_CONFIG = ExperimentConfig()

#: a quick configuration for CI: same shapes, shorter runs
QUICK_CONFIG = ExperimentConfig(duration=120.0)
