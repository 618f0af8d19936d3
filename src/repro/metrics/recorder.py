"""Per-period time-series recording of a control run."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from ..dsms.engine import Departure
from .qos import QosMetrics, TargetLike, compute_qos, delays_by_arrival_period


@dataclass(frozen=True)
class PeriodRecord:
    """Everything observed/decided at one control boundary."""

    k: int
    time: float
    target: float            # yd in force during the period
    delay_estimate: float    # ŷ(k), the feedback signal
    queue_length: int        # q(k)
    cost: float              # c(k) estimate
    inflow_rate: float       # admitted tuples / s
    outflow_rate: float      # departures / s
    offered: int             # tuples offered (before entry shedding)
    admitted: int            # tuples admitted into the engine
    shed_retro: int          # tuples culled from queues at this boundary
    v: float                 # controller's desired admission rate
    u: float                 # raw controller output
    error: float             # e(k)
    alpha: float             # entry drop probability in force next period


@dataclass
class RunRecord:
    """Complete record of one simulated control run."""

    period: float
    periods: List[PeriodRecord] = field(default_factory=list)
    departures: List[Departure] = field(default_factory=list)
    offered_total: int = 0
    entry_dropped_total: int = 0   # tuples dropped before entering the engine
    duration: float = 0.0          # measured window (excludes the drain)
    wall_seconds: float = 0.0
    drain_truncated: bool = False  # end-of-run drain hit its virtual deadline
    drain_leftover: int = 0        # tuples still outstanding at truncation

    def add(self, record: PeriodRecord, departures: List[Departure]) -> None:
        self.periods.append(record)
        self.departures.extend(departures)

    # ------------------------------------------------------------------ #
    # derived series
    # ------------------------------------------------------------------ #
    def estimated_delays(self) -> List[float]:
        """ŷ(k) over time (the online feedback signal)."""
        return [p.delay_estimate for p in self.periods]

    def true_delays(self) -> List[float]:
        """Average delivered delay per arrival period (paper's y(k))."""
        return delays_by_arrival_period(self.departures, self.period)

    def times(self) -> List[float]:
        return [p.time for p in self.periods]

    def qos(self, target: Optional[TargetLike] = None,
            within_window: bool = True) -> QosMetrics:
        """Aggregate QoS metrics; defaults to the recorded per-period targets.

        ``within_window=True`` (default) counts only tuples that departed
        during the measured run, matching how the paper records metrics
        online for a fixed 400-second experiment; tuples still queued at the
        end contribute nothing. Entry-shedder drops are added to the loss
        on top of in-network shed departures.
        """
        if target is None:
            schedule = {p.k: p.target for p in self.periods}
            default = self.periods[-1].target if self.periods else 0.0

            def fn(t: float) -> float:
                return schedule.get(int(t // self.period), default)
            target = fn
        departures = self.departures
        if within_window and self.duration > 0:
            departures = [d for d in departures if d.departed <= self.duration]
        base = compute_qos(departures, target, self.offered_total)
        return QosMetrics(
            accumulated_violation=base.accumulated_violation,
            delayed_tuples=base.delayed_tuples,
            max_overshoot=base.max_overshoot,
            delivered=base.delivered,
            shed=base.shed + self.entry_dropped_total,
            offered=self.offered_total,
            mean_delay=base.mean_delay,
        )
