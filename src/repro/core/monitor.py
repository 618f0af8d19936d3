"""The control loop's monitor (paper Fig. 3, Section 4.5.1).

Real-time measurement of the *output* (delay) is impossible — the
measurement lag is the output itself — so the monitor feeds back the
estimate ``ŷ(k) = q(k) c(k)/H + c(k)/H`` (Eq. 11) built from the counted
virtual queue length and the runtime cost estimate. It also records the
*true* delays as departures resolve, for offline metrics and for
model-verification experiments.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from ..dsms.catalog import Catalog
from ..dsms.engine import Departure
from .estimation import CostEstimator, LastValueEstimator
from .model import DsmsModel


@dataclass(frozen=True)
class Measurement:
    """Everything the controller may use at one control boundary."""

    k: int                  # period index (the period that just ended)
    time: float             # virtual time at the boundary
    queue_length: int       # q(k): outstanding tuples now
    cost: float             # c(k): smoothed per-tuple cost estimate
    measured_cost: Optional[float]  # raw cost measurement this period
    inflow_rate: float      # fin(k) tuples/s admitted this period
    outflow_rate: float     # fout(k) tuples/s departed this period
    delay_estimate: float   # ŷ(k) from Eq. 11 — the feedback signal
    admitted: int           # tuples admitted this period
    departed: int           # source-tuple departures this period
    shed: int               # departures lost to shedding this period
    departures: List[Departure]  # resolved delays (for offline metrics)


class Monitor:
    """Snapshots the engine once per control period."""

    def __init__(self, engine, model: DsmsModel,
                 cost_estimator: Optional[CostEstimator] = None):
        self.engine = engine
        self.model = model
        self.catalog = Catalog(engine)
        self.cost_estimator = cost_estimator or LastValueEstimator(model.cost)
        #: optional wall clock (repro.core.clock.Clock) the live runtime
        #: assigns; when set, the measurement's boundary time is real
        #: seconds-since-start rather than the engine's virtual now — live
        #: mode stamps arrivals on the same axis, so queue/cost feedback
        #: stays consistent.
        self.clock = None
        self._k = 0

    def measure(self) -> Measurement:
        """Close the current period and produce its measurement."""
        stats = self.catalog.period()
        departures = self.engine.drain_departures()
        cost = self.cost_estimator.update(stats.cost_per_tuple)
        q = self.engine.outstanding
        m = Measurement(
            k=self._k,
            time=self.clock.now() if self.clock is not None else self.engine.now,
            queue_length=q,
            cost=cost,
            measured_cost=stats.cost_per_tuple,
            inflow_rate=stats.inflow_rate,
            outflow_rate=stats.outflow_rate,
            delay_estimate=self.model.delay_estimate(q, cost),
            admitted=stats.admitted,
            departed=stats.departed,
            shed=stats.shed,
            departures=departures,
        )
        self._k += 1
        return m
