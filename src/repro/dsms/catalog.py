"""Runtime statistics catalog.

Borealis estimates per-tuple processing cost and operator selectivities at
runtime (paper Section 4.2 refers to Section 4.2 of the Aurora load-shedding
paper for the procedure). :class:`Catalog` snapshots the engine's cumulative
counters; differencing two snapshots yields per-period measurements — the
``c(k)``, ``fin(k)``, ``fout(k)`` signals consumed by the monitor.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .engine import Engine


@dataclass(frozen=True)
class Snapshot:
    """Cumulative engine counters at one instant of virtual time."""

    time: float
    admitted: int
    departed: int
    shed: int
    cpu_used: float
    outstanding: int


@dataclass(frozen=True)
class PeriodStats:
    """Differenced statistics for one control period."""

    duration: float
    admitted: int            # tuples that entered the network this period
    departed: int            # source tuples that left this period
    shed: int                # departures lost to shedding this period
    cpu_used: float          # CPU seconds consumed this period
    outstanding: int         # virtual queue length at period end

    @property
    def delivered(self) -> int:
        """Source tuples that left by being *processed* (not culled)."""
        return self.departed - self.shed

    @property
    def inflow_rate(self) -> float:
        """fin(k) in tuples/second."""
        return self.admitted / self.duration if self.duration > 0 else 0.0

    @property
    def outflow_rate(self) -> float:
        """fout(k) in tuples/second: the *service* rate.

        Tuples culled by an in-network shedder also leave the queue, but
        counting them here would feed the controller's own shedding back as
        apparent service capacity (``v = u + fout``) and destabilize the
        loop, so only processed departures count.
        """
        return self.delivered / self.duration if self.duration > 0 else 0.0

    @property
    def cost_per_tuple(self) -> Optional[float]:
        """Measured CPU seconds per processed tuple (None when idle)."""
        if self.delivered <= 0:
            return None
        return self.cpu_used / self.delivered


class Catalog:
    """Snapshot/difference view over an engine's cumulative counters."""

    def __init__(self, engine: Engine):
        self.engine = engine
        self._last = self.snapshot()

    def snapshot(self) -> Snapshot:
        e = self.engine
        return Snapshot(
            time=e.now,
            admitted=e.admitted_total,
            departed=e.departed_total,
            shed=e.shed_total,
            cpu_used=e.cpu_used,
            outstanding=e.outstanding,
        )

    def period(self) -> PeriodStats:
        """Difference against the previous call; advances the baseline."""
        current = self.snapshot()
        last = self._last
        self._last = current
        return PeriodStats(
            duration=current.time - last.time,
            admitted=current.admitted - last.admitted,
            departed=current.departed - last.departed,
            shed=current.shed - last.shed,
            cpu_used=current.cpu_used - last.cpu_used,
            outstanding=current.outstanding,
        )
