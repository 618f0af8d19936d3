"""Actuators: one admission filter per drop policy.

The paper's Section 4.5.2 argues the controller is agnostic to *how* load
is discarded because only the *amount* matters for the delay dynamics, so
every policy here is armed the same way — Eq. 13 turns the allowance into
the drop probability ``alpha`` for the coming period — and differs only in
which tuples it picks:

* :class:`EntryActuator` — a fair coin at the stream entry, optionally
  capped (``requested_alpha`` keeps the uncapped demand);
* :class:`SemanticEntryActuator` — the least useful tuples first;
* :class:`PriorityEntryActuator` — the lowest-priority sources first;
* :class:`InNetworkActuator` — admits everything and continuously culls
  queued tuples (one victim per arriving tuple, with the Eq. 13
  probability); *which* queued tuple dies is the separate decision a
  :class:`~repro.shedding.base.LoadShedder` makes. A boundary
  reconciliation removes any residual surplus. Continuous culling matters:
  shedding the whole surplus in one boundary batch would let the queue run
  inflated for most of the period and bias every tuple's delay upward.

All keep offered/dropped counters so data-loss metrics are comparable.
"""

from __future__ import annotations

import abc
import random
from typing import Callable, Dict, Optional, Tuple

from ..errors import SheddingError
from ..shedding.base import LoadShedder, drop_probability
from ..shedding.semantic import StreamingQuantile


class Actuator(abc.ABC):
    """Applies one period's admission allowance."""

    #: True when drops happen before the engine (no Departure records) —
    #: loss accounting must then add ``dropped_total`` separately.
    drops_outside_engine = False

    def __init__(self):
        self.offered_total = 0
        self.dropped_total = 0
        #: drop probability in force for the armed period
        self.alpha = 0.0
        #: the controller's uncapped Eq. 13 demand for the armed period
        #: (differs from ``alpha`` only under an :class:`EntryActuator` cap)
        self.requested_alpha = 0.0

    def begin_period(self, allowed_tuples: float, expected_inflow: float) -> None:
        """Arm the actuator for the coming period (Eq. 13).

        ``allowed_tuples`` is the controller's desired number of admissions
        (``v(k) * T``); ``expected_inflow`` estimates how many tuples will
        arrive (the paper uses ``fin(k)`` for ``fin(k+1)``).
        """
        self.requested_alpha = self.alpha = drop_probability(
            allowed_tuples, expected_inflow)

    @abc.abstractmethod
    def admit(self, values: tuple = (), source: str = "") -> bool:
        """Filter one arriving tuple (True = pass it to the engine).

        ``values`` and ``source`` let value-aware (semantic) and
        priority-aware actuators choose victims; plain actuators ignore
        them.
        """

    def end_period(self, admitted: int) -> int:
        """Close the period; returns tuples shed retroactively (if any)."""
        return 0

    @property
    def loss_ratio(self) -> float:
        if self.offered_total == 0:
            return 0.0
        return self.dropped_total / self.offered_total


class EntryActuator(Actuator):
    """Eq. 13 coin-flip shedding at the stream entry, optionally capped.

    The sharded service layer runs one per shard. ``alpha_cap`` bounds the
    drop probability the controller may request; ``requested_alpha``
    keeps the uncapped demand.
    """

    drops_outside_engine = True

    def __init__(self, rng: Optional[random.Random] = None,
                 alpha_cap: float = 1.0):
        super().__init__()
        self.rng = rng or random.Random(0)
        if not 0.0 <= alpha_cap <= 1.0:
            raise SheddingError(f"alpha cap {alpha_cap} outside [0, 1]")
        self.alpha_cap = alpha_cap

    def begin_period(self, allowed_tuples: float, expected_inflow: float) -> None:
        super().begin_period(allowed_tuples, expected_inflow)
        self.alpha = min(self.requested_alpha, self.alpha_cap)

    def admit(self, values: tuple = (), source: str = "") -> bool:
        """Flip the unfair coin for one arriving tuple."""
        self.offered_total += 1
        if self.alpha > 0.0 and self.rng.random() < self.alpha:
            self.dropped_total += 1
            return False
        return True


class InNetworkActuator(Actuator):
    """Continuous in-network queue culling (random-location or LSRM)."""

    def __init__(self, shedder: LoadShedder):
        super().__init__()
        self.shedder = shedder
        #: the per-arrival culling coin; which tuple a cull removes is the
        #: shedder's own (seeded) draw
        self.rng = random.Random(0)
        self._allowance = float("inf")
        self._culled_this_period = 0

    def begin_period(self, allowed_tuples: float, expected_inflow: float) -> None:
        super().begin_period(allowed_tuples, expected_inflow)
        self._allowance = max(allowed_tuples, 0.0)
        self._culled_this_period = 0
        self.shedder.trace_alpha = self.alpha

    def admit(self, values: tuple = (), source: str = "") -> bool:
        """Admit the arrival; cull one queued tuple with probability alpha."""
        self.offered_total += 1
        if self.alpha > 0.0 and self.rng.random() < self.alpha:
            got = self.shedder.shed_tuples(1)
            self.dropped_total += got
            self._culled_this_period += got
        return True

    def end_period(self, admitted: int) -> int:
        """Reconcile: remove any surplus the probabilistic culling missed."""
        if admitted < 0:
            raise SheddingError("admitted count cannot be negative")
        surplus = (admitted - self._culled_this_period) - self._allowance
        if surplus <= 0:
            return self._culled_this_period
        shed = self.shedder.shed_tuples(int(round(surplus)))
        self.dropped_total += shed
        return self._culled_this_period + shed


class SemanticEntryActuator(Actuator):
    """Value-aware entry shedding: drop the least useful tuples first.

    Same allowance semantics as :class:`EntryActuator`, but victims are
    chosen by a user-supplied utility function instead of a fair coin (the
    semantic shedding of the Aurora line of work, paper Section 2): a tuple
    is dropped when its utility is below the running alpha-quantile of
    recent utilities, tracked over a sliding window so the threshold adapts
    to drifting value distributions. A small dithering band (±``dither``)
    around the threshold is resolved by a coin flip so the realized drop
    rate matches alpha even when many tuples share the same utility. The
    realized loss ratio matches the statistical coin's; the retained
    *utility* is higher.
    """

    drops_outside_engine = True

    def __init__(self, utility: Callable[[Tuple], float],
                 window: int = 512,
                 dither: float = 0.02,
                 rng: Optional[random.Random] = None):
        super().__init__()
        if dither < 0:
            raise SheddingError("dither must be non-negative")
        self.utility = utility
        self.dither = dither
        self.rng = rng or random.Random(0)
        self._quantile = StreamingQuantile(window)
        #: total utility of admitted vs offered tuples (quality accounting)
        self.utility_admitted = 0.0
        self.utility_offered = 0.0

    def admit(self, values: tuple = (), source: str = "") -> bool:
        """Value-aware admission decision for one arriving tuple."""
        self.offered_total += 1
        score = float(self.utility(values))
        self.utility_offered += score
        self._quantile.add(score)
        if self.alpha <= 0.0:
            drop = False
        elif self.alpha >= 1.0:
            drop = True
        else:
            # never None: this tuple's score is already in the window
            threshold = self._quantile.quantile(self.alpha)
            if score < threshold - self.dither:
                drop = True
            elif score > threshold + self.dither:
                drop = False
            else:
                drop = self.rng.random() < self.alpha
        if drop:
            self.dropped_total += 1
            return False
        self.utility_admitted += score
        return True

    @property
    def utility_retention(self) -> float:
        """Fraction of offered utility that survived shedding."""
        if self.utility_offered == 0:
            return 1.0
        return self.utility_admitted / self.utility_offered


class PriorityEntryActuator(Actuator):
    """Strict-priority entry shedding across multiple sources.

    The controller's aggregate allowance is water-filled down the priority
    order (paper Section 6's heterogeneous-guarantees extension):
    high-priority streams are admitted in full while any allowance
    remains, the drop burden falls on the lowest priorities first, and
    within one priority class the residual is shared proportionally (a
    per-class coin flip). ``priorities`` maps source name to a numeric
    priority (higher = more important).
    """

    drops_outside_engine = True

    def __init__(self, priorities: Dict[str, float],
                 rng: Optional[random.Random] = None):
        super().__init__()
        if not priorities:
            raise SheddingError("need at least one source priority")
        self.priorities = dict(priorities)
        self.rng = rng or random.Random(0)
        #: per-source admit probability for the current period
        self.admit_probability: Dict[str, float] = dict.fromkeys(priorities, 1.0)
        self._seen_this_period: Dict[str, int] = dict.fromkeys(priorities, 0)
        self.dropped_by_source: Dict[str, int] = dict.fromkeys(priorities, 0)
        self.offered_by_source: Dict[str, int] = dict.fromkeys(priorities, 0)

    def begin_period(self, allowed_tuples: float, expected_inflow: float) -> None:
        """Water-fill the aggregate allowance down the priority order.

        The per-source inflow expectation is last period's observed count,
        rescaled so the mix sums to ``expected_inflow``. Water-filling
        admits ``min(allowed, expected)`` in expectation, so the aggregate
        ``alpha`` is Eq. 13's, like every other entry policy.
        """
        super().begin_period(allowed_tuples, expected_inflow)
        seen = self._seen_this_period
        self._seen_this_period = dict.fromkeys(self.priorities, 0)
        mix_total = sum(seen.values())
        if mix_total <= 0:
            # no history: assume a uniform mix
            share = dict.fromkeys(self.priorities, 1.0 / len(self.priorities))
        else:
            share = {n: c / mix_total for n, c in seen.items()}
        expected = {n: share[n] * expected_inflow for n in self.priorities}
        remaining = max(allowed_tuples, 0.0)
        # admit in descending priority; ties share proportionally
        for prio in sorted(set(self.priorities.values()), reverse=True):
            klass = [n for n, p in self.priorities.items() if p == prio]
            demand = sum(expected[n] for n in klass)
            if remaining >= demand:  # also a class nobody sent to
                fraction = 1.0
                remaining -= demand
            else:
                fraction = remaining / demand
                remaining = 0.0
            for n in klass:
                self.admit_probability[n] = fraction

    def admit(self, values: tuple = (), source: str = "") -> bool:
        """Per-source coin flip with the water-filled probability."""
        if source not in self.priorities:
            raise SheddingError(f"unknown source {source!r}")
        self.offered_total += 1
        self.offered_by_source[source] += 1
        self._seen_this_period[source] += 1
        p = self.admit_probability[source]
        if p >= 1.0 or self.rng.random() < p:
            return True
        self.dropped_total += 1
        self.dropped_by_source[source] += 1
        return False

    def loss_by_source(self) -> Dict[str, float]:
        """Per-source realized loss ratios."""
        return {name: (self.dropped_by_source[name] / offered
                       if offered else 0.0)
                for name, offered in self.offered_by_source.items()}

