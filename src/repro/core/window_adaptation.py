"""Window-size adaptation — the paper's adaptation (iii).

Instead of discarding tuples, overload can be absorbed by "modifying
operator features such as window size of join operators" (paper Section
3): a smaller join window means fewer stored tuples to scan per probe,
hence a lower per-tuple CPU cost — the queries lose *recall* (matches
against evicted history) instead of losing input data.

:class:`WindowAdaptationActuator` converts the controller's allowance into
a window scale. With the linearized cost model
``c(s) = fixed_cost + join_cost_full * s`` (scan work proportional to
window occupancy), an allowance/inflow ratio ``rho`` requires
``c(s_next) = rho * c(s_now)``. When even the minimum window cannot absorb
the overload, the residual is shed by an embedded entry coin flip, so the
delay guarantee never depends on the windows alone.
"""

from __future__ import annotations

import random
from typing import List, Optional, Sequence

from ..dsms.operators.windowed import WindowJoinOperator
from ..errors import SheddingError
from ..shedding.base import drop_probability
from .actuator import Actuator


class WindowAdaptationActuator(Actuator):
    """Shrink join windows first; shed only what windows cannot absorb."""

    drops_outside_engine = True

    def __init__(self, joins: Sequence[WindowJoinOperator],
                 fixed_cost: float,
                 join_cost_full: float,
                 min_scale: float = 0.1,
                 rng: Optional[random.Random] = None):
        super().__init__()
        if not joins:
            raise SheddingError("need at least one join to adapt")
        if fixed_cost <= 0 or join_cost_full <= 0:
            raise SheddingError("cost components must be positive")
        if not 0.0 < min_scale <= 1.0:
            raise SheddingError(f"min scale {min_scale} outside (0, 1]")
        self.joins: List[WindowJoinOperator] = list(joins)
        self.fixed_cost = float(fixed_cost)
        self.join_cost_full = float(join_cost_full)
        self.min_scale = float(min_scale)
        self.rng = rng or random.Random(0)

    @property
    def scale(self) -> float:
        """Current common window scale (all joins kept in lockstep)."""
        return self.joins[0].window_scale

    def _cost_at(self, scale: float) -> float:
        return self.fixed_cost + self.join_cost_full * scale

    def begin_period(self, allowed_tuples: float, expected_inflow: float) -> None:
        if expected_inflow <= 0:
            # idle input: restore full windows, admit everything
            self._set_scale(1.0)
            self.requested_alpha = self.alpha = 0.0
            return
        rho = max(allowed_tuples, 0.0) / expected_inflow
        target_cost = rho * self._cost_at(self.scale)
        desired = (target_cost - self.fixed_cost) / self.join_cost_full
        scale = min(1.0, max(self.min_scale, desired))
        self._set_scale(scale)
        if desired < self.min_scale:
            # windows bottomed out: shed the residual load at the entry
            admissible = (target_cost / self._cost_at(self.min_scale)
                          * expected_inflow)
            alpha = drop_probability(admissible, expected_inflow)
        else:
            alpha = 0.0
        self.requested_alpha = self.alpha = alpha

    def _set_scale(self, scale: float) -> None:
        for join in self.joins:
            join.window_scale = scale

    def admit(self, values: tuple = (), source: str = "") -> bool:
        self.offered_total += 1
        if self.alpha > 0.0 and self.rng.random() < self.alpha:
            self.dropped_total += 1
            return False
        return True
