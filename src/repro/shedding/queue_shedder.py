"""In-network queue shedder with random location choice.

This reproduces the shedder the paper's authors built for their evaluation
(Section 5): "The load shedder we built allows shedding from the queue and
randomly selects shedding locations. In other words, it is more general
than the first load shedder ... but lacks the optimization towards
non-delay parameters found in the Borealis load shedder."

Given a load amount ``Ls`` (CPU seconds) to remove — the paper's Section
4.5.2 quantity ``Ls = Lq + Li - La`` — it repeatedly picks a random
*queued tuple* (queues weighted by depth, i.e. every outstanding tuple is
an equally likely victim) and discards it, crediting that location's load
coefficient, until the target is met or the network is empty. Weighting by
depth rather than picking a uniformly random queue matters: most of the
backlog sits at the entry operator, and preferring near-empty downstream
queues would waste the CPU already invested in those tuples.
"""

from __future__ import annotations

import random
from typing import Dict, Optional

from ..dsms.engine import Engine
from ..errors import SheddingError
from .base import LoadShedder


class QueueShedder(LoadShedder):
    """Random-location in-network shedding on a full engine."""

    def __init__(self, engine: Engine, rng: Optional[random.Random] = None):
        super().__init__(engine, rng)
        self._coeffs: Dict[str, float] = {}

    def refresh_coefficients(self) -> None:
        """Recompute load coefficients from observed selectivities."""
        self._coeffs = self.engine.network.load_coefficients()

    def shed_load(self, load_target: float) -> float:
        """Drop queued tuples until ~``load_target`` CPU seconds are saved.

        Returns the load actually saved (less than the target when the
        queues run dry first). The cost multiplier in force *now* scales
        each tuple's saved load, matching how the engine would have charged
        it.
        """
        if load_target < 0:
            raise SheddingError(f"negative load target {load_target}")
        if load_target == 0:
            return 0.0
        if not self._coeffs:
            self.refresh_coefficients()
        multiplier = self.engine.cost_multiplier(self.engine.now)
        saved = 0.0
        while saved < load_target:
            name = self._random_location()
            if name is None:
                break
            dropped = self.engine.shed_queue_count(
                name, 1, reason="load", shedder=type(self).__name__,
                alpha=self.trace_alpha)
            if dropped == 0:
                continue
            self.dropped_total += dropped
            saved += self._coeffs.get(name, 0.0) * multiplier * dropped
        self.load_shed_total += saved
        return saved

    def _random_location(self) -> Optional[str]:
        """A queue chosen with probability proportional to its depth."""
        queues = self.engine.queues
        total = sum(len(q) for q in queues.values())
        if total == 0:
            return None
        pick = self.rng.randrange(total)
        for name, q in queues.items():
            depth = len(q)
            if pick < depth:
                return name
            pick -= depth
        return None  # unreachable

    def shed_tuples(self, count: int) -> int:
        """Drop ``count`` tuples from random queues (tuple-count interface)."""
        if count < 0:
            raise SheddingError("shed count must be non-negative")
        shed = 0
        while shed < count:
            name = self._random_location()
            if name is None:
                break
            got = self.engine.shed_queue_count(
                name, 1, reason="cull", shedder=type(self).__name__,
                alpha=self.trace_alpha)
            shed += got
            self.dropped_total += got
        return shed
