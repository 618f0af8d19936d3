"""In-network queue shedder with random location choice.

This reproduces the shedder the paper's authors built for their evaluation
(Section 5): "The load shedder we built allows shedding from the queue and
randomly selects shedding locations. In other words, it is more general
than the first load shedder ... but lacks the optimization towards
non-delay parameters found in the Borealis load shedder."

The owning :class:`~repro.core.actuator.InNetworkActuator` decides *how
many* queued tuples die (Eq. 13 culling on each arrival, plus the
period-end reconciliation); this shedder decides *which*: each victim is a
random *queued tuple* (queues weighted by depth, i.e. every outstanding
tuple is an equally likely victim). Weighting by depth rather than picking
a uniformly random queue matters: most of the backlog sits at the entry
operator, and preferring near-empty downstream queues would waste the CPU
already invested in those tuples.
"""

from __future__ import annotations

import random
from typing import Optional

from ..dsms.engine import Engine
from ..errors import SheddingError
from .base import LoadShedder


class QueueShedder(LoadShedder):
    """Random-location in-network shedding on a full engine."""

    def __init__(self, engine: Engine, rng: Optional[random.Random] = None):
        super().__init__(engine)
        self.rng = rng or random.Random(0)

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
        """Drop ``count`` tuples from random queues (fewer if they run dry)."""
        if count < 0:
            raise SheddingError("shed count must be non-negative")
        shed = 0
        while shed < count:
            name = self._random_location()
            if name is None:
                break
            shed += self.engine.shed_queue_count(
                name, 1, reason="cull", shedder=type(self).__name__,
                alpha=self.trace_alpha)
        return shed
