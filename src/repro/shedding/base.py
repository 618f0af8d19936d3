"""What the drop policies share: Eq. 13, and the in-network victim picker.

The control loop's *actuator* (paper Fig. 3) discards load so the engine
receives approximately the controller's desired admissions. The paper
studies two realizations (Section 4.5.2) and argues they are equivalent
for delay control because the model depends only on the outstanding load,
not on where it is discarded:

* shedding *intact* tuples at the stream entry — *how much* is all there
  is to decide, so the entry policies are single classes in
  :mod:`repro.core.actuator`;
* shedding *partially processed* tuples from queues inside the network —
  *how much* (the actuator) and *which queued victim* (a
  :class:`LoadShedder`:
  :class:`~repro.shedding.queue_shedder.QueueShedder` or the
  LSRM-optimized :class:`~repro.shedding.lsrm.LsrmShedder`) are separate
  decisions.
"""

from __future__ import annotations

import abc

from ..dsms.engine import Engine
from ..errors import SheddingError


class LoadShedder(abc.ABC):
    """Picks which queued tuples of a live engine to discard."""

    def __init__(self, engine: Engine):
        self.engine = engine
        #: drop probability in force, stamped by the owning actuator each
        #: period so per-tuple shed traces can record it (observability
        #: only — never read by the shedding logic itself)
        self.trace_alpha = 0.0

    @abc.abstractmethod
    def shed_tuples(self, count: int) -> int:
        """Drop up to ``count`` queued tuples; returns how many died."""


def drop_probability(tuples_allowed: float, expected_inflow: float) -> float:
    """The paper's Eq. 13: ``alpha = 1 - v(k)/fin(k+1)``, clamped to [0, 1].

    The clamp is the actuator-saturation guard: the controller may ask for
    more admissions than will arrive (alpha < 0 -> admit everything) or for
    negative admissions (alpha > 1 -> drop everything).
    """
    if expected_inflow < 0:
        raise SheddingError(f"negative expected inflow {expected_inflow}")
    if expected_inflow == 0:
        return 0.0
    alpha = 1.0 - tuples_allowed / expected_inflow
    return min(1.0, max(0.0, alpha))
