"""The paper's dynamic DSMS model (Section 4.2).

Core relations:

* Eq. 2 — average delay of tuples arriving in period ``k``:
  ``y(k) = (c/H) * (q(k-1) + 1)``;
* Eq. 11 — the real-time *estimate* used as the feedback signal:
  ``ŷ(k) = q(k) c(k)/H + c(k)/H``;
* Eq. 4 — the z-domain plant: ``G(z) = cT / (H (z - 1))``, a discrete
  integrator driven by ``fin - fout``.

:class:`DsmsModel` bundles the three parameters (per-tuple cost ``c``,
headroom ``H``, control period ``T``) with these relations, plus the
queries the BASELINE strategy and the actuators need (service capacity,
...).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..control import TransferFunction
from ..errors import ControlError


@dataclass(frozen=True)
class DsmsModel:
    """Parameters of the virtual-queue model."""

    cost: float       # expected CPU seconds per source tuple, the paper's c
    headroom: float   # fraction of CPU available for query processing, H
    period: float     # control / sampling period T in seconds

    def __post_init__(self):
        if self.cost <= 0:
            raise ControlError(f"cost must be positive, got {self.cost}")
        if not 0.0 < self.headroom <= 1.0:
            raise ControlError(f"headroom must be in (0, 1], got {self.headroom}")
        if self.period <= 0:
            raise ControlError(f"period must be positive, got {self.period}")

    # ------------------------------------------------------------------ #
    # Eq. 2 / Eq. 11
    # ------------------------------------------------------------------ #
    def delay_estimate(self, queue_length: float, cost: float = None) -> float:
        """Eq. 11: ŷ from the counted virtual queue length.

        ``cost`` overrides the nominal ``c`` with the current estimate
        ``c(k)`` when per-tuple cost varies.
        """
        c = self.cost if cost is None else cost
        if queue_length < 0:
            raise ControlError(f"negative queue length {queue_length}")
        return (queue_length + 1.0) * c / self.headroom

    def service_rate(self, cost: float = None) -> float:
        """Steady-state throughput H/c in tuples per second (the paper's L0)."""
        c = self.cost if cost is None else cost
        return self.headroom / c

    # ------------------------------------------------------------------ #
    # Eq. 4
    # ------------------------------------------------------------------ #
    @property
    def gain(self) -> float:
        """The integrator gain cT/H."""
        return self.cost * self.period / self.headroom

    def plant(self) -> TransferFunction:
        """The z-domain plant G(z) = cT / (H (z - 1))."""
        return TransferFunction.integrator(self.gain)
