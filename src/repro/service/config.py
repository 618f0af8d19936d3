"""Configuration of the sharded multi-stream service.

A :class:`ServiceConfig` is a frozen, picklable spec: combined with the
usual :class:`~repro.experiments.config.ExperimentConfig` it fully
determines a service run, so the experiment process pool can fan service
runs out exactly like single-loop jobs.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import ClassVar, List, Optional, Tuple

from ..dsms.factory import BACKENDS
from ..errors import ServiceError
from ..obs.attach import ObsConfig

#: default machine-level CPU fraction available for query processing —
#: the paper's H, now shared by all shards on the machine
DEFAULT_TOTAL_HEADROOM = 0.97
#: smallest per-shard CPU share the headroom rebalancer's box projection
#: may allocate (a shard's H must stay positive: the plant gain is cT/H)
HEADROOM_FLOOR = 0.02


@dataclass(frozen=True)
class ServiceConfig(ObsConfig):
    """All knobs of a sharded service run (picklable).

    The observer knobs (``health`` ... ``flight_dir``) are inherited from
    :class:`~repro.obs.attach.ObsConfig`, so a ``ServiceConfig`` is the
    ``obs`` spec its runtime arms.
    """

    error: ClassVar[type] = ServiceError

    n_shards: int = 4
    mode: str = "headroom"              # 'independent' | 'headroom'
    total_headroom: float = DEFAULT_TOTAL_HEADROOM
    headroom_ceiling: float = 0.97
    strategy: str = "CTRL"              # per-shard controller
    #: engine backend per shard, resolved through repro.dsms.make_engine
    #: ('full' | 'fluid')
    backend: str = "full"
    # skew/hotspot workload shape
    n_sources: int = 4
    hotspot_factor: float = 3.0
    hotspot_index: int = 0
    per_source_rate: Optional[float] = None  # tuples/s of a regular source;
                                             # None -> 55% of one shard's
                                             # baseline capacity
    # live source migration (the coordinator's second actuator): move a
    # source off a shard whose headroom deficit persists after rebalancing
    migration: bool = False
    #: consecutive post-rebalance deficit periods before a move triggers
    migration_patience: int = 4
    #: periods to wait after any migration before considering another
    migration_cooldown: int = 12

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.n_shards < 1:
            raise ServiceError(f"need at least one shard, got {self.n_shards}")
        if self.n_sources < 1:
            raise ServiceError(f"need at least one source, got {self.n_sources}")
        if self.backend not in BACKENDS:
            raise ServiceError(
                f"unknown engine backend {self.backend!r}; pick from "
                f"{', '.join(sorted(BACKENDS))}"
            )
        if not 0.0 < self.total_headroom <= 1.0:
            raise ServiceError(
                f"total headroom must be in (0, 1], got {self.total_headroom}"
            )
        if not 0 <= self.hotspot_index < self.n_sources:
            raise ServiceError(
                f"hotspot index {self.hotspot_index} outside "
                f"[0, {self.n_sources})"
            )
        if self.hotspot_factor <= 0:
            raise ServiceError(
                f"hotspot factor must be positive, got {self.hotspot_factor}"
            )
        share = self.total_headroom / self.n_shards
        if not HEADROOM_FLOOR <= share <= self.headroom_ceiling:
            raise ServiceError(
                f"equal split {share:.4f} falls outside the per-shard bounds "
                f"[{HEADROOM_FLOOR}, {self.headroom_ceiling}]"
            )
        if self.migration_patience < 1:
            raise ServiceError(
                f"migration_patience must be >= 1, got "
                f"{self.migration_patience}"
            )
        if self.migration_cooldown < 0:
            raise ServiceError(
                f"migration_cooldown must be >= 0, got "
                f"{self.migration_cooldown}"
            )
        if self.migration and self.mode != "headroom":
            raise ServiceError(
                "migration needs mode='headroom': the policy triggers on "
                "the headroom rebalancer's per-shard demand signal"
            )

    @property
    def source_names(self) -> Tuple[str, ...]:
        return tuple(f"s{j}" for j in range(self.n_sources))

    @property
    def shard_names(self) -> Tuple[str, ...]:
        return tuple(f"shard{i}" for i in range(self.n_shards))

    def initial_headrooms(self) -> List[float]:
        """The balanced starting split of the machine's CPU."""
        return [self.total_headroom / self.n_shards] * self.n_shards

    def default_assignments(self) -> dict:
        """Round-robin source -> shard pinning of the routing table."""
        return {name: j % self.n_shards
                for j, name in enumerate(self.source_names)}

    def with_mode(self, mode: str) -> "ServiceConfig":
        """A copy in a different coordination mode (for A/B comparisons)."""
        return replace(self, mode=mode)
