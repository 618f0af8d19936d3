"""Sharded multi-stream service layer.

The paper's feedback loop controls one query network; this subpackage
scales it out: N engine shards each run their own Monitor -> Controller ->
Actuator loop, a stream router partitions sources across them, and a
global headroom coordinator aggregates per-shard delay estimates every
control period and rebalances the shards (CPU shares and source
placement). :class:`~repro.service.service.StreamService` steps every
shard in lockstep inside one process; it and the wall-clock
:class:`~repro.serve.live.LiveService` are assembled by one
:func:`build_topology` and step one :func:`run_service_period`. See
README.md "Sharded service layer" for a quickstart and docs/THEORY.md §7
for why the coordinated loops stay stable.
"""

from .config import DEFAULT_TOTAL_HEADROOM, ServiceConfig
from .coordinator import MODES, HeadroomCoordinator, MigrationPolicy
from .router import RoutingTable, make_router
from .service import (
    ServiceResult,
    StreamService,
    build_service,
    build_topology,
    run_service_period,
)
from .shard import (
    DrainReport,
    EngineShard,
    arm_shard,
    build_loop,
    build_shard,
)

__all__ = [
    "DEFAULT_TOTAL_HEADROOM",
    "DrainReport",
    "EngineShard",
    "HeadroomCoordinator",
    "MODES",
    "MigrationPolicy",
    "RoutingTable",
    "ServiceConfig",
    "ServiceResult",
    "StreamService",
    "arm_shard",
    "build_loop",
    "build_service",
    "build_shard",
    "build_topology",
    "make_router",
    "run_service_period",
]
