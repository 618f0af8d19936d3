"""Sharded multi-stream service layer.

The paper's feedback loop controls one query network; this subpackage
scales it out: N engine shards each run their own Monitor -> Controller ->
Actuator loop, a stream router partitions sources across them, and a
global headroom coordinator aggregates per-shard delay estimates every
control period and rebalances the fleet (CPU shares and source
placement). Two runners share the configs:
:class:`~repro.service.service.StreamService` steps every shard in
lockstep inside one process;
:class:`~repro.service.fleet.ProcessFleet` promotes each shard to its
own worker process under a parent-resident coordinator, with failure
recovery by deterministic replay. Both — and the wall-clock
:class:`~repro.serve.live.LiveService` — are assembled by one
:func:`build_topology` and step one :func:`run_service_period`. See
README.md "Sharded service layer"
/ "Process fleet" for quickstarts and docs/THEORY.md §7/§11 for why the
coordinated loops stay stable.
"""

from .config import DEFAULT_TOTAL_HEADROOM, FleetConfig, ServiceConfig
from .coordinator import MODES, HeadroomCoordinator, MigrationPolicy
from .fleet import ProcessFleet, ShardProxy, build_fleet
from .router import RoutingTable, make_router
from .service import (
    PeriodDispatcher,
    ServiceResult,
    StreamService,
    build_service,
    build_topology,
    execute_migration,
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
    "FleetConfig",
    "HeadroomCoordinator",
    "MODES",
    "MigrationPolicy",
    "PeriodDispatcher",
    "ProcessFleet",
    "RoutingTable",
    "ServiceConfig",
    "ServiceResult",
    "ShardProxy",
    "StreamService",
    "arm_shard",
    "build_fleet",
    "build_loop",
    "build_service",
    "build_shard",
    "build_topology",
    "execute_migration",
    "make_router",
    "run_service_period",
]
