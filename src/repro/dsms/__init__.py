"""Borealis-like stream engine substrate.

The paper evaluates on the Borealis stream manager; this subpackage is the
Python stand-in (see DESIGN.md §2 for the substitution argument): a query
network of costed operators with per-operator FIFO queues, a round-robin
scheduler, and a discrete-event engine driven by a virtual CPU clock with a
headroom factor. :class:`VirtualQueueEngine` is the fast single-FIFO model
(the paper's Eq. 2 abstraction) sharing the same interface.
"""

from .builder import (
    DEFAULT_CAPACITY,
    chain_network,
    identification_network,
    monitoring_network,
)
from .catalog import Catalog, PeriodStats, Snapshot
from .engine import Departure, Engine, note_late_arrival
from .factory import BACKENDS, make_engine
from .fluid import VirtualQueueEngine
from .network import QueryNetwork
from .protocol import EngineProtocol
from .operators import (
    AggregateOperator,
    FilterOperator,
    MapOperator,
    Operator,
    Sink,
    UnionOperator,
    WindowJoinOperator,
)
from .queues import OperatorQueue
from .scheduler import (
    DepthFirstScheduler,
    RoundRobinScheduler,
    Scheduler,
)
from .tuple_ import Lineage, StreamTuple, make_source_tuple

__all__ = [
    "AggregateOperator",
    "BACKENDS",
    "Catalog",
    "DEFAULT_CAPACITY",
    "Departure",
    "DepthFirstScheduler",
    "Engine",
    "EngineProtocol",
    "FilterOperator",
    "Lineage",
    "MapOperator",
    "Operator",
    "OperatorQueue",
    "PeriodStats",
    "QueryNetwork",
    "RoundRobinScheduler",
    "Scheduler",
    "Sink",
    "Snapshot",
    "StreamTuple",
    "UnionOperator",
    "VirtualQueueEngine",
    "WindowJoinOperator",
    "chain_network",
    "identification_network",
    "make_engine",
    "make_source_tuple",
    "monitoring_network",
    "note_late_arrival",
]
