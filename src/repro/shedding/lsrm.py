"""Load Shedding Roadmap (LSRM) — the Aurora/Borealis "where to shed" answer.

The paper delegates the *where* question to the existing Aurora work
(Tatbul et al., VLDB 2003): a precomputed roadmap of drop locations ordered
so that a required load reduction is met with minimal utility loss, where
utility is calculated from the data loss ratio only. This module implements
that construction on our query networks:

* every operator input is a candidate :class:`DropLocation`;
* its **gain** is the location's load coefficient (CPU saved per drop);
* its **loss** is the expected number of network outputs the dropped tuple
  would have produced;
* the roadmap ranks locations by ascending loss/gain, so walking it greedily
  sheds a given load while losing the fewest results.

:class:`LsrmShedder` discards queued tuples of a live engine in roadmap
order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from ..dsms.engine import Engine
from ..dsms.network import QueryNetwork
from ..errors import SheddingError
from .base import LoadShedder


@dataclass(frozen=True)
class DropLocation:
    """A candidate drop point (in front of operator ``operator``)."""

    operator: str
    gain: float   # CPU seconds saved per dropped tuple (load coefficient)
    loss: float   # expected output tuples lost per dropped tuple

    @property
    def loss_gain_ratio(self) -> float:
        """Utility lost per unit of load saved (lower = better place to shed)."""
        if self.gain <= 0:
            return float("inf")
        return self.loss / self.gain


def rank_locations(locations: List[DropLocation]) -> List[DropLocation]:
    """LSRM ordering: ascending loss/gain, ties broken by larger gain."""
    return sorted(locations, key=lambda l: (l.loss_gain_ratio, -l.gain))


def output_yield(network: QueryNetwork,
                 selectivities: Optional[Dict[str, float]] = None
                 ) -> Dict[str, float]:
    """Expected network-output tuples produced per tuple entering each operator.

    Computed bottom-up: an exit operator yields its own selectivity; an
    inner operator yields its selectivity times the sum of its consumers'
    yields (copies to multiple consumers each produce results).
    """
    sel = selectivities or {}
    yields: Dict[str, float] = {}
    for name in reversed(network.topological_order()):
        op = network.operators[name]
        s = sel.get(name, op.selectivity)
        consumers = network.successors(name)
        if not consumers:
            yields[name] = s
        else:
            yields[name] = s * sum(yields[succ] for succ, __ in consumers)
    return yields


class LoadSheddingRoadmap:
    """Precomputed, loss/gain-ordered drop locations for a network."""

    def __init__(self, network: QueryNetwork,
                 selectivities: Optional[Dict[str, float]] = None):
        coeffs = network.load_coefficients(selectivities)
        yields = output_yield(network, selectivities)
        self.locations: List[DropLocation] = rank_locations([
            DropLocation(operator=name, gain=coeffs[name], loss=yields[name])
            for name in network.operators
        ])


class LsrmShedder(LoadShedder):
    """Picks queued victims in roadmap order on a live engine."""

    def __init__(self, engine: Engine):
        super().__init__(engine)
        self.roadmap = LoadSheddingRoadmap(engine.network)

    def shed_tuples(self, count: int) -> int:
        """Drop up to ``count`` queued tuples, walking the roadmap in
        loss/gain order and emptying each location's queue before the next."""
        if count < 0:
            raise SheddingError("shed count must be non-negative")
        if count == 0:
            return 0
        shed = 0
        for loc in self.roadmap.locations:
            if shed >= count:
                break
            available = len(self.engine.queues[loc.operator])
            take = min(count - shed, available)
            if take > 0:
                shed += self.engine.shed_queue_count(
                    loc.operator, take, reason="cull",
                    shedder=type(self).__name__, alpha=self.trace_alpha)
        return shed
