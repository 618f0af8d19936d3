"""Load Shedding Roadmap (LSRM) — the Aurora/Borealis "where to shed" answer.

The paper delegates the *where* question to the existing Aurora work
(Tatbul et al., VLDB 2003): a precomputed roadmap of drop locations ordered
so that a required load reduction is met with minimal utility loss, where
utility is calculated from the data loss ratio only. This module implements
that construction on our query networks:

* every operator input is a candidate :class:`~repro.shedding.plan.DropLocation`;
* its **gain** is the location's load coefficient (CPU saved per drop);
* its **loss** is the expected number of network outputs the dropped tuple
  would have produced;
* the roadmap ranks locations by ascending loss/gain, so walking it greedily
  sheds a given load while losing the fewest results.

:class:`LsrmShedder` executes a plan against a live engine by discarding
queued tuples at the chosen locations.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional

from ..dsms.engine import Engine
from ..dsms.network import QueryNetwork
from ..errors import SheddingError
from .base import LoadShedder
from .plan import DropLocation, SheddingPlan, rank_locations


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
        self.network = network

    def plan_for_load(self, load_target: float,
                      queue_depths: Dict[str, int]) -> SheddingPlan:
        """Cheapest plan shedding ~``load_target`` CPU seconds from queues.

        Walks the roadmap in loss/gain order, taking as many queued victims
        at each location as needed (bounded by the queue depth there).
        """
        if load_target < 0:
            raise SheddingError(f"negative load target {load_target}")
        plan = SheddingPlan()
        remaining = load_target
        for loc in self.locations:
            if remaining <= 0:
                break
            if loc.gain <= 0:
                continue
            available = queue_depths.get(loc.operator, 0)
            if available <= 0:
                continue
            want = int(remaining // loc.gain) + 1
            take = min(want, available)
            plan.add(loc, take)
            remaining -= take * loc.gain
        return plan

    def best_location(self) -> DropLocation:
        """The single cheapest place to shed (head of the roadmap)."""
        return self.locations[0]


class LsrmShedder(LoadShedder):
    """Executes LSRM plans against a live engine."""

    def __init__(self, engine: Engine,
                 rng: Optional[random.Random] = None):
        super().__init__(engine, rng)
        self.roadmap = LoadSheddingRoadmap(engine.network)

    def refresh(self) -> None:
        """Rebuild the roadmap from current observed selectivities."""
        self.roadmap = LoadSheddingRoadmap(self.engine.network)

    def shed_load(self, load_target: float) -> float:
        """Shed ~``load_target`` CPU seconds, minimizing result loss."""
        depths = {name: len(q) for name, q in self.engine.queues.items()}
        plan = self.roadmap.plan_for_load(load_target, depths)
        saved = 0.0
        multiplier = self.engine.cost_multiplier(self.engine.now)
        gains = {loc.operator: loc.gain for loc in self.roadmap.locations}
        for op_name, count in plan.drops.items():
            got = self.engine.shed_queue_count(
                op_name, count, reason="load", shedder=type(self).__name__,
                alpha=self.trace_alpha)
            self.dropped_total += got
            saved += gains[op_name] * multiplier * got
        self.load_shed_total += saved
        return saved

    def shed_tuples(self, count: int) -> int:
        """Tuple-count interface: converts to load via the mean coefficient."""
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
                got = self.engine.shed_queue_count(
                    loc.operator, take, reason="cull",
                    shedder=type(self).__name__, alpha=self.trace_alpha)
                shed += got
                self.dropped_total += got
        return shed
