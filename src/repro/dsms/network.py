"""Query network: a DAG of operators fed by named stream sources.

Matches the paper's Fig. 2 model: data from a stream can enter any number of
entry points; operators form branched or unbranched execution paths; multiple
downstream consumers of the same operator each receive a copy of its output
(an implicit split). The network also computes the static quantities the
load shedders need: per-location *load coefficients* (expected downstream CPU
cost of admitting one tuple at that location) and expected end-to-end cost
per source tuple.
"""

from __future__ import annotations

from collections import defaultdict, deque
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..errors import NetworkError
from .operators.base import Operator

#: sentinel prefix distinguishing source names from operator names
SOURCE = "source"


class QueryNetwork:
    """A DAG of named operators with named entry-point sources."""

    def __init__(self, name: str = "network"):
        self.name = name
        self.operators: Dict[str, Operator] = {}
        #: operator name -> list of (downstream operator name, input port)
        self.downstream: Dict[str, List[Tuple[str, int]]] = defaultdict(list)
        #: source name -> list of (entry operator name, input port)
        self.sources: Dict[str, List[Tuple[str, int]]] = {}
        #: number of input ports wired per operator
        self._in_ports: Dict[str, int] = defaultdict(int)
        # topology cache, invalidated on every wiring change
        self._topo_cache: Optional[List[str]] = None

    # ------------------------------------------------------------------ #
    # construction
    # ------------------------------------------------------------------ #
    def add_source(self, name: str) -> str:
        if name in self.sources:
            raise NetworkError(f"duplicate source {name!r}")
        if name in self.operators:
            raise NetworkError(f"source name {name!r} collides with an operator")
        self.sources[name] = []
        return name

    def add_operator(self, op: Operator, inputs: Sequence[str]) -> Operator:
        """Add ``op`` consuming from sources and/or operators named in ``inputs``.

        Input port indices are assigned in the order given; a two-input join
        takes its left input from ``inputs[0]`` and right from ``inputs[1]``.
        """
        if op.name in self.operators or op.name in self.sources:
            raise NetworkError(f"duplicate operator name {op.name!r}")
        if op.arity is not None and len(inputs) != op.arity:
            raise NetworkError(
                f"operator {op.name!r} needs {op.arity} input(s), got {len(inputs)}"
            )
        if not inputs:
            raise NetworkError(f"operator {op.name!r} has no inputs")
        self.operators[op.name] = op
        for port, upstream in enumerate(inputs):
            if upstream in self.sources:
                self.sources[upstream].append((op.name, port))
            elif upstream in self.operators:
                if upstream == op.name:
                    raise NetworkError(f"operator {op.name!r} cannot feed itself")
                self.downstream[upstream].append((op.name, port))
            else:
                raise NetworkError(
                    f"unknown input {upstream!r} for operator {op.name!r}"
                )
            self._in_ports[op.name] += 1
        self._topo_cache = None
        self._check_acyclic()
        return op

    def _check_acyclic(self) -> None:
        order = self.topological_order()
        if len(order) != len(self.operators):
            raise NetworkError("query network contains a cycle")

    # ------------------------------------------------------------------ #
    # structure queries
    # ------------------------------------------------------------------ #
    def topological_order(self) -> List[str]:
        """Operator names in a valid execution order (sources first).

        Cached between wiring changes; a fresh list is returned each call
        so callers may keep or mutate their copy freely.
        """
        if self._topo_cache is not None:
            return list(self._topo_cache)
        order = self._compute_topological_order()
        if len(order) == len(self.operators):
            # only a complete (acyclic) order is worth caching
            self._topo_cache = order
        return list(order)

    def _compute_topological_order(self) -> List[str]:
        indegree: Dict[str, int] = {name: 0 for name in self.operators}
        for edges in self.downstream.values():
            for succ, __ in edges:
                indegree[succ] += 1
        entry_counts: Dict[str, int] = defaultdict(int)
        for edges in self.sources.values():
            for succ, __ in edges:
                entry_counts[succ] += 1
        ready = deque(sorted(
            name for name, deg in indegree.items()
            if deg == 0
        ))
        order: List[str] = []
        while ready:
            name = ready.popleft()
            order.append(name)
            for succ, __ in self.downstream.get(name, []):
                indegree[succ] -= 1
                if indegree[succ] == 0:
                    ready.append(succ)
        return order

    def entry_points(self) -> List[Tuple[str, str, int]]:
        """All (source, operator, port) triples where data enters the network."""
        return [
            (source, op_name, port)
            for source, edges in self.sources.items()
            for op_name, port in edges
        ]

    def successors(self, op_name: str) -> List[Tuple[str, int]]:
        return list(self.downstream.get(op_name, []))

    def outputs(self) -> List[str]:
        """Operators with no downstream consumers (network exits)."""
        return [name for name in self.operators if not self.downstream.get(name)]

    def validate(self) -> None:
        """Raise :class:`NetworkError` on structural problems."""
        if not self.operators:
            raise NetworkError("query network has no operators")
        reachable: Set[str] = set()
        frontier = deque(op for __, op, _p in self.entry_points())
        while frontier:
            name = frontier.popleft()
            if name in reachable:
                continue
            reachable.add(name)
            frontier.extend(succ for succ, __ in self.downstream.get(name, []))
        unreachable = set(self.operators) - reachable
        if unreachable:
            raise NetworkError(
                f"operators unreachable from any source: {sorted(unreachable)}"
            )

    # ------------------------------------------------------------------ #
    # static cost analysis
    # ------------------------------------------------------------------ #
    def expected_visits(self, selectivities: Optional[Dict[str, float]] = None
                        ) -> Dict[str, float]:
        """Expected number of executions of each operator per source tuple.

        ``selectivities`` maps operator name to its expected output/input
        ratio (defaults to each operator's observed :attr:`selectivity`).
        A source tuple entering multiple entry points, or an operator output
        copied to several consumers, multiplies visit counts accordingly —
        exactly the weighted-average argument behind the paper's Eq. 2.
        """
        sel = selectivities or {}
        visits: Dict[str, float] = defaultdict(float)
        for __, op_name, _port in self.entry_points():
            visits[op_name] += 1.0
        for name in self.topological_order():
            op = self.operators[name]
            s = sel.get(name, op.selectivity)
            outflow = visits[name] * s
            for succ, __ in self.downstream.get(name, []):
                visits[succ] += outflow
        return dict(visits)

    def expected_cost(self, selectivities: Optional[Dict[str, float]] = None) -> float:
        """Expected total CPU seconds per source tuple (the paper's ``c``)."""
        visits = self.expected_visits(selectivities)
        return sum(self.operators[name].cost * v for name, v in visits.items())

    def load_coefficients(self, selectivities: Optional[Dict[str, float]] = None
                          ) -> Dict[str, float]:
        """CPU seconds saved per tuple dropped *in front of* each operator.

        This is the "load coefficient" of the Aurora load-shedding work:
        the cost of the operator itself plus, scaled by its selectivity, the
        coefficients of all its consumers. Drop locations with high
        coefficients save the most processing per victim.
        """
        sel = selectivities or {}
        coeffs: Dict[str, float] = {}
        for name in reversed(self.topological_order()):
            op = self.operators[name]
            s = sel.get(name, op.selectivity)
            downstream_cost = sum(
                coeffs[succ] for succ, __ in self.downstream.get(name, [])
            )
            coeffs[name] = op.cost + s * downstream_cost
        return coeffs

    def __len__(self) -> int:
        return len(self.operators)

    def __contains__(self, name: str) -> bool:
        return name in self.operators

    def __repr__(self) -> str:
        return (f"QueryNetwork({self.name!r}, operators={len(self.operators)}, "
                f"sources={list(self.sources)})")
