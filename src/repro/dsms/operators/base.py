"""Operator abstract base class.

Operators are the boxes of the query network (paper Fig. 2). Each has a
fixed nominal CPU cost per *input* tuple (the engine may scale it with a
time-varying multiplier to reproduce Fig. 14), and transforms one input
tuple into zero or more output tuples.

Stateless operators implement :meth:`Operator.apply`; stateful ones
(windowed join, aggregate) may also override :meth:`Operator.on_time` to
emit on watermark advancement.
"""

from __future__ import annotations

import abc
from typing import List, Optional

from ...errors import NetworkError
from ..tuple_ import StreamTuple


class Operator(abc.ABC):
    """One query-network box with a per-tuple CPU cost."""

    #: how many upstream inputs this operator accepts (None = any number)
    arity: Optional[int] = 1

    def __init__(self, name: str, cost: float):
        if not name:
            raise NetworkError("operator name must be non-empty")
        if cost < 0:
            raise NetworkError(f"operator {name!r} has negative cost {cost}")
        self.name = name
        #: nominal CPU seconds consumed per input tuple
        self.cost = float(cost)
        # runtime statistics (maintained by the engine / catalog)
        self.executions = 0
        self.emitted = 0

    def cost_of(self, tup: StreamTuple, port: int) -> float:
        """CPU seconds this particular execution will consume.

        Defaults to the fixed nominal :attr:`cost`; state-dependent
        operators (a window join scanning its opposite window) override
        this so window-size adaptation actually saves CPU.
        """
        return self.cost

    @abc.abstractmethod
    def apply(self, tup: StreamTuple, port: int, now: float) -> List[StreamTuple]:
        """Process one input tuple from input ``port``; return outputs.

        Implementations must create outputs with :meth:`StreamTuple.derive`
        so lineage is preserved. Reference counting convention: the engine
        forks the input's lineage once per *returned output that shares the
        input's lineage*, then releases the input's own reference. Operators
        that defer emission (e.g. window aggregates) must hold a reference
        themselves with ``lineage.fork(1)`` while retaining a tuple, and the
        eventual output transfers that held reference.
        """

    def on_time(self, now: float) -> List[StreamTuple]:
        """Hook for time-triggered emission (e.g. closing windows)."""
        return []

    def flush(self, now: float) -> List[StreamTuple]:
        """Force emission of any buffered state (end of run)."""
        return []

    def next_deadline(self) -> Optional[float]:
        """Virtual time at which :meth:`on_time` wants to run, if any.

        The engine jumps its idle clock to this instant so time-triggered
        emissions (window closes) happen on schedule even when no tuples
        arrive.
        """
        return None

    @property
    def selectivity(self) -> float:
        """Observed output/input ratio (1.0 until first execution)."""
        if self.executions == 0:
            return 1.0
        return self.emitted / self.executions

    def record(self, n_out: int) -> None:
        """Update execution statistics (called by the engine)."""
        self.executions += 1
        self.emitted += n_out

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.name!r}, cost={self.cost:g})"


def check_port(op: Operator, port: int, n_ports: int) -> None:
    """Validate an input port index for error messages."""
    if not 0 <= port < n_ports:
        raise NetworkError(
            f"operator {op.name!r} received input on port {port}, "
            f"but has only {n_ports} input port(s)"
        )


class StatelessOperator(Operator):
    """Convenience base for operators with no cross-tuple state."""


class Sink(Operator):
    """Terminal operator: consumes tuples, emits nothing, costs nothing.

    Used to give query paths an explicit exit; the engine records the
    departure when the lineage reference count drops to zero.
    """

    def __init__(self, name: str, cost: float = 0.0):
        super().__init__(name, cost)
        self.consumed: int = 0

    def apply(self, tup: StreamTuple, port: int, now: float) -> List[StreamTuple]:
        self.consumed += 1
        return []
