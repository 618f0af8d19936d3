"""Stateless operators: filter, map and union.

These are the building blocks of the identification network (paper
Section 4.2: filters whose selectivity is pinned by uniformly distributed
input values, plus fixed-cost transformation boxes).
"""

from __future__ import annotations

from typing import Callable, List, Optional, Tuple

from ...errors import NetworkError
from ..tuple_ import StreamTuple
from .base import Operator, StatelessOperator


class FilterOperator(StatelessOperator):
    """Emit the tuple unchanged when ``predicate(values)`` holds."""

    def __init__(self, name: str, cost: float,
                 predicate: Callable[[Tuple], bool]):
        super().__init__(name, cost)
        self.predicate = predicate

    def apply(self, tup: StreamTuple, port: int, now: float) -> List[StreamTuple]:
        return [tup] if self.predicate(tup.values) else []

    @classmethod
    def threshold(cls, name: str, cost: float, selectivity: float,
                  field: int = 0) -> "FilterOperator":
        """A filter passing tuples whose ``field`` value is below ``selectivity``.

        With field values uniform on [0, 1) the pass rate equals
        ``selectivity`` exactly — the trick the paper uses to keep the
        network's expected cost constant during system identification.
        A tuple whose ``field`` is missing or not comparable with a number
        does not pass (SQL's rule for a comparison with NULL), so one
        malformed wire tuple cannot raise inside a control period.
        """
        if not 0.0 <= selectivity <= 1.0:
            raise NetworkError(f"selectivity {selectivity} outside [0, 1]")

        def below(values: Tuple) -> bool:
            try:
                return values[field] < selectivity
            except (IndexError, TypeError):
                return False

        return cls(name, cost, below)


class MapOperator(StatelessOperator):
    """Apply ``fn`` to the value tuple; emit exactly one output."""

    def __init__(self, name: str, cost: float,
                 fn: Optional[Callable[[Tuple], Tuple]] = None):
        super().__init__(name, cost)
        self.fn = fn

    def apply(self, tup: StreamTuple, port: int, now: float) -> List[StreamTuple]:
        if self.fn is None:
            return [tup]
        return [tup.derive(self.fn(tup.values))]


class UnionOperator(StatelessOperator):
    """Merge any number of input streams into one (pass-through)."""

    arity = None  # accepts any number of inputs

    def apply(self, tup: StreamTuple, port: int, now: float) -> List[StreamTuple]:
        return [tup]

