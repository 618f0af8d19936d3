"""Query-network operators."""

from .base import Operator, Sink, StatelessOperator
from .stateless import FilterOperator, MapOperator, UnionOperator
from .windowed import AggregateOperator, WindowJoinOperator

__all__ = [
    "AggregateOperator",
    "FilterOperator",
    "MapOperator",
    "Operator",
    "Sink",
    "StatelessOperator",
    "UnionOperator",
    "WindowJoinOperator",
]
