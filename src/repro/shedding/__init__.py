"""Load-shedder substrate: Eq. 13, in-network random and LSRM victim pickers."""

from .base import LoadShedder, drop_probability
from .lsrm import (
    DropLocation,
    LoadSheddingRoadmap,
    LsrmShedder,
    output_yield,
    rank_locations,
)
from .queue_shedder import QueueShedder
from .semantic import StreamingQuantile

__all__ = [
    "DropLocation",
    "LoadShedder",
    "LoadSheddingRoadmap",
    "LsrmShedder",
    "QueueShedder",
    "StreamingQuantile",
    "drop_probability",
    "output_yield",
    "rank_locations",
]
