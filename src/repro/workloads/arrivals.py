"""Converting rate traces into concrete tuple arrivals.

The engines consume ``(timestamp, values, source)`` triples in time order.
:func:`arrivals_from_trace` spaces tuples within each period either evenly
or as a Poisson process; :func:`uniform_values` builds the independent
uniform value fields the identification network's filters require.
"""

from __future__ import annotations

import math
import random
from typing import List, Optional, Tuple

from ..errors import WorkloadError
from .trace import RateTrace

Arrival = Tuple[float, Tuple, str]


def uniform_values(rng: random.Random, n_fields: int = 4) -> Tuple[float, ...]:
    """``n_fields`` independent U[0,1) values (pins filter selectivities)."""
    return tuple(rng.random() for __ in range(n_fields))


def arrivals_from_trace(trace: RateTrace,
                        source: str = "src",
                        n_fields: int = 4,
                        poisson: bool = False,
                        seed: Optional[int] = None) -> List[Arrival]:
    """Materialize a rate trace as a time-ordered arrival list.

    With ``poisson=False`` (default) each period's tuples are evenly spaced;
    with ``poisson=True`` the per-period count is Poisson with the trace
    rate as its mean and positions are uniform within the period — closer to
    a real packet trace but with extra sampling noise.
    """
    rng = random.Random(seed)
    out: List[Arrival] = []
    for k, rate in enumerate(trace):
        start = k * trace.period
        if poisson:
            mean = rate * trace.period
            count = _poisson(rng, mean)
            offsets = sorted(rng.random() * trace.period for __ in range(count))
        else:
            count = int(round(rate * trace.period))
            offsets = [i * trace.period / count for i in range(count)]
        for off in offsets:
            out.append((start + off, uniform_values(rng, n_fields), source))
    return out


def merge_arrivals(*streams: List[Arrival]) -> List[Arrival]:
    """Merge several time-ordered arrival lists into one (stable by time)."""
    merged = [a for stream in streams for a in stream]
    merged.sort(key=lambda a: a[0])
    return merged


def _poisson(rng: random.Random, mean: float) -> int:
    """Knuth for small means, normal approximation for large ones."""
    if mean < 0:
        raise WorkloadError("Poisson mean must be non-negative")
    if mean == 0:
        return 0
    if mean > 50:
        return max(0, int(round(rng.gauss(mean, math.sqrt(mean)))))
    limit = math.exp(-mean)
    k, p = 0, 1.0
    while True:
        p *= rng.random()
        if p <= limit:
            return k
        k += 1
