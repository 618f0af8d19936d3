"""Per-period wall-clock tracing of the control loop.

A :class:`PeriodTracer` splits each control period's *host* wall time into
named segments — how long the engine step took, how long the monitor,
controller and actuator took, how long the coordinator deliberated — and
keeps both the per-period rows and the run totals. The aggregate is a
"flame summary": one JSON-able dict mapping segment to total seconds and
fraction.

The instrumented loop pays for tracing only when a tracer is installed
(``loop.tracer is None`` is the disabled check); segment boundaries are
single ``perf_counter()`` reads, so an enabled tracer adds a handful of
clock reads per control period — nothing per tuple.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Dict, List, Optional

from ..errors import ObservabilityError

#: canonical segment names the control loop and service layer report
SEGMENTS = ("ingest", "engine", "monitor", "controller", "actuator",
            "coordinator", "bookkeeping", "dispatch", "drain")


class PeriodTracer:
    """Accumulates named wall-clock segments, per period and per run."""

    def __init__(self) -> None:
        #: run-total seconds per segment (includes out-of-period segments)
        self.segments: Dict[str, float] = {}
        #: one ``{"k": k, <segment>: seconds, ...}`` row per traced period
        self.periods: List[Dict[str, float]] = []
        #: host wall seconds of the whole run, set by the driver when known
        self.wall_seconds: float = 0.0
        self._current: Optional[Dict[str, float]] = None

    # ------------------------------------------------------------------ #
    # recording
    # ------------------------------------------------------------------ #
    def begin_period(self, k: int) -> None:
        if self._current is not None:
            self.end_period()
        self._current = {"k": float(k)}

    def end_period(self) -> None:
        if self._current is not None:
            self.periods.append(self._current)
            self._current = None

    def add(self, segment: str, seconds: float) -> None:
        """Charge ``seconds`` to ``segment`` (and to the open period, if any)."""
        if seconds < 0:
            seconds = 0.0  # clock went backwards; never poison the totals
        self.segments[segment] = self.segments.get(segment, 0.0) + seconds
        if self._current is not None:
            self._current[segment] = self._current.get(segment, 0.0) + seconds

    @contextmanager
    def span(self, segment: str):
        """Context-manager convenience around :meth:`add`."""
        start = time.perf_counter()
        try:
            yield
        finally:
            self.add(segment, time.perf_counter() - start)

    # ------------------------------------------------------------------ #
    # aggregation
    # ------------------------------------------------------------------ #
    def total_seconds(self) -> float:
        """Sum of every recorded segment (the accounted wall time)."""
        return sum(self.segments.values())

    def coverage(self, wall_seconds: Optional[float] = None) -> float:
        """Accounted fraction of the run's wall time (1.0 = fully traced)."""
        wall = self.wall_seconds if wall_seconds is None else wall_seconds
        if wall <= 0:
            return 0.0
        return self.total_seconds() / wall

    def flame(self) -> dict:
        """The per-run flame summary: totals, fractions, period count."""
        total = self.total_seconds()
        ordered = dict(sorted(self.segments.items(),
                              key=lambda kv: kv[1], reverse=True))
        return {
            "periods": len(self.periods),
            "total_seconds": total,
            "wall_seconds": self.wall_seconds,
            "coverage": self.coverage() if self.wall_seconds > 0 else None,
            "segments": ordered,
            "fractions": {name: (seconds / total if total > 0 else 0.0)
                          for name, seconds in ordered.items()},
        }


def merge_flames(flames: Dict[str, dict],
                 wall_seconds: Optional[float] = None) -> dict:
    """Fleet view: sum per-shard flame summaries into one.

    ``flames`` maps shard name to :meth:`PeriodTracer.flame` output. The
    merged summary sums segment seconds across shards (shards run
    interleaved on one host thread, so seconds are additive) and keeps the
    per-shard summaries under ``"shards"``. ``wall_seconds`` overrides the
    merged wall clock (the service passes its own run wall, which no
    single shard knows).
    """
    if not flames:
        raise ObservabilityError("cannot merge zero flame summaries")
    segments: Dict[str, float] = {}
    wall = 0.0
    periods = 0
    for flame in flames.values():
        for name, seconds in flame["segments"].items():
            segments[name] = segments.get(name, 0.0) + seconds
        wall = max(wall, flame.get("wall_seconds") or 0.0)
        periods = max(periods, flame["periods"])
    if wall_seconds is not None:
        wall = wall_seconds
    total = sum(segments.values())
    ordered = dict(sorted(segments.items(), key=lambda kv: kv[1], reverse=True))
    return {
        "periods": periods,
        "total_seconds": total,
        "wall_seconds": wall,
        "coverage": (total / wall) if wall > 0 else None,
        "segments": ordered,
        "fractions": {name: (seconds / total if total > 0 else 0.0)
                      for name, seconds in ordered.items()},
        "shards": dict(flames),
    }
