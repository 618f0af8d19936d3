"""Bus subscribers that persist live observability data to disk.

These sinks turn the in-process event stream into files an operator can
tail *while the run is in flight* — unlike the post-hoc CSV exports in
:mod:`repro.metrics.export`, which need the finished :class:`RunRecord`.

Imports of :mod:`repro.metrics` are deferred to call time:
``repro.dsms.engine`` imports this package at module load, and
``repro.metrics.recorder`` imports the engine, so a top-level import here
would close the cycle.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import IO, Optional, Union

from .bus import EventBus, get_bus
from .events import ObsEvent

PathLike = Union[str, Path]


class PeriodJsonlSink:
    """Streams one JSON line per control period to a file, live.

    Subscribes to ``"period"`` events on construction; each event's
    :class:`~repro.metrics.recorder.PeriodRecord` is flattened with the
    canonical column set (``repro.metrics.export.PERIOD_FIELDS``) plus the
    shard label, and flushed immediately so ``tail -f`` sees rows as the
    run produces them. The write+flush happens synchronously on the
    emitting control loop — fine for local disks.
    """

    def __init__(self, path: PathLike, bus: Optional[EventBus] = None):
        from ..metrics.export import PERIOD_FIELDS  # lazy: import cycle
        self._fields = PERIOD_FIELDS
        self.path = Path(path)
        self.bus = bus if bus is not None else get_bus()
        self.rows = 0
        self._fh: Optional[IO[str]] = self.path.open("a")
        self.bus.subscribe(self._on_event, kinds=("period",))

    def _on_event(self, event: ObsEvent) -> None:
        if self._fh is None:
            return
        p = event.record
        row = {f: getattr(p, f) for f in self._fields}
        row["shard"] = event.shard
        self._fh.write(json.dumps(row) + "\n")
        self._fh.flush()
        self.rows += 1

    def close(self) -> None:
        self.bus.unsubscribe(self._on_event)
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    def __enter__(self) -> "PeriodJsonlSink":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
