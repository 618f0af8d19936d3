"""Real-time serving front-end: network ingestion + wall-clock control.

The rest of the reproduction runs the paper's experiments on a virtual
clock; this package recreates the paper's *deployment* scenario — a live
node where tuples arrive over a real TCP socket, control periods are
real seconds, and the feedback controller holds the delay target against
genuine overload:

* :mod:`repro.serve.protocol` — the newline-framed wire format
  (JSON lines with a bare-CSV fallback),
* :mod:`repro.serve.ingest` — the asyncio TCP ingestion server and the
  arrival buffer that timestamps tuples on arrival,
* :mod:`repro.serve.live` — :class:`LiveRunner`, the wall-clock driver
  that ticks ``ControlLoop.run_period`` on timer boundaries, plus
  :func:`build_live_runner` to assemble a full live node from an
  :class:`~repro.experiments.config.ExperimentConfig`, and
  :class:`LiveService` / :func:`build_live_service` — the multi-shard
  variant on the same ticker, which runs the service layer's period
  step on socket tuples: they route through the versioned
  :class:`~repro.service.router.RoutingTable`, so live sources can be
  *migrated* between shards mid-run without clients reconnecting.

Pair with :mod:`repro.workloads.replay` to blast a recorded trace at the
socket at 1x…1000x speed.
"""

from .ingest import IngestBuffer, IngestServer, IngestStatsSnapshot
from .live import LiveRunner, LiveService, build_live_runner, build_live_service
from .protocol import MAX_LINE_BYTES, decode_line, encode_tuple

__all__ = [
    "IngestBuffer",
    "IngestServer",
    "IngestStatsSnapshot",
    "LiveRunner",
    "LiveService",
    "MAX_LINE_BYTES",
    "build_live_runner",
    "build_live_service",
    "decode_line",
    "encode_tuple",
]
