"""Stream routing: one versioned table, shared by every runtime.

A sharded service runs N independent engines; routing decides which
shard serves which *source*. The lockstep service and the live server
both route through a single mutable :class:`RoutingTable`:

* **hash fallback** — a stable CRC32 hash of the source name (identical
  across processes and Python hash randomization), so unknown sources
  spread evenly without configuration;
* **explicit pins** — per-source overrides on top of the hash, for
  deployments that dedicate shards to heavy sources *and* for live
  migration, which is nothing but a re-pin;
* **epochs** — every mutation bumps the table's global ``epoch``, which
  a migration stamps on its plan and the ``RouteChanged`` event, and
  ``/status`` reports as ``routing_epoch``.

Routing is per-source, never per-tuple: all tuples of one source land on
one shard, so per-shard delay statistics stay meaningful and windowed
operators never see a split stream. A migration moves the *whole*
source at a period boundary — see :meth:`RoutingTable.migrate` and
docs/THEORY.md §13 for why drain-before-cutover keeps both properties.

:func:`make_router` builds the two configured shapes: ``'hash'`` (no
pins, hash fallback) and ``'explicit'`` (pins only — an unknown source is
a configuration error, not a silent hash placement).
"""

from __future__ import annotations

import zlib
from typing import Dict, Mapping, Optional

from ..errors import ServiceError


class RoutingTable:
    """Versioned, mutable source -> shard mapping in ``[0, n_shards)``.

    The one routing abstraction every runtime shares: the lockstep
    :class:`~repro.service.service.StreamService` routes each period's
    due arrivals through it, and the live
    :class:`~repro.serve.live.LiveService` routes socket tuples at every
    tick — so a migrated source follows its new shard without clients
    reconnecting.

    Mutations (:meth:`pin`, :meth:`migrate`) bump the global ``epoch``.
    """

    def __init__(self, n_shards: int,
                 pins: Optional[Mapping[str, int]] = None,
                 hash_fallback: bool = True):
        if n_shards < 1:
            raise ServiceError(f"need at least one shard, got {n_shards}")
        self.n_shards = n_shards
        self.hash_fallback = hash_fallback
        self.epoch = 0
        self._pins: Dict[str, int] = {}
        self._memo: Dict[str, int] = {}
        if pins:
            for source, shard in pins.items():
                self._check_shard(source, shard)
                self._pins[source] = int(shard)

    # ------------------------------------------------------------------ #
    # lookups
    # ------------------------------------------------------------------ #
    def shard_of(self, source: str) -> int:
        """The shard index serving ``source``."""
        shard = self._memo.get(source)
        if shard is not None:
            return shard
        shard = self._pins.get(source)
        if shard is None:
            if not self.hash_fallback:
                raise ServiceError(
                    f"source {source!r} has no shard assignment"
                )
            shard = zlib.crc32(source.encode("utf-8")) % self.n_shards
        self._memo[source] = shard
        return shard

    def routes(self) -> Dict[str, int]:
        """The explicit pins as a plain dict (hash fallback not listed)."""
        return dict(self._pins)

    # ------------------------------------------------------------------ #
    # mutations (each bumps the global epoch)
    # ------------------------------------------------------------------ #
    def pin(self, source: str, shard: int) -> int:
        """Pin ``source`` to ``shard``; returns the new table epoch."""
        self._check_shard(source, shard)
        self.epoch += 1
        self._pins[source] = int(shard)
        self._memo.clear()
        return self.epoch

    def migrate(self, source: str, from_shard: int, to_shard: int) -> int:
        """Re-pin ``source`` from ``from_shard`` to ``to_shard``.

        This is the cutover step of the migration transaction (the
        runtime drains the old shard *before* calling this, and stamps
        the returned epoch on its plan — see docs/THEORY.md §13).
        Validates that the source currently routes to ``from_shard``, so
        a stale plan can never silently re-route a source that already
        moved.
        """
        current = self.shard_of(source)
        if current != from_shard:
            raise ServiceError(
                f"migration of {source!r} expected it on shard "
                f"{from_shard}, but it routes to {current}"
            )
        if to_shard == from_shard:
            raise ServiceError(
                f"migration of {source!r} to its own shard {to_shard}"
            )
        self._check_shard(source, to_shard)
        return self.pin(source, to_shard)

    # ------------------------------------------------------------------ #
    # internals
    # ------------------------------------------------------------------ #
    def _check_shard(self, source: str, shard: int) -> None:
        if not 0 <= shard < self.n_shards:
            raise ServiceError(
                f"assignment {source!r} -> {shard} outside "
                f"[0, {self.n_shards})"
            )


def make_router(spec: str, n_shards: int,
                assignments: Optional[Mapping[str, int]] = None
                ) -> RoutingTable:
    """Build a routing table from a picklable spec string.

    Every spec yields a mutable :class:`RoutingTable`, so any
    service built through here supports live migration.
    """
    if spec == "hash":
        return RoutingTable(n_shards)
    if spec == "explicit":
        if not assignments:
            raise ServiceError(
                "explicit routing needs a non-empty assignment table")
        return RoutingTable(n_shards, pins=assignments, hash_fallback=False)
    raise ServiceError(
        f"unknown router spec {spec!r}; use 'hash' or 'explicit'"
    )
