"""The global headroom coordinator (supervisory layer over N shard loops).

Once per control period — after every shard has closed its period and
armed its actuator — the coordinator aggregates the per-shard state
(delay estimates, queue lengths, offered load, cost estimates) and
rebalances the fleet. Two modes:

* ``"independent"`` — no rebalancing: N paper loops running side by side
  (the baseline the coordinated mode is judged against);
* ``"headroom"`` — sum-preserving reallocation of the machine's CPU
  share: each shard's demand is its offered CPU load plus a backlog
  catch-up term, the total headroom is split proportionally to demand
  (bounded per shard), and each shard moves a ``gain`` fraction of the
  way to its allocation per period. Because both the old and the new
  allocation vectors sum to the same total, the machine is never
  oversubscribed.

CPU-share rebalancing redistributes *capacity*; it cannot help when one
shard's demand exceeds the per-shard ``headroom_ceiling`` (the model of a
single node's physical limit). For that the coordinator has a second
actuator: a :class:`MigrationPolicy` that proposes moving a *source* off
a shard whose post-rebalance headroom deficit persists — placement
rebalancing on top of share rebalancing, after "Model-Free Control for
Distributed Stream Data Processing" (PAPERS.md), which re-assigns stream
partitions between workers as its primary actuator. The policy only
*plans* (``entry["migration"]``); the owning runtime executes the
drain -> cutover transaction, because only it can quiesce the shard
(docs/THEORY.md §13).
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence

from ..errors import ServiceError
from ..metrics.recorder import PeriodRecord
from ..obs.events import ShardRebalanced
from .config import HEADROOM_FLOOR
from .router import RoutingTable
from .shard import EngineShard

MODES = ("independent", "headroom")

#: headroom deficit (demand - allocation) that counts as "still hot"
HOT_DEFICIT = 0.10
#: EWMA weight of the newest period in the per-source tuple-count estimate
#: (the placement signal): smooth over bursts, follow a shifted hotspot
#: within the default patience
SOURCE_RATE_ALPHA = 0.3
#: virtual seconds the old shard may spend draining at cutover
DRAIN_BUDGET = 5.0


class MigrationPolicy:
    """Decides when a persistently hot shard should shed a *source*.

    Observes each period's headroom-rebalance outcome: a shard whose
    demand still exceeds its (gain-smoothed) allocation by more than
    ``HOT_DEFICIT`` for ``patience`` consecutive periods is declared stuck —
    rebalancing alone cannot fix it (typically because the per-shard
    ceiling binds). The policy then plans one move: the source on the
    hot shard whose estimated CPU share best fits the transferable gap,
    to the shard with the most surplus.

    All iteration is over sorted keys and ties break deterministically,
    so identical inputs produce identical plans — what lets a flight
    bundle's replay reproduce the recorded migrations.
    """

    def __init__(self, patience: int = 4, cooldown: int = 12,
                 max_migrations: Optional[int] = None):
        if patience < 1:
            raise ServiceError(f"migration patience must be >= 1, "
                               f"got {patience}")
        if cooldown < 0:
            raise ServiceError(f"migration cooldown must be >= 0, "
                               f"got {cooldown}")
        if max_migrations is not None and max_migrations < 0:
            raise ServiceError(f"max_migrations must be >= 0, "
                               f"got {max_migrations}")
        self.patience = patience
        self.cooldown = cooldown
        self.max_migrations = max_migrations
        #: smoothed per-source tuple counts per period (the placement signal)
        self.source_rates: Dict[str, float] = {}
        self._streaks: Dict[int, int] = {}
        self._last_migration_k: Optional[int] = None
        self.migrations = 0

    def consider(self, k: int, entry: dict,
                 shards: Sequence[EngineShard],
                 periods: Sequence[PeriodRecord],
                 table: RoutingTable,
                 source_counts: Mapping[str, int]) -> Optional[dict]:
        """Observe one period; return a migration plan dict or ``None``.

        The plan is ``{"source", "from", "to", "deficit", "budget"}`` —
        the runtime that executes it appends the cutover ``epoch``.
        """
        a = SOURCE_RATE_ALPHA
        for source in sorted(source_counts):
            prev = self.source_rates.get(source)
            count = float(source_counts[source])
            self.source_rates[source] = (
                count if prev is None else (1.0 - a) * prev + a * count
            )
        demands = entry.get("demand")
        headrooms = entry.get("headroom")
        if not demands or not headrooms:
            return None
        deficits = [d - h for d, h in zip(demands, headrooms)]
        for i, gap in enumerate(deficits):
            if gap > HOT_DEFICIT:
                self._streaks[i] = self._streaks.get(i, 0) + 1
            else:
                self._streaks[i] = 0
        if (self.max_migrations is not None
                and self.migrations >= self.max_migrations):
            return None
        if (self._last_migration_k is not None
                and k - self._last_migration_k <= self.cooldown):
            return None
        # hottest stuck shard: largest deficit among those past patience
        stuck = [i for i in range(len(shards))
                 if self._streaks.get(i, 0) >= self.patience]
        if not stuck:
            return None
        hot = max(stuck, key=lambda i: (deficits[i], -i))
        # coolest shard: most surplus capacity; must actually have some
        surpluses = [-gap for gap in deficits]
        cold = max(range(len(shards)), key=lambda i: (surpluses[i], -i))
        if cold == hot or surpluses[cold] <= 0:
            return None
        per_source = self._shard_sources(table)
        hosted = per_source.get(hot, [])
        if len(hosted) < 2:
            # moving a shard's only source just relocates the hotspot
            return None
        source = self._pick_source(hosted, periods[hot].cost,
                                   shards[hot].loop.period,
                                   deficits[hot], surpluses[cold])
        if source is None:
            return None
        self._streaks[hot] = 0
        self._last_migration_k = k
        self.migrations += 1
        return {"source": source, "from": hot, "to": cold,
                "deficit": deficits[hot], "budget": DRAIN_BUDGET}

    def _shard_sources(self, table: RoutingTable) -> Dict[int, List[str]]:
        out: Dict[int, List[str]] = {}
        for source in sorted(self.source_rates):
            out.setdefault(table.shard_of(source), []).append(source)
        return out

    def _pick_source(self, hosted: Sequence[str], cost: float,
                     period: float, excess: float,
                     surplus: float) -> Optional[str]:
        """The hosted source whose CPU share best fits the movable gap.

        Best-fit rather than biggest-first: moving more than the cold
        shard's surplus would just relocate the hotspot. ``hosted`` is
        sorted, and ``min`` keeps the first of equals, so the choice is
        deterministic.
        """
        want = min(excess, surplus)
        shares = {s: cost * self.source_rates[s] / max(period, 1e-9)
                  for s in hosted}
        movable = [s for s in hosted if shares[s] > 0.0]
        if not movable:
            return None
        return min(movable, key=lambda s: (abs(shares[s] - want), s))


class HeadroomCoordinator:
    """Aggregates per-shard measurements and rebalances each period."""

    def __init__(self, mode: str = "headroom",
                 gain: float = 0.5,
                 headroom_floor: float = HEADROOM_FLOOR,
                 headroom_ceiling: float = 0.97,
                 migration_policy: Optional[MigrationPolicy] = None):
        if mode not in MODES:
            raise ServiceError(f"unknown coordinator mode {mode!r}; "
                               f"pick from {MODES}")
        if not 0.0 <= gain <= 1.0:
            raise ServiceError(f"rebalance gain {gain} outside [0, 1]")
        if not 0.0 < headroom_floor < headroom_ceiling <= 1.0:
            raise ServiceError(
                f"need 0 < floor < ceiling <= 1, got "
                f"[{headroom_floor}, {headroom_ceiling}]"
            )
        self.mode = mode
        self.gain = gain
        self.headroom_floor = headroom_floor
        self.headroom_ceiling = headroom_ceiling
        if migration_policy is not None and mode != "headroom":
            raise ServiceError(
                "migration policy needs mode='headroom' (it triggers on "
                "the headroom rebalancer's demand signal)"
            )
        self.migration_policy = migration_policy
        #: one dict per period: what was observed and what was allocated
        self.history: List[dict] = []
        #: observability bus the service wires in; None = silent
        self.bus = None

    # ------------------------------------------------------------------ #
    # the once-per-period entry point
    # ------------------------------------------------------------------ #
    def rebalance(self, k: int, shards: Sequence[EngineShard],
                  periods: Sequence[PeriodRecord],
                  source_counts: Optional[Mapping[str, int]] = None,
                  table: Optional[RoutingTable] = None) -> dict:
        """Observe period ``k``'s close and adjust the fleet for ``k + 1``.

        ``source_counts`` (this period's routed tuples per source) and
        ``table`` feed the optional migration policy; the returned entry
        then may carry a ``"migration"`` plan for the runtime to execute
        before period ``k + 1``.
        """
        if len(shards) != len(periods):
            raise ServiceError("one period record per shard required")
        entry: dict = {"k": k, "mode": self.mode}
        if self.mode == "headroom":
            self._rebalance_headroom(shards, periods, entry)
        if (self.migration_policy is not None
                and source_counts is not None and table is not None):
            plan = self.migration_policy.consider(
                k, entry, shards, periods, table, source_counts)
            if plan is not None:
                entry["migration"] = plan
        self.history.append(entry)
        bus = self.bus
        if bus is not None and bus and len(entry) > 2:
            # only decisions with substance (beyond k/mode) are events;
            # independent mode stays silent
            bus.emit(ShardRebalanced(k=k, mode=self.mode, detail=dict(entry)))
        return entry

    # ------------------------------------------------------------------ #
    # CPU-share rebalancing
    # ------------------------------------------------------------------ #
    def _rebalance_headroom(self, shards: Sequence[EngineShard],
                            periods: Sequence[PeriodRecord],
                            entry: dict) -> None:
        total = sum(s.headroom for s in shards)
        period = shards[0].loop.period
        demands = []
        for shard, p in zip(shards, periods):
            offered_rate = p.offered / period
            # catch-up: drain the current backlog within one target horizon
            backlog_rate = p.queue_length / max(shard.base_target, period)
            demands.append(max(p.cost * (offered_rate + backlog_rate), 1e-9))
        scale = total / sum(demands)
        shares = [d * scale for d in demands]
        alloc = _bounded_shares(shares, self.headroom_floor,
                                self.headroom_ceiling, total)
        new = []
        for shard, h_alloc in zip(shards, alloc):
            h = (1.0 - self.gain) * shard.headroom + self.gain * h_alloc
            shard.set_headroom(h)
            new.append(h)
        entry["demand"] = demands
        entry["headroom"] = new


def _bounded_shares(shares: Sequence[float], floor: float, ceiling: float,
                    total: float) -> List[float]:
    """Clamp shares into [floor, ceiling] while preserving their sum.

    Iterative water-filling: clamp, then spread the residual over the
    shards with room left (proportionally to that room). Each pass either
    finishes or saturates at least one shard, so ``n`` passes suffice.
    """
    n = len(shares)
    if n * floor > total + 1e-12 or n * ceiling < total - 1e-12:
        raise ServiceError(
            f"total headroom {total:.4f} cannot be split over {n} shards "
            f"within [{floor}, {ceiling}]"
        )
    alloc = [min(max(s, floor), ceiling) for s in shares]
    for __ in range(n):
        residual = total - sum(alloc)
        if abs(residual) < 1e-12:
            break
        if residual > 0:
            room = [ceiling - a for a in alloc]
        else:
            room = [floor - a for a in alloc]  # negative room
        total_room = sum(room)
        if abs(total_room) < 1e-15:
            break
        for i in range(n):
            alloc[i] += residual * room[i] / total_room
    return alloc
