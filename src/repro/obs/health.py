"""Online fleet health detectors built on the event bus.

The paper's measurement-lag argument (Section 3.3 / Eq. 11) is exactly why
these exist: the true delay of a tuple is only known after it departs, so
any *online* health verdict must be built from the same ŷ(k) estimate the
controller feeds on. A :class:`HealthMonitor` subscribes to the bus and
watches the per-period decision stream for sustained pathologies:

``qos_violation``
    the delay estimate has exceeded the target for ``qos_patience``
    consecutive periods — the loop is not holding its SLA;
``actuator_saturated``
    the entry drop probability has pinned at its upper bound
    (``alpha >= SATURATION_ALPHA``) for ``saturation_patience`` periods —
    the controller is demanding more shedding than the actuator can
    deliver, so the loop is effectively open;
``controller_windup``
    the commanded admission rate has been clamped at zero while the raw
    controller state keeps diverging — the textbook integrator-windup
    signature (see the anti-windup ablation);
``drain_truncated``
    the end-of-run drain gave up with tuples outstanding — tail metrics
    of this run are untrustworthy;
``shard_imbalance``
    across a fleet, the spread between the worst and best shard's delay
    estimate has exceeded ``imbalance_spread`` times the mean in-force
    target for ``imbalance_patience`` consecutive periods — load is
    skewed and (if the coordinator is enabled) rebalancing is overdue;
``ingest_drops``
    the live ingest buffer has refused tuples at its capacity for
    ``ingest_patience`` consecutive periods — the front door is shedding
    *silently* (senders get no signal), so sustained drops mean the
    node is overloaded beyond even its admission-control posture;
``model_mismatch``
    the online-identified plant gain (:mod:`repro.obs.sysid`) has sat
    outside the design model's mismatch band for ``MISMATCH_PATIENCE``
    consecutive periods — the controller is flying a plant it was not
    designed for, typically *before* the QoS consequence lands;
``margin_eroded``
    the stability margins re-evaluated with the identified gain have
    dipped below their floors for ``MARGIN_PATIENCE`` consecutive
    periods — the paper's ``1/K`` robustness budget is nearly spent.

Detectors report *episodes*: one :class:`HealthReport` per contiguous
stretch of bad periods, updated in place while the episode lasts.
:meth:`HealthMonitor.finalize` seals every episode still open at the end
of the run, so ``open=True`` afterwards reliably means "outlived the run"
(late stragglers on the bus can neither close nor extend a sealed
episode).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from .bus import EventBus, get_bus
from .events import ObsEvent
from .sysid import SATURATION_ALPHA

#: consecutive periods a sysid verdict must hold before it becomes an
#: episode: mismatch is critical and reported fast, an eroded margin is a
#: warning and waits one period longer
MISMATCH_PATIENCE = 2
MARGIN_PATIENCE = 3

SEVERITY_WARNING = "warning"
SEVERITY_CRITICAL = "critical"

HEALTH_KINDS = ("qos_violation", "actuator_saturated", "controller_windup",
                "drain_truncated", "shard_imbalance", "ingest_drops",
                "model_mismatch", "margin_eroded")


@dataclass
class HealthReport:
    """One detected episode of one pathology on one shard (or the fleet)."""

    kind: str
    shard: Optional[str]
    severity: str
    first_k: int
    last_k: int
    value: float          # kind-specific magnitude (see ``detail``)
    detail: str
    open: bool = True     # still ongoing when the run ended

    @property
    def periods(self) -> int:
        return self.last_k - self.first_k + 1

    def as_dict(self) -> dict:
        return {"kind": self.kind, "shard": self.shard,
                "severity": self.severity, "first_k": self.first_k,
                "last_k": self.last_k, "periods": self.periods,
                "value": self.value, "detail": self.detail, "open": self.open}


@dataclass
class _Streak:
    """Consecutive-period accounting behind one detector on one shard."""

    count: int = 0
    start_k: int = -1
    peak: float = 0.0
    report: Optional[HealthReport] = None

    def advance(self, k: int, value: float) -> None:
        if self.count == 0:
            self.start_k = k
            self.peak = value
        self.count += 1
        self.peak = max(self.peak, value)

    def clear(self) -> None:
        if self.report is not None:
            self.report.open = False
        self.count = 0
        self.start_k = -1
        self.peak = 0.0
        self.report = None

    def detach(self) -> None:
        """Seal the episode: forget the report *without* closing it.

        Used by :meth:`HealthMonitor.finalize` so a report still open at
        the end of the run keeps ``open=True`` forever — a late "good"
        event arriving after finalization starts a fresh episode instead
        of silently flipping the finished one closed.
        """
        self.count = 0
        self.start_k = -1
        self.peak = 0.0
        self.report = None


class HealthMonitor:
    """Subscribes to a bus and maintains structured health reports."""

    def __init__(self, bus: Optional[EventBus] = None,
                 qos_patience: int = 5,
                 qos_tolerance: float = 0.0,
                 saturation_patience: int = 3,
                 windup_patience: int = 5,
                 imbalance_spread: float = 1.0,
                 imbalance_patience: int = 3,
                 ingest_patience: int = 3):
        for name, patience in (("qos_patience", qos_patience),
                               ("saturation_patience", saturation_patience),
                               ("windup_patience", windup_patience),
                               ("imbalance_patience", imbalance_patience),
                               ("ingest_patience", ingest_patience)):
            if patience < 1:
                raise ValueError(f"{name} must be >= 1, got {patience}")
        self.bus = bus if bus is not None else get_bus()
        self.qos_patience = qos_patience
        self.qos_tolerance = qos_tolerance
        self.saturation_patience = saturation_patience
        self.windup_patience = windup_patience
        self.imbalance_spread = imbalance_spread
        self.imbalance_patience = imbalance_patience
        self.ingest_patience = ingest_patience

        #: optional callback fired once per *newly opened* report (the
        #: flight recorder hooks this to auto-dump on critical episodes)
        self.on_report = None

        self._reports: List[HealthReport] = []
        self._qos: Dict[str, _Streak] = {}
        self._sat: Dict[str, _Streak] = {}
        self._windup: Dict[str, _Streak] = {}
        self._ingest: Dict[str, _Streak] = {}
        self._mismatch: Dict[str, _Streak] = {}
        self._margin: Dict[str, _Streak] = {}
        self._u_prev: Dict[str, float] = {}
        self._fleet: Dict[int, Dict[str, Tuple[float, float]]] = {}
        self._imbalance = _Streak()
        self.bus.subscribe(self._on_event,
                           kinds=("period", "drain_truncated",
                                  "ingest", "sysid"))

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    def close(self) -> None:
        """Stop listening; reports stay available."""
        self.bus.unsubscribe(self._on_event)

    def __enter__(self) -> "HealthMonitor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    # results
    # ------------------------------------------------------------------ #
    def reports(self, kind: Optional[str] = None) -> List[HealthReport]:
        if kind is None:
            return list(self._reports)
        return [r for r in self._reports if r.kind == kind]

    def has(self, kind: str) -> bool:
        return any(r.kind == kind for r in self._reports)

    def healthy(self, min_severity: Optional[str] = None) -> bool:
        """Whether the run is clean — optionally only above a severity.

        With no argument any report at all fails (the historical, strict
        form).  ``healthy(min_severity="critical")`` ignores warnings:
        only :data:`SEVERITY_CRITICAL` episodes count, so a run that
        merely brushed a warning detector still passes.
        """
        if min_severity is None or min_severity == SEVERITY_WARNING:
            return not self._reports
        if min_severity != SEVERITY_CRITICAL:
            raise ValueError(f"unknown severity {min_severity!r}")
        return not any(r.severity == SEVERITY_CRITICAL for r in self._reports)

    def critical_open(self) -> bool:
        """True while at least one critical episode is currently open."""
        return any(r.open and r.severity == SEVERITY_CRITICAL
                   for r in self._reports)

    def summary(self) -> dict:
        """Counts per kind plus the full report list (JSON-able)."""
        counts: Dict[str, int] = {}
        for report in self._reports:
            counts[report.kind] = counts.get(report.kind, 0) + 1
        return {"healthy": self.healthy(),
                "critical_open": self.critical_open(),
                "counts": counts,
                "reports": [r.as_dict() for r in self._reports]}

    def _add_report(self, report: HealthReport) -> HealthReport:
        self._reports.append(report)
        if self.on_report is not None:
            self.on_report(report)
        return report

    # ------------------------------------------------------------------ #
    # event handling
    # ------------------------------------------------------------------ #
    def _on_event(self, event: ObsEvent) -> None:
        if event.kind == "period":
            self._on_period(event)
        elif event.kind == "ingest":
            self._on_ingest(event)
        elif event.kind == "sysid":
            self._on_sysid(event)
        elif event.kind == "drain_truncated":
            self._add_report(HealthReport(
                kind="drain_truncated",
                shard=event.shard,
                severity=SEVERITY_WARNING,
                first_k=-1, last_k=-1,
                value=float(event.leftover),
                detail=(f"end-of-run drain gave up with {event.leftover} "
                        "tuples outstanding; tail delay metrics are not a "
                        "faithful quiescent drain"),
                open=False,
            ))

    def _on_period(self, event) -> None:
        p = event.record
        shard = event.shard or "main"
        self._check_qos(shard, p)
        self._check_saturation(shard, p)
        self._check_windup(shard, p)
        self._check_imbalance(shard, p)

    def _on_ingest(self, event) -> None:
        shard = event.shard or "main"
        bad = event.dropped > 0

        def detail(streak: _Streak) -> str:
            return (f"ingest buffer refused tuples at capacity for "
                    f"{streak.count} consecutive periods (worst "
                    f"{int(streak.peak)} drops/period); senders get no "
                    "backpressure signal — the node is shedding silently "
                    "at the front door")

        self._run_streak(self._ingest, shard, bad, event.k,
                         float(event.dropped), self.ingest_patience,
                         "ingest_drops", SEVERITY_WARNING, detail)

    def _on_sysid(self, event) -> None:
        shard = event.shard or "main"
        deviation = max(event.gain_ratio, 1.0 / event.gain_ratio) \
            if event.gain_ratio > 0 else 1.0

        def mismatch_detail(streak: _Streak) -> str:
            return (f"identified plant gain sat {streak.peak:.2f}x away "
                    f"from the design model for {streak.count} consecutive "
                    f"periods (ratio {event.gain_ratio:.2f}); the "
                    "controller's cost model is stale and the 1/K "
                    "robustness budget is being spent")

        self._run_streak(self._mismatch, shard,
                         bool(event.mismatch), event.k, deviation,
                         MISMATCH_PATIENCE, "model_mismatch",
                         SEVERITY_CRITICAL, mismatch_detail)

        def margin_detail(streak: _Streak) -> str:
            return (f"effective stability margins below floor for "
                    f"{streak.count} consecutive periods (gain margin "
                    f"down to {event.gain_margin:.2f}, modulus "
                    f"{event.modulus_margin:.2f}); the loop is running "
                    "close to its robustness limit")

        margin_value = event.gain_margin if event.gain_margin > 0 else 0.0
        self._run_streak(self._margin, shard,
                         bool(event.eroded), event.k, margin_value,
                         MARGIN_PATIENCE, "margin_eroded",
                         SEVERITY_WARNING, margin_detail)

    # ------------------------------------------------------------------ #
    # detectors
    # ------------------------------------------------------------------ #
    def _run_streak(self, streaks: Dict[str, _Streak], shard: str,
                    bad: bool, k: int, value: float, patience: int,
                    kind: str, severity: str, detail_fn) -> None:
        streak = streaks.setdefault(shard, _Streak())
        if not bad:
            streak.clear()
            return
        streak.advance(k, value)
        if streak.count < patience:
            return
        if streak.report is None:
            streak.report = HealthReport(
                kind=kind, shard=shard, severity=severity,
                first_k=streak.start_k, last_k=k, value=streak.peak,
                detail=detail_fn(streak),
            )
            self._add_report(streak.report)
        else:
            streak.report.last_k = k
            streak.report.value = streak.peak
            streak.report.detail = detail_fn(streak)

    def _check_qos(self, shard: str, p) -> None:
        excess = p.delay_estimate - p.target
        bad = excess > self.qos_tolerance

        def detail(streak: _Streak) -> str:
            return (f"delay estimate above target for {streak.count} "
                    f"consecutive periods (worst excess "
                    f"{streak.peak:.3f} s over yd)")

        self._run_streak(self._qos, shard, bad, p.k, max(excess, 0.0),
                         self.qos_patience, "qos_violation",
                         SEVERITY_CRITICAL, detail)

    def _check_saturation(self, shard: str, p) -> None:
        bad = p.alpha >= SATURATION_ALPHA

        def detail(streak: _Streak) -> str:
            return (f"entry drop probability pinned at alpha="
                    f"{streak.peak:.3f} for {streak.count} consecutive "
                    "periods; the actuator cannot shed harder and the "
                    "loop is effectively open")

        self._run_streak(self._sat, shard, bad, p.k, p.alpha,
                         self.saturation_patience, "actuator_saturated",
                         SEVERITY_CRITICAL, detail)

    def _check_windup(self, shard: str, p) -> None:
        u_prev = self._u_prev.get(shard)
        self._u_prev[shard] = p.u
        bad = (u_prev is not None and p.v <= 0.0 and p.u < u_prev)

        def detail(streak: _Streak) -> str:
            return (f"admission command clamped at zero while the raw "
                    f"controller output kept diverging for {streak.count} "
                    f"consecutive periods (u down to {p.u:.1f} t/s); "
                    "consider anti-windup back-calculation")

        self._run_streak(self._windup, shard, bad, p.k, abs(p.u),
                         self.windup_patience, "controller_windup",
                         SEVERITY_WARNING, detail)

    def _check_imbalance(self, shard: str, p) -> None:
        # group estimates by period; evaluate k-1 once every shard that is
        # going to report it has (i.e. when the first k row lands)
        self._fleet.setdefault(p.k, {})[shard] = (p.delay_estimate, p.target)
        stale = [k for k in self._fleet if k < p.k]
        for k in sorted(stale):
            self._evaluate_imbalance(k, self._fleet.pop(k))

    def _evaluate_imbalance(self, k: int,
                            rows: Dict[str, Tuple[float, float]]) -> None:
        if len(rows) < 2:
            return
        estimates = {shard: est for shard, (est, _) in rows.items()}
        worst = max(estimates, key=estimates.get)
        best = min(estimates, key=estimates.get)
        spread = estimates[worst] - estimates[best]
        mean_target = sum(t for _, t in rows.values()) / len(rows)
        bad = spread > self.imbalance_spread * max(mean_target, 1e-9)
        streak = self._imbalance
        if not bad:
            streak.clear()
            return
        streak.advance(k, spread)
        if streak.count < self.imbalance_patience:
            return

        def detail() -> str:
            return (f"delay-estimate spread across shards reached "
                    f"{streak.peak:.2f} s (worst {worst!r}, best {best!r}) "
                    f"over {streak.count} consecutive periods; load is "
                    "skewed relative to the CPU split")

        if streak.report is None:
            streak.report = HealthReport(
                kind="shard_imbalance", shard=worst,
                severity=SEVERITY_WARNING,
                first_k=streak.start_k, last_k=k, value=streak.peak,
                detail=detail(),
            )
            self._add_report(streak.report)
        else:
            streak.report.last_k = k
            streak.report.shard = worst
            streak.report.value = streak.peak
            streak.report.detail = detail()

    def finalize(self) -> List[HealthReport]:
        """Evaluate pending fleet rows, then seal every open episode.

        After this returns, ``open=True`` on a report reliably means the
        episode outlived the run: still-open streak reports are detached
        from their live detector state, so stray events arriving later (a
        slow relay draining, a test poking the bus) can neither close nor
        extend them — they start fresh episodes instead.
        """
        for k in sorted(self._fleet):
            self._evaluate_imbalance(k, self._fleet[k])
        self._fleet.clear()
        for streaks in (self._qos, self._sat, self._windup, self._ingest,
                        self._mismatch, self._margin):
            for streak in streaks.values():
                streak.detach()
        self._imbalance.detach()
        return self.reports()
