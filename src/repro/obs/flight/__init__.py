"""The incident flight recorder: bounded rings, bundles, deterministic replay.

A :class:`FlightRecorder` is a pure bus observer that keeps, per shard, a
bounded ring of the recent observability stream — period records, shed
decisions, route epochs, ingest stats, sysid state and coordinator
events.  On a trigger it freezes everything it knows
into one self-contained JSON *incident bundle*:

* **health** — any *critical* :class:`~repro.obs.health.HealthMonitor`
  episode opening (hook one monitor with :meth:`FlightRecorder.watch`);
* **http** — ``POST /incident`` on the live
  :class:`~repro.obs.serve.ObsServer`;
* **signal** — ``SIGUSR2`` to the process
  (:meth:`FlightRecorder.handle_signals`);
* **manual** — :meth:`FlightRecorder.dump` from code.

The bundle carries the config snapshots that *produced* the run, so a
bundle from any deterministic runtime is its own reproduction recipe:
``python -m repro.obs.flight replay bundle.json`` rebuilds the engine
from the embedded specs, re-runs it, and diffs the period stream against
the ring float-for-float.  Bundles recorded by the since-deleted process
fleet reproduced the lockstep trajectory exactly, so they still replay
through the single-process :class:`~repro.service.service.StreamService`:
their shard keys carry ``pid<pid>/<shard>`` relay provenance, which
replay strips.  Live (wall-clock) runs have no deterministic
arrival recipe; their bundles carry ``replay: null`` and the CLI reports
them as not replayable (exit 2) rather than pretending.

Recording is O(1) per event and allocation-bounded (deques), and the
recorder never touches the loop — with it on or off the trajectory is
identical, which is precisely what makes replay exact.
"""

from __future__ import annotations

import json
import os
import signal
import time
from collections import deque
from dataclasses import asdict, fields, is_dataclass
from pathlib import Path
from typing import Dict, List, Optional, Union

from ...errors import ObservabilityError
from ..bus import EventBus, get_bus
from ..events import IncidentDumped, event_to_dict
from ..health import SEVERITY_CRITICAL, HealthMonitor
from ..logconf import get_logger

_log = get_logger("obs.flight")

#: bundle format tag; bump on incompatible layout changes
FLIGHT_FORMAT = "repro-flight-1"

#: event kinds the recorder rings (everything the post-mortem needs; the
#: tuple_trace firehose stays out on purpose — sampled spans are a
#: different subsystem with its own sinks)
RING_KINDS = (
    "period", "ingest", "sysid",
    "route_changed", "migration_completed",
    "headroom_changed", "rebalanced", "drain_truncated",
    "model_mismatch", "margin_eroded",
)


def _json_default(value):
    """Serialize the odd non-JSON native (numpy scalars, paths, sets)."""
    if hasattr(value, "item"):          # numpy scalar
        return value.item()
    if isinstance(value, Path):
        return str(value)
    if isinstance(value, (set, frozenset, tuple)):
        return list(value)
    raise TypeError(f"not JSON-serializable: {type(value).__name__}")


class FlightRecorder:
    """Per-shard bounded event rings + incident bundle writer.

    ``ring`` bounds every per-shard, per-kind deque, so memory is
    O(shards x kinds x ring) regardless of run length.  ``experiment`` /
    ``service`` are the dataclass specs that built the run (snapshotted
    into each bundle via ``asdict``); ``replay_spec`` is the recipe the
    ``replay`` subcommand uses to re-run the window (see
    :func:`replay_bundle` for the recognized kinds), or None when the
    run is not deterministically reproducible (live traffic).
    """

    def __init__(self, bus: Optional[EventBus] = None, *,
                 ring: int = 256,
                 directory: Union[str, Path] = "incidents",
                 runtime: str = "lockstep",
                 experiment=None,
                 service=None,
                 replay_spec: Optional[dict] = None,
                 registry=None,
                 status_fn=None,
                 max_dumps: int = 8):
        if ring < 1:
            raise ObservabilityError(f"ring size must be >= 1, got {ring}")
        if max_dumps < 1:
            raise ObservabilityError(
                f"max_dumps must be >= 1, got {max_dumps}")
        self.bus = bus if bus is not None else get_bus()
        self.ring = int(ring)
        self.directory = Path(directory)
        self.runtime = runtime
        self.experiment = experiment
        self.service = service
        self.replay_spec = replay_spec
        self.registry = registry
        self.status_fn = status_fn
        self.max_dumps = int(max_dumps)
        #: paths of the bundles written so far, in order
        self.incidents: List[Path] = []
        self._rings: Dict[str, Dict[str, deque]] = {}
        self._events_seen = 0
        self._watched: List[HealthMonitor] = []
        self._closed = False
        self.bus.subscribe(self._on_event, kinds=RING_KINDS)

    # ------------------------------------------------------------------ #
    # recording
    # ------------------------------------------------------------------ #
    def _on_event(self, event) -> None:
        doc = event_to_dict(event)
        shard = doc.get("shard") or "main"
        rings = self._rings.get(shard)
        if rings is None:
            rings = self._rings[shard] = {}
        ring = rings.get(event.kind)
        if ring is None:
            ring = rings[event.kind] = deque(maxlen=self.ring)
        ring.append(doc)
        self._events_seen += 1

    def snapshot(self) -> dict:
        """The rings as plain JSON-able lists (oldest first)."""
        return {
            shard: {kind: list(ring) for kind, ring in sorted(rings.items())}
            for shard, rings in sorted(self._rings.items())
        }

    # ------------------------------------------------------------------ #
    # triggers
    # ------------------------------------------------------------------ #
    def watch(self, monitor: HealthMonitor) -> HealthMonitor:
        """Auto-dump whenever ``monitor`` opens a *critical* episode.

        Chains onto the monitor's ``on_report`` slot (preserving any
        previous callback), so one recorder can watch several monitors
        and vice versa.  Returns the monitor for fluent wiring.
        """
        previous = monitor.on_report

        def hook(report):
            if previous is not None:
                previous(report)
            if report.severity == SEVERITY_CRITICAL:
                self.dump(
                    reason=(f"{report.kind} opened on "
                            f"{report.shard or 'main'} at period "
                            f"{report.first_k}: {report.detail}"),
                    trigger="health",
                    shard=report.shard,
                )

        monitor.on_report = hook
        self._watched.append(monitor)
        return monitor

    def handle_signals(self) -> bool:
        """Dump on ``SIGUSR2`` (operator-initiated post-mortem).

        Returns False on platforms without SIGUSR2 or off the main
        thread, where signal handlers cannot be installed.
        """
        if not hasattr(signal, "SIGUSR2"):  # pragma: no cover - win only
            return False
        try:
            signal.signal(
                signal.SIGUSR2,
                lambda signum, frame: self.dump(reason="SIGUSR2",
                                                trigger="signal"))
        except ValueError:  # pragma: no cover - non-main thread
            return False
        return True

    # ------------------------------------------------------------------ #
    # the bundle
    # ------------------------------------------------------------------ #
    def bundle(self, reason: str = "", trigger: str = "manual",
               shard: Optional[str] = None) -> dict:
        """Build (but do not write) one self-contained incident bundle."""
        def spec_dict(spec):
            if spec is None:
                return None
            if is_dataclass(spec) and not isinstance(spec, type):
                return asdict(spec)
            return dict(spec)

        health = None
        for monitor in self._watched:
            health = monitor.summary()
            break
        return {
            "format": FLIGHT_FORMAT,
            "reason": reason,
            "trigger": trigger,
            "shard": shard,
            "runtime": self.runtime,
            "written_at": time.time(),
            "pid": os.getpid(),
            "ring": self.ring,
            "events_seen": self._events_seen,
            "experiment": spec_dict(self.experiment),
            "service": spec_dict(self.service),
            "replay": (dict(self.replay_spec)
                       if self.replay_spec is not None else None),
            "rings": self.snapshot(),
            "health": health,
            "metrics": (self.registry.snapshot()
                        if self.registry is not None else None),
            "status": (self.status_fn()
                       if self.status_fn is not None else None),
        }

    def dump(self, reason: str = "", trigger: str = "manual",
             shard: Optional[str] = None) -> Optional[Path]:
        """Write one incident bundle; returns its path (None if capped).

        ``max_dumps`` bounds disk usage under a flapping detector: once
        reached, further triggers are logged and ignored.
        """
        if self._closed or len(self.incidents) >= self.max_dumps:
            if not self._closed:
                _log.warning("flight recorder at max_dumps=%d; "
                             "dropping %s-triggered dump (%s)",
                             self.max_dumps, trigger, reason)
            return None
        self.directory.mkdir(parents=True, exist_ok=True)
        seq = len(self.incidents)
        path = self.directory / (
            f"incident-{os.getpid()}-{seq:03d}-{trigger}.json")
        doc = self.bundle(reason=reason, trigger=trigger, shard=shard)
        tmp = path.with_name(path.name + ".tmp")
        tmp.write_text(json.dumps(doc, default=_json_default))
        os.replace(tmp, path)
        self.incidents.append(path)
        _log.info("incident bundle written: %s (%s: %s)", path, trigger,
                  reason or "no reason given")
        if self.bus:
            self.bus.emit(IncidentDumped(reason=reason, trigger=trigger,
                                         path=str(path), shard=shard))
        return path

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    def close(self) -> None:
        """Detach from the bus (idempotent; rings stay readable)."""
        if not self._closed:
            self.bus.unsubscribe(self._on_event)
            self._closed = True

    def __enter__(self) -> "FlightRecorder":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


# ---------------------------------------------------------------------- #
# bundle loading + deterministic replay
# ---------------------------------------------------------------------- #
class ReplayDiff:
    """The outcome of replaying one bundle against its recorded rings."""

    def __init__(self) -> None:
        self.compared = 0
        self.mismatches: List[dict] = []
        self.skipped: List[str] = []

    @property
    def ok(self) -> bool:
        return self.compared > 0 and not self.mismatches

    def summary(self) -> dict:
        return {"ok": self.ok, "compared": self.compared,
                "mismatches": self.mismatches, "skipped": self.skipped}


def load_bundle(path: Union[str, Path]) -> dict:
    """Read and format-check one incident bundle."""
    doc = json.loads(Path(path).read_text())
    if doc.get("format") != FLIGHT_FORMAT:
        raise ObservabilityError(
            f"not a flight bundle (format {doc.get('format')!r}, "
            f"expected {FLIGHT_FORMAT!r}): {path}")
    return doc


def _base_shard(label: str) -> str:
    """Strip relay provenance: ``pid1234/shard0`` -> ``shard0``."""
    return label.rsplit("/", 1)[-1]


def _record_fields():
    from ...metrics.recorder import PeriodRecord
    return [f.name for f in fields(PeriodRecord)]


def _diff_periods(diff: ReplayDiff, shard: str, recorded: List[dict],
                  replayed_by_k: Dict[int, dict]) -> None:
    names = _record_fields()
    for doc in recorded:
        rec = doc.get("record") or {}
        k = rec.get("k")
        replayed = replayed_by_k.get(k)
        if replayed is None:
            diff.mismatches.append({
                "shard": shard, "k": k, "field": None,
                "recorded": "present", "replayed": "missing"})
            continue
        diff.compared += 1
        for name in names:
            a, b = rec.get(name), replayed.get(name)
            if a != b:
                diff.mismatches.append({
                    "shard": shard, "k": k, "field": name,
                    "recorded": a, "replayed": b})


def _not_replayable(bundle: dict) -> Optional[str]:
    """Why this bundle cannot be deterministically replayed, or None."""
    spec = bundle.get("replay")
    if spec is None:
        return ("bundle carries no replay recipe (live/wall-clock runs "
                "have no deterministic arrival stream)")
    kind = spec.get("kind")
    if kind not in ("service", "strategy"):
        return f"unknown replay recipe kind {kind!r}"
    if kind != "service":
        return None
    if not spec.get("sync", True):
        return ("async (free-running) fleet runs do not reproduce the "
                "lockstep trajectory; only sync-mode bundles replay "
                "exactly")
    svc = bundle.get("service") or {}
    if svc.get("mode") == "target":
        return ("the coordinator's 'target' mode no longer exists; this "
                "bundle's delay-budget shifts cannot be re-executed")
    if svc.get("loss_bound") is not None:
        return ("the fleet-wide loss_bound drop SLA no longer exists; "
                "replaying without it would not reproduce the recorded "
                "drop caps")
    return None


def replay_bundle(bundle: dict) -> ReplayDiff:
    """Re-run the bundle's recipe and diff the period stream, exactly.

    The engine is deterministic from period 0, so the whole run is
    re-executed and the *recorded window* (each shard's period ring) is
    compared float-for-float against the replayed stream.  Raises
    :class:`~repro.errors.ObservabilityError` when the bundle carries no
    usable recipe — callers distinguishing "mismatch" from "cannot
    replay" should check :func:`_not_replayable` first (the CLI maps the
    two onto exit codes 1 and 2).
    """
    why = _not_replayable(bundle)
    if why is not None:
        raise ObservabilityError(why)
    spec = bundle["replay"]
    if spec["kind"] == "service":
        replayed = _replay_service(bundle, spec)
    else:
        replayed = _replay_strategy(bundle, spec)
    diff = ReplayDiff()
    for shard, rings in sorted(bundle.get("rings", {}).items()):
        recorded = rings.get("period") or []
        if not recorded:
            continue
        name = _base_shard(shard)
        by_k = replayed.get(name)
        if by_k is None:
            diff.skipped.append(
                f"shard {shard!r}: no replayed counterpart {name!r}")
            continue
        _diff_periods(diff, shard, recorded, by_k)
    if diff.compared == 0 and not diff.mismatches:
        raise ObservabilityError(
            "bundle rings hold no period records to compare")
    return diff


def _by_k(record) -> Dict[int, dict]:
    return {p.k: asdict(p) for p in record.periods}


def _replay_service(bundle: dict, spec: dict) -> Dict[str, Dict[int, dict]]:
    # lazy imports: obs must stay importable without the experiments layer
    from ...experiments.config import ExperimentConfig
    from ...experiments.service_demo import run_service_experiment
    from ...service.config import ServiceConfig
    from ..attach import ObsConfig

    if bundle.get("experiment") is None or bundle.get("service") is None:
        raise ObservabilityError(
            "service bundle is missing its experiment/service snapshots")
    config = ExperimentConfig(**bundle["experiment"])
    allowed = {f.name for f in fields(ServiceConfig)}
    svc_kwargs = {k: v for k, v in bundle["service"].items() if k in allowed}
    # the replay leg is a pure re-execution: no serving, no new bundles
    # (sysid/health/flight are bus observers — they never alter the
    # trajectory, so disabling them changes nothing but wall time)
    svc_kwargs.update(asdict(ObsConfig()))
    svc = ServiceConfig(**svc_kwargs)
    result = run_service_experiment(
        config, svc, spec.get("workload_kind", "web"))
    return {name: _by_k(record)
            for name, record in result.shard_records.items()}


def _replay_strategy(bundle: dict, spec: dict) -> Dict[str, Dict[int, dict]]:
    from ...experiments.config import ExperimentConfig
    from ...experiments.runner import make_workload, run_strategy
    from ...workloads import CostTrace, constant_rate

    if bundle.get("experiment") is None:
        raise ObservabilityError(
            "strategy bundle is missing its experiment snapshot")
    config = ExperimentConfig(**bundle["experiment"])
    wl = spec.get("workload") or {}
    wl_kind = wl.get("kind", "web")
    if wl_kind == "constant":
        workload = constant_rate(
            wl["rate"], wl["n_periods"], period=wl.get("period", 1.0))
    elif wl_kind in ("web", "pareto"):
        workload = make_workload(wl_kind, config,
                                 beta=wl.get("beta", 1.0))
    else:
        raise ObservabilityError(f"unknown workload kind {wl_kind!r}")
    trace = spec.get("cost_trace")
    cost_trace = (CostTrace(trace["values"], trace.get("period", 1.0))
                  if trace else None)
    record = run_strategy(
        spec.get("strategy", "CTRL"), workload, config,
        cost_trace=cost_trace,
        actuator=spec.get("actuator", "entry"),
        alpha_cap=spec.get("alpha_cap", 1.0),
        engine_kind=spec.get("engine_kind"),
        scheduler=spec.get("scheduler"),
    )
    return {"main": _by_k(record)}


# ---------------------------------------------------------------------- #
# CLI: python -m repro.obs.flight {info, replay} bundle.json
# ---------------------------------------------------------------------- #
def _cmd_info(path: str) -> int:
    bundle = load_bundle(path)
    rings = bundle.get("rings", {})
    print(f"bundle:    {path}")
    print(f"runtime:   {bundle.get('runtime')}  "
          f"trigger={bundle.get('trigger')}  pid={bundle.get('pid')}")
    print(f"reason:    {bundle.get('reason') or '(none)'}")
    print(f"ring size: {bundle.get('ring')}  "
          f"events seen: {bundle.get('events_seen')}")
    for shard in sorted(rings):
        kinds = ", ".join(f"{kind}:{len(docs)}"
                          for kind, docs in sorted(rings[shard].items()))
        print(f"  {shard}: {kinds}")
    health = bundle.get("health")
    if health:
        print(f"health:    critical_open={health.get('critical_open')} "
              f"counts={health.get('counts')}")
    why = _not_replayable(bundle)
    print(f"replay:    {'yes' if why is None else f'no - {why}'}")
    return 0


def _cmd_replay(path: str, verbose: bool = False) -> int:
    bundle = load_bundle(path)
    why = _not_replayable(bundle)
    if why is not None:
        print(f"not replayable: {why}")
        return 2
    diff = replay_bundle(bundle)
    if diff.ok:
        print(f"replay OK: {diff.compared} period records matched "
              "float-for-float")
        for note in diff.skipped:
            print(f"  skipped: {note}")
        return 0
    print(f"replay MISMATCH: {len(diff.mismatches)} differences over "
          f"{diff.compared} compared records")
    shown = diff.mismatches if verbose else diff.mismatches[:10]
    for m in shown:
        print(f"  shard={m['shard']} k={m['k']} field={m['field']}: "
              f"recorded={m['recorded']!r} replayed={m['replayed']!r}")
    if not verbose and len(diff.mismatches) > 10:
        print(f"  ... {len(diff.mismatches) - 10} more (use --verbose)")
    return 1


def main(argv: Optional[List[str]] = None) -> int:
    import argparse

    parser = argparse.ArgumentParser(
        prog="python -m repro.obs.flight",
        description="inspect and deterministically replay incident bundles")
    sub = parser.add_subparsers(dest="command", required=True)
    p_info = sub.add_parser("info", help="summarize one bundle")
    p_info.add_argument("bundle")
    p_replay = sub.add_parser(
        "replay",
        help="re-run the bundle's recipe and diff the period stream "
             "(exit 0 exact, 1 mismatch, 2 not replayable)")
    p_replay.add_argument("bundle")
    p_replay.add_argument("--verbose", action="store_true",
                          help="print every field-level mismatch")
    args = parser.parse_args(argv)
    if args.command == "info":
        return _cmd_info(args.bundle)
    return _cmd_replay(args.bundle, verbose=args.verbose)


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    raise SystemExit(main())


__all__ = [
    "FLIGHT_FORMAT",
    "RING_KINDS",
    "FlightRecorder",
    "ReplayDiff",
    "load_bundle",
    "replay_bundle",
]
