"""Process-wide metrics: counters, gauges, histograms, Prometheus text.

A :class:`MetricsRegistry` holds named metrics with optional labels and
renders them in the Prometheus text exposition format, so a run can be
scraped (or the text dumped to a file) while it is in flight. A process-
wide default registry (:func:`get_registry`) mirrors the default event bus.

Nothing in the library updates metrics directly — instrumented code emits
events, and :class:`MetricsBridge` (a bus subscriber) folds the event
stream into the standard metric set. Not installing the bridge therefore
costs nothing; installing it is one call:

    >>> from repro.obs import install_metrics
    >>> bridge = install_metrics()          # default bus + default registry
    >>> # ... run anything ...
    >>> print(bridge.registry.prometheus_text())
"""

from __future__ import annotations

import math
import os
import re
import threading
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Tuple, Union

from ..errors import ObservabilityError
from .bus import EventBus, get_bus
from .events import ObsEvent

_NAME_RE = re.compile(r"[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"[a-zA-Z_][a-zA-Z0-9_]*$")

LabelKey = Tuple[Tuple[str, str], ...]

#: namespace of every series of the standard metric set (dashboards, the
#: e2e benchmark and CI's HTTP smokes grep for ``repro_...`` names)
PREFIX = "repro"

#: default histogram buckets: delay-ish seconds, log-spaced
DEFAULT_BUCKETS = (0.05, 0.1, 0.25, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0)

#: quantiles rendered in each histogram's derived ``_summary`` family
SUMMARY_QUANTILES = (0.5, 0.95, 0.99)


def _label_key(labels: Dict[str, str]) -> LabelKey:
    for name in labels:
        if not _LABEL_RE.match(name):
            raise ObservabilityError(f"bad label name {name!r}")
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


def _escape_label_value(value: str) -> str:
    return (value.replace("\\", r"\\")
                 .replace("\n", r"\n")
                 .replace('"', r'\"'))


def _render_labels(key: LabelKey, extra: Tuple[Tuple[str, str], ...] = ()) -> str:
    items = key + extra
    if not items:
        return ""
    inner = ",".join(f'{k}="{_escape_label_value(v)}"' for k, v in items)
    return "{" + inner + "}"


def _format_value(value: float) -> str:
    if math.isinf(value):
        return "+Inf" if value > 0 else "-Inf"
    if math.isnan(value):
        return "NaN"
    if float(value).is_integer() and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


class Metric:
    """Shared machinery: a named family of labelled time series."""

    type_name = "untyped"

    def __init__(self, name: str, help_text: str = ""):
        if not _NAME_RE.match(name):
            raise ObservabilityError(f"bad metric name {name!r}")
        self.name = name
        self.help_text = help_text

    def samples(self) -> Iterable[Tuple[str, LabelKey, float]]:
        """Yield ``(suffix, labels, value)`` exposition samples."""
        raise NotImplementedError

    def snapshot(self) -> dict:
        """JSON-able view of the whole family."""
        raise NotImplementedError


class Counter(Metric):
    """A monotonically increasing count (per label set)."""

    type_name = "counter"

    def __init__(self, name: str, help_text: str = ""):
        super().__init__(name, help_text)
        self._values: Dict[LabelKey, float] = {}

    def inc(self, amount: float = 1.0, **labels: str) -> None:
        if amount < 0:
            raise ObservabilityError(
                f"counter {self.name} cannot decrease (inc by {amount})"
            )
        key = _label_key(labels)
        self._values[key] = self._values.get(key, 0.0) + amount

    def value(self, **labels: str) -> float:
        return self._values.get(_label_key(labels), 0.0)

    def samples(self):
        for key, value in sorted(self._values.items()):
            yield "", key, value

    def snapshot(self) -> dict:
        return {"type": "counter",
                "values": {_render_labels(k) or "": v
                           for k, v in sorted(self._values.items())}}


class Gauge(Metric):
    """A value that goes up and down (per label set)."""

    type_name = "gauge"

    def __init__(self, name: str, help_text: str = ""):
        super().__init__(name, help_text)
        self._values: Dict[LabelKey, float] = {}

    def set(self, value: float, **labels: str) -> None:
        self._values[_label_key(labels)] = float(value)

    def inc(self, amount: float = 1.0, **labels: str) -> None:
        key = _label_key(labels)
        self._values[key] = self._values.get(key, 0.0) + amount

    def value(self, **labels: str) -> float:
        return self._values.get(_label_key(labels), 0.0)

    def samples(self):
        for key, value in sorted(self._values.items()):
            yield "", key, value

    def snapshot(self) -> dict:
        return {"type": "gauge",
                "values": {_render_labels(k) or "": v
                           for k, v in sorted(self._values.items())}}


class Histogram(Metric):
    """Cumulative-bucket histogram (Prometheus semantics)."""

    type_name = "histogram"

    def __init__(self, name: str, help_text: str = "",
                 buckets: Tuple[float, ...] = DEFAULT_BUCKETS):
        super().__init__(name, help_text)
        bounds = tuple(sorted(float(b) for b in buckets))
        if not bounds:
            raise ObservabilityError("histogram needs at least one bucket")
        if len(set(bounds)) != len(bounds):
            raise ObservabilityError("histogram buckets must be distinct")
        self.buckets = bounds
        self._counts: Dict[LabelKey, List[int]] = {}
        self._sums: Dict[LabelKey, float] = {}
        self._totals: Dict[LabelKey, int] = {}

    def observe(self, value: float, **labels: str) -> None:
        key = _label_key(labels)
        counts = self._counts.get(key)
        if counts is None:
            counts = self._counts[key] = [0] * len(self.buckets)
            self._sums[key] = 0.0
            self._totals[key] = 0
        for i, bound in enumerate(self.buckets):
            if value <= bound:
                counts[i] += 1
                break
        self._sums[key] += float(value)
        self._totals[key] += 1

    def count(self, **labels: str) -> int:
        return self._totals.get(_label_key(labels), 0)

    def sum(self, **labels: str) -> float:
        return self._sums.get(_label_key(labels), 0.0)

    def quantile(self, q: float, **labels: str) -> float:
        """Bucket-interpolated quantile estimate (histogram_quantile rules).

        Linear interpolation inside the bucket the rank falls in, with
        the first finite bucket interpolated from zero; a rank landing in
        the ``+Inf`` bucket clamps to the highest finite bound. NaN with
        no observations.
        """
        if not 0.0 <= q <= 1.0:
            raise ObservabilityError(f"quantile must be in [0, 1], got {q}")
        key = _label_key(labels)
        total = self._totals.get(key, 0)
        if total == 0:
            return float("nan")
        rank = q * total
        cumulative = 0
        lower = 0.0
        for bound, n in zip(self.buckets, self._counts[key]):
            if cumulative + n >= rank:
                if n == 0:
                    return bound
                return lower + (bound - lower) * (rank - cumulative) / n
            cumulative += n
            lower = bound
        return self.buckets[-1]

    def samples(self):
        for key in sorted(self._counts):
            cumulative = 0
            for bound, n in zip(self.buckets, self._counts[key]):
                cumulative += n
                yield ("_bucket", key + (("le", _format_value(bound)),),
                       float(cumulative))
            yield "_bucket", key + (("le", "+Inf"),), float(self._totals[key])
            yield "_sum", key, self._sums[key]
            yield "_count", key, float(self._totals[key])

    def summary_samples(self):
        """Samples of the derived ``<name>_summary`` family: p50/p95/p99
        quantile estimates plus the *same* ``_sum``/``_count`` the
        histogram exposes, so the two views can never disagree on volume.
        """
        for key in sorted(self._counts):
            labels = dict(key)
            for q in SUMMARY_QUANTILES:
                yield ("", key + (("quantile", _format_value(q)),),
                       self.quantile(q, **labels))
            yield "_sum", key, self._sums[key]
            yield "_count", key, float(self._totals[key])

    def snapshot(self) -> dict:
        return {
            "type": "histogram",
            "buckets": list(self.buckets),
            "values": {
                _render_labels(key) or "": {
                    "counts": list(self._counts[key]),
                    "sum": self._sums[key],
                    "count": self._totals[key],
                }
                for key in sorted(self._counts)
            },
        }


class MetricsRegistry:
    """A named collection of metrics with text exposition and snapshots."""

    def __init__(self) -> None:
        self._metrics: Dict[str, Metric] = {}
        self._lock = threading.Lock()

    def _get_or_create(self, cls, name: str, help_text: str, **kwargs) -> Metric:
        with self._lock:
            existing = self._metrics.get(name)
            if existing is not None:
                if not isinstance(existing, cls):
                    raise ObservabilityError(
                        f"metric {name!r} already registered as "
                        f"{existing.type_name}, not {cls.type_name}"
                    )
                return existing
            metric = cls(name, help_text, **kwargs)
            self._metrics[name] = metric
            return metric

    def counter(self, name: str, help_text: str = "") -> Counter:
        return self._get_or_create(Counter, name, help_text)

    def gauge(self, name: str, help_text: str = "") -> Gauge:
        return self._get_or_create(Gauge, name, help_text)

    def histogram(self, name: str, help_text: str = "",
                  buckets: Tuple[float, ...] = DEFAULT_BUCKETS) -> Histogram:
        return self._get_or_create(Histogram, name, help_text, buckets=buckets)

    def get(self, name: str) -> Optional[Metric]:
        return self._metrics.get(name)

    def names(self) -> Tuple[str, ...]:
        return tuple(sorted(self._metrics))

    # ------------------------------------------------------------------ #
    # exposition
    # ------------------------------------------------------------------ #
    def prometheus_text(self) -> str:
        """The registry in the Prometheus text exposition format (0.0.4).

        Each histogram family is followed by a derived
        ``<name>_summary`` family (``# TYPE ... summary``) carrying
        bucket-interpolated p50/p95/p99 quantiles with the histogram's
        own ``_sum``/``_count`` — scrape-side dashboards get quantiles
        without a ``histogram_quantile`` recording rule.
        """
        lines: List[str] = []
        for name in sorted(self._metrics):
            metric = self._metrics[name]
            if metric.help_text:
                lines.append(f"# HELP {name} {metric.help_text}")
            lines.append(f"# TYPE {name} {metric.type_name}")
            for suffix, key, value in metric.samples():
                lines.append(
                    f"{name}{suffix}{_render_labels(key)} {_format_value(value)}"
                )
            if isinstance(metric, Histogram):
                summary = f"{name}_summary"
                if metric.help_text:
                    lines.append(f"# HELP {summary} {metric.help_text} "
                                 "(bucket-interpolated quantiles)")
                lines.append(f"# TYPE {summary} summary")
                for suffix, key, value in metric.summary_samples():
                    lines.append(f"{summary}{suffix}{_render_labels(key)} "
                                 f"{_format_value(value)}")
        return "\n".join(lines) + ("\n" if lines else "")

    def snapshot(self) -> dict:
        """JSON-able dump of every metric family."""
        return {name: self._metrics[name].snapshot()
                for name in sorted(self._metrics)}


#: the process-wide default registry, mirroring the default bus
_DEFAULT_REGISTRY = MetricsRegistry()


def get_registry() -> MetricsRegistry:
    """The process-wide default metrics registry (always the same object)."""
    return _DEFAULT_REGISTRY


class PromFileDumper:
    """Periodically writes the registry's exposition text to a file.

    This is what makes ``REPRO_PROM_DUMP`` a *mid-run* scrape: a daemon
    thread rewrites the file every ``interval`` seconds (atomic
    ``os.replace`` of a sibling temp file, so a concurrent reader never
    sees a torn scrape), with a final write on :meth:`stop`. File-based
    node-exporter-style collection for runs where binding the
    :class:`~repro.obs.serve.ObsServer` HTTP port is unwanted.
    """

    def __init__(self, path: Union[str, Path],
                 registry: Optional[MetricsRegistry] = None,
                 interval: float = 1.0):
        if interval <= 0:
            raise ObservabilityError(
                f"dump interval must be positive, got {interval}"
            )
        self.path = Path(path)
        self.registry = registry if registry is not None else get_registry()
        self.interval = float(interval)
        self.writes = 0
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None

    def dump(self) -> Path:
        """Write one scrape now (atomic); returns the path."""
        tmp = self.path.with_name(self.path.name + ".tmp")
        tmp.write_text(self.registry.prometheus_text())
        os.replace(tmp, self.path)
        self.writes += 1
        return self.path

    def start(self) -> "PromFileDumper":
        if self._thread is None:
            self.dump()  # the file exists from t=0, not one interval in
            self._thread = threading.Thread(
                target=self._run, daemon=True, name="repro-prom-dump")
            self._thread.start()
        return self

    def _run(self) -> None:
        while not self._stop.wait(self.interval):
            self.dump()

    def stop(self) -> Path:
        """Stop the thread and write the final scrape."""
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None
        return self.dump()

    def __enter__(self) -> "PromFileDumper":
        self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()


def start_prom_dump(path: Optional[Union[str, Path]] = None,
                    registry: Optional[MetricsRegistry] = None,
                    interval: Optional[float] = None
                    ) -> Optional[PromFileDumper]:
    """Start the ``REPRO_PROM_DUMP`` periodic scrape file, if configured.

    ``path`` defaults from ``REPRO_PROM_DUMP`` and ``interval`` from
    ``REPRO_PROM_DUMP_INTERVAL`` (seconds, default 1.0). Returns the
    running dumper, or None when no path is configured — callers can
    unconditionally write ``dumper = start_prom_dump()`` and later
    ``if dumper: dumper.stop()``.
    """
    if path is None:
        path = os.environ.get("REPRO_PROM_DUMP") or None
    if path is None:
        return None
    if interval is None:
        raw = os.environ.get("REPRO_PROM_DUMP_INTERVAL", "").strip()
        try:
            interval = float(raw) if raw else 1.0
        except ValueError:
            raise ObservabilityError(
                f"REPRO_PROM_DUMP_INTERVAL must be a number, got {raw!r}"
            ) from None
    return PromFileDumper(path, registry=registry, interval=interval).start()


class MetricsBridge:
    """Folds the event stream into the standard metric set.

    Subscribe-and-forget: construct it (or call
    :func:`install_metrics`) and every period decision (with its entry
    and retroactive shed counts), late arrival, drain truncation and
    rebalance on the bus updates the registry. Per-shard series are
    labelled ``shard="..."``; single-loop runs fall under
    ``shard="main"``.
    """

    def __init__(self, bus: Optional[EventBus] = None,
                 registry: Optional[MetricsRegistry] = None):
        self.bus = bus if bus is not None else get_bus()
        self.registry = registry if registry is not None else get_registry()
        r, p = self.registry, PREFIX
        self.periods = r.counter(f"{p}_periods_total",
                                 "control periods closed")
        self.offered = r.counter(f"{p}_tuples_offered_total",
                                 "tuples offered before entry shedding")
        self.admitted = r.counter(f"{p}_tuples_admitted_total",
                                  "tuples admitted into the engine")
        self.shed = r.counter(f"{p}_tuples_shed_total",
                              "tuples discarded, by action (entry/retro)")
        self.violations = r.counter(
            f"{p}_violation_periods_total",
            "periods whose delay estimate exceeded the target")
        self.late = r.counter(f"{p}_late_arrivals_total",
                              "submissions with timestamps behind the clock")
        self.truncations = r.counter(f"{p}_drain_truncations_total",
                                     "end-of-run drains cut off by deadline")
        self.rebalances = r.counter(f"{p}_rebalances_total",
                                    "coordinator rebalance decisions, by mode")
        self.worker_downs = r.counter(
            f"{p}_worker_down_total",
            "fleet shard worker processes that died mid-run")
        self.worker_restarts = r.counter(
            f"{p}_worker_restarts_total",
            "fleet shard workers that replayed and rejoined after a death")
        self.delay = r.gauge(f"{p}_delay_estimate_seconds",
                             "latest delay estimate y_hat(k)")
        self.target = r.gauge(f"{p}_delay_target_seconds",
                              "latest delay target yd in force")
        self.alpha = r.gauge(f"{p}_alpha",
                             "entry drop probability armed for next period")
        self.queue = r.gauge(f"{p}_queue_length",
                             "virtual queue length q(k)")
        self.headroom = r.gauge(f"{p}_headroom",
                                "CPU share allocated to the shard")
        self.delay_hist = r.histogram(
            f"{p}_period_delay_seconds",
            "distribution of per-period delay estimates")
        self.ingest_accepted = r.counter(
            f"{p}_ingest_accepted_total",
            "tuples accepted off the network into the ingest buffer")
        self.ingest_dropped = r.counter(
            f"{p}_ingest_dropped_total",
            "tuples refused at the ingest front door, by reason")
        self.ingest_malformed = r.counter(
            f"{p}_ingest_malformed_total",
            "undecodable lines received on the ingest socket")
        self.ingest_bytes = r.counter(
            f"{p}_ingest_bytes_total",
            "raw bytes read off ingest sockets")
        self.ingest_rate = r.gauge(
            f"{p}_ingest_rate_tuples_per_second",
            "offered arrival rate over the last control period")
        self.ingest_skew = r.gauge(
            f"{p}_ingest_skew_seconds",
            "latest sender-vs-arrival clock skew")
        self.tick_jitter = r.gauge(
            f"{p}_tick_jitter_seconds",
            "how late the last wall-clock period tick fired")
        self.ingest_buffered = r.gauge(
            f"{p}_ingest_buffered",
            "arrivals waiting in the ingest buffer past the boundary")
        self.migrations = r.counter(
            f"{p}_migrations_total",
            "source migrations committed (route cutovers)")
        self.migration_drain = r.histogram(
            f"{p}_migration_drain_seconds",
            "virtual seconds spent draining the old shard per migration")
        self.tuple_latency = r.histogram(
            f"{p}_tuple_latency_seconds",
            "per-tuple end-to-end delay of completed (non-shed) tuples")
        self.model_gain_ratio = r.gauge(
            f"{p}_model_gain_ratio",
            "identified plant gain over the design model's gain (paper K)")
        self.effective_gain_margin = r.gauge(
            f"{p}_effective_gain_margin",
            "loop gain margin re-evaluated with the identified gain")
        self.oscillation_score = r.gauge(
            f"{p}_oscillation_score",
            "limit-cycle score of the error signal in [0, 1]")
        self.mismatches = r.counter(
            f"{p}_model_mismatch_periods_total",
            "periods whose identified gain ratio exceeded the threshold")
        self.margin_erosions = r.counter(
            f"{p}_margin_eroded_periods_total",
            "periods whose effective stability margins fell below floor")
        self.incidents = r.counter(
            f"{p}_incidents_total",
            "flight-recorder incident bundles written, by trigger")
        self._handlers = {
            "period": self._on_period,
            "late_arrival": self._on_late,
            "drain_truncated": self._on_truncated,
            "rebalanced": self._on_rebalanced,
            "ingest": self._on_ingest,
            "headroom_changed": self._on_headroom,
            "worker_down": self._on_worker_down,
            "worker_restarted": self._on_worker_restarted,
            "route_changed": self._on_route_changed,
            "migration_completed": self._on_migration_completed,
            "completions": self._on_completions,
            "sysid": self._on_sysid,
            "model_mismatch": self._on_mismatch,
            "margin_eroded": self._on_margin_eroded,
            "incident": self._on_incident,
        }
        self.bus.subscribe(self._on_event, kinds=self._handlers.keys())

    def close(self) -> None:
        """Stop listening (the registry keeps its accumulated state)."""
        self.bus.unsubscribe(self._on_event)

    def __enter__(self) -> "MetricsBridge":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    # event handlers
    # ------------------------------------------------------------------ #
    def _on_event(self, event: ObsEvent) -> None:
        self._handlers[event.kind](event, event.shard or "main")

    def _on_period(self, event, shard: str) -> None:
        p = event.record
        self.periods.inc(shard=shard)
        self.offered.inc(p.offered, shard=shard)
        self.admitted.inc(p.admitted, shard=shard)
        if p.offered > p.admitted:
            self.shed.inc(p.offered - p.admitted, shard=shard, action="entry")
        if p.shed_retro > 0:
            self.shed.inc(p.shed_retro, shard=shard, action="retro")
        if p.delay_estimate > p.target:
            self.violations.inc(shard=shard)
        self.delay.set(p.delay_estimate, shard=shard)
        self.target.set(p.target, shard=shard)
        self.alpha.set(p.alpha, shard=shard)
        self.queue.set(p.queue_length, shard=shard)
        self.delay_hist.observe(p.delay_estimate, shard=shard)

    def _on_late(self, event, shard: str) -> None:
        self.late.inc(shard=shard, engine=event.engine)

    def _on_truncated(self, event, shard: str) -> None:
        self.truncations.inc(shard=shard)

    def _on_rebalanced(self, event, shard: str) -> None:
        self.rebalances.inc(mode=event.mode)

    def _on_ingest(self, event, shard: str) -> None:
        if event.accepted:
            self.ingest_accepted.inc(event.accepted, shard=shard)
        if event.dropped:
            # the buffer's only drop reason today; backpressure signaling
            # (ROADMAP) will add more
            self.ingest_dropped.inc(event.dropped, shard=shard,
                                    reason="capacity")
        if event.malformed:
            self.ingest_malformed.inc(event.malformed, shard=shard)
        if event.bytes_read:
            self.ingest_bytes.inc(event.bytes_read, shard=shard)
        self.ingest_rate.set(event.rate, shard=shard)
        self.ingest_skew.set(event.skew, shard=shard)
        self.tick_jitter.set(event.jitter, shard=shard)
        self.ingest_buffered.set(event.buffered, shard=shard)

    def _on_headroom(self, event, shard: str) -> None:
        self.headroom.set(event.new, shard=shard)

    def _on_worker_down(self, event, shard: str) -> None:
        self.worker_downs.inc(shard=shard)

    def _on_worker_restarted(self, event, shard: str) -> None:
        self.worker_restarts.inc(shard=shard)

    def _on_route_changed(self, event, shard: str) -> None:
        self.migrations.inc(source=event.source,
                            from_shard=str(event.from_shard),
                            to_shard=str(event.to_shard))

    def _on_migration_completed(self, event, shard: str) -> None:
        self.migration_drain.observe(event.virtual_seconds, shard=shard)

    def _on_sysid(self, event, shard: str) -> None:
        self.model_gain_ratio.set(event.gain_ratio, shard=shard)
        self.effective_gain_margin.set(event.gain_margin, shard=shard)
        self.oscillation_score.set(event.oscillation, shard=shard)

    def _on_mismatch(self, event, shard: str) -> None:
        self.mismatches.inc(shard=shard)

    def _on_margin_eroded(self, event, shard: str) -> None:
        self.margin_erosions.inc(shard=shard)

    def _on_incident(self, event, shard: str) -> None:
        self.incidents.inc(trigger=event.trigger)

    def _on_completions(self, event, shard: str) -> None:
        # per-departure delay samples, independent of span sampling: the
        # tail-latency histogram is always populated on /metrics
        observe = self.tuple_latency.observe
        for delay in event.delays:
            observe(delay, shard=shard)

    # ------------------------------------------------------------------ #
    # derived views
    # ------------------------------------------------------------------ #
    def violation_ratio(self, shard: str = "main") -> float:
        """Fraction of closed periods whose estimate exceeded the target."""
        total = self.periods.value(shard=shard)
        if total <= 0:
            return 0.0
        return self.violations.value(shard=shard) / total


def install_metrics(bus: Optional[EventBus] = None,
                    registry: Optional[MetricsRegistry] = None
                    ) -> MetricsBridge:
    """Wire the standard metric set onto a bus (defaults: global bus+registry)."""
    return MetricsBridge(bus=bus, registry=registry)
