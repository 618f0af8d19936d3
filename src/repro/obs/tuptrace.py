"""Sampled per-tuple lifecycle tracing — socket to sink.

The Monitor observes delay in aggregate (per-period averages over the
departures list); :class:`~repro.obs.tracing.PeriodTracer` observes the
*loop's* wall clock. Neither can answer "what happened to *this* tuple" or
show the tail of the latency distribution the controller is shaping. This
module adds the missing per-tuple view:

* A :class:`TupleTracer` deterministically samples a configurable fraction
  of source arrivals (seed-stable multiplicative hashing over the arrival
  sequence number, so reruns trace the same tuples) and stamps each sampled
  arrival with a :class:`TraceContext`.
* The context rides the tuple's :class:`~repro.dsms.tuple_.Lineage` through
  the engine, recording span events at enqueue, every operator execution
  (with the measured cost), every shed decision (shedder class, reason,
  drop probability), migration/final drain hops and completion or drop.
* Finished traces land in a bounded ring, queryable by tuple id
  (:meth:`TupleTracer.get`; a dropped tuple's ``shed`` span names the
  location, reason, shedder and alpha) and exportable as JSONL or Chrome
  trace-event JSON (loadable in ``chrome://tracing`` / Perfetto).
* :class:`TailAnalyzer` decomposes p50/p95/p99 end-to-end latency into
  queue-wait vs service vs drain segments, and cross-checks the sampled
  mean against the Monitor's aggregate (:meth:`TailAnalyzer.cross_check`).
* With a bus attached, each finished trace is emitted as a
  :class:`~repro.obs.events.TupleTraceCompleted` event — a plain dict
  payload that pickles across :mod:`repro.obs.relay` unchanged, so a
  parent-side :class:`TraceCollector` sees worker traces with provenance.

Cost contract (PR-4): at fraction 0.0 the only per-arrival work is one
integer increment and one comparison; unsampled tuples carry ``trace=None``
on their lineage and the engine hot path tests that with one ``is None``.
"""

from __future__ import annotations

import json
from collections import deque
from contextlib import contextmanager
from typing import Dict, Iterable, List, Optional, Tuple

from .events import TupleTraceCompleted

__all__ = [
    "TraceContext",
    "TupleTracer",
    "TraceCollector",
    "TailAnalyzer",
    "traces_to_jsonl",
    "traces_to_chrome",
]

#: 64-bit golden-ratio multiplier (Knuth's multiplicative hashing): maps the
#: arrival sequence number to a well-mixed 64-bit value so "hash < threshold"
#: samples an unbiased, seed-deterministic fraction of arrivals.
GOLDEN = 0x9E3779B97F4A7C15
MASK64 = (1 << 64) - 1


class TraceContext:
    """The span record riding one sampled source tuple through the system.

    Events are compact tuples ``(kind, t, dur, label, detail)`` — kinds are
    ``enqueue`` (entered an operator queue), ``service`` (one operator
    execution; ``dur`` is virtual seconds, ``detail`` the CPU cost),
    ``drain`` (a service span executed inside a drain scope — final drain
    or a migration hop), and ``shed`` (a drop decision; ``detail`` carries
    the shedder class, reason and drop probability).
    """

    __slots__ = ("tracer", "tuple_id", "source", "arrived", "events",
                 "done", "outcome", "shard")

    def __init__(self, tracer: "TupleTracer", tuple_id: str, source: str,
                 arrived: float):
        self.tracer = tracer
        self.tuple_id = tuple_id
        self.source = source
        self.arrived = arrived
        self.events: List[Tuple] = []
        self.done: Optional[float] = None
        self.outcome: Optional[str] = None
        self.shard = tracer.shard

    # ---- recording (called from the engine/loop hot paths) ----------- #
    def enqueue(self, op: str, t: float) -> None:
        self.events.append(("enqueue", t, 0.0, op, None))

    def service(self, op: str, t: float, dur: float, cost: float) -> None:
        scope = self.tracer._drain_label
        if scope is None:
            self.events.append(("service", t, dur, op, cost))
        else:
            self.events.append(("drain", t, dur, op,
                                {"cost": cost, "scope": scope}))

    def shed(self, where: str, t: float, *, reason: str,
             shedder: str = "", alpha: float = 0.0) -> None:
        self.events.append(("shed", t, 0.0, where,
                            {"reason": reason, "shedder": shedder,
                             "alpha": alpha}))

    def finish(self, t: float, outcome: str) -> None:
        if self.done is None:
            self.done = t
            self.outcome = outcome
            self.tracer._finish(self)

    # ---- views -------------------------------------------------------- #
    @property
    def latency(self) -> Optional[float]:
        return None if self.done is None else self.done - self.arrived

    def to_dict(self) -> dict:
        return {
            "tuple_id": self.tuple_id,
            "source": self.source,
            "shard": self.shard,
            "arrived": self.arrived,
            "done": self.done,
            "outcome": self.outcome,
            "latency": self.latency,
            "events": [
                {"kind": kind, "t": t, "dur": dur, "label": label,
                 "detail": detail}
                for kind, t, dur, label, detail in self.events
            ],
        }


class TupleTracer:
    """Deterministic sampled per-tuple tracer.

    ``fraction`` is the sampled share of source arrivals in [0, 1];
    ``seed`` offsets the hash sequence so distinct shards sample distinct
    (but individually reproducible) tuple sets. ``max_finished`` bounds
    the retained trace ring — the tracer can run forever without growing.
    With a truthy ``bus``, each finished trace is also emitted as a
    :class:`~repro.obs.events.TupleTraceCompleted` event.
    """

    def __init__(self, fraction: float = 0.0, seed: int = 0,
                 max_finished: int = 10000, bus=None,
                 shard: Optional[str] = None):
        if not 0.0 <= fraction <= 1.0:
            raise ValueError(f"sample fraction must be in [0, 1], got {fraction}")
        self.fraction = float(fraction)
        self.seed = int(seed)
        self.bus = bus
        self.shard = shard
        # fraction 1.0 must sample everything: hash < 2**64 always holds
        self._threshold = (1 << 64) if fraction >= 1.0 else int(fraction * (1 << 64))
        self._seq = 0
        self._drain_label: Optional[str] = None
        self.sampled = 0
        self.completed = 0
        self.dropped = 0
        self.finished: deque = deque()
        self.max_finished = int(max_finished)
        self._by_id: Dict[str, dict] = {}

    @property
    def offered(self) -> int:
        """Arrivals seen so far, sampled or not (the sampling frame)."""
        return self._seq

    # ---- admission ---------------------------------------------------- #
    def on_arrival(self, t: float, source: str) -> Optional[TraceContext]:
        """Sample one source arrival; None for the unsampled majority.

        Deterministic in the arrival *sequence number*: run the same
        arrival stream twice and the same tuples are traced.
        """
        seq = self._seq
        self._seq = seq + 1
        if self._threshold == 0:
            return None
        if ((seq + self.seed) * GOLDEN & MASK64) >= self._threshold:
            return None
        self.sampled += 1
        ctx = TraceContext(self, f"{source or 'in'}#{seq}", source, t)
        return ctx

    def on_entry_drop(self, ctx: TraceContext, t: float, actuator,
                      k: int = -1) -> None:
        """A sampled tuple was refused by the admission filter."""
        ctx.shed("entry", t, reason="entry",
                 shedder=type(actuator).__name__,
                 alpha=float(actuator.alpha))
        ctx.events.append(("period", t, 0.0, str(k), None))
        ctx.finish(t, "dropped")

    def on_ingest_drop(self, t: float, source: str) -> None:
        """A tuple was refused at a full ingest buffer (never admitted).

        Sampled on the same deterministic sequence as admissions so the
        audit trail covers buffer-full losses at the configured fraction.
        """
        ctx = self.on_arrival(t, source)
        if ctx is not None:
            ctx.shed("ingest", t, reason="buffer_full", shedder="IngestBuffer")
            ctx.finish(t, "dropped")

    # ---- drain scoping ------------------------------------------------ #
    @contextmanager
    def drain_scope(self, label: str):
        """Mark service spans recorded inside as drain hops (``label``).

        Used by the loop's end-of-run drain (``"final"``) and by
        migration drains (``"migrate:<source>"``) so the analyzer can
        separate drain time from steady-state service time.
        """
        prev = self._drain_label
        self._drain_label = label
        try:
            yield
        finally:
            self._drain_label = prev

    # ---- completion --------------------------------------------------- #
    def _finish(self, ctx: TraceContext) -> None:
        if ctx.outcome == "completed":
            self.completed += 1
        else:
            self.dropped += 1
        doc = ctx.to_dict()
        if len(self.finished) >= self.max_finished:
            evicted = self.finished.popleft()
            self._by_id.pop(evicted["tuple_id"], None)
        self.finished.append(doc)
        self._by_id[doc["tuple_id"]] = doc
        bus = self.bus
        if bus:
            bus.emit(TupleTraceCompleted(trace=doc))

    # ---- queries / export --------------------------------------------- #
    def records(self) -> List[dict]:
        return list(self.finished)

    def get(self, tuple_id: str) -> Optional[dict]:
        return self._by_id.get(tuple_id)

    def export_jsonl(self, path) -> int:
        return traces_to_jsonl(self.finished, path)

    def export_chrome(self, path) -> int:
        return traces_to_chrome(self.finished, path)

    def analyzer(self) -> "TailAnalyzer":
        return TailAnalyzer(self.finished)


class TraceCollector:
    """Gather :class:`TupleTraceCompleted` events from a bus into a ring.

    The parent-side counterpart of worker tracers: subscribe it to a
    relay's bus and relayed traces (dict payloads with ``worker``
    provenance stamped by the relay) accumulate here with the same query/export
    surface as a local :class:`TupleTracer`.
    """

    def __init__(self, bus, max_finished: int = 10000):
        self.finished: deque = deque(maxlen=int(max_finished))
        self.bus = bus
        bus.subscribe(self._on_event, kinds=(TupleTraceCompleted.kind,))

    def _on_event(self, event) -> None:
        doc = event.trace
        if not isinstance(doc, dict):
            return
        worker = getattr(event, "worker", None)
        if worker is not None and "worker" not in doc:
            doc = dict(doc, worker=worker)
        self.finished.append(doc)

    def close(self) -> None:
        self.bus.unsubscribe(self._on_event)

    def records(self) -> List[dict]:
        return list(self.finished)

    def export_jsonl(self, path) -> int:
        return traces_to_jsonl(self.finished, path)

    def export_chrome(self, path) -> int:
        return traces_to_chrome(self.finished, path)

    def analyzer(self) -> "TailAnalyzer":
        return TailAnalyzer(self.finished)


# --------------------------------------------------------------------- #
# exporters
# --------------------------------------------------------------------- #
def traces_to_jsonl(traces: Iterable[dict], path) -> int:
    """One finished trace per line; returns the number written."""
    n = 0
    with open(path, "w", encoding="utf-8") as fh:
        for doc in traces:
            fh.write(json.dumps(doc, separators=(",", ":")) + "\n")
            n += 1
    return n


def traces_to_chrome(traces: Iterable[dict], path) -> int:
    """Chrome trace-event JSON (``chrome://tracing`` / Perfetto).

    Each shard becomes a "process" (named via ``process_name`` metadata),
    each traced tuple a "thread" whose lifetime is one complete ("X")
    event named by its outcome; service/drain spans nest inside it and
    enqueue/shed decisions appear as instant ("i") events. Timestamps are
    the engine's virtual seconds scaled to microseconds.
    """
    events: List[dict] = []
    pids: Dict[str, int] = {}
    tid = 0
    count = 0
    for doc in traces:
        count += 1
        shard = doc.get("shard") or "main"
        worker = doc.get("worker")
        if worker:
            shard = f"{worker}/{shard}"
        pid = pids.get(shard)
        if pid is None:
            pid = pids[shard] = len(pids) + 1
            events.append({"name": "process_name", "ph": "M", "pid": pid,
                           "tid": 0, "args": {"name": shard}})
        tid += 1
        arrived = doc.get("arrived") or 0.0
        done = doc.get("done")
        outcome = doc.get("outcome") or "pending"
        events.append({
            "name": "thread_name", "ph": "M", "pid": pid, "tid": tid,
            "args": {"name": doc.get("tuple_id", "?")},
        })
        events.append({
            "name": outcome, "cat": "tuple", "ph": "X", "pid": pid,
            "tid": tid, "ts": arrived * 1e6,
            "dur": ((done if done is not None else arrived) - arrived) * 1e6,
            "args": {"tuple_id": doc.get("tuple_id"),
                     "source": doc.get("source"),
                     "latency": doc.get("latency")},
        })
        for ev in doc.get("events", ()):
            kind = ev.get("kind")
            if kind in ("service", "drain"):
                events.append({
                    "name": ev.get("label"), "cat": kind, "ph": "X",
                    "pid": pid, "tid": tid, "ts": (ev.get("t") or 0.0) * 1e6,
                    "dur": (ev.get("dur") or 0.0) * 1e6,
                    "args": {"detail": ev.get("detail")},
                })
            else:
                events.append({
                    "name": f"{kind}:{ev.get('label')}", "cat": kind,
                    "ph": "i", "s": "t", "pid": pid, "tid": tid,
                    "ts": (ev.get("t") or 0.0) * 1e6,
                    "args": {"detail": ev.get("detail")},
                })
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, fh)
    return count


# --------------------------------------------------------------------- #
# tail analysis
# --------------------------------------------------------------------- #
def _percentile(sorted_vals: List[float], q: float) -> float:
    """Nearest-rank percentile on a pre-sorted list."""
    if not sorted_vals:
        return 0.0
    idx = min(len(sorted_vals) - 1, max(0, int(q * len(sorted_vals))))
    return sorted_vals[idx]


class TailAnalyzer:
    """Decompose sampled end-to-end latency into its lifecycle segments.

    Works over *completed* traces only (dropped tuples have no meaningful
    end-to-end latency — the paper's QoS mean excludes them the same way).
    For each trace: ``service`` is the sum of its operator execution spans,
    ``drain`` the sum of spans executed inside a drain scope (end-of-run
    flush or migration hops), and ``queue_wait`` the remainder of the
    end-to-end latency — time spent sitting in operator queues.
    """

    PERCENTILES = (0.50, 0.95, 0.99)

    def __init__(self, traces: Iterable[dict]):
        self.rows: List[dict] = []
        for doc in traces:
            if doc.get("outcome") != "completed":
                continue
            latency = doc.get("latency")
            if latency is None:
                continue
            service = 0.0
            drain = 0.0
            for ev in doc.get("events", ()):
                kind = ev.get("kind")
                if kind == "service":
                    service += ev.get("dur") or 0.0
                elif kind == "drain":
                    drain += ev.get("dur") or 0.0
            self.rows.append({
                "tuple_id": doc.get("tuple_id"),
                "latency": latency,
                "service": service,
                "drain": drain,
                "queue_wait": max(0.0, latency - service - drain),
            })
        self.rows.sort(key=lambda r: r["latency"])

    def __len__(self) -> int:
        return len(self.rows)

    @property
    def mean_latency(self) -> float:
        if not self.rows:
            return 0.0
        return sum(r["latency"] for r in self.rows) / len(self.rows)

    def percentiles(self) -> Dict[str, float]:
        vals = [r["latency"] for r in self.rows]
        return {f"p{int(q * 100)}": _percentile(vals, q)
                for q in self.PERCENTILES}

    def decompose(self, window: int = 25) -> Dict[str, Dict[str, float]]:
        """Segment breakdown at each percentile (plus the overall mean).

        At each percentile the breakdown averages the ``window`` traces
        centred on the rank (single-trace decompositions are noisy —
        whether *this* tuple hit a drain is luck; its neighbourhood is
        representative of the tail region).
        """
        out: Dict[str, Dict[str, float]] = {}
        n = len(self.rows)
        if n == 0:
            return out

        def segment_mean(rows: List[dict]) -> Dict[str, float]:
            m = len(rows)
            return {
                "latency": sum(r["latency"] for r in rows) / m,
                "queue_wait": sum(r["queue_wait"] for r in rows) / m,
                "service": sum(r["service"] for r in rows) / m,
                "drain": sum(r["drain"] for r in rows) / m,
            }

        out["mean"] = segment_mean(self.rows)
        for q in self.PERCENTILES:
            rank = min(n - 1, max(0, int(q * n)))
            lo = max(0, rank - window // 2)
            hi = min(n, lo + max(1, window))
            out[f"p{int(q * 100)}"] = segment_mean(self.rows[lo:hi])
        return out

    def cross_check(self, record, tolerance: float = 0.02) -> dict:
        """Sampled mean vs the Monitor's aggregate mean delay.

        ``record`` is the run's :class:`~repro.metrics.recorder.RunRecord`;
        the comparison population is every non-shed departure of the whole
        run (``qos(within_window=False).mean_delay``), which is exactly the
        traced-completion population at fraction 1.0 and its unbiased
        sampling frame at smaller fractions.
        """
        monitor_mean = record.qos(within_window=False).mean_delay
        sampled_mean = self.mean_latency
        if monitor_mean > 0:
            rel_err = abs(sampled_mean - monitor_mean) / monitor_mean
        else:
            rel_err = abs(sampled_mean)
        return {
            "sampled_mean": sampled_mean,
            "monitor_mean": monitor_mean,
            "rel_err": rel_err,
            "sampled_n": len(self.rows),
            "ok": rel_err <= tolerance,
        }
