"""Timing shims: per-layer spans recorded from outside the program.

The traced pass wraps methods **on the built instances** (and one module
attribute, ``repro.serve.ingest.decode_line``) with clock reads; nothing
under ``src/`` is edited. Two kinds of shim:

* a **call** shim records one span per call (name, start, end, parent,
  period id) — for what runs once per control period;
* a **fold** shim adds each call's time to a counter that is written out
  as one span per period carrying ``count`` and the summed ``busy`` time —
  for what runs once per tuple, where a span per call would cost more
  than the call.

Parents come from a per-thread stack of open call spans. An engine fold
additionally marks itself as the running fold so that a bus emission made
*inside* ``engine.run_until`` (a sampled tuple trace completing) becomes
its child instead of being counted twice. Spans live in memory until
:meth:`Recorder.dump`.

A layer's self time is its spans' busy time minus their children's
(:func:`stats.self_times`). The shim's own cost — the wrapper call and
two clock reads, ~0.3 us — lands partly in the wrapped layer and partly
in its parent; ``trace.overhead_frac`` reports the total.
"""

from __future__ import annotations

import json
import threading
import time
from contextlib import contextmanager
from typing import Dict, List, Optional

from stats import self_times

#: span name -> layer (the repo's module names)
LAYER_OF = {
    "wire": "serve.ingest",
    "decode_line": "serve.protocol",
    "buffer.push": "serve.ingest",
    "buffer.drain_until": "serve.ingest",
    "tick": "serve.live",
    "ticker_body": "service.service",
    "service.run": "service.service",
    "table.shard_of": "service.router",
    "loop.run_period": "core.loop",
    "loop.finish": "core.loop",
    "actuator.admit": "core.actuator",
    "actuator.begin_period": "core.actuator",
    "actuator.end_period": "core.actuator",
    "engine.submit": "dsms.engine",
    "engine.run_until": "dsms.engine",
    "engine.consume_cpu": "dsms.engine",
    "monitor.measure": "core.monitor",
    "controller.decide": "core.controller",
    "coordinator.rebalance": "service.coordinator",
    "bus.emit": "obs",
}

LAYERS = ("serve.protocol", "serve.ingest", "serve.live", "service.router",
          "core.actuator", "dsms.engine", "core.monitor", "core.controller",
          "core.loop", "service.coordinator", "service.service", "obs")

_clock = time.perf_counter


class Recorder:
    """In-memory span store plus the shims that feed it."""

    def __init__(self) -> None:
        self.spans: List[dict] = []
        self.period = -1            # set by the conductor / run_period shim
        self._ids = 0
        self._local = threading.local()
        #: (scope, name) -> [count, busy, last call, reserved span id]
        self._folds: Dict[tuple, list] = {}
        self._running_fold: Optional[list] = None
        self._undo: List[tuple] = []

    # ---- ids, stack ---------------------------------------------------- #
    def new_id(self) -> int:
        self._ids += 1
        return self._ids

    def _stack(self) -> list:
        try:
            return self._local.stack
        except AttributeError:
            self._local.stack = []
            return self._local.stack

    # ---- recording ----------------------------------------------------- #
    def add(self, name: str, start: float, end: float,
            parent: Optional[int] = None, span_id: Optional[int] = None,
            count: int = 1, busy: Optional[float] = None,
            last: float = 0.0, folded: bool = False) -> int:
        span_id = self.new_id() if span_id is None else span_id
        self.spans.append({
            "id": span_id, "name": name, "start": start, "end": end,
            "parent": parent, "period": self.period, "count": count,
            "busy": (end - start) if busy is None else busy, "last": last,
            "folded": folded,
        })
        return span_id

    @contextmanager
    def span(self, name: str):
        """A call span around a block of the harness's own code."""
        stack = self._stack()
        span_id = self.new_id()
        parent = stack[-1] if stack else None
        stack.append(span_id)
        start = _clock()
        try:
            yield span_id
        finally:
            end = _clock()
            stack.pop()
            self.add(name, start, end, parent, span_id)

    def flush(self, scope: str, parent: Optional[int]) -> None:
        """Write every fold of ``scope`` as one span under ``parent``."""
        now = _clock()
        for (fold_scope, name), cell in self._folds.items():
            if fold_scope != scope or not cell[0]:
                continue
            # a fold has no one interval: only count/busy/last mean anything
            self.add(name, now, now, parent, span_id=cell[3], count=cell[0],
                     busy=cell[1], last=cell[2], folded=True)
            cell[0], cell[1], cell[2] = 0, 0.0, 0.0
            cell[3] = self.new_id()

    def adopt(self, since: int, body: str, parent: int) -> None:
        """Give the ticker thread's parentless spans a body span and a root.

        The conductor cannot open a span on the ticker thread, so what the
        ticker ran for one period arrives with no parent. Wrap those spans
        in one ``body`` span (first start to last end) under ``parent``.
        """
        orphans = [s for s in self.spans[since:]
                   if s["parent"] is None and s["name"] not in ("wire", "tick")]
        timed = [s for s in orphans if not s["folded"]]
        if not timed:
            return
        body_id = self.add(body, min(s["start"] for s in timed),
                           max(s["end"] for s in timed), parent)
        for s in orphans:
            s["parent"] = body_id

    # ---- shims ---------------------------------------------------------- #
    def _patch(self, obj, attr: str, shim) -> None:
        own = vars(obj).get(attr, _MISSING)
        self._undo.append((obj, attr, own))
        setattr(obj, attr, shim)

    def call(self, obj, attr: str, name: str, scope: Optional[str] = None,
             period_arg: Optional[int] = None) -> None:
        """Record one span per call of ``obj.attr``.

        ``scope`` names the folds to write out under each span as it
        closes; ``period_arg`` is the positional index of the period id.
        """
        fn = getattr(obj, attr)
        rec = self

        def shim(*args, **kwargs):
            if period_arg is not None:
                rec.period = args[period_arg]
            stack = rec._stack()
            fold = rec._running_fold
            rec._running_fold = None
            span_id = rec.new_id()
            if fold is not None:
                parent = fold[3]
            else:
                parent = stack[-1] if stack else None
            stack.append(span_id)
            start = _clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = _clock()
                stack.pop()
                rec._running_fold = fold
                rec.add(name, start, end, parent, span_id)
                if scope is not None:
                    rec.flush(scope, span_id)

        self._patch(obj, attr, shim)

    def fold(self, obj, attr: str, name: str, scope: str,
             nests: bool = False) -> None:
        """Fold every call of ``obj.attr`` into one span per flush of ``scope``.

        ``nests=True`` lets call spans made inside become this fold's
        children (one more attribute write per call).
        """
        fn = getattr(obj, attr)
        cell = self._folds.setdefault((scope, name),
                                      [0, 0.0, 0.0, self.new_id()])
        rec = self

        if nests:
            def shim(*args, **kwargs):
                rec._running_fold = cell
                start = _clock()
                out = fn(*args, **kwargs)
                dt = _clock() - start
                rec._running_fold = None
                cell[0] += 1
                cell[1] += dt
                cell[2] = dt
                return out
        else:
            def shim(*args, **kwargs):
                start = _clock()
                out = fn(*args, **kwargs)
                dt = _clock() - start
                cell[0] += 1
                cell[1] += dt
                cell[2] = dt
                return out

        self._patch(obj, attr, shim)

    def uninstall(self) -> None:
        """Put back everything :meth:`call` / :meth:`fold` replaced."""
        for obj, attr, own in reversed(self._undo):
            if own is _MISSING:
                delattr(obj, attr)
            else:
                setattr(obj, attr, own)
        self._undo.clear()

    # ---- reading -------------------------------------------------------- #
    def named(self, name: str, paced_only: bool = True) -> List[dict]:
        return [s for s in self.spans if s["name"] == name
                and (s["period"] >= 0 or not paced_only)]

    def busy(self, name: str) -> float:
        return sum(s["busy"] for s in self.named(name))

    def count(self, name: str) -> int:
        return sum(s["count"] for s in self.named(name))

    def layer_self_seconds(self) -> Dict[str, float]:
        """Self time per layer over the paced periods (period id >= 0)."""
        own = self_times(self.spans)
        out = {layer: 0.0 for layer in LAYERS}
        for s in self.spans:
            if s["period"] >= 0:
                out[LAYER_OF[s["name"]]] += own[s["id"]]
        return out

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps(s) + "\n")


_MISSING = object()


def instrument_loop(rec: Recorder, shard_name: str, loop) -> None:
    """Shim one control loop: actuator, engine, monitor, controller."""
    scope = f"loop:{shard_name}"
    rec.fold(loop.actuator, "admit", "actuator.admit", scope)
    rec.fold(loop.engine, "submit", "engine.submit", scope, nests=True)
    rec.fold(loop.engine, "run_until", "engine.run_until", scope, nests=True)
    rec.fold(loop.engine, "consume_cpu", "engine.consume_cpu", scope)
    rec.call(loop.actuator, "begin_period", "actuator.begin_period")
    rec.call(loop.actuator, "end_period", "actuator.end_period")
    rec.call(loop.monitor, "measure", "monitor.measure")
    rec.call(loop.controller, "decide", "controller.decide")
    rec.call(loop, "run_period", "loop.run_period", scope=scope, period_arg=1)
    rec.call(loop, "finish", "loop.finish", scope=scope)


def instrument_bus(rec: Recorder, bus) -> None:
    """Shim the real bus behind a (possibly scoped) emitter."""
    rec.call(getattr(bus, "bus", bus), "emit", "bus.emit")


def instrument_live(rec: Recorder, node) -> None:
    """Shim a built LiveService or LiveRunner, wire side included."""
    import repro.serve.ingest as ingest_module
    rec.fold(ingest_module, "decode_line", "decode_line", "wire")
    rec.fold(node.buffer, "push", "buffer.push", "wire")
    rec.call(node.buffer, "drain_until", "buffer.drain_until")
    shards = getattr(node, "shards", None)
    if shards is None:
        instrument_loop(rec, "live", node.loop)
        instrument_bus(rec, node.loop.bus)
        return
    rec.fold(node.table, "shard_of", "table.shard_of", "tick")
    for shard in shards:
        instrument_loop(rec, shard.name, shard.loop)
    rec.call(node.coordinator, "rebalance", "coordinator.rebalance")
    instrument_bus(rec, node.bus)


def instrument_sim(rec: Recorder, service) -> None:
    """Shim a built lockstep StreamService."""
    rec.fold(service.router, "shard_of", "table.shard_of", "run")
    for shard in service.shards:
        instrument_loop(rec, shard.name, shard.loop)
    rec.call(service.coordinator, "rebalance", "coordinator.rebalance")
    instrument_bus(rec, service.bus)
