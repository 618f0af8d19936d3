"""Live HTTP serving of the observability layer (stdlib-only).

:class:`ObsServer` binds a background :class:`ThreadingHTTPServer` to the
event bus + metrics registry and exposes the control signals the paper
argues *are* the system's health, while the run is in flight:

========== ==========================================================
path       serves
========== ==========================================================
``/``      single-file HTML dashboard: ŷ(k) vs target, q(k), α and
           per-shard headroom, streamed over SSE
``/metrics``  Prometheus text exposition 0.0.4 of the registry
``/health``   :meth:`HealthMonitor.summary` JSON (online detectors);
              HTTP 503 while any *critical* episode is open, so a
              liveness probe needs no JSON parsing
``/status``   JSON snapshot: latest per-shard period, headroom split,
              event counts, plus the service's own ``status_fn`` view
``/events``   Server-Sent Events live stream of bus events; defaults to
              every kind except the firehose ``tuple_trace`` spans
              (``?kinds=a,b`` narrows or opts in; an unknown kind is
              a 400 listing the valid ones)
``/incident`` ``POST``: ask the attached flight recorder to dump an
              incident bundle now (404 without a recorder)
========== ==========================================================

Every SSE client gets its own drop-oldest
:class:`~repro.obs.bus.BoundedSubscription`, so a stalled browser tab
backs up — and then loses — only its own buffer, visibly
(``repro_obs_dropped_total``), while the control loop's emit path stays
an O(1) append. docs/THEORY.md §10 makes
the argument precise.

The listen port comes from the constructor, else ``REPRO_OBS_PORT``,
else an ephemeral port; :attr:`ObsServer.url` reports what was bound.
"""

from __future__ import annotations

import json
import os
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Callable, Dict, Optional
from urllib.parse import parse_qs, urlparse

from ..errors import ObservabilityError
from .bus import BoundedSubscription, EventBus, get_bus
from .events import EVENT_KINDS, ObsEvent, event_to_dict
from .health import HealthMonitor
from .logconf import get_logger
from .metrics import MetricsRegistry, get_registry

_log = get_logger("obs.serve")

DEFAULT_HOST = "127.0.0.1"

PROMETHEUS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"


def default_port() -> int:
    """``REPRO_OBS_PORT`` when set, else 0 (ephemeral)."""
    raw = os.environ.get("REPRO_OBS_PORT", "").strip()
    if not raw:
        return 0
    try:
        return int(raw)
    except ValueError:
        raise ObservabilityError(
            f"REPRO_OBS_PORT must be an integer, got {raw!r}"
        ) from None


class _LiveState:
    """Cheap synchronous subscriber keeping the latest signal per shard."""

    def __init__(self, bus: EventBus):
        self.bus = bus
        self.started = time.time()
        self.events_seen = 0
        self.counts: Dict[str, int] = {}
        self.shards: Dict[str, dict] = {}
        self.headroom: Dict[str, float] = {}
        self.ingest: Dict[str, dict] = {}
        self._lock = threading.Lock()
        bus.subscribe(self._on_event)

    def _on_event(self, event: ObsEvent) -> None:
        with self._lock:
            self.events_seen += 1
            kind = event.kind
            self.counts[kind] = self.counts.get(kind, 0) + 1
            shard = event.shard or "main"
            if kind == "period":
                self.shards[shard] = event_to_dict(event).get("record") or {}
            elif kind == "headroom_changed":
                self.headroom[shard] = event.new
            elif kind == "ingest":
                self.ingest[shard] = event_to_dict(event)

    def snapshot(self) -> dict:
        with self._lock:
            return {
                "uptime_seconds": round(time.time() - self.started, 3),
                "events_seen": self.events_seen,
                "event_counts": dict(self.counts),
                "shards": {name: dict(doc)
                           for name, doc in self.shards.items()},
                "headroom": dict(self.headroom),
                "ingest": {name: dict(doc)
                           for name, doc in self.ingest.items()},
            }

    def close(self) -> None:
        self.bus.unsubscribe(self._on_event)


class ObsServer:
    """Background HTTP server over a bus + registry (+ optional status)."""

    def __init__(self, port: Optional[int] = None, host: str = DEFAULT_HOST,
                 bus: Optional[EventBus] = None,
                 registry: Optional[MetricsRegistry] = None,
                 health: Optional[HealthMonitor] = None,
                 status_fn: Optional[Callable[[], dict]] = None,
                 sse_maxlen: int = 512,
                 flight=None):
        self.bus = bus if bus is not None else get_bus()
        self.registry = registry if registry is not None else get_registry()
        self._own_health = health is None
        self.health = health if health is not None else HealthMonitor(self.bus)
        self.status_fn = status_fn
        #: optional :class:`~repro.obs.flight.FlightRecorder` behind
        #: ``POST /incident``
        self.flight = flight
        self.sse_maxlen = int(sse_maxlen)
        self.sse_clients = 0
        self.sse_dropped = 0
        self.state = _LiveState(self.bus)
        self._stopping = threading.Event()
        self._httpd = ThreadingHTTPServer(
            (host, default_port() if port is None else int(port)), _Handler)
        self._httpd.daemon_threads = True
        self._httpd.obs = self  # type: ignore[attr-defined]
        self._thread: Optional[threading.Thread] = None

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    @property
    def host(self) -> str:
        return self._httpd.server_address[0]

    @property
    def port(self) -> int:
        return self._httpd.server_address[1]

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def start(self) -> "ObsServer":
        if self._thread is None:
            self._thread = threading.Thread(
                target=self._httpd.serve_forever, daemon=True,
                name="repro-obs-serve")
            self._thread.start()
            _log.info("observability server listening on %s", self.url)
        return self

    def stop(self) -> None:
        """Shut down: SSE streams end, the socket closes, taps detach."""
        if self._thread is None:
            return
        self._stopping.set()
        self._httpd.shutdown()
        self._httpd.server_close()
        self._thread = None
        self.state.close()
        if self._own_health:
            self.health.close()

    def __enter__(self) -> "ObsServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # ------------------------------------------------------------------ #
    # endpoint documents
    # ------------------------------------------------------------------ #
    def status_document(self) -> dict:
        doc = self.state.snapshot()
        doc["sse_clients"] = self.sse_clients
        doc["sse_dropped"] = self.sse_dropped
        doc["service"] = self.status_fn() if self.status_fn is not None else None
        return doc


class _Handler(BaseHTTPRequestHandler):
    server_version = "ReproObs/1.0"
    protocol_version = "HTTP/1.1"

    @property
    def obs(self) -> ObsServer:
        return self.server.obs  # type: ignore[attr-defined]

    def log_message(self, fmt: str, *args) -> None:
        _log.debug("%s %s", self.address_string(), fmt % args)

    def _send(self, body: str, content_type: str = "application/json",
              code: int = 200) -> None:
        payload = body.encode("utf-8")
        self.send_response(code)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)

    def do_GET(self) -> None:  # noqa: N802 - http.server API
        path = self.path.split("?", 1)[0]
        try:
            if path == "/metrics":
                self._send(self.obs.registry.prometheus_text(),
                           PROMETHEUS_CONTENT_TYPE)
            elif path == "/health":
                # degraded-but-standing (warnings) still answers 200; an
                # open *critical* episode flips the status code so plain
                # HTTP probes see it without parsing the report JSON
                code = 503 if self.obs.health.critical_open() else 200
                self._send(json.dumps(self.obs.health.summary()), code=code)
            elif path == "/status":
                self._send(json.dumps(self.obs.status_document()))
            elif path == "/events":
                self._serve_sse()
            elif path in ("/", "/index.html"):
                self._send(DASHBOARD_HTML, "text/html; charset=utf-8")
            else:
                self._send(json.dumps({"error": f"no route {path!r}"}),
                           code=404)
        except (BrokenPipeError, ConnectionResetError):
            pass  # client went away mid-response; nothing to salvage

    def do_POST(self) -> None:  # noqa: N802 - http.server API
        path = self.path.split("?", 1)[0]
        try:
            # drain any request body so keep-alive connections stay sane
            length = int(self.headers.get("Content-Length") or 0)
            reason = ""
            if length > 0:
                raw = self.rfile.read(min(length, 65536))
                try:
                    reason = str(json.loads(raw).get("reason", ""))
                except (ValueError, AttributeError):
                    reason = raw.decode("utf-8", "replace").strip()
            if path != "/incident":
                self._send(json.dumps({"error": f"no route {path!r}"}),
                           code=404)
                return
            recorder = self.obs.flight
            if recorder is None:
                self._send(json.dumps(
                    {"error": "no flight recorder attached to this server"}),
                    code=404)
                return
            bundle_path = recorder.dump(
                reason=reason or "operator request via POST /incident",
                trigger="http")
            if bundle_path is None:
                self._send(json.dumps(
                    {"error": "recorder closed or dump budget exhausted"}),
                    code=409)
                return
            self._send(json.dumps({"path": str(bundle_path)}))
        except (BrokenPipeError, ConnectionResetError):
            pass  # client went away mid-response; nothing to salvage

    # ------------------------------------------------------------------ #
    # SSE
    # ------------------------------------------------------------------ #
    #: kinds an SSE client receives without an explicit ``?kinds=`` ask.
    #: ``tuple_trace`` is excluded on purpose: at high sample fractions the
    #: per-tuple span stream can outrun a browser tab's ring buffer and
    #: evict the period frames the dashboard lives on. Opt in with
    #: ``/events?kinds=tuple_trace`` (or a comma list including it).
    SSE_DEFAULT_KINDS = frozenset(EVENT_KINDS) - {"tuple_trace"}

    def _serve_sse(self) -> None:
        obs = self.obs
        raw = parse_qs(urlparse(self.path).query).get("kinds", [""])[0]
        wanted = frozenset(k.strip() for k in raw.split(",") if k.strip())
        try:
            sub = BoundedSubscription(
                obs.bus, kinds=wanted or self.SSE_DEFAULT_KINDS,
                maxlen=obs.sse_maxlen,
                name=f"sse:{self.client_address[0]}:{self.client_address[1]}")
        except ObservabilityError as err:  # ?kinds= named an unknown kind
            self._send(json.dumps({"error": str(err),
                                   "kinds": list(EVENT_KINDS)}), code=400)
            return
        obs.sse_clients += 1
        self.send_response(200)
        self.send_header("Content-Type", "text/event-stream")
        self.send_header("Cache-Control", "no-cache")
        self.send_header("Connection", "close")
        self.end_headers()
        try:
            self._write_frame("hello", obs.state.snapshot())
            while not obs._stopping.is_set():
                event = sub.get(timeout=1.0)
                if event is None:
                    self.wfile.write(b": keepalive\n\n")
                    self.wfile.flush()
                else:
                    self._write_frame(event.kind, event_to_dict(event))
        except (BrokenPipeError, ConnectionResetError, OSError):
            pass  # disconnected client; the subscription closes below
        finally:
            sub.close()
            obs.sse_dropped += sub.dropped
            obs.sse_clients -= 1

    def _write_frame(self, kind: str, doc: dict) -> None:
        frame = f"event: {kind}\ndata: {json.dumps(doc)}\n\n"
        self.wfile.write(frame.encode("utf-8"))
        self.wfile.flush()


# ---------------------------------------------------------------------- #
# the dashboard: one file, no dependencies, fed by /events
# ---------------------------------------------------------------------- #
DASHBOARD_HTML = """<!doctype html>
<html lang="en">
<head>
<meta charset="utf-8">
<meta name="viewport" content="width=device-width, initial-scale=1">
<title>repro live dashboard</title>
<style>
  .viz-root {
    color-scheme: light;
    --surface-1: #fcfcfb;
    --surface-2: #f0efec;
    --text-primary: #0b0b0b;
    --text-secondary: #52514e;
    --grid: #e3e2de;
    --series-1: #2a78d6; --series-2: #eb6834; --series-3: #1baf7a;
    --series-4: #eda100; --series-5: #e87ba4; --series-6: #008300;
    --series-7: #4a3aa7; --series-8: #e34948;
  }
  @media (prefers-color-scheme: dark) {
    :root:where(:not([data-theme="light"])) .viz-root {
      color-scheme: dark;
      --surface-1: #1a1a19;
      --surface-2: #383835;
      --text-primary: #ffffff;
      --text-secondary: #c3c2b7;
      --grid: #32322f;
      --series-1: #3987e5; --series-2: #d95926; --series-3: #199e70;
      --series-4: #c98500; --series-5: #d55181; --series-6: #008300;
      --series-7: #9085e9; --series-8: #e66767;
    }
  }
  body { margin: 0; }
  .viz-root {
    min-height: 100vh; background: var(--surface-1);
    color: var(--text-primary);
    font: 14px/1.45 system-ui, -apple-system, "Segoe UI", sans-serif;
    padding: 20px 24px;
  }
  header { display: flex; align-items: baseline; gap: 14px; flex-wrap: wrap; }
  h1 { font-size: 17px; margin: 0 8px 0 0; font-weight: 600; }
  .meta { color: var(--text-secondary); font-size: 12px; }
  #conn::before { content: "●"; margin-right: 5px; }
  #conn.ok::before { color: var(--series-3); }
  #conn.bad::before { color: var(--series-8); }
  #legend { display: flex; gap: 14px; flex-wrap: wrap; margin: 10px 0 2px; }
  .chip { display: inline-flex; align-items: center; gap: 6px;
          color: var(--text-secondary); font-size: 12px; }
  .chip i { width: 10px; height: 10px; border-radius: 3px; display: inline-block; }
  .grid2 { display: grid; gap: 18px;
           grid-template-columns: repeat(auto-fit, minmax(340px, 1fr)); }
  figure { margin: 8px 0 0; }
  figcaption { font-size: 13px; color: var(--text-primary); font-weight: 600;
               display: flex; justify-content: space-between; gap: 8px; }
  figcaption .readout { color: var(--text-secondary); font-weight: 400;
                        font-size: 12px; font-variant-numeric: tabular-nums; }
  svg { width: 100%; height: 180px; display: block; }
  .gridline { stroke: var(--grid); stroke-width: 1; }
  .axis-label { fill: var(--text-secondary); font-size: 10px; }
  .refline { stroke: var(--text-secondary); stroke-width: 1.5;
             stroke-dasharray: 5 4; }
  .annoline { stroke: var(--series-4); stroke-width: 1.5;
              stroke-dasharray: 3 3; }
  .annolabel { fill: var(--series-4); font-size: 9px; }
  .series { fill: none; stroke-width: 2; stroke-linejoin: round; }
</style>
</head>
<body>
<div class="viz-root">
  <header>
    <h1>load-shedding control signals</h1>
    <span id="conn" class="meta bad">connecting</span>
    <span id="stats" class="meta"></span>
  </header>
  <div id="legend"></div>
  <div class="grid2">
    <figure><figcaption>delay estimate &#375;(k) vs target (s)
      <span class="readout" id="r-delay"></span></figcaption>
      <svg id="c-delay"></svg></figure>
    <figure><figcaption>virtual queue q(k)
      <span class="readout" id="r-queue"></span></figcaption>
      <svg id="c-queue"></svg></figure>
    <figure><figcaption>drop probability &#945;(k)
      <span class="readout" id="r-alpha"></span></figcaption>
      <svg id="c-alpha"></svg></figure>
    <figure><figcaption>headroom share H per shard
      <span class="readout" id="r-headroom"></span></figcaption>
      <svg id="c-headroom"></svg></figure>
    <figure><figcaption>ingest rate (offered tuples/s, live serving)
      <span class="readout" id="r-ingest"></span></figcaption>
      <svg id="c-ingest"></svg></figure>
    <figure><figcaption>completed-tuple delay p50 / p95 / p99 (s)
      <span class="readout" id="r-tail"></span></figcaption>
      <svg id="c-tail"></svg></figure>
    <figure><figcaption>control health: identified/design gain K&#770;
      <span class="readout" id="r-sysid"></span></figcaption>
      <svg id="c-sysid"></svg></figure>
    <figure><figcaption>control health: effective gain margin
      <span class="readout" id="r-margin"></span></figcaption>
      <svg id="c-margin"></svg></figure>
  </div>
</div>
<script>
"use strict";
const KEEP = 240;                       // points retained per shard
const SLOTS = 8;                        // categorical palette size
const shards = new Map();               // name -> {slot, points: []}
const headroom = new Map();             // name -> latest H
const ingest = new Map();               // name -> latest offered tuples/s
const annotations = [];                 // migrations: {k, label}
let periods = 0, lastTarget = null, dirty = false;

function shardState(name) {
  let s = shards.get(name);
  if (!s) {                             // fixed slot at first appearance
    s = { slot: shards.size % SLOTS, points: [] };
    shards.set(name, s);
    renderLegend();
  }
  return s;
}
function color(slot) {
  return getComputedStyle(document.querySelector(".viz-root"))
    .getPropertyValue("--series-" + (slot + 1)).trim();
}
function renderLegend() {
  const el = document.getElementById("legend");
  el.innerHTML = "";
  for (const [name, s] of shards) {
    const chip = document.createElement("span");
    chip.className = "chip";
    const sw = document.createElement("i");
    sw.style.background = color(s.slot);
    chip.append(sw, document.createTextNode(name));
    el.append(chip);
  }
}
function onPeriod(rec, shard) {
  const s = shardState(shard);
  s.points.push({ k: rec.k, delay: rec.delay_estimate, target: rec.target,
                  queue: rec.queue_length, alpha: rec.alpha,
                  headroom: headroom.get(shard) ?? null,
                  ingest: ingest.get(shard) ?? null });
  if (s.points.length > KEEP) s.points.shift();
  periods += 1;
  lastTarget = rec.target;
  dirty = true;
}

// tail-latency pane: delays arrive per period in "completions" events; a
// sliding reservoir of the most recent completions feeds running
// percentiles, plotted as their own three fixed-slot series
const tail = new Map();                 // "p50"|"p95"|"p99" -> {slot, points}
const tailWindow = [];                  // recent completed-tuple delays
const TAIL_WINDOW = 4096;
function percentile(sorted, q) {        // nearest-rank on a sorted array
  const i = Math.ceil(q * sorted.length) - 1;
  return sorted[Math.min(sorted.length - 1, Math.max(0, i))];
}
function onCompletions(doc) {
  for (const d of doc.delays || []) tailWindow.push(d);
  if (!tailWindow.length) return;
  if (tailWindow.length > TAIL_WINDOW)
    tailWindow.splice(0, tailWindow.length - TAIL_WINDOW);
  const sorted = [...tailWindow].sort((a, b) => a - b);
  [["p50", 0.50], ["p95", 0.95], ["p99", 0.99]].forEach(([name, q], i) => {
    let s = tail.get(name);
    if (!s) { s = { slot: i, points: [] }; tail.set(name, s); }
    s.points.push({ k: doc.k, tail: percentile(sorted, q) });
    if (s.points.length > KEEP) s.points.shift();
  });
  dirty = true;
}

// control-health pane: per-shard sysid series share the shard's color
// slot. K-hat should hug the 1.0 reference; the margin pane shows how
// much loop-gain slack the *identified* plant leaves before instability.
const sysidS = new Map();               // shard -> {slot, points}
function onSysId(doc) {
  const name = doc.shard || "main";
  let s = sysidS.get(name);
  if (!s) { s = { slot: shardState(name).slot, points: [] }; sysidS.set(name, s); }
  s.points.push({ k: doc.k,
                  ratio: doc.converged ? doc.gain_ratio : null,
                  margin: doc.converged ? doc.gain_margin : null });
  if (s.points.length > KEEP) s.points.shift();
  dirty = true;
}

const CHARTS = [
  { svg: "c-delay", readout: "r-delay", field: "delay", ref: () => lastTarget },
  { svg: "c-queue", readout: "r-queue", field: "queue" },
  { svg: "c-alpha", readout: "r-alpha", field: "alpha", min: 0, max: 1 },
  { svg: "c-headroom", readout: "r-headroom", field: "headroom", min: 0 },
  { svg: "c-ingest", readout: "r-ingest", field: "ingest", min: 0 },
  { svg: "c-tail", readout: "r-tail", field: "tail", min: 0, source: tail },
  { svg: "c-sysid", readout: "r-sysid", field: "ratio", ref: () => 1,
    source: sysidS },
  { svg: "c-margin", readout: "r-margin", field: "margin", min: 0,
    source: sysidS },
];
const PAD = { l: 40, r: 8, t: 8, b: 18 };

function draw() {
  dirty = false;
  document.getElementById("stats").textContent =
    shards.size + " shard(s) · " + periods + " periods";
  for (const chart of CHARTS) drawChart(chart);
}
function drawChart(chart) {
  const svg = document.getElementById(chart.svg);
  const W = svg.clientWidth || 360, H = svg.clientHeight || 180;
  svg.setAttribute("viewBox", "0 0 " + W + " " + H);
  const src = chart.source || shards;   // default charts plot per-shard
  let k0 = Infinity, k1 = -Infinity, v0 = Infinity, v1 = -Infinity;
  for (const [, s] of src) for (const p of s.points) {
    const v = p[chart.field];
    if (v == null || !isFinite(v)) continue;
    k0 = Math.min(k0, p.k); k1 = Math.max(k1, p.k);
    v0 = Math.min(v0, v); v1 = Math.max(v1, v);
  }
  const ref = chart.ref ? chart.ref() : null;
  if (ref != null) { v0 = Math.min(v0, ref); v1 = Math.max(v1, ref); }
  if (chart.min != null) v0 = Math.min(v0, chart.min);
  if (chart.max != null) v1 = Math.max(v1, chart.max);
  if (!isFinite(k0) || !isFinite(v0)) { svg.innerHTML = ""; return; }
  if (k1 === k0) k1 = k0 + 1;
  if (v1 - v0 < 1e-9) v1 = v0 + 1;
  const pad = (v1 - v0) * 0.06; v0 -= pad; v1 += pad;
  const x = k => PAD.l + (k - k0) / (k1 - k0) * (W - PAD.l - PAD.r);
  const y = v => H - PAD.b - (v - v0) / (v1 - v0) * (H - PAD.t - PAD.b);
  let out = "";
  for (let i = 0; i <= 3; i++) {       // recessive grid + axis labels
    const v = v0 + (v1 - v0) * i / 3, yy = y(v).toFixed(1);
    out += '<line class="gridline" x1="' + PAD.l + '" x2="' + (W - PAD.r) +
           '" y1="' + yy + '" y2="' + yy + '"/>' +
           '<text class="axis-label" x="' + (PAD.l - 5) + '" y="' +
           (+yy + 3) + '" text-anchor="end">' + fmt(v) + "</text>";
  }
  out += '<text class="axis-label" x="' + (W - PAD.r) + '" y="' + (H - 5) +
         '" text-anchor="end">k=' + k1 + "</text>";
  if (ref != null)
    out += '<line class="refline" x1="' + PAD.l + '" x2="' + (W - PAD.r) +
           '" y1="' + y(ref).toFixed(1) + '" y2="' + y(ref).toFixed(1) + '"/>';
  for (const a of annotations) {       // migration cutover markers
    if (a.k < k0 || a.k > k1) continue;
    const xx = x(a.k).toFixed(1);
    out += '<line class="annoline" x1="' + xx + '" x2="' + xx +
           '" y1="' + PAD.t + '" y2="' + (H - PAD.b) + '"/>' +
           '<text class="annolabel" x="' + (+xx + 3) + '" y="' +
           (PAD.t + 9) + '">' + a.label + "</text>";
  }
  for (const [, s] of src) {
    const pts = s.points
      .filter(p => p[chart.field] != null && isFinite(p[chart.field]))
      .map(p => x(p.k).toFixed(1) + "," + y(p[chart.field]).toFixed(1))
      .join(" ");
    if (pts) out += '<polyline class="series" stroke="' + color(s.slot) +
                    '" points="' + pts + '"/>';
  }
  svg.innerHTML = out;
  svg.onmousemove = ev => {            // crosshair readout (hover layer)
    const rect = svg.getBoundingClientRect();
    const k = Math.round(k0 + (ev.clientX - rect.left - PAD.l) /
                         (W - PAD.l - PAD.r) * (k1 - k0));
    const parts = [];
    for (const [name, s] of src) {
      const p = s.points.find(q => q.k === k);
      if (p && p[chart.field] != null) parts.push(name + " " + fmt(p[chart.field]));
    }
    document.getElementById(chart.readout).textContent =
      parts.length ? "k=" + k + "  " + parts.join("  ") : "";
  };
  svg.onmouseleave =
    () => { document.getElementById(chart.readout).textContent = ""; };
}
function fmt(v) {
  const a = Math.abs(v);
  return a >= 1000 ? v.toFixed(0) : a >= 10 ? v.toFixed(1) : v.toFixed(2);
}

const conn = document.getElementById("conn");
const es = new EventSource("/events");
es.onopen = () => { conn.textContent = "live"; conn.className = "meta ok"; };
es.onerror = () => { conn.textContent = "disconnected"; conn.className = "meta bad"; };
es.addEventListener("hello", ev => {
  const doc = JSON.parse(ev.data);
  for (const [name, h] of Object.entries(doc.headroom || {}))
    headroom.set(name, h);
  for (const [name, d] of Object.entries(doc.ingest || {}))
    if (d && d.rate != null) ingest.set(name, d.rate);
  for (const [name, rec] of Object.entries(doc.shards || {}))
    if (rec && rec.k != null) onPeriod(rec, name);
  dirty = true;
});
es.addEventListener("period", ev => {
  const doc = JSON.parse(ev.data);
  if (doc.record) onPeriod(doc.record, doc.shard || "main");
});
es.addEventListener("headroom_changed", ev => {
  const doc = JSON.parse(ev.data);
  headroom.set(doc.shard || "main", doc.new);
});
es.addEventListener("ingest", ev => {
  const doc = JSON.parse(ev.data);
  ingest.set(doc.shard || "main", doc.rate);
});
es.addEventListener("completions", ev => {
  onCompletions(JSON.parse(ev.data));
});
es.addEventListener("sysid", ev => {
  onSysId(JSON.parse(ev.data));
});
es.addEventListener("route_changed", ev => {
  const doc = JSON.parse(ev.data);
  const safe = String(doc.source ?? "?")
    .replace(/&/g, "&amp;").replace(/</g, "&lt;");
  annotations.push({ k: doc.k, label: safe + "&#8594;" + doc.to_shard });
  if (annotations.length > 32) annotations.shift();
  dirty = true;
});
(function tick() { if (dirty) draw(); requestAnimationFrame(tick); })();
window.addEventListener("resize", () => { dirty = true; });
</script>
</body>
</html>
"""
