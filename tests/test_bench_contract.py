"""The e2e benchmark's contract with ``src/``, as a tier-1 test.

``benchmarks/e2e`` may not be edited outside a ``benchmark`` issue, and it
reaches the program only through public constructors, attributes of the
built nodes and shims patched onto *instances* (ROADMAP "landing rules").
A rename or a bypass under ``src/`` makes a layer metric silently read 0
— or ``run.py`` fail outright, which tier-1 could not see. This builds
each workload's node the way the benchmark does, installs the benchmark's
own shims, drives two periods and checks every shim was reached.

Read-only: nothing under ``benchmarks/e2e`` is written, and its flat
modules are unloaded again so they cannot shadow anything.
"""

import socket
import sys
import time
from pathlib import Path

import pytest

from repro.core.clock import ManualClock
from repro.obs import ObsConfig
from repro.serve import LiveRunner
from repro.serve.protocol import encode_tuple
from repro.service import build_service
from repro.service.shard import build_shard

E2E = Path(__file__).resolve().parents[1] / "benchmarks" / "e2e"
FLAT_MODULES = ("workloads", "shims", "stats")

#: what one control loop is shimmed with (``shims.instrument_loop``)
LOOP = {"actuator.admit", "actuator.begin_period", "actuator.end_period",
        "engine.submit", "engine.run_until", "loop.run_period",
        "monitor.measure", "controller.decide"}
WIRE = {"decode_line", "buffer.push", "buffer.drain_until"}
TOPOLOGY = {"table.shard_of", "coordinator.rebalance"}
#: shim names each workload must reach; ``bus.emit`` only where somebody
#: subscribed (``live_observed`` arms every observer)
EXERCISED = {
    "live_shed": LOOP | WIRE | TOPOLOGY,
    "live_admit": LOOP | WIRE,
    "live_observed": LOOP | WIRE | TOPOLOGY | {"bus.emit"},
    "sim_hotspot": LOOP | TOPOLOGY,
}
PERIODS = 2
FRAMES_PER_PERIOD = 40


@pytest.fixture(scope="module")
def e2e():
    """The benchmark's ``workloads`` and ``shims`` modules, imported flat
    (as ``run.py`` imports them) and unloaded afterwards."""
    if not (E2E / "workloads.py").exists():
        pytest.skip("no benchmarks/e2e beside this checkout")
    sys.path.insert(0, str(E2E))
    try:
        import shims
        import workloads
        yield workloads, shims
    finally:
        sys.path.remove(str(E2E))
        for name in FLAT_MODULES:
            sys.modules.pop(name, None)


def _wait_for(done, what):
    deadline = time.monotonic() + 20.0
    while not done():
        assert time.monotonic() < deadline, f"gave up waiting for {what}"
        time.sleep(0.002)


def _frames(fmt, n):
    if fmt == "csv":
        return b"0.1,0.2,0.3,0.4\n" * n
    return b"".join(encode_tuple((0.1, 0.2, 0.3, 0.4), source=f"s{i % 8}",
                                 sent=0.0) for i in range(n))


def _calls(rec):
    """Shim name -> calls recorded, folds flushed first."""
    for scope in ("wire", "tick", "run"):
        rec.flush(scope, None)
    calls = {}
    for span in rec.spans:
        calls[span["name"]] = calls.get(span["name"], 0) + span["count"]
    return calls


def _drive_live(node, fmt, period):
    """Two periods through the socket on the node's ManualClock."""
    node.start()
    sent = 0
    with socket.create_connection(("127.0.0.1", node.ingest_port),
                                  timeout=5.0) as sock:
        for k in range(PERIODS):
            sock.sendall(_frames(fmt, FRAMES_PER_PERIOD))
            sent += FRAMES_PER_PERIOD
            _wait_for(lambda: node.ingest.snapshot().accepted >= sent,
                      f"{sent} frames to be accepted")
            node.clock.advance(period)
            _wait_for(lambda: node.status()["periods_done"] > k,
                      f"period {k} to close")


@pytest.mark.parametrize("name", ["live_shed", "live_admit", "live_observed"])
def test_live_workload_reaches_every_shim(e2e, tmp_path, name):
    workloads, shims = e2e
    w = workloads.BY_NAME[name]
    node, observers = workloads.build_live(
        w, w.paced_tuples / workloads.PERIOD_S, 1, ManualClock(),
        flight_dir=str(tmp_path))
    rec = shims.Recorder()
    shims.instrument_live(rec, node)
    try:
        _drive_live(node, w.fmt, workloads.PERIOD_S)
    finally:
        result = node.stop()
        rec.uninstall()
        if observers is not None:
            observers["bridge"].close()
    calls = _calls(rec)
    silent = sorted(shim for shim in EXERCISED[name] if not calls.get(shim))
    assert not silent, f"{name}: shims that recorded no call: {silent}"
    # the benchmark tells the two node kinds apart by ``.shards``
    assert hasattr(node, "shards") == (w.kind == "service")
    offered = sum(r.offered_total for r in
                  getattr(result, "shard_records", {"live": result}).values())
    assert offered == PERIODS * FRAMES_PER_PERIOD


def test_sim_workload_reaches_every_shim(e2e):
    from dataclasses import replace
    workloads, shims = e2e
    w = workloads.BY_NAME["sim_hotspot"]
    cfg, svc = workloads.sim_configs(w, 1)
    cfg = replace(cfg, duration=PERIODS * cfg.period)
    service = build_service(cfg, svc)
    rec = shims.Recorder()
    shims.instrument_sim(rec, service)
    try:
        service.run(workloads.sim_arrivals(cfg, svc, 1), cfg.duration)
    finally:
        rec.uninstall()
    calls = _calls(rec)
    silent = sorted(shim for shim in EXERCISED["sim_hotspot"]
                    if not calls.get(shim))
    assert not silent, f"sim_hotspot: shims that recorded no call: {silent}"
    for attr in ("router", "shards", "coordinator", "bus"):
        assert hasattr(service, attr)


def test_live_runner_arms_the_whole_spec():
    """One ObsConfig means the same on a single-loop node as on a shard:
    health, trace and tuptrace could not be armed on a LiveRunner before."""
    from repro.experiments.config import ExperimentConfig
    config = ExperimentConfig(capacity=200.0, period=1.0, target=0.5)
    shard = build_shard("live", config, headroom=config.headroom,
                        target=config.target, backend="fluid")
    runner = LiveRunner(
        shard.loop, entry_source=shard.entry_source, clock=ManualClock(),
        max_periods=PERIODS,
        obs=ObsConfig(health=True, trace=True, tuptrace=0.05))
    assert not hasattr(runner, "shards")
    runner.start()
    try:
        for k in range(PERIODS):
            for i in range(200):
                runner.buffer.push((float(i),), "x")
            runner.clock.advance(1.0)
            _wait_for(lambda: runner.status()["periods_done"] > k,
                      f"period {k} to close")
    finally:
        runner.stop()
    summaries = runner.observers.close()
    assert summaries["health"] is not None
    assert set(summaries["trace_summary"]["shards"]) == {"live", "service"}
    assert summaries["tail_summary"]["live"]["sampled"] > 0
