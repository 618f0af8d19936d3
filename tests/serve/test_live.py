"""End-to-end live serving: wall-clock control against real socket load.

This is the acceptance scenario from the paper's deployment: tuples
arrive over a genuine TCP socket faster than the engine's capacity, the
wall-clock control loop sheds load, and the measured per-period delay
settles around the target. Latency bands are generous by default and
tight only under ``REPRO_RT_STRICT=1`` (slow shared runners jitter the
tick, which widens — but does not break — convergence).
"""

import json
import os
import urllib.request

import pytest

from repro.core.clock import ManualClock
from repro.errors import ServeError
from repro.experiments.config import ExperimentConfig
from repro.obs import EventBus, ObsConfig, get_bus
from repro.serve import LiveRunner, build_live_runner
from repro.workloads import arrivals_from_trace, constant_rate
from repro.workloads.replay import TraceReplayer

STRICT = os.environ.get("REPRO_RT_STRICT", "") == "1"

CAPACITY = 200.0
PERIOD = 0.1
TARGET = 0.5


def _overload_run(strategy="CTRL", n_periods=30, overload=3.0, serve=False):
    config = ExperimentConfig(capacity=CAPACITY, period=PERIOD,
                              target=TARGET, duration=n_periods * PERIOD)
    runner = build_live_runner(config, strategy=strategy, backend="fluid",
                               obs=ObsConfig(serve=serve),
                               max_periods=n_periods)
    runner.start()
    trace = constant_rate(CAPACITY * overload, n_periods, period=PERIOD)
    arrivals = arrivals_from_trace(trace, seed=3)
    replayer = TraceReplayer(arrivals, "127.0.0.1", runner.ingest_port,
                             speed=1.0, stamp_sent=True).start()
    return runner, replayer


def test_live_controller_sheds_and_converges():
    runner, replayer = _overload_run()
    try:
        assert runner.wait(timeout=60), "ticker never finished"
    finally:
        record = runner.stop()
        replayer.stop()

    periods = record.periods
    assert len(periods) == 30
    # the socket genuinely overloaded the node ...
    offered = sum(p.offered for p in periods)
    admitted = sum(p.admitted for p in periods)
    assert offered > CAPACITY * PERIOD * len(periods) * 1.5
    # ... so the controller had to shed a substantial fraction
    assert admitted < offered
    assert max(p.alpha for p in periods) > 0.2
    # and the delay estimate settled around the target
    tail = [p.delay_estimate for p in periods[len(periods) // 2:]]
    mean_tail = sum(tail) / len(tail)
    if STRICT:
        assert TARGET * 0.5 <= mean_tail <= TARGET * 1.5
    else:
        assert TARGET * 0.1 <= mean_tail <= TARGET * 3.0
    # measurements were stamped with wall time, monotonically
    times = [p.time for p in periods]
    assert times == sorted(times)
    assert times[-1] >= len(periods) * PERIOD * 0.9


def test_live_ingest_events_reach_the_bus():
    seen = []
    bus = get_bus()
    bus.subscribe(seen.append, kinds=("ingest",))
    try:
        runner, replayer = _overload_run(n_periods=10)
        try:
            assert runner.wait(timeout=30)
        finally:
            runner.stop()
            replayer.stop()
    finally:
        bus.unsubscribe(seen.append)
    assert len(seen) == 10
    assert sum(e.accepted for e in seen) > 0
    assert all(e.rate >= 0 for e in seen)
    ks = [e.k for e in seen]
    assert ks == sorted(ks)


def test_live_status_probe_mid_run():
    runner, replayer = _overload_run(n_periods=40, serve=True)
    try:
        assert runner.wait(timeout=2.0) is False  # still mid-run
        url = f"{runner.obs_server.url}/status"
        with urllib.request.urlopen(url, timeout=5.0) as resp:
            doc = json.load(resp)
        svc = doc["service"]
        assert svc["mode"] == "live"
        assert svc["running"] is True
        assert svc["ingest"]["accepted"] > 0
        assert svc["periods_done"] > 0
        assert "delay_estimate" in svc
    finally:
        runner.stop()
        replayer.stop()
    assert runner.status()["running"] is False


def test_live_runner_rejects_bad_max_periods():
    config = ExperimentConfig()
    with pytest.raises(ServeError):
        build_live_runner(config, backend="fluid", max_periods=0)


def test_live_runner_double_start_rejected():
    config = ExperimentConfig(capacity=CAPACITY, period=PERIOD)
    runner = build_live_runner(config, backend="fluid", max_periods=2)
    runner.start()
    try:
        with pytest.raises(ServeError):
            runner.start()
    finally:
        runner.stop()


def test_live_runner_manual_clock_periods():
    """Deterministic period accounting: time moves only when we say so."""
    config = ExperimentConfig(capacity=CAPACITY, period=1.0, target=TARGET)
    clock = ManualClock()
    from repro.service.shard import build_shard
    shard = build_shard("manual", config, headroom=config.headroom,
                        target=TARGET, backend="fluid")
    runner = LiveRunner(shard.loop, entry_source=shard.entry_source,
                        clock=clock, max_periods=3)
    runner.start()
    try:
        # period 0: two tuples stamped inside [0, 1)
        clock.advance(0.5)
        runner.buffer.push((1,), "x")
        runner.buffer.push((2,), "x")
        clock.advance(0.6)  # now 1.1 -> boundary 1.0 passed
        assert _eventually(lambda: runner.status()["periods_done"] == 1)
        assert runner.record.periods[0].offered == 2
        clock.advance(1.0)  # close period 1 (empty)
        assert _eventually(lambda: runner.status()["periods_done"] == 2)
        assert runner.record.periods[1].offered == 0
        clock.advance(1.0)  # close period 2; ticker hits max_periods
        assert runner.wait(timeout=10)
    finally:
        record = runner.stop()
    assert len(record.periods) == 3


def test_live_ticker_charges_ingest_segment():
    """The buffer drain before each period lands in the flame's "ingest"
    segment, so live-mode coverage accounts for socket-side work too."""
    from repro.obs.tracing import PeriodTracer
    from repro.service.shard import build_shard
    config = ExperimentConfig(capacity=CAPACITY, period=1.0, target=TARGET)
    clock = ManualClock()
    shard = build_shard("flame", config, headroom=config.headroom,
                        target=TARGET, backend="fluid")
    shard.loop.tracer = PeriodTracer()
    runner = LiveRunner(shard.loop, entry_source=shard.entry_source,
                        clock=clock, max_periods=2)
    runner.start()
    try:
        clock.advance(0.5)
        for i in range(50):
            runner.buffer.push((i,), "x")
        clock.advance(0.6)
        assert _eventually(lambda: runner.status()["periods_done"] == 1)
        clock.advance(1.0)
        assert runner.wait(timeout=10)
    finally:
        runner.stop()
    flame = shard.loop.tracer.flame()
    assert flame["segments"].get("ingest", 0.0) > 0.0
    # the drain runs outside the period span, so it must show up in the
    # run totals even though no period row carries it
    assert shard.loop.tracer.segments["ingest"] > 0.0


def test_live_runner_observes_the_loops_own_bus():
    """A private bus nobody subscribed to yet is falsy; arming observers
    must subscribe them there, not swap the loop onto the process bus."""
    from repro.service.shard import build_shard
    config = ExperimentConfig(capacity=CAPACITY, period=1.0, target=TARGET)
    shard = build_shard("private", config, headroom=config.headroom,
                        target=TARGET, backend="fluid")
    bus = shard.loop.bus = EventBus()
    on_process_bus = len(get_bus())
    runner = LiveRunner(shard.loop, entry_source=shard.entry_source,
                        clock=ManualClock(), obs=ObsConfig(sysid=True))
    try:
        assert shard.loop.bus is bus
        assert runner.sysid_monitor.bus is bus and len(bus) == 1
        assert len(get_bus()) == on_process_bus
    finally:
        runner.stop()
    assert not bus


def _eventually(predicate, timeout=10.0):
    import time
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.01)
    return predicate()
