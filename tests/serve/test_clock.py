"""WallClock / ManualClock semantics.

Real-time bounds here are deliberately generous — a loaded CI runner can
stall any thread for tens of milliseconds. Tight bounds only apply under
``REPRO_RT_STRICT=1``: on a shared runner, wall-clock precision is
machine topology, not a bug.
"""

import os
import threading
import time

import pytest

from repro.core.clock import ManualClock, WallClock

STRICT = os.environ.get("REPRO_RT_STRICT", "") == "1"
#: generous-by-default tolerance for anything timed against the wall
SLACK = 0.05 if STRICT else 0.5


def test_wall_clock_starts_at_zero():
    clock = WallClock()
    clock.start()
    assert 0.0 <= clock.now() < SLACK


def test_wall_clock_start_is_idempotent():
    clock = WallClock()
    clock.start()
    time.sleep(0.02)
    before = clock.now()
    clock.start()  # must not re-anchor
    assert clock.now() >= before


def test_wall_clock_now_implicitly_anchors():
    clock = WallClock()
    assert not clock.started
    assert clock.now() >= 0.0
    assert clock.started


def test_wall_clock_advances_in_real_time():
    clock = WallClock()
    clock.start()
    t0 = clock.now()
    time.sleep(0.05)
    elapsed = clock.now() - t0
    assert elapsed >= 0.045  # sleep() never returns early
    if STRICT:
        assert elapsed < 0.05 + SLACK


def test_wait_until_returns_nonnegative_lateness():
    clock = WallClock()
    clock.start()
    late = clock.wait_until(clock.now() + 0.05)
    assert 0.0 <= late < SLACK


def test_wait_until_past_deadline_returns_immediately():
    clock = WallClock()
    clock.start()
    time.sleep(0.02)
    t0 = time.monotonic()
    late = clock.wait_until(0.0)
    assert late > 0.0
    assert time.monotonic() - t0 < SLACK


def test_wait_until_interrupted_by_stop_event():
    clock = WallClock()
    clock.start()
    stop = threading.Event()
    result = {}

    def waiter():
        result["late"] = clock.wait_until(clock.now() + 30.0, stop)

    t = threading.Thread(target=waiter)
    t.start()
    stop.set()
    t.join(timeout=5.0)
    assert not t.is_alive(), "wait_until ignored the stop event"
    assert result["late"] < 0  # stopped before the deadline


def test_manual_clock_is_deterministic():
    clock = ManualClock()
    assert clock.now() == 0.0
    clock.advance(1.5)
    assert clock.now() == 1.5
    assert clock.wait_until(1.0) == pytest.approx(0.5)


def test_manual_clock_rejects_backwards():
    clock = ManualClock()
    with pytest.raises(ValueError):
        clock.advance(-0.1)


def test_manual_clock_wait_wakes_on_advance():
    clock = ManualClock()
    result = {}

    def waiter():
        result["late"] = clock.wait_until(2.0)

    t = threading.Thread(target=waiter)
    t.start()
    clock.advance(2.5)
    t.join(timeout=5.0)
    assert not t.is_alive()
    assert result["late"] == pytest.approx(0.5)


def test_manual_clock_wait_respects_stop():
    clock = ManualClock()
    stop = threading.Event()
    result = {}

    def waiter():
        result["late"] = clock.wait_until(10.0, stop)

    t = threading.Thread(target=waiter)
    t.start()
    stop.set()
    t.join(timeout=5.0)
    assert not t.is_alive()
    assert result["late"] == pytest.approx(-10.0)
