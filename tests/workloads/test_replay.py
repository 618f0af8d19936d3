"""Replay generator: schedule warping, CSV ingestion, socket sending.

The schedule math is pure and tested exactly; only the socket replays
are timed against the wall, with generous tolerances unless
``REPRO_RT_STRICT=1``: wall-clock precision on a shared runner is
topology, not correctness.
"""

import os
import socket
import threading

import pytest

from repro.errors import WorkloadError
from repro.workloads import arrivals_from_trace, constant_rate
from repro.workloads.replay import (
    TraceReplayer,
    load_citibike_csv,
    replay_over_socket,
    replay_schedule,
)

STRICT = os.environ.get("REPRO_RT_STRICT", "") == "1"
#: per-gap tolerance for wall-clock timing assertions, seconds
SLACK = 0.02 if STRICT else 0.25


def _arr(times):
    return [(t, (i,), "src") for i, t in enumerate(times)]


# ---------------------------------------------------------------------- #
# replay_schedule: pure, exact
# ---------------------------------------------------------------------- #
def test_schedule_1x_preserves_gaps():
    times = [0.0, 0.5, 1.7, 4.0]
    assert replay_schedule(_arr(times)) == pytest.approx(times)


def test_schedule_speedup_scales_gaps():
    times = [0.0, 1.0, 3.0, 10.0]
    sched = replay_schedule(_arr(times), speed=50.0)
    assert sched == pytest.approx([t / 50.0 for t in times])
    gaps = [b - a for a, b in zip(sched, sched[1:])]
    orig = [b - a for a, b in zip(times, times[1:])]
    assert gaps == pytest.approx([g / 50.0 for g in orig])


def test_schedule_burst_compresses_first_half_window():
    # window 10s, factor 4: first half lands in [0, 1.25), second half
    # stretches to close the window exactly at 10
    sched = replay_schedule(_arr([0.0, 2.5, 5.0, 7.5, 10.0]),
                            burst_factor=4.0, burst_period=10.0)
    assert sched == pytest.approx([0.0, 0.625, 1.25, 5.625, 10.0])


def test_schedule_burst_preserves_window_duration():
    # mean rate is invariant: a timestamp at any window edge maps to itself
    for edge in (0.0, 10.0, 20.0, 30.0):
        sched = replay_schedule(_arr([edge]), burst_factor=7.0,
                                burst_period=10.0)
        assert sched[0] == pytest.approx(edge)


def test_schedule_burst_composes_with_speedup():
    # speedup first (trace seconds -> replay seconds), then shaping
    sched = replay_schedule(_arr([0.0, 50.0, 100.0]), speed=10.0,
                            burst_factor=2.0, burst_period=10.0)
    assert sched == pytest.approx([0.0, 2.5, 10.0])


def test_schedule_burst_is_monotonic():
    times = [i * 0.37 for i in range(200)]
    sched = replay_schedule(_arr(times), speed=3.0, burst_factor=5.0,
                            burst_period=2.0)
    assert all(b >= a for a, b in zip(sched, sched[1:]))


@pytest.mark.parametrize("kwargs", [
    {"speed": 0.0}, {"speed": -1.0},
    {"burst_factor": 0.5}, {"burst_period": 0.0},
])
def test_schedule_rejects_bad_parameters(kwargs):
    with pytest.raises(WorkloadError):
        replay_schedule(_arr([0.0, 1.0]), **kwargs)


def test_schedule_rejects_unordered_arrivals():
    with pytest.raises(WorkloadError):
        replay_schedule(_arr([1.0, 0.5]))


# ---------------------------------------------------------------------- #
# Citi-Bike CSV ingestion (2018 schema)
# ---------------------------------------------------------------------- #
CSV_2018 = '''"tripduration","starttime","stoptime","start station id","start station name","start station latitude","start station longitude","end station id","end station name","end station latitude","end station longitude","bikeid","usertype","birth year","gender"
"680","2018-04-01 00:00:05.2680","2018-04-01 00:11:25.3860","3255","8 Ave & W 31 St","40.75","-73.99","505","6 Ave & W 33 St","40.74","-73.98","31956","Subscriber","1992","1"
"394","2018-04-01 00:00:11.2790","2018-04-01 00:06:45.5340","519","Pershing Square North","40.75","-73.97","526","E 33 St & 5 Ave","40.74","-73.98","32830","Subscriber","1969","1"
"1325","2018-04-01 00:00:20.6490","2018-04-01 00:22:25.8950","3232","Bond St & Fulton St","40.68","-73.98","3注","Dock 72 Way","40.69","-73.97","28905","Subscriber","1993","1"
'''


def test_citibike_csv_parses_2018_schema(tmp_path):
    path = tmp_path / "trips.csv"
    path.write_text(CSV_2018)
    arrivals = load_citibike_csv(path)
    assert len(arrivals) == 3
    t0, values0, source0 = arrivals[0]
    assert t0 == 0.0  # timestamps relative to the first trip
    assert source0 == "bike"
    assert values0[0] == 680  # tripduration
    assert values0[1] == 3255  # start station id
    assert values0[3] == 31956  # bikeid
    # inter-arrival gaps follow starttime differences
    assert arrivals[1][0] == pytest.approx(6.011, abs=1e-3)
    assert arrivals[2][0] == pytest.approx(15.381, abs=1e-3)
    # the third row's unparseable end-station id degrades to 0, not a crash
    assert arrivals[2][1][2] == 0


def test_citibike_csv_limit_and_source(tmp_path):
    path = tmp_path / "trips.csv"
    path.write_text(CSV_2018)
    arrivals = load_citibike_csv(path, source="citi", limit=2)
    assert len(arrivals) == 2
    assert all(s == "citi" for _, _, s in arrivals)


def test_citibike_csv_rejects_wrong_schema(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b,c\n1,2,3\n")
    with pytest.raises(WorkloadError):
        load_citibike_csv(path)


def test_citibike_csv_rejects_empty(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text('"tripduration","starttime"\n')
    with pytest.raises(WorkloadError):
        load_citibike_csv(path)


# ---------------------------------------------------------------------- #
# socket replay (loopback)
# ---------------------------------------------------------------------- #
class _Sink:
    """Accepts one connection and records receive times per line."""

    def __init__(self):
        self.server = socket.create_server(("127.0.0.1", 0))
        self.port = self.server.getsockname()[1]
        self.lines = []
        self.times = []
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._thread.start()

    def _run(self):
        import time
        conn, _ = self.server.accept()
        start = time.monotonic()
        buf = b""
        while True:
            chunk = conn.recv(65536)
            if not chunk:
                break
            buf += chunk
            while b"\n" in buf:
                line, buf = buf.split(b"\n", 1)
                self.lines.append(line)
                self.times.append(time.monotonic() - start)
        conn.close()

    def close(self):
        self._thread.join(timeout=10)
        self.server.close()


def test_replay_sends_every_tuple_in_order():
    sink = _Sink()
    arrivals = _arr([i * 0.001 for i in range(100)])
    sent = replay_over_socket(arrivals, "127.0.0.1", sink.port, speed=1000.0)
    sink.close()
    assert sent == 100
    assert len(sink.lines) == 100
    from repro.serve.protocol import decode_line
    decoded = [decode_line(line) for line in sink.lines]
    assert [v[0][0] for v in decoded] == list(range(100))


def test_replay_1x_reproduces_gaps_within_tolerance():
    sink = _Sink()
    times = [0.0, 0.2, 0.4, 0.6]
    replay_over_socket(_arr(times), "127.0.0.1", sink.port, speed=1.0,
                       batch_window=0.0)
    sink.close()
    assert len(sink.times) == 4
    for expected, (a, b) in zip([0.2, 0.2, 0.2],
                                zip(sink.times, sink.times[1:])):
        assert abs((b - a) - expected) < SLACK


def test_replay_speedup_compresses_wall_time():
    import time
    sink = _Sink()
    times = [i * 0.1 for i in range(50)]  # 5 s of trace
    t0 = time.monotonic()
    replay_over_socket(_arr(times), "127.0.0.1", sink.port, speed=50.0)
    wall = time.monotonic() - t0
    sink.close()
    assert wall < 5.0 / 50.0 + 10 * SLACK  # ~0.1 s at 50x
    assert len(sink.lines) == 50


def test_replay_refused_connection_returns_zero():
    # grab a port that is definitely closed
    probe = socket.create_server(("127.0.0.1", 0))
    port = probe.getsockname()[1]
    probe.close()
    assert replay_over_socket(_arr([0.0]), "127.0.0.1", port) == 0


def test_replayer_thread_stop_mid_replay():
    sink = _Sink()
    arrivals = _arr([i * 0.5 for i in range(1000)])  # would take ~500 s
    rep = TraceReplayer(arrivals, "127.0.0.1", sink.port).start()
    assert rep.running
    sent = rep.stop()
    assert not rep.running
    assert sent < 1000
    sink.server.close()


def test_cli_replays_into_a_live_ingest_server(capsys):
    """``python -m repro.workloads.replay`` end to end: every sent tuple
    is accepted, and the stamped send times give a finite skew."""
    import math
    import time

    from repro.core.clock import WallClock
    from repro.serve.ingest import IngestBuffer, IngestServer
    from repro.workloads.replay import _main

    clock = WallClock()
    clock.start()
    buf = IngestBuffer(clock)
    server = IngestServer(buf, port=0)
    server.start()
    try:
        assert _main(["--port", str(server.port), "--rate", "200",
                      "--duration", "1"]) == 0
        sent = int(capsys.readouterr().out.split("sent ")[1].split()[0])
        deadline = time.monotonic() + 5.0
        while buf.accepted < sent and time.monotonic() < deadline:
            time.sleep(0.01)
        snap = server.snapshot()
    finally:
        server.stop()
    assert sent > 0
    assert (snap.accepted, snap.malformed) == (sent, 0)
    assert math.isfinite(snap.skew_last) and math.isfinite(snap.skew_max)
