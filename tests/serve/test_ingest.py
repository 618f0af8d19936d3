"""Ingestion: buffer stamping/draining and the asyncio TCP server."""

import dataclasses
import json
import math
import socket
import time

import pytest

from repro.core.clock import ManualClock, WallClock
from repro.errors import ServeError
from repro.serve.ingest import IngestBuffer, IngestServer
from repro.serve.protocol import encode_tuple


# ---------------------------------------------------------------------- #
# IngestBuffer (deterministic, via ManualClock)
# ---------------------------------------------------------------------- #
def test_buffer_stamps_with_clock():
    clock = ManualClock()
    buf = IngestBuffer(clock)
    clock.advance(1.25)
    assert buf.push((1,), "a")
    clock.advance(0.5)
    assert buf.push((2,), "a")
    due = buf.drain_until(10.0)
    assert [(t, v) for t, v, _ in due] == [(1.25, (1,)), (1.75, (2,))]


def test_buffer_drain_respects_boundary():
    clock = ManualClock()
    buf = IngestBuffer(clock)
    for dt in (0.1, 0.2, 0.3):
        clock.advance(dt)
        buf.push((dt,), "a")
    due = buf.drain_until(0.3)  # strictly-before semantics
    assert len(due) == 1
    assert len(buf) == 2
    rest = buf.drain_until(100.0)
    assert len(rest) == 2
    assert len(buf) == 0


def test_buffer_bounded_drops():
    buf = IngestBuffer(ManualClock(), maxlen=2)
    assert buf.push((1,), "a")
    assert buf.push((2,), "a")
    assert not buf.push((3,), "a")
    assert buf.accepted == 2
    assert buf.dropped == 1
    assert len(buf) == 2


def test_buffer_rejects_bad_maxlen():
    with pytest.raises(ServeError):
        IngestBuffer(ManualClock(), maxlen=0)


def test_buffer_drain_preserves_stamp_order():
    clock = ManualClock()
    buf = IngestBuffer(clock)
    for i in range(50):
        clock.advance(0.01)
        buf.push((i,), "a")
    due = buf.drain_until(1000.0)
    times = [t for t, _, _ in due]
    assert times == sorted(times)


# ---------------------------------------------------------------------- #
# IngestServer (real sockets on loopback)
# ---------------------------------------------------------------------- #
def _started_server():
    clock = WallClock()
    clock.start()
    buf = IngestBuffer(clock)
    server = IngestServer(buf, port=0)
    server.start()
    return server, buf


def _send(port, payload: bytes):
    with socket.create_connection(("127.0.0.1", port), timeout=5.0) as sock:
        sock.sendall(payload)


def _wait_for(predicate, timeout=5.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.01)
    return predicate()


def test_server_binds_ephemeral_port():
    server, _ = _started_server()
    try:
        assert server.port > 0
    finally:
        server.stop()


def test_server_accepts_and_stamps_tuples():
    server, buf = _started_server()
    try:
        _send(server.port,
              encode_tuple((1, 2), source="s1") + b"3,4\n")
        assert _wait_for(lambda: buf.accepted == 2)
        due = buf.drain_until(float("inf"))
        assert [(v, s) for _, v, s in due] == [((1, 2), "s1"),
                                               ((3, 4), "live")]
        assert all(t >= 0.0 for t, _, _ in due)
    finally:
        server.stop()


def test_server_counts_malformed_and_keeps_connection():
    server, buf = _started_server()
    try:
        _send(server.port, b"{broken\n" + encode_tuple((9,)))
        assert _wait_for(lambda: buf.accepted == 1)
        assert server.malformed == 1
        assert server.bytes_read > 0
        # a frame that is not UTF-8 is one more malformed line: the frame
        # after it on the same, still open, connection is accepted
        with socket.create_connection(("127.0.0.1", server.port),
                                      timeout=5.0) as sock:
            sock.sendall(b"1,2,3\n\xff\xfe\n4,5,6\n")
            assert _wait_for(lambda: buf.accepted == 3)
            assert server.malformed == 2
            assert _wait_for(lambda: server.open_connections == 1)
    finally:
        server.stop()


def test_server_survives_a_deeply_nested_frame():
    server, buf = _started_server()
    try:
        with socket.create_connection(("127.0.0.1", server.port),
                                      timeout=5.0) as sock:
            sock.sendall(b'{"v":' + b"[" * 20000 + b"]" * 20000 + b"}\n")
            assert _wait_for(lambda: server.malformed == 1)
            sock.sendall(b"7,8,9\n")
            assert _wait_for(lambda: buf.accepted == 1)
            assert server.malformed == 1
            assert server.open_connections == 1
    finally:
        server.stop()


def test_server_records_sender_skew():
    server, buf = _started_server()
    try:
        _send(server.port, encode_tuple((1,), sent=time.time() - 2.0))
        assert _wait_for(lambda: buf.accepted == 1)
        assert server.skew_last >= 1.0  # sent "2 seconds ago"
        assert server.skew_max >= server.skew_last > 0
    finally:
        server.stop()


def test_server_refuses_a_non_finite_send_time():
    server, buf = _started_server()
    try:
        with socket.create_connection(("127.0.0.1", server.port),
                                      timeout=5.0) as sock:
            sock.sendall(b'{"v":[1],"t":NaN}\n')
            assert _wait_for(lambda: server.malformed == 1)
            sock.sendall(encode_tuple((2,), sent=time.time()))
            assert _wait_for(lambda: buf.accepted == 1)
            assert server.open_connections == 1
        snap = server.snapshot()
        assert snap.malformed == 1
        assert math.isfinite(snap.skew_last) and math.isfinite(snap.skew_max)
        # what /status and the SSE ingest frames serialise stays valid JSON
        json.dumps(dataclasses.asdict(snap), allow_nan=False)
    finally:
        server.stop()


def test_server_stop_closes_listener():
    server, _ = _started_server()
    port = server.port
    server.stop()
    with pytest.raises(OSError):
        socket.create_connection(("127.0.0.1", port), timeout=0.5)


def test_server_stop_is_idempotent():
    server, _ = _started_server()
    server.stop()
    server.stop()


def test_server_snapshot_counts_connections():
    server, buf = _started_server()
    try:
        _send(server.port, encode_tuple((1,)))
        _send(server.port, encode_tuple((2,)))
        assert _wait_for(lambda: buf.accepted == 2)
        snap = server.snapshot()
        assert snap.connections == 2
        assert snap.accepted == 2
        assert _wait_for(lambda: server.snapshot().open_connections == 0)
    finally:
        server.stop()
