"""Graceful shutdown across the stack: no orphans, no lingering sockets.

Each scenario runs a real child Python process, waits for its READY
line, delivers SIGINT, and asserts a zero exit with the child's own
CLEAN confirmation — the same contract the CI smoke step enforces on
the full example script.
"""

import os
import signal
import socket
import subprocess
import sys
import time
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[2]


def _run_child(script: str, timeout: float = 90.0, sig=signal.SIGINT):
    """Start a child session, wait for READY <port>, signal the whole
    process group (a terminal Ctrl-C hits every process in it, workers
    included), and collect output."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO / "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONUNBUFFERED"] = "1"
    proc = subprocess.Popen([sys.executable, "-c", script],
                            stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                            text=True, env=env, start_new_session=True)
    try:
        line = proc.stdout.readline()
        assert line.startswith("READY"), f"child said {line!r}"
        port = int(line.split()[1]) if len(line.split()) > 1 else None
        time.sleep(0.3)  # let it run a few periods
        os.killpg(os.getpgid(proc.pid), sig)
        out, _ = proc.communicate(timeout=timeout)
        return proc.returncode, "READY " + str(port) + "\n" + out, port
    finally:
        if proc.poll() is None:
            try:
                os.killpg(os.getpgid(proc.pid), signal.SIGKILL)
            except (ProcessLookupError, PermissionError):
                proc.kill()
            proc.wait(timeout=10)


LIVE_CHILD = """
import sys
from repro.experiments.config import ExperimentConfig
from repro.serve import build_live_runner, build_live_service
from repro.service import ServiceConfig

config = ExperimentConfig(capacity=100, period=0.1, target=0.5, duration=60)
node = {build}
node.handle_signals()
node.start()
print("READY", node.ingest_port, flush=True)
node.wait()
result = node.stop()
assert node.status()["running"] is False
print("CLEAN", node.status()["periods_done"], flush=True)
"""

# handle_signals() lives on the shared live-node base, so both nodes
# must turn a signal into the same graceful stop
LIVE_NODES = {
    "runner": 'build_live_runner(config, backend="fluid", max_periods=600)',
    "service": ('build_live_service(config, ServiceConfig(n_shards=2, '
                'n_sources=2, backend="fluid"), max_periods=600)'),
}


def _assert_live_node_exits_cleanly(node, sig):
    code, out, port = _run_child(
        LIVE_CHILD.replace("{build}", LIVE_NODES[node]), sig=sig)
    assert code == 0, f"child exited {code}:\n{out}"
    assert "CLEAN" in out
    # the ingest socket is really gone
    with pytest.raises(OSError):
        socket.create_connection(("127.0.0.1", port), timeout=0.5)


@pytest.mark.parametrize("sig", [signal.SIGINT, signal.SIGTERM])
def test_live_runner_exits_cleanly_on_signal(sig):
    _assert_live_node_exits_cleanly("runner", sig)


@pytest.mark.parametrize("sig", [signal.SIGINT, signal.SIGTERM])
def test_live_service_exits_cleanly_on_signal(sig):
    _assert_live_node_exits_cleanly("service", sig)


REPLAY_CHILD = """
import socket, threading
from repro.workloads import arrivals_from_trace, constant_rate
from repro.workloads.replay import TraceReplayer

# a sink server that accepts and discards; the replayer is what's tested
sink = socket.create_server(("127.0.0.1", 0))
port = sink.getsockname()[1]
def _drain():
    conn, _ = sink.accept()
    while conn.recv(65536):
        pass
threading.Thread(target=_drain, daemon=True).start()

trace = constant_rate(50.0, 600)
arrivals = arrivals_from_trace(trace, seed=1)
rep = TraceReplayer(arrivals, "127.0.0.1", port, speed=1.0).start()
print("READY", port, flush=True)
import signal, sys
stop = threading.Event()
signal.signal(signal.SIGINT, lambda *a: stop.set())
stop.wait()
rep.stop()
assert not rep.running
print("CLEAN", rep.sent, flush=True)
"""


def test_replayer_stops_cleanly_on_signal():
    code, out, _ = _run_child(REPLAY_CHILD)
    assert code == 0, f"child exited {code}:\n{out}"
    assert "CLEAN" in out


FLEET_CHILD = """
import multiprocessing, threading, signal, sys
from repro.experiments import ExperimentConfig, build_service_workload
from repro.obs import EventBus
from repro.service import FleetConfig, build_fleet

bus = EventBus()
downs = []
bus.subscribe(downs.append, kinds=("worker_down",))

# long enough (~2 s of wall time) that the run is still going when the
# parent's SIGINT lands 0.3 s after READY
config = ExperimentConfig(duration=240.0, seed=11)
svc = FleetConfig(n_shards=2, n_sources=2)
fleet = build_fleet(config, svc, bus=bus)
arrivals = build_service_workload(config, svc)

# Install a handler (the LiveRunner.handle_signals idiom) instead of
# letting KeyboardInterrupt tear through Thread.join(): on CPython 3.11
# an interrupted join() corrupts the thread's tstate lock and falsely
# reports the thread stopped while the fleet is still mid-run.
fired = threading.Event()
signal.signal(signal.SIGINT, lambda *a: fired.set())

done = {}
def _run():
    try:
        done["result"] = fleet.run(arrivals, duration=config.duration)
    except BaseException as exc:
        done["error"] = exc
t = threading.Thread(target=_run, daemon=True)
t.start()
print("READY 0", flush=True)
# the group-wide SIGINT lands on the workers too; they must ignore it
# and let the run complete while the parent coordinates as usual
t.join(timeout=120)
assert not t.is_alive(), "fleet run wedged after SIGINT"
assert fired.is_set(), "the SIGINT never arrived"
assert "error" not in done, done.get("error")
assert "result" in done, "fleet run returned nothing"
leftover = multiprocessing.active_children()
for proc in leftover:
    proc.terminate()
assert not leftover, f"orphans: {leftover}"
assert not downs, f"workers died from the group SIGINT: {downs}"
print("CLEAN", flush=True)
"""


def test_fleet_run_completes_despite_sigint_to_workers():
    """A group-wide SIGINT mid-run: workers ignore it (the parent
    coordinates teardown), the run completes, no worker death events,
    and no orphan processes remain."""
    code, out, _ = _run_child(FLEET_CHILD, timeout=120.0)
    assert code == 0, f"child exited {code}:\n{out}"
    assert "CLEAN" in out
