"""The measured phases: set-up, paced (ManualClock), open (WallClock), sim.

Everything here drives the program strictly from outside — public
constructors and attributes only. Each function returns a plain dict of
raw measurements; ``run.py`` turns those into named metrics and checks.
"""

from __future__ import annotations

import json
import os
import resource
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Callable, List, Optional, Sequence, Tuple

from gen import SLOT_S, FramePool, slot_counts
from stats import lag_from_count_curve, substep
from workloads import (
    PERIOD_S,
    SUBSTEPS,
    Workload,
    build_live,
    sim_arrivals,
    sim_configs,
)

HERE = Path(__file__).resolve().parent
#: polls of a counter another thread advances sleep this long in between
POLL_S = 0.0002
#: nothing in a healthy run waits this long; a hang fails the benchmark
STALL_S = 60.0
#: set-ups timed per batch; ``run.py`` takes four batches (sim: two),
#: spread over the run, so one slow second of the host cannot sit under
#: all of them
SETUP_REPS = 8
#: periods per block of the paced phase: one burst window of the bursty
#: workload (2 s / 0.125 s), so every block carries the same work
BLOCK_PERIODS = 16
SIM_BLOCK_PERIODS = 50


#: CPUs the generator subprocess is confined to (None: wherever it likes)
GENERATOR_CPUS: Optional[set] = None


def pin_to_one_cpu() -> None:
    """Pin this process (it hosts the program under test) to one CPU.

    The program holds one interpreter lock, so a second CPU buys it
    nothing, while letting the scheduler move its threads between CPUs is
    run-to-run noise in the open phase. The generator gets the *other*
    CPUs: a child inherits its parent's mask, and on the program's CPU its
    sends (and the loopback TCP work done in their context) would be load
    on the very CPU being measured. With a single CPU, or no affinity
    API, nothing is pinned.
    """
    global GENERATOR_CPUS
    if hasattr(os, "sched_setaffinity"):
        cpus = sorted(os.sched_getaffinity(0))
        if len(cpus) >= 2:
            os.sched_setaffinity(0, {cpus[0]})
            GENERATOR_CPUS = set(cpus[1:])


def blocks(tuples: List[int], wall_ms: List[float], cpu_s: List[float],
           size: int) -> List[dict]:
    """Per-block totals of the per-period series (whole blocks only).

    Throughput and CPU cost are reported over the *quiet quarter* of the
    blocks (``stats.quiet``): a noisy neighbour only ever slows a block, so
    the quietest quarter of the blocks is the program's own speed.
    """
    out = []
    for i in range(0, len(tuples) - size + 1, size):
        out.append({"tuples": sum(tuples[i:i + size]),
                    "wall_s": sum(wall_ms[i:i + size]) / 1e3,
                    "cpu_s": sum(cpu_s[i:i + size])})
    return out


class Stalled(RuntimeError):
    """The system under test stopped making progress."""


def wait_for(done: Callable[[], bool], what: str) -> None:
    deadline = time.perf_counter() + STALL_S
    while not done():
        if time.perf_counter() > deadline:
            raise Stalled(f"gave up after {STALL_S:.0f} s waiting for {what}")
        time.sleep(POLL_S)


def cpu_seconds() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ---------------------------------------------------------------------- #
# set-up time
# ---------------------------------------------------------------------- #
def time_setup(w: Workload, seed: int, work_dir: Path) -> List[float]:
    """Seconds from "build the node" to "its ingest port accepts", repeated.

    For the simulation: seconds to ``build_service``. Input generation is
    not set-up and is excluded everywhere.
    """
    samples = []
    if not w.live:
        from repro.service import build_service
        cfg, svc = sim_configs(w, seed)
        for __ in range(SETUP_REPS):
            mark = time.perf_counter()
            build_service(cfg, svc)
            samples.append(time.perf_counter() - mark)
        return samples
    from repro.core.clock import WallClock
    for __ in range(SETUP_REPS):
        mark = time.perf_counter()
        node, observers = build_live(w, w.reference_rate, seed, WallClock(),
                                     flight_dir=str(work_dir / "incidents"))
        node.start()
        with socket.create_connection(("127.0.0.1", node.ingest_port),
                                      timeout=5.0):
            wait_for(lambda: node.ingest.snapshot().connections >= 1,
                     "the ingest server to accept")
            samples.append(time.perf_counter() - mark)
        node.stop(drain=False)
        _close_observers(observers)
    return samples


def _close_observers(observers) -> None:
    if observers is not None:
        observers["bridge"].close()


# ---------------------------------------------------------------------- #
# what a finished live node / service leaves behind
# ---------------------------------------------------------------------- #
def _loops(node) -> list:
    shards = getattr(node, "shards", None)
    return [node.loop] if shards is None else [s.loop for s in shards]


def _records(result) -> list:
    if hasattr(result, "shard_records"):
        return list(result.shard_records.values())
    return [result]


def ledger(loops, records, qos, target: float) -> dict:
    """The tuple ledger and QoS of a finished run (all counts exact)."""
    departures = [d for r in records for d in r.departures]
    half = [p.delay_estimate for r in records
            for p in r.periods[len(r.periods) // 2:]]
    return {
        "offered": sum(r.offered_total for r in records),
        "admitted": sum(p.admitted for r in records for p in r.periods),
        "entry_shed": sum(r.entry_dropped_total for r in records),
        "delivered": sum(1 for d in departures if not d.shed),
        "network_shed": sum(1 for d in departures if d.shed),
        "engine_admitted": sum(l.engine.admitted_total for l in loops),
        "departed": sum(l.engine.departed_total for l in loops),
        "outstanding": sum(l.engine.outstanding for l in loops),
        "outstanding_peak": max(p.queue_length for r in records
                                for p in r.periods),
        "qos_offered": qos.offered,
        "qos_delivered": qos.delivered,
        "loss_frac": qos.loss_ratio,
        "violation_frac": qos.violation_ratio,
        "mean_delay_ms": qos.mean_delay * 1e3,
        "delay_estimate_tail_mean": sum(half) / len(half) if half else 0.0,
        "target": target,
    }


def _live_ledger(node, result) -> dict:
    records = _records(result)
    if hasattr(result, "aggregate_qos"):
        qos, target = result.aggregate_qos(), result.base_target
    else:
        target = result.periods[-1].target
        qos = result.qos(target=target)
    return ledger(_loops(node), records, qos, target)


def _observed(node, observers) -> dict:
    """What the armed observers saw (``live_observed`` only)."""
    if observers is None:
        return {"sampled": 0, "metrics": 0}
    registry = observers["registry"]
    live = [name for name in registry.names()
            if any(True for __ in registry.get(name).samples())]
    return {
        "sampled": sum(l.tuple_tracer.sampled for l in _loops(node)),
        "metrics": len(live),
    }


# ---------------------------------------------------------------------- #
# paced phase: the bench conducts a ManualClock
# ---------------------------------------------------------------------- #
def run_paced(w: Workload, seed: int, periods: int, work_dir: Path,
              rec=None,
              pauses: Sequence[Tuple[int, Callable[[], None]]] = ()) -> dict:
    """Fixed work through the socket, in lockstep with a manual clock.

    Per control period the conductor writes that period's frames in
    ``SUBSTEPS`` sub-steps; after each it waits until the server has
    accounted for every frame sent, then advances the clock a quarter
    period. After the last advance it waits for the ticker to close the
    period. Arrival stamps, and with them every count, are exact.

    Each ``(k, pause)`` of ``pauses`` has ``pause()`` called before period
    ``k`` opens, while the node idles on its stopped clock: ``run.py``
    runs the set-up timings and the open rungs there, so the paced blocks
    are spread over the whole run and a slow stretch of the host covers a
    few of them, not all. The paced work and every count are the same as
    in one uninterrupted pass; the pauses are left out of ``wall_s`` and
    of every period's wall and CPU time.

    With ``rec`` (a :class:`shims.Recorder`) the node is shimmed and the
    shipped ``PeriodTracer`` is armed alongside, for the cross-check.
    """
    from repro.core.clock import ManualClock
    from repro.obs.tracing import PeriodTracer
    step = substep(PERIOD_S, SUBSTEPS, periods)
    pool = FramePool(seed, w.fmt)
    counts = slot_counts(w.paced_tuples / PERIOD_S, periods * PERIOD_S, step,
                         w.shape)
    clock = ManualClock()
    node, observers = build_live(w, w.paced_tuples / PERIOD_S, seed, clock,
                                 flight_dir=str(work_dir / "incidents"))
    loops = _loops(node)
    if rec is not None:
        from shims import instrument_live
        for loop in loops:
            if loop.tracer is None:
                loop.tracer = PeriodTracer()
        instrument_live(rec, node)
    buffer, ingest = node.buffer, node.ingest
    period_ms: List[float] = []
    period_cpu_s: List[float] = []
    tick_ms: List[float] = []
    wire_s = paused_s = 0.0
    buffered_peak = 0
    sent = 0
    result = None
    node.start()
    try:
        sock = socket.create_connection(("127.0.0.1", node.ingest_port),
                                        timeout=5.0)
        sock.settimeout(STALL_S)
        # without this, Nagle holds a sub-step's frames until the server's
        # delayed ACK of the previous one: 40 ms stalls in ~12% of periods
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        wall0 = time.perf_counter()
        for k in range(periods):
            for at, pause in pauses:
                if at == k:
                    mark = time.perf_counter()
                    pause()
                    paused_s += time.perf_counter() - mark
            if rec is not None:
                rec.period = k
                since = len(rec.spans)
            cpu_opened, opened = cpu_seconds(), time.perf_counter()
            for j in range(SUBSTEPS):
                n = counts[k * SUBSTEPS + j]
                mark = time.perf_counter()
                if n:
                    sock.sendall(pool.take(n))
                    sent += n
                    wait_for(lambda: (buffer.accepted + buffer.dropped
                                      + ingest.malformed) >= sent,
                             f"{sent} frames to be accounted for")
                now = time.perf_counter()
                wire_s += now - mark
                if rec is not None:
                    rec.flush("wire", rec.add("wire", mark, now))
                    buffered_peak = max(buffered_peak, len(buffer))
                if j == SUBSTEPS - 1:
                    ticked = time.perf_counter()
                clock.advance(step)
            wait_for(lambda: node.status()["periods_done"] > k,
                     f"period {k} to close")
            closed = time.perf_counter()
            tick_ms.append((closed - ticked) * 1e3)
            period_ms.append((closed - opened) * 1e3)
            period_cpu_s.append(cpu_seconds() - cpu_opened)
            if rec is not None:
                tick = rec.add("tick", ticked, closed)
                rec.flush("tick", None)
                rec.adopt(since, "ticker_body", tick)
        wall = time.perf_counter() - wall0 - paused_s
        sock.close()
        snap = ingest.snapshot()
        if rec is not None:
            rec.period = -1     # the end-of-run drain is not a paced period
        mark = time.perf_counter()
        result = node.stop()
        finish_s = time.perf_counter() - mark
    finally:
        if result is None:
            node.stop(drain=False)
        if rec is not None:
            rec.uninstall()
    out = {
        "wall_s": wall, "sent": sent,
        "period_ms": period_ms, "tick_ms": tick_ms, "wire_s": wire_s,
        "blocks": blocks(
            [sum(counts[k * SUBSTEPS:(k + 1) * SUBSTEPS])
             for k in range(periods)],
            period_ms, period_cpu_s, BLOCK_PERIODS),
        "finish_s": finish_s, "buffered_peak": buffered_peak,
        "accepted": snap.accepted, "dropped": snap.dropped,
        "malformed": snap.malformed, "bytes_read": snap.bytes_read,
        "migrations": _migrations(getattr(node, "coordinator", None)),
        "ledger": _live_ledger(node, result),
        "observed": _observed(node, observers),
    }
    if rec is not None:
        out.update(_shipped_tracers(loops, wall))
    _close_observers(observers)
    return out


def _shipped_tracers(loops, wall: float) -> dict:
    """What the repo's own ``PeriodTracer`` made of the traced pass."""
    tracers = [loop.tracer for loop in loops]
    return {
        "tracer_engine_s": sum(t.segments.get("engine", 0.0)
                               for t in tracers),
        "tracer_coverage": sum(t.total_seconds() for t in tracers) / wall,
    }


def _migrations(coordinator) -> int:
    policy = getattr(coordinator, "migration_policy", None)
    return policy.migrations if policy is not None else 0


# ---------------------------------------------------------------------- #
# open phase: a generator subprocess offers a fixed rate on a wall clock
# ---------------------------------------------------------------------- #
def run_rung(w: Workload, seed: int, rate: float, duration: float,
             work_dir: Path, poll: bool = False) -> dict:
    """One rung of the open-loop ladder on a fresh node.

    The generator subprocess pre-encodes, then the node is built and
    started, then the generator is told the port. The node ticks on a
    ``WallClock`` for the schedule's length plus three periods, so the
    last ticks see what a keeping-up node has left: nothing.

    ``poll=True`` samples ``status()`` every generator slot for the ingest
    lag curve and the tick lateness (per-layer numbers, traced runs only:
    the poller takes the interpreter lock ~200 times a second).
    """
    from repro.core.clock import WallClock
    cmd = [sys.executable, str(HERE / "gen.py"), "--seed", str(seed),
           "--rate", repr(rate), "--duration", repr(duration),
           "--shape", w.shape, "--fmt", w.fmt]
    if poll:
        cmd.append("--curve")
    proc = subprocess.Popen(cmd, stdin=subprocess.PIPE,
                            stdout=subprocess.PIPE, text=True)
    if GENERATOR_CPUS:
        os.sched_setaffinity(proc.pid, GENERATOR_CPUS)
    node = result = None
    polls: List[tuple] = []
    jitter_ms: List[float] = []
    stop_polling = threading.Event()
    poller = None
    try:
        ready = json.loads(proc.stdout.readline() or "{}")
        if not ready.get("ready"):
            raise Stalled("the generator did not come up")
        n_periods = int(round(duration / PERIOD_S)) + 3
        clock = WallClock()
        node, observers = build_live(w, rate, seed, clock,
                                     max_periods=n_periods,
                                     flight_dir=str(work_dir / "incidents"))
        epoch = time.monotonic()
        clock.start()
        node.start()
        proc.stdin.write(f"go {node.ingest_port}\n")
        proc.stdin.flush()
        if poll:
            def sample() -> None:
                done = 0
                while not stop_polling.wait(SLOT_S):
                    status = node.status()
                    polls.append((time.monotonic(),
                                  status["ingest"]["accepted"]))
                    if status["periods_done"] > done:
                        done = status["periods_done"]
                        jitter_ms.append(status["tick_jitter"] * 1e3)
            poller = threading.Thread(target=sample, daemon=True)
            poller.start()
        if not node.wait(timeout=duration + STALL_S):
            raise Stalled(f"the node did not close {n_periods} periods")
        try:
            report = json.loads(proc.communicate(timeout=STALL_S)[0]
                                .strip().splitlines()[-1])
        except (IndexError, ValueError, subprocess.TimeoutExpired):
            raise Stalled("the generator left no report") from None
        residue = len(node.buffer)
        snap = node.ingest.snapshot()
        result = node.stop()
    finally:
        stop_polling.set()
        if poller is not None:
            poller.join()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        for pipe in (proc.stdin, proc.stdout):
            pipe.close()
        if node is not None and result is None:
            node.stop(drain=False)
    # decisions of the periods that lie wholly inside the schedule
    begin = report["start"] - epoch
    first = int(begin // PERIOD_S) + 1
    last = int((begin + duration) // PERIOD_S) - 1
    record = _records(result)[-1]
    decision_ms = [(p.time - (p.k + 1) * PERIOD_S) * 1e3
                   for p in record.periods if first <= p.k <= last]
    wall = report["end"] - report["start"]
    out = {
        "rate": rate, "duration": duration,
        "planned": report["planned"], "sent": report["sent"],
        "late_ms_p95": report["late_ms_p95"],
        "late_ms_p99": report["late_ms_p99"], "gen_s": report["gen_s"],
        "accepted": snap.accepted, "dropped": snap.dropped,
        "malformed": snap.malformed, "residue": residue,
        "accepted_per_s": snap.accepted / wall if wall > 0 else 0.0,
        "decision_ms": decision_ms,
        "ledger": _live_ledger(node, result),
        "observed": _observed(node, observers),
    }
    if poll:
        samples = [(t - report["start"], n) for t, n in polls]
        out["lag_ms"] = [lag * 1e3 for lag in lag_from_count_curve(
            samples, report["slot_s"], report["cumulative"])]
        out["tick_late_ms"] = jitter_ms
    _close_observers(observers)
    return out


# ---------------------------------------------------------------------- #
# the lockstep simulation
# ---------------------------------------------------------------------- #
def run_sim(w: Workload, seed: int, virtual_seconds: float,
            rec=None) -> dict:
    """``build_service(...).run(...)`` over a generated hotspot workload.

    One clock read before and after each ``coordinator.rebalance`` call
    marks where every period ends; that tap is the only thing installed in
    the untraced pass (two reads per period, against ~9 ms of work).
    """
    from dataclasses import replace

    from repro.obs.tracing import PeriodTracer
    from repro.service import build_service
    cfg, svc = sim_configs(w, seed)
    cfg = replace(cfg, duration=float(virtual_seconds))
    arrivals = sim_arrivals(cfg, svc, seed)
    service = build_service(cfg, svc)
    coordinator = service.coordinator
    rebalance = coordinator.rebalance
    marks: List[tuple] = []

    def tapped(*args, **kwargs):
        start = time.perf_counter()
        try:
            return rebalance(*args, **kwargs)
        finally:
            marks.append((start, time.perf_counter(), cpu_seconds()))

    coordinator.rebalance = tapped
    if rec is not None:
        from shims import instrument_sim
        for shard in service.shards:
            shard.loop.tracer = PeriodTracer()
        instrument_sim(rec, service)
        rec.period = 0
    try:
        cpu0, wall0 = cpu_seconds(), time.perf_counter()
        if rec is not None:
            with rec.span("service.run") as root:
                result = service.run(arrivals, cfg.duration)
            rec.flush("run", root)
        else:
            result = service.run(arrivals, cfg.duration)
        wall = time.perf_counter() - wall0
    finally:
        if rec is not None:
            rec.uninstall()
    period_ms, decision_ms, period_cpu_s = [], [], []
    previous, previous_cpu = wall0, cpu0
    for start, end, cpu_mark in marks:
        decision_ms.append((start - previous) * 1e3)
        period_ms.append((end - previous) * 1e3)
        period_cpu_s.append(cpu_mark - previous_cpu)
        previous, previous_cpu = end, cpu_mark
    per_period = [0] * len(marks)
    for t, __, __ in arrivals:
        per_period[int(t // cfg.period)] += 1
    loops = [s.loop for s in service.shards]
    records = list(result.shard_records.values())
    out = {
        "wall_s": wall, "sent": len(arrivals),
        "period_ms": period_ms, "decision_ms": decision_ms,
        "blocks": blocks(per_period, period_ms, period_cpu_s,
                         SIM_BLOCK_PERIODS),
        "migrations": _migrations(coordinator),
        "ledger": ledger(loops, records, result.aggregate_qos(),
                         result.base_target),
        "observed": _observed(service, None),
    }
    if rec is not None:
        out.update(_shipped_tracers(loops, wall))
    return out


def work_root() -> Path:
    """Where the benchmark may write: inside the checkout, ignored by git."""
    path = HERE / ".work"
    path.mkdir(exist_ok=True)
    return path


def scratch_dir() -> Path:
    """This process's own directory under :func:`work_root`."""
    path = work_root() / f"run-{os.getpid()}"
    path.mkdir(exist_ok=True)
    return path
