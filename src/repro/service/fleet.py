"""The process fleet: one worker process per shard, true CPU parallelism.

:class:`~repro.service.service.StreamService` steps N shards in lockstep
inside one Python process, so the "fleet" shares one GIL and gains no
throughput from extra cores. :class:`ProcessFleet` promotes each
:class:`~repro.service.shard.EngineShard` to its own worker process — the
deployment shape of the paper's Borealis target, where every node advances
autonomously while a supervisor rebalances load:

* each **worker** builds its shard locally (from the same
  :func:`~repro.service.service.shard_build_spec` the lockstep service
  builds from, same seeds) and drives the stepped
  :class:`~repro.core.loop.ControlLoop` API over its
  router slice of the arrivals, one Monitor -> Controller -> Actuator
  cycle per control period, shipping a per-period summary (the closed
  :class:`~repro.metrics.recorder.PeriodRecord` plus the armed drop
  demand) up a shared queue;
* the **parent** runs the unchanged
  :class:`~repro.service.coordinator.HeadroomCoordinator` over
  :class:`ShardProxy` stand-ins — once a period's row of summaries is
  complete it rebalances exactly as the lockstep service would, and the
  resulting headroom and migration ops go back down a per-shard
  :class:`~repro.obs.relay.CommandChannel` queue;
* **observability** reuses the PR-5 relay uplink unchanged: with
  ``relay=True`` (implied by ``serve``/``health``) each worker attaches
  :func:`~repro.obs.relay.worker_relay`, so every worker event lands on
  the parent bus labelled ``pid<pid>/<shard>``.

**A command barrier per period.** A worker blocks for the coordinator's
(possibly empty) op list for period ``k`` before opening period ``k+1``.
Because the coordinator then runs the identical arithmetic on identical
per-period records in the identical order, the fleet's records match the
lockstep service float-for-float — the determinism contract that makes
recovery-by-replay possible at all (docs/THEORY.md §11).

**Failure/restart.** Engines hold closures and live event state, so a
shard checkpoint is not a pickle — it is a *recipe*: the build spec, the
arrival slice, and the journal of coordinator ops per period (all three
already live in the parent). When a worker dies, the parent drains its
queues, emits :class:`~repro.obs.events.WorkerDown`, and spawns a
replacement that silently replays periods ``0..last_acked`` applying the
journalled ops at the exact period boundaries the original applied them,
then emits :class:`~repro.obs.events.WorkerRestarted` and
rejoins live. Determinism makes the replayed incarnation bit-identical to
the lost one, so fleet aggregates come out as if nothing had died.
"""

from __future__ import annotations

import os
import queue as _queue
import signal
import time as _time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass, field, fields, replace
from types import SimpleNamespace
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

import multiprocessing

from ..errors import ServiceError
from ..metrics.recorder import PeriodRecord, RunRecord
from ..obs.bus import EventBus, get_bus
from ..obs.events import WorkerDown, WorkerRestarted
from ..obs.relay import CommandChannel, EventRelay, worker_relay
from ..obs.sysid import SysIdMonitor
from .config import FleetConfig, ServiceConfig
from .router import RoutingTable
from .service import (
    Arrival,
    PeriodDispatcher,
    RecordedRun,
    ServiceResult,
    build_control_plane,
    execute_migration,
    service_result,
    shard_build_spec,
)
from .shard import arm_shard, build_shard

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids a package cycle
    from ..experiments.config import ExperimentConfig


class ShardProxy:
    """Parent-side stand-in for a worker-resident :class:`EngineShard`.

    Duck-types exactly the surface
    :class:`~repro.service.coordinator.HeadroomCoordinator` touches —
    ``headroom`` / ``base_target`` / ``loop.period`` to observe,
    ``set_headroom`` to mutate — the ``drain_source`` half of
    :func:`~repro.service.service.execute_migration`, and the ``target``
    / ``requested_alpha`` that ``/status`` reports. Mutations update
    the proxy's view (so the next rebalance
    observes what the lockstep service would) and append a pickled op for
    the worker, which applies it through the real shard's method — same
    validation, same model replacement, same events, just one process
    away.
    """

    def __init__(self, name: str, headroom: float, base_target: float,
                 period: float):
        self.name = name
        self.headroom = float(headroom)
        self.base_target = float(base_target)
        self.target = float(base_target)
        self.requested_alpha = 0.0
        #: the one ``loop`` attribute the coordinator reads off a shard
        self.loop = SimpleNamespace(period=period)
        self._ops: List[Tuple[str, float]] = []

    def set_headroom(self, headroom: float) -> None:
        if not 0.0 < headroom <= 1.0:  # same guard as EngineShard
            raise ServiceError(
                f"shard headroom must be in (0, 1], got {headroom}"
            )
        self.headroom = float(headroom)
        self._ops.append(("headroom", float(headroom)))

    def drain_source(self, source: str, budget: float, k: int = -1,
                     to_shard: int = -1, from_shard: int = -1) -> None:
        self._ops.append(("drain_source",
                          (source, budget, k, from_shard, to_shard)))

    def take_ops(self) -> List[Tuple[str, float]]:
        """The ops accumulated since the last call (journal + downlink)."""
        ops, self._ops = self._ops, []
        return ops


def _apply_ops(shard, ops: Sequence[Tuple[str, object]],
               table: Optional[RoutingTable] = None) -> None:
    """Apply journalled/downlinked coordinator ops to the real shard.

    Besides the ``("headroom", h)`` knob op, the channel carries the migration
    transaction: ``("drain_source", (source, budget, k, from, to))``
    quiesces the worker's engine and
    ``("route", (source, shard_index, epoch))`` commits the cutover on
    the worker's routing-table replica. Replaying a journal through this
    function therefore reproduces cutovers exactly — the replica ends at
    the journalled epoch and the replayed engine drained at the same
    period boundary the original did.
    """
    for op, value in ops:
        if op == "headroom":
            shard.set_headroom(value)
        elif op == "drain_source":
            source, budget, k, src, dst = value
            shard.drain_source(source, budget, k=k,
                               from_shard=src, to_shard=dst)
        elif op == "route":
            if table is None:
                raise ServiceError(
                    "route op received but this worker holds no "
                    "routing-table replica"
                )
            source, shard_index, epoch = value
            table.apply_route(source, shard_index, epoch)
        else:
            raise ServiceError(f"unknown coordinator op {op!r}")


def _fleet_worker(config: "ExperimentConfig", svc: FleetConfig, index: int,
                  arrivals: Sequence[Arrival], table_snapshot: dict,
                  n_periods: int,
                  summary_queue, command_queue, relay_queue,
                  journal: Dict[int, list], resume_k: int, restart_no: int,
                  fail_k: Optional[int]) -> None:
    """One shard's whole life, in its own process.

    Builds shard ``index`` of ``svc`` from the shared build spec.
    Receives the *full* arrival stream plus a replica of the initial
    routing table, and keeps only the tuples the replica routes to
    ``index`` — so when a journalled/downlinked ``route`` op re-pins a
    source mid-run, this worker's filter flips at exactly the same period
    boundary the parent's authoritative table did. Replays periods
    ``0..resume_k`` silently (no summaries, no relay — the parent already
    accounted for them; the replica replays through any journalled
    cutover to the correct epoch), then goes live: close a period, ship
    its summary, and block for the coordinator's op barrier before opening
    the next. ``fail_k`` is the failure-injection test
    hook: the first incarnation dies abruptly at the start of that
    period.
    """
    try:
        # a Ctrl-C to the process *group* hits every worker as well as the
        # parent; workers must not race the parent's coordinated teardown
        # with their own KeyboardInterrupt stacks — the parent terminates
        # them (or they finish their run) under its finally block
        signal.signal(signal.SIGINT, signal.SIG_IGN)
    except (ValueError, OSError):  # pragma: no cover - non-main thread
        pass
    name = svc.shard_names[index]
    try:
        shard = build_shard(**shard_build_spec(config, svc, index))
        # a fresh private bus: the process-default bus may carry forked
        # parent subscribers, and a silent bus keeps un-relayed fleets at
        # one truthiness check per emit site. Tuple traces emitted during
        # silent replay die on the then-subscriber-less bus, so the
        # parent never sees a replayed period's tuple twice. (The parent
        # refused trace=True, so a tuple tracer is all that can arm.)
        bus = EventBus()
        arm_shard(shard, bus, index, svc)
        # sysid lives where the period stream lives: subscribed *before*
        # the silent replay, so a restarted incarnation re-derives the
        # exact identification state the lost one carried
        sysid = SysIdMonitor(bus) if svc.sysid else None
        period = shard.loop.period
        patience = svc.worker_patience
        # the replica: journalled/downlinked route ops keep it in sync
        # with the parent's authoritative table
        table = RoutingTable.from_snapshot(table_snapshot)
        dispatcher = PeriodDispatcher(table, arrivals)
        entry_source = shard.entry_source

        def run_period(k: int):
            mine = dispatcher.due((k + 1) * period)[0][index]
            return shard.loop.run_period(
                record, k,
                [(t, values, entry_source) for t, values, __ in mine])

        def await_ops(k: int) -> None:
            while True:
                try:
                    msg = command_queue.get(timeout=patience)
                except _queue.Empty:
                    raise ServiceError(
                        f"shard {name!r} waited {patience:.0f}s for the "
                        f"coordinator's period-{k} commands"
                    ) from None
                __, kk, ops = msg
                if kk < k:     # stale barrier from before a parent drain
                    continue
                if kk != k:
                    raise ServiceError(
                        f"shard {name!r} expected period-{k} commands, "
                        f"got period-{kk}"
                    )
                _apply_ops(shard, ops, table)
                return

        record = shard.loop.begin()
        # --- silent replay of the lost incarnation ---------------------- #
        for k in range(resume_k + 1):
            run_period(k)
            if k in journal:
                _apply_ops(shard, journal[k], table)
        if resume_k >= 0 and resume_k not in journal:
            # the row we died on had not been rebalanced yet; the barrier
            # op for it arrives over the live channel once it closes
            await_ops(resume_k)

        # --- live ------------------------------------------------------- #
        relay_ctx = (worker_relay(relay_queue, bus=bus)
                     if relay_queue is not None else nullcontext())
        with relay_ctx:
            summary_queue.put(("ready", name, resume_k, restart_no,
                               os.getpid(), table.epoch))
            for k in range(resume_k + 1, n_periods):
                if fail_k is not None and k == fail_k and restart_no == 0:
                    os._exit(17)  # test hook: die without flushing anything
                p = run_period(k)
                summary_queue.put(("summary", name, k, p,
                                   shard.requested_alpha))
                await_ops(k)
            shard.loop.finish(record, n_periods)
            if sysid is not None:
                summary_queue.put(("sysid", name, sysid.state_for(name)))
            summary_queue.put(("done", name, record, restart_no))
    except BaseException:
        try:
            summary_queue.put(("error", name, traceback.format_exc()))
        finally:
            raise


@dataclass
class _WorkerState:
    """Parent-side bookkeeping for one shard's worker (all incarnations)."""

    index: int
    proc: Optional[object] = None
    pid: Optional[int] = None
    restarts: int = 0
    last_acked: int = -1
    journal: Dict[int, list] = field(default_factory=dict)
    record: Optional[RunRecord] = None
    dead_since: Optional[float] = None
    #: the worker replica's routing-table epoch at its last "ready"
    epoch: int = 0
    #: the worker's final sysid state slice, shipped just before "done"
    sysid: Optional[dict] = None


class ProcessFleet(RecordedRun):
    """N shard worker processes under one parent-resident coordinator.

    Drop-in counterpart of :class:`~repro.service.service.StreamService`:
    same configs, same :class:`~repro.service.service.ServiceResult` out
    (``trace_summary`` excepted — per-period tracers do not cross the
    process boundary). ``fail_at`` maps shard names to the period at
    which their *first* worker incarnation kills itself — the failure
    injection hook the restart tests drive.
    """

    runtime = "fleet"

    def __init__(self, config: "ExperimentConfig", svc: ServiceConfig,
                 bus=None, fail_at: Optional[Dict[str, int]] = None):
        if not isinstance(svc, FleetConfig):
            svc = FleetConfig(**{f.name: getattr(svc, f.name)
                                 for f in fields(ServiceConfig)})
        if svc.trace:
            raise ServiceError(
                "per-period tracing does not cross the process boundary; "
                "run the lockstep StreamService with trace=True instead"
            )
        self.config = config
        self.svc = svc
        self.bus = bus if bus is not None else get_bus()
        self.fail_at = dict(fail_at or {})
        unknown = set(self.fail_at) - set(svc.shard_names)
        if unknown:
            raise ServiceError(f"fail_at names unknown shards {sorted(unknown)}")
        self.router, self.coordinator = build_control_plane(svc)
        self.period = config.period
        headrooms = svc.initial_headrooms()
        #: the coordinator's view of the worker-resident shards
        self.shards = self.proxies = [
            ShardProxy(name, headrooms[i], config.target, config.period)
            for i, name in enumerate(svc.shard_names)
        ]
        self._states: Dict[str, _WorkerState] = {}
        # parent-side observers over the relayed event stream (sysid runs
        # in the workers, where the period stream lives); flight-ring
        # keys carry ``pidNNN/shardN`` worker provenance
        self._attach(replace(svc, sysid=False))
        self.observers.set_recipe(config, svc, {
            "kind": "service", "service_kind": "fleet",
            "workload_kind": "web"})

    def status(self) -> dict:
        """The shared ``/status`` view plus each worker's vital signs."""
        doc = super().status()
        for name, shard in doc["shards"].items():
            state = self._states.get(name)
            shard.update(
                pid=state.pid if state else None,
                restarts=state.restarts if state else 0,
                last_k=state.last_acked if state else -1,
                epoch=state.epoch if state else 0)
        return doc

    @staticmethod
    def _mp_context():
        # fork where the platform offers it (cheapest spawn), else its default
        try:
            return multiprocessing.get_context("fork")
        except ValueError:
            return multiprocessing.get_context()

    def _run(self, arrivals: Sequence[Arrival],
             duration: float) -> ServiceResult:
        svc = self.svc
        names = list(svc.shard_names)
        wall_start = _time.perf_counter()
        n_periods = int(round(duration / self.period))
        # every worker sees the full stream and filters through its table
        # replica, so route changes flip worker filters at the same period
        # boundary they flip the parent's authoritative table. Replicas
        # (including replacements) always start from the *initial*
        # snapshot and replay forward through the journalled route ops.
        initial_table = self.router.snapshot()
        ctx = self._mp_context()
        summary_q = ctx.Queue()
        channel = CommandChannel(ctx)
        relay = None
        if (svc.relay or svc.serve or svc.health or svc.sysid
                or svc.flight > 0):
            relay = EventRelay(bus=self.bus).start()
        states = {name: _WorkerState(index=i)
                  for i, name in enumerate(names)}
        self._states = states
        pending_rows: Dict[int, Dict[str, Tuple[PeriodRecord, float]]] = {}
        next_row = 0
        done_count = 0
        last_progress = _time.monotonic()
        # parent-side per-period source tallies for the migration policy
        # (rows close in k order, so one shared dispatcher suffices)
        dispatcher = PeriodDispatcher(self.router, arrivals)

        def spawn(name: str) -> None:
            st = states[name]
            cmd_q = channel.register(name)
            st.proc = ctx.Process(
                target=_fleet_worker,
                name=f"repro-fleet-{name}",
                daemon=True,
                args=(self.config, svc, st.index, arrivals, initial_table,
                      n_periods, summary_q, cmd_q,
                      relay.queue if relay is not None else None,
                      dict(st.journal), st.last_acked, st.restarts,
                      self.fail_at.get(name)),
            )
            st.dead_since = None
            st.proc.start()

        def close_row(k: int) -> None:
            row = pending_rows.pop(k)
            closed = [row[name][0] for name in names]
            for proxy, name in zip(self.proxies, names):
                proxy.requested_alpha = row[name][1]
            __, counts = dispatcher.due((k + 1) * self.period)
            entry = self.coordinator.rebalance(k, self.proxies, closed,
                                               source_counts=counts,
                                               table=self.router)
            route_ops = []
            plan = entry.get("migration")
            if plan is not None:
                # the lockstep transaction, over proxies: commit the
                # cutover on the authoritative table now (the next
                # rebalance must see post-move placement) and ship it down
                # the barrier — the old shard's proxy queued the drain, so
                # it drains *then* re-pins; every other replica just re-pins
                execute_migration(k, plan, self.proxies, self.router,
                                  bus=self.bus)
                route_ops = [("route",
                              (plan["source"], plan["to"], plan["epoch"]))]
            for proxy, name in zip(self.proxies, names):
                ops = proxy.take_ops() + route_ops
                states[name].journal[k] = ops
                channel.send(name, ("ops", k, ops))
            self._k = k

        def handle(msg) -> int:
            nonlocal next_row
            kind = msg[0]
            if kind == "summary":
                __, name, k, prec, alpha = msg
                st = states[name]
                if k <= st.last_acked:   # superseded incarnation's tail
                    return 0
                st.last_acked = k
                pending_rows.setdefault(k, {})[name] = (prec, alpha)
                while (next_row in pending_rows
                       and len(pending_rows[next_row]) == len(names)):
                    close_row(next_row)
                    next_row += 1
                return 0
            if kind == "ready":
                __, name, resumed_k, restart_no, pid, epoch = msg
                states[name].pid = pid
                states[name].epoch = epoch
                if restart_no > 0 and self.bus:
                    self.bus.emit(WorkerRestarted(
                        resumed_k=resumed_k, restarts=restart_no,
                        epoch=epoch, shard=name))
                return 0
            if kind == "sysid":
                __, name, state = msg
                states[name].sysid = state
                return 0
            if kind == "done":
                __, name, record, __restart = msg
                if states[name].record is None:
                    states[name].record = record
                    return 1
                return 0
            if kind == "error":
                __, name, tb = msg
                raise ServiceError(f"shard {name!r} worker failed:\n{tb}")
            raise ServiceError(f"unknown fleet message {kind!r}")

        def handle_failure(name: str) -> None:
            st = states[name]
            exitcode = st.proc.exitcode if st.proc is not None else None
            st.restarts += 1
            if st.restarts > svc.max_restarts:
                raise ServiceError(
                    f"shard {name!r} worker died (exit {exitcode}) and "
                    f"exhausted max_restarts={svc.max_restarts}"
                )
            if self.bus:
                self.bus.emit(WorkerDown(exitcode=exitcode,
                                         restarts=st.restarts,
                                         last_k=st.last_acked, shard=name))
            # stale barrier commands must not reach the replacement
            channel.drain(name)
            spawn(name)

        def check_deaths() -> None:
            now = _time.monotonic()
            for name, st in states.items():
                if st.record is not None or st.proc is None:
                    continue
                if st.proc.is_alive():
                    st.dead_since = None
                    continue
                if st.dead_since is None:
                    # give the dead process's queue feeder pipe a moment
                    # to deliver its final messages before declaring loss
                    st.dead_since = now
                elif now - st.dead_since > 0.5:
                    handle_failure(name)

        try:
            for name in names:
                spawn(name)
            while done_count < len(names):
                try:
                    msg = summary_q.get(timeout=0.2)
                except _queue.Empty:
                    msg = None
                if msg is not None:
                    last_progress = _time.monotonic()
                    done_count += handle(msg)
                    continue
                check_deaths()
                if _time.monotonic() - last_progress > svc.worker_patience:
                    raise ServiceError(
                        f"fleet stalled: no worker progress for "
                        f"{svc.worker_patience:.0f}s (next row {next_row}, "
                        f"{done_count}/{len(names)} done)"
                    )
            wall = _time.perf_counter() - wall_start
            if relay is not None:
                # the health verdict must see every worker's last events
                relay.flush()
            summaries = self.observers.close()
            if svc.sysid:
                summaries = dict(summaries, sysid={
                    name: states[name].sysid for name in names
                    if states[name].sysid is not None})
            return service_result(
                self.coordinator, self.proxies,
                {name: states[name].record for name in names}, wall,
                summaries)
        finally:
            for st in states.values():
                if st.proc is not None and st.proc.is_alive():
                    st.proc.terminate()
            for st in states.values():
                if st.proc is not None:
                    st.proc.join(timeout=2.0)
            # a worker stuck past the graceful join (wedged in a queue
            # write, say) must not be orphaned: escalate to SIGKILL
            for st in states.values():
                if st.proc is not None and st.proc.is_alive():
                    st.proc.kill()
                    st.proc.join(timeout=2.0)
            channel.close()
            summary_q.close()
            summary_q.cancel_join_thread()
            if relay is not None:
                relay.stop()


def build_fleet(config: "ExperimentConfig",
                svc: ServiceConfig,
                bus=None,
                fail_at: Optional[Dict[str, int]] = None) -> ProcessFleet:
    """Assemble a process fleet from picklable specs.

    Mirror of :func:`~repro.service.service.build_service`: the same
    ``(config, svc)`` pair builds either runner, and both produce
    identical records.
    """
    return ProcessFleet(config, svc, bus=bus, fail_at=fail_at)
