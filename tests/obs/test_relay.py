"""Cross-process relay: worker events arrive home with provenance."""

import multiprocessing

import pytest

from repro.experiments import ExperimentConfig
from repro.experiments.parallel import Job, run_jobs
from repro.obs import EventBus, EventRelay, MetricsRegistry
from repro.obs.events import DrainTruncated, PeriodDecision
from repro.obs.relay import relay_forwarder
from repro.service import ServiceConfig


def _emit_from_worker(relay_queue, worker, n):
    """Child-process target: emit n labelled events on a private bus."""
    bus = EventBus()
    bus.subscribe(relay_forwarder(relay_queue, worker))
    for i in range(n):
        bus.emit(DrainTruncated(time=float(i), shard="shard0"))


class TestRelayRoundTrip:
    def test_two_processes_with_provenance(self):
        """Events from two real child processes land on the parent bus
        with ``worker/shard`` provenance and per-worker counts."""
        parent_bus = EventBus()
        registry = MetricsRegistry()
        seen = []
        parent_bus.subscribe(seen.append)
        relay = EventRelay(bus=parent_bus, registry=registry).start()
        try:
            procs = [
                multiprocessing.Process(
                    target=_emit_from_worker, args=(relay.queue, w, 3))
                for w in ("w0", "w1")
            ]
            for p in procs:
                p.start()
            for p in procs:
                p.join(timeout=30.0)
                assert p.exitcode == 0
            assert relay.flush(timeout=10.0)
        finally:
            relay.stop()

        assert len(seen) == 6
        assert {e.shard for e in seen} == {"w0/shard0", "w1/shard0"}
        assert all(e.worker in ("w0", "w1") for e in seen)
        assert relay.per_worker == {"w0": 3, "w1": 3}
        counter = registry.get("repro_obs_relayed_total")
        assert counter.value(worker="w0") == 3
        assert counter.value(worker="w1") == 3

    def test_unsharded_events_get_the_worker_as_shard(self):
        parent_bus = EventBus()
        seen = []
        parent_bus.subscribe(seen.append)
        relay = EventRelay(bus=parent_bus, registry=MetricsRegistry()).start()
        try:
            relay.queue.put(("w9", DrainTruncated(time=1.0)))
            assert relay.flush(timeout=10.0)
        finally:
            relay.stop()
        assert [e.shard for e in seen] == ["w9"]

    def test_forwarder_skips_already_relayed_events(self):
        """The cycle guard: a forwarder on the re-emitting bus is a no-op
        for events that already carry a worker stamp."""
        shipped = []

        class FakeQueue:
            def put(self, item):
                shipped.append(item)

        forward = relay_forwarder(FakeQueue(), "w0")
        fresh = DrainTruncated(time=0.0)
        forward(fresh)
        stamped = DrainTruncated(time=1.0)
        stamped.worker = "w1"  # came through a relay once already
        forward(stamped)
        assert [event.time for _w, event in shipped] == [0.0]

    def test_start_is_idempotent_and_stop_twice_is_safe(self):
        relay = EventRelay(bus=EventBus(), registry=MetricsRegistry())
        relay.start()
        queue = relay.queue
        assert relay.start().queue is queue
        relay.stop()
        relay.stop()
        assert relay.queue is None


class TestRunJobsRelay:
    CFG = ExperimentConfig(duration=40.0)

    def jobs(self):
        return [
            Job(config=self.CFG, workload_kind="web", engine_kind="fluid",
                seed=s, key=f"seed{s}")
            for s in (1, 2)
        ]

    def test_pool_events_relayed_with_pid_provenance(self):
        parent_bus = EventBus()
        seen = []
        parent_bus.subscribe(seen.append)
        with EventRelay(bus=parent_bus, registry=MetricsRegistry()) as relay:
            records = run_jobs(self.jobs(), workers=2, relay=relay)
            assert relay.flush(timeout=30.0)
            assert relay.relayed == len(seen)
        assert len(records) == 2
        periods = [e for e in seen if isinstance(e, PeriodDecision)]
        assert len(periods) == 2 * len(records[0].periods)
        assert all(e.worker.startswith("pid") for e in seen)
        assert all(e.shard.startswith("pid") for e in periods)

    def test_relay_never_changes_the_records(self):
        """Determinism contract survives the relay: bit-identical series."""
        plain = run_jobs(self.jobs(), workers=2)
        with EventRelay(bus=EventBus(),
                        registry=MetricsRegistry()) as relay:
            relayed = run_jobs(self.jobs(), workers=2, relay=relay)
        for a, b in zip(plain, relayed):
            assert a.periods == b.periods
            assert a.departures == b.departures

    def test_serial_fallback_ignores_the_relay(self, monkeypatch):
        monkeypatch.setenv("REPRO_PARALLEL", "0")
        parent_bus = EventBus()
        seen = []
        parent_bus.subscribe(seen.append)
        relay = EventRelay(bus=parent_bus, registry=MetricsRegistry())
        records = run_jobs(self.jobs(), workers=2, relay=relay)
        assert len(records) == 2
        assert seen == []           # serial events go to the default bus
        assert relay.queue is None  # the pool path never started it
