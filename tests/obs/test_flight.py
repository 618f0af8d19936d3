"""Tests for the incident flight recorder and its deterministic replay."""

import json
from pathlib import Path

import pytest

from repro.errors import ObservabilityError
from repro.experiments import ExperimentConfig
from repro.experiments.runner import run_strategy
from repro.metrics import PeriodRecord
from repro.obs import EventBus, FlightRecorder, HealthMonitor
from repro.obs.events import PeriodDecision
from repro.obs.flight import (
    FLIGHT_FORMAT,
    load_bundle,
    main,
    replay_bundle,
)
from repro.service import ServiceConfig
from repro.workloads import constant_rate


def period(k, delay=1.0, target=2.0, alpha=0.1, v=180.0, u=180.0):
    return PeriodRecord(
        k=k, time=float(k + 1), target=target, delay_estimate=delay,
        queue_length=10, cost=0.005, inflow_rate=180.0, outflow_rate=180.0,
        offered=200, admitted=180, shed_retro=0, v=v, u=u,
        error=target - delay, alpha=alpha,
    )


class TestRecording:
    def test_rings_are_bounded(self, tmp_path):
        bus = EventBus()
        rec = FlightRecorder(bus, ring=16, directory=tmp_path)
        for k in range(100):
            bus.emit(PeriodDecision(record=period(k)))
        ring = rec.snapshot()["main"]["period"]
        assert len(ring) == 16
        assert [doc["record"]["k"] for doc in ring] == list(range(84, 100))
        rec.close()

    def test_bad_parameters_rejected(self, tmp_path):
        with pytest.raises(ObservabilityError):
            FlightRecorder(EventBus(), ring=0, directory=tmp_path)
        with pytest.raises(ObservabilityError):
            FlightRecorder(EventBus(), ring=8, directory=tmp_path,
                           max_dumps=0)

    def test_manual_dump_writes_a_bundle(self, tmp_path):
        bus = EventBus()
        rec = FlightRecorder(bus, ring=8, directory=tmp_path,
                             runtime="single")
        bus.emit(PeriodDecision(record=period(0)))
        path = rec.dump(reason="operator asked", trigger="manual")
        assert path is not None and path.exists()
        doc = json.loads(path.read_text())
        assert doc["format"] == FLIGHT_FORMAT
        assert doc["reason"] == "operator asked"
        assert doc["trigger"] == "manual"
        assert doc["runtime"] == "single"
        assert doc["rings"]["main"]["period"][0]["record"]["k"] == 0
        assert doc["replay"] is None
        rec.close()

    def test_max_dumps_caps_disk_usage(self, tmp_path):
        bus = EventBus()
        rec = FlightRecorder(bus, ring=8, directory=tmp_path, max_dumps=2)
        assert rec.dump() is not None
        assert rec.dump() is not None
        assert rec.dump() is None  # capped: a flapping detector can't fill disk
        assert len(rec.incidents) == 2
        rec.close()

    def test_closed_recorder_refuses_to_dump(self, tmp_path):
        rec = FlightRecorder(EventBus(), ring=8, directory=tmp_path)
        rec.close()
        assert rec.dump() is None

    def test_critical_health_episode_auto_dumps(self, tmp_path):
        bus = EventBus()
        rec = FlightRecorder(bus, ring=8, directory=tmp_path)
        hm = rec.watch(HealthMonitor(bus, qos_patience=3))
        for k in range(6):
            bus.emit(PeriodDecision(record=period(k, delay=9.0)))
        assert len(rec.incidents) == 1  # one dump per episode opening
        doc = json.loads(rec.incidents[0].read_text())
        assert doc["trigger"] == "health"
        assert "qos_violation" in doc["reason"]
        assert doc["health"]["counts"]["qos_violation"] == 1
        hm.close()
        rec.close()

    def test_warnings_do_not_trigger_dumps(self, tmp_path):
        bus = EventBus()
        rec = FlightRecorder(bus, ring=8, directory=tmp_path)
        rec.watch(HealthMonitor(bus, windup_patience=2))
        # diverging clamped command: a warning-severity windup episode
        for k in range(6):
            bus.emit(PeriodDecision(record=period(
                k, delay=1.0, v=0.0, u=-100.0 * (k + 1))))
        assert rec.incidents == []
        rec.close()


class TestReplay:
    def _strategy_bundle(self, tmp_path, n=30):
        config = ExperimentConfig(duration=float(n), seed=11)
        bus = EventBus()
        rec = FlightRecorder(
            bus, ring=64, directory=tmp_path, runtime="single",
            experiment=config,
            replay_spec={
                "kind": "strategy", "strategy": "CTRL",
                "workload": {"kind": "constant", "rate": 250.0,
                             "n_periods": n, "period": 1.0},
            })
        run_strategy("CTRL", constant_rate(250.0, n), config, bus=bus)
        path = rec.dump(reason="test", trigger="manual")
        rec.close()
        return path

    def test_strategy_bundle_replays_exactly(self, tmp_path):
        path = self._strategy_bundle(tmp_path)
        diff = replay_bundle(load_bundle(path))
        assert diff.ok
        assert diff.compared == 30
        assert diff.mismatches == []
        assert main(["replay", str(path)]) == 0
        assert main(["info", str(path)]) == 0

    def test_tampered_bundle_fails_the_diff(self, tmp_path):
        path = self._strategy_bundle(tmp_path)
        doc = json.loads(path.read_text())
        doc["rings"]["main"]["period"][-1]["record"]["alpha"] += 0.25
        path.write_text(json.dumps(doc))
        diff = replay_bundle(load_bundle(path))
        assert not diff.ok
        assert len(diff.mismatches) == 1
        assert diff.mismatches[0]["field"] == "alpha"
        assert main(["replay", str(path)]) == 1

    def test_live_bundle_is_honestly_not_replayable(self, tmp_path):
        bus = EventBus()
        rec = FlightRecorder(bus, ring=8, directory=tmp_path,
                             runtime="live")
        bus.emit(PeriodDecision(record=period(0)))
        path = rec.dump()
        rec.close()
        assert main(["replay", str(path)]) == 2

    def test_async_fleet_bundle_is_not_replayable(self):
        """A bundle recorded while the fleet still had a free-running mode
        carries ``"sync": false``: no lockstep trajectory to diff it with."""
        doc = {"replay": {"kind": "service", "service_kind": "fleet",
                          "sync": False, "workload_kind": "web"}}
        with pytest.raises(ObservabilityError, match="async"):
            replay_bundle(doc)

    @pytest.mark.parametrize("service, reason", [
        ({"mode": "target", "loss_bound": None}, "'target' mode"),
        ({"mode": "headroom", "loss_bound": 0.1}, "loss_bound"),
    ])
    def test_bundle_with_a_deleted_coordinator_option_is_refused(
            self, tmp_path, service, reason):
        """Bundles recorded while the coordinator still had a delay-budget
        mode and a fleet drop SLA cannot replay without them: refused with
        a reason (CLI exit 2), never replayed without the option."""
        doc = {"format": FLIGHT_FORMAT,
               "replay": {"kind": "service", "service_kind": "lockstep",
                          "workload_kind": "web"},
               "experiment": {}, "service": {"n_shards": 2, **service}}
        with pytest.raises(ObservabilityError, match=reason):
            replay_bundle(doc)
        path = tmp_path / "old.json"
        path.write_text(json.dumps(doc))
        assert main(["replay", str(path)]) == 2

    def test_wrong_format_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"format": "not-a-flight-bundle"}))
        with pytest.raises(ObservabilityError):
            load_bundle(path)


class TestServiceBundles:
    CFG = ExperimentConfig(duration=30.0, seed=7)

    def test_lockstep_service_bundle_replays_exactly(self, tmp_path):
        from repro.experiments.service_demo import run_service_experiment
        svc = ServiceConfig(n_shards=2, flight=32, flight_dir=str(tmp_path))
        result = run_service_experiment(self.CFG, svc, "web")
        assert result.incidents, "the skewed web run opens a critical episode"
        doc = load_bundle(result.incidents[0])
        assert doc["runtime"] == "lockstep"
        assert doc["service"]["n_shards"] == 2
        # as a bundle recorded before that field was retired carries it
        doc["service"]["rebalance_gain"] = 0.5
        diff = replay_bundle(doc)
        assert diff.ok and diff.compared > 0

    def test_fleet_bundle_carries_provenance_and_replays(self):
        """A bundle the deleted process fleet wrote (2 shards, ``flight=32``,
        this class's config) still replays through the lockstep service."""
        path = Path(__file__).with_name("fleet_incident.json")
        doc = load_bundle(path)
        assert doc["runtime"] == "fleet"
        # rings were assembled in the parent over the relay: worker
        # events key by pid<pid>/<shard> provenance, while the parent's
        # own coordinator-level events ring under "main"
        worker_keys = [s for s in doc["rings"] if s != "main"]
        assert len(worker_keys) == 2
        assert all("/" in s and s.startswith("pid") for s in worker_keys)
        assert any("period" in doc["rings"][s] for s in worker_keys)
        diff = replay_bundle(doc)  # fleet == lockstep trajectory
        assert diff.ok and diff.compared > 0
        assert main(["replay", str(path)]) == 0
