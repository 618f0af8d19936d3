"""Integration: a sharded service observed live over the default bus."""

import re

import pytest

from repro.experiments import ExperimentConfig, run_service_experiment
from repro.obs import HealthMonitor, MetricsRegistry, get_bus, install_metrics
from repro.service import ServiceConfig

from .prometheus import LINE_RE

CFG = ExperimentConfig(duration=60.0, seed=7)
SVC = ServiceConfig(n_shards=2, n_sources=2, health=True, trace=True)


@pytest.fixture(scope="module")
def observed():
    """One skewed service run watched live: raw events + metrics bridge."""
    bus = get_bus()
    events = []
    bridge = install_metrics(bus, MetricsRegistry())
    token = bus.subscribe(events.append)
    try:
        result = run_service_experiment(CFG, SVC)
    finally:
        bus.unsubscribe(token)
        bridge.close()
    return result, events, bridge.registry


class TestLiveObservation:
    def test_every_shard_streams_period_events(self, observed):
        result, events, _ = observed
        n = int(CFG.duration)  # period 1 s
        periods = [e for e in events if e.kind == "period"]
        by_shard = {}
        for e in periods:
            by_shard.setdefault(e.shard, []).append(e.record)
        assert set(by_shard) == set(SVC.shard_names)
        for name, records in by_shard.items():
            assert len(records) == n
            # events carried the very rows that ended up in the result
            assert records == result.shard_records[name].periods

    def test_fleet_rebalance_events(self, observed):
        _, events, _ = observed
        kinds = {e.kind for e in events}
        assert {"rebalanced", "headroom_changed"} <= kinds
        moved = {e.shard for e in events if e.kind == "headroom_changed"}
        assert moved <= set(SVC.shard_names)
        rebalances = [e for e in events if e.kind == "rebalanced"]
        assert all(e.mode == "headroom" for e in rebalances)
        assert "headroom" in rebalances[0].detail

    def test_prometheus_exposition_of_a_real_run(self, observed):
        result, _, registry = observed
        text = registry.prometheus_text()
        for line in text.splitlines():
            if line.startswith("#"):
                continue
            assert LINE_RE.match(line), f"bad exposition line: {line!r}"
        n = int(CFG.duration)
        for name in SVC.shard_names:
            assert f'repro_periods_total{{shard="{name}"}} {n}' in text
        offered = sum(
            float(m.group(1))
            for m in re.finditer(
                r'^repro_tuples_offered_total\{[^}]*\} (\S+)$',
                text, re.MULTILINE)
        )
        assert offered == sum(r.offered_total
                              for r in result.shard_records.values())


class TestResultSurfaces:
    def test_health_summary_attached(self, observed):
        result, _, _ = observed
        assert result.health is not None
        assert set(result.health) == {"healthy", "critical_open", "counts",
                                      "reports"}

    def test_trace_covers_the_measured_wall_clock(self, observed):
        result, _, _ = observed
        trace = result.trace_summary
        assert trace is not None
        assert set(trace["shards"]) == set(SVC.shard_names) | {"service"}
        assert {"engine", "dispatch", "coordinator"} <= set(trace["segments"])
        assert trace["wall_seconds"] == pytest.approx(result.wall_seconds)
        # acceptance: spans sum to within 10% of the measured wall time
        assert trace["coverage"] == pytest.approx(1.0, abs=0.1)

    def test_obs_surfaces_default_off(self):
        result = run_service_experiment(
            ExperimentConfig(duration=20.0, seed=3),
            ServiceConfig(n_shards=2, n_sources=2))
        assert result.health is None
        assert result.trace_summary is None


class TestFleetHealth:
    def test_skewed_independent_fleet_flags_imbalance(self):
        # no coordination + a hard hotspot: shard0 drowns while shard1
        # idles, so the delay-estimate spread dwarfs the common target
        cfg = ExperimentConfig(duration=60.0, seed=7)
        svc = ServiceConfig(n_shards=2, n_sources=2, mode="independent",
                            hotspot_factor=6.0)
        hm = HealthMonitor(get_bus(), imbalance_spread=0.5,
                           imbalance_patience=3)
        try:
            run_service_experiment(cfg, svc)
        finally:
            hm.close()
        hm.finalize()
        assert hm.has("shard_imbalance")
        worst = hm.reports("shard_imbalance")[0]
        assert worst.shard == "shard0"  # the hotspot lands on shard0
