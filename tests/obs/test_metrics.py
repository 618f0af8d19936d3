"""Unit tests for the metrics registry, exposition and the event bridge."""

import json
import time

import pytest

from repro.errors import ObservabilityError
from repro.metrics import PeriodRecord
from repro.obs import (
    EventBus,
    MetricsRegistry,
    PromFileDumper,
    install_metrics,
    start_prom_dump,
)
from repro.obs.events import (
    CompletionStats,
    DrainTruncated,
    HeadroomChanged,
    IngestStats,
    LateArrival,
    MigrationCompleted,
    PeriodDecision,
    RouteChanged,
    ShardRebalanced,
)

from .prometheus import LINE_RE, parse_prometheus_text


def period(k=0, delay=1.0, target=2.0, offered=100, admitted=90, alpha=0.1,
           queue=50, shed_retro=0):
    return PeriodRecord(
        k=k, time=float(k + 1), target=target, delay_estimate=delay,
        queue_length=queue, cost=0.005, inflow_rate=admitted / 1.0,
        outflow_rate=180.0, offered=offered, admitted=admitted,
        shed_retro=shed_retro, v=180.0, u=180.0, error=target - delay,
        alpha=alpha,
    )


class TestPrimitives:
    def test_counter_monotonic(self):
        reg = MetricsRegistry()
        c = reg.counter("tuples_total")
        c.inc()
        c.inc(4.0, shard="a")
        assert c.value() == 1.0
        assert c.value(shard="a") == 4.0
        with pytest.raises(ObservabilityError):
            c.inc(-1.0)

    def test_gauge_set_and_inc(self):
        reg = MetricsRegistry()
        g = reg.gauge("depth")
        g.set(3.5, shard="a")
        g.inc(-1.0, shard="a")
        assert g.value(shard="a") == 2.5

    def test_histogram_cumulative_buckets(self):
        reg = MetricsRegistry()
        h = reg.histogram("delay", buckets=(0.5, 1.0, 2.0))
        for v in (0.1, 0.7, 1.5, 9.0):
            h.observe(v)
        assert h.count() == 4
        assert h.sum() == pytest.approx(11.3)
        samples = list(h.samples())
        # cumulative counts per le bound: 0.5 -> 1, 1.0 -> 2, 2.0 -> 3, +Inf -> 4
        by_le = {dict(key)["le"]: value
                 for suffix, key, value in samples if suffix == "_bucket"}
        assert by_le == {"0.5": 1.0, "1": 2.0, "2": 3.0, "+Inf": 4.0}

    def test_type_collision_rejected(self):
        reg = MetricsRegistry()
        reg.counter("x_total")
        with pytest.raises(ObservabilityError):
            reg.gauge("x_total")

    def test_same_name_returns_same_family(self):
        reg = MetricsRegistry()
        assert reg.counter("x_total") is reg.counter("x_total")

    def test_bad_names_rejected(self):
        reg = MetricsRegistry()
        with pytest.raises(ObservabilityError):
            reg.counter("2bad")
        with pytest.raises(ObservabilityError):
            reg.counter("ok_total").inc(**{"bad-label": "x"})


class TestExposition:
    def test_every_line_is_valid_exposition(self):
        reg = MetricsRegistry()
        reg.counter("repro_tuples_total", "tuples seen").inc(7, shard="s0")
        reg.gauge("repro_alpha").set(0.25, shard="s0")
        h = reg.histogram("repro_delay_seconds", buckets=(1.0, 2.0))
        h.observe(0.5, shard="s0")
        text = reg.prometheus_text()
        assert text.endswith("\n")
        for line in text.splitlines():
            if line.startswith("# HELP") or line.startswith("# TYPE"):
                continue
            assert LINE_RE.match(line), f"bad exposition line: {line!r}"
        assert "# TYPE repro_tuples_total counter" in text
        assert "# TYPE repro_delay_seconds histogram" in text
        assert 'repro_tuples_total{shard="s0"} 7' in text

    def test_label_values_escaped(self):
        reg = MetricsRegistry()
        reg.counter("c_total").inc(1, src='we"ird\\name')
        text = reg.prometheus_text()
        assert r'src="we\"ird\\name"' in text

    def test_snapshot_is_json_able(self):
        reg = MetricsRegistry()
        reg.counter("c_total").inc(2, shard="a")
        reg.histogram("h", buckets=(1.0,)).observe(0.5)
        doc = json.loads(json.dumps(reg.snapshot()))
        assert doc["c_total"]["type"] == "counter"
        assert doc["h"]["values"][""]["count"] == 1


class TestMetricsBridge:
    def test_period_events_fold_into_metrics(self):
        bus = EventBus()
        reg = MetricsRegistry()
        bridge = install_metrics(bus, reg)
        bus.emit(PeriodDecision(record=period(k=0, delay=1.0)))
        bus.emit(PeriodDecision(record=period(k=1, delay=3.0)))  # violation
        assert bridge.periods.value(shard="main") == 2
        assert bridge.offered.value(shard="main") == 200
        assert bridge.admitted.value(shard="main") == 180
        assert bridge.violations.value(shard="main") == 1
        assert bridge.violation_ratio("main") == 0.5
        assert bridge.delay.value(shard="main") == 3.0
        assert bridge.delay_hist.count(shard="main") == 2

    def test_shard_labels_flow_through(self):
        bus = EventBus()
        bridge = install_metrics(bus, MetricsRegistry())
        bus.scoped("s1").emit(PeriodDecision(record=period()))
        assert bridge.periods.value(shard="s1") == 1
        assert bridge.periods.value(shard="main") == 0

    def test_completions_feed_tuple_latency_histogram(self):
        bus = EventBus()
        bridge = install_metrics(bus, MetricsRegistry())
        bus.emit(CompletionStats(k=0, count=3, shed=1, delays=[0.5, 1.5]))
        bus.scoped("s1").emit(CompletionStats(k=0, count=1, shed=0,
                                              delays=[2.5]))
        assert bridge.tuple_latency.count(shard="main") == 2
        assert bridge.tuple_latency.count(shard="s1") == 1

    def test_tuple_latency_populates_without_span_sampling(self):
        """CompletionStats flows from the loop's completion accounting, so
        the latency histogram fills even with the tuple tracer off."""
        from repro.experiments import ExperimentConfig, make_workload, run_strategy

        bus = EventBus()
        bridge = install_metrics(bus, MetricsRegistry())
        cfg = ExperimentConfig(duration=20.0)
        record = run_strategy("CTRL", make_workload("web", cfg), cfg, bus=bus)
        delivered = record.qos(within_window=False).delivered
        assert delivered > 0
        assert bridge.tuple_latency.count(shard="main") == delivered

    def test_other_events(self):
        bus = EventBus()
        bridge = install_metrics(bus, MetricsRegistry())
        bus.emit(PeriodDecision(record=period(offered=100, admitted=90,
                                              shed_retro=3)))
        bus.emit(LateArrival(engine="Engine", total=1))
        bus.emit(DrainTruncated(leftover=42))
        bus.emit(ShardRebalanced(k=5, mode="headroom"))
        bus.emit(HeadroomChanged(old=0.4, new=0.6, shard="s0"))
        assert bridge.shed.value(shard="main", action="entry") == 10
        assert bridge.shed.value(shard="main", action="retro") == 3
        assert bridge.late.value(shard="main", engine="Engine") == 1
        assert bridge.truncations.value(shard="main") == 1
        assert bridge.rebalances.value(mode="headroom") == 1
        assert bridge.headroom.value(shard="s0") == 0.6

    @pytest.mark.parametrize("actuator", ["entry", "queue"])
    def test_shed_series_equal_the_run_record(self, actuator):
        """The shed counters derive from the period records alone: entry
        drops are ``offered - admitted``, retroactive culls ``shed_retro``."""
        from repro.experiments import ExperimentConfig, make_workload, run_strategy

        bus = EventBus()
        bridge = install_metrics(bus, MetricsRegistry())
        cfg = ExperimentConfig(duration=30.0)
        record = run_strategy("CTRL", make_workload("web", cfg), cfg,
                              actuator=actuator, bus=bus)
        entry = sum(p.offered - p.admitted for p in record.periods)
        retro = sum(p.shed_retro for p in record.periods)
        assert entry + retro > 0, "the run must shed to test anything"
        assert bridge.shed.value(shard="main", action="entry") == entry
        assert bridge.shed.value(shard="main", action="retro") == retro

    def test_migration_events(self):
        bus = EventBus()
        bridge = install_metrics(bus, MetricsRegistry())
        bus.emit(RouteChanged(k=5, source="s4", from_shard=0, to_shard=3,
                              epoch=1))
        bus.scoped("shard0").emit(MigrationCompleted(
            k=5, source="s4", from_shard=0, to_shard=3, drained=120,
            leftover=0, virtual_seconds=1.75, truncated=False))
        assert bridge.migrations.value(source="s4", from_shard="0",
                                       to_shard="3") == 1
        assert bridge.migration_drain.count(shard="shard0") == 1
        assert bridge.migration_drain.sum(shard="shard0") == 1.75

    def test_ingest_drops_labeled_by_reason(self):
        bus = EventBus()
        bridge = install_metrics(bus, MetricsRegistry())
        bus.scoped("live").emit(IngestStats(k=0, accepted=90, dropped=10,
                                            malformed=2, bytes_read=4096,
                                            rate=90.0))
        assert bridge.ingest_dropped.value(shard="live",
                                           reason="capacity") == 10
        text = bridge.registry.prometheus_text()
        assert 'repro_ingest_dropped_total{shard="live",reason="capacity"} 10' \
            in text or \
            'repro_ingest_dropped_total{reason="capacity",shard="live"} 10' \
            in text

    def test_close_stops_listening(self):
        bus = EventBus()
        bridge = install_metrics(bus, MetricsRegistry())
        bridge.close()
        assert not bus
        bus.emit(PeriodDecision(record=period()))
        assert bridge.periods.value(shard="main") == 0


class TestHistogramQuantiles:
    def hist(self):
        reg = MetricsRegistry()
        h = reg.histogram("lat_seconds", buckets=(1.0, 2.0, 4.0))
        return reg, h

    def test_interpolated_quantiles(self):
        __, h = self.hist()
        for v in (0.5, 0.5, 1.5, 1.5, 3.0, 3.0, 3.0, 3.0):
            h.observe(v)
        # 8 observations: 2 in (0,1], 2 in (1,2], 4 in (2,4]
        assert h.quantile(0.25) == pytest.approx(1.0)   # rank 2 tops bucket 1
        assert h.quantile(0.5) == pytest.approx(2.0)    # rank 4 tops bucket 2
        assert h.quantile(1.0) == pytest.approx(4.0)
        assert h.quantile(0.75) == pytest.approx(3.0)   # halfway into (2,4]

    def test_quantiles_monotonic(self):
        __, h = self.hist()
        for i in range(50):
            h.observe(0.1 * (i % 40))
        q = [h.quantile(x) for x in (0.5, 0.95, 0.99)]
        assert q == sorted(q)

    def test_empty_is_nan_and_bad_q_raises(self):
        import math

        __, h = self.hist()
        assert math.isnan(h.quantile(0.5))
        with pytest.raises(ObservabilityError):
            h.quantile(1.5)

    def test_inf_rank_clamps_to_last_finite_bound(self):
        __, h = self.hist()
        h.observe(100.0)  # lands in the +Inf bucket
        assert h.quantile(0.99) == 4.0


class TestSummaryExposition:
    def test_summary_family_rendered_with_consistent_sum_count(self):
        reg = MetricsRegistry()
        h = reg.histogram("lat_seconds", "help here", buckets=(1.0, 2.0))
        for v in (0.5, 1.5, 1.5):
            h.observe(v, shard="s0")
        text = reg.prometheus_text()
        assert "# TYPE lat_seconds histogram" in text
        assert "# TYPE lat_seconds_summary summary" in text
        for q in (0.5, 0.95, 0.99):
            assert f'quantile="{q}"' in text
        # the derived family reports the histogram's own volume, verbatim
        families = parse_prometheus_text(text)
        by_name = {}
        for name, labels, value in families["lat_seconds_summary"]["samples"]:
            by_name.setdefault(name, []).append((labels, value))
        assert by_name["lat_seconds_summary_sum"][0][1] == h.sum(shard="s0")
        assert by_name["lat_seconds_summary_count"][0][1] == h.count(shard="s0")
        assert all(lbl["shard"] == "s0"
                   for samples in by_name.values() for lbl, __ in samples)


class TestPrometheusRoundTrip:
    def test_full_registry_round_trips(self):
        reg = MetricsRegistry()
        reg.counter("jobs_total", "jobs").inc(5, worker='pid1/"w\\0"')
        reg.gauge("alpha").set(0.25, shard="s1")
        h = reg.histogram("lat_seconds", buckets=(1.0, 2.0))
        h.observe(0.5, shard="s0")
        h.observe(1.5, shard="s0")
        families = parse_prometheus_text(reg.prometheus_text())

        assert families["jobs_total"]["type"] == "counter"
        assert families["jobs_total"]["help"] == "jobs"
        assert families["jobs_total"]["samples"] == [
            ("jobs_total", {"worker": 'pid1/"w\\0"'}, 5.0)]
        assert families["alpha"]["samples"] == [
            ("alpha", {"shard": "s1"}, 0.25)]

        assert families["lat_seconds"]["type"] == "histogram"
        hist_samples = {(name, labels.get("le")): value
                        for name, labels, value
                        in families["lat_seconds"]["samples"]}
        assert hist_samples[("lat_seconds_bucket", "1")] == 1.0
        assert hist_samples[("lat_seconds_bucket", "2")] == 2.0
        assert hist_samples[("lat_seconds_bucket", "+Inf")] == 2.0
        assert hist_samples[("lat_seconds_sum", None)] == 2.0
        assert hist_samples[("lat_seconds_count", None)] == 2.0
        assert families["lat_seconds_summary"]["type"] == "summary"

    def test_every_line_matches_the_exposition_grammar(self):
        reg = MetricsRegistry()
        reg.counter("c_total").inc()
        reg.histogram("h_seconds").observe(1.0)
        for line in reg.prometheus_text().splitlines():
            if line.startswith("#"):
                continue
            assert LINE_RE.match(line), line

    def test_unparseable_line_raises(self):
        with pytest.raises(ObservabilityError):
            parse_prometheus_text("!! not exposition !!")


class TestPromFileDumper:
    def test_mid_run_snapshots_land_before_stop(self, tmp_path):
        reg = MetricsRegistry()
        counter = reg.counter("ticks_total")
        path = tmp_path / "prom.txt"
        dumper = PromFileDumper(path, registry=reg, interval=0.05)
        dumper.start()
        try:
            assert path.exists(), "first snapshot is written at start"
            counter.inc(3)
            deadline = time.monotonic() + 5.0
            while time.monotonic() < deadline:
                if "ticks_total 3" in path.read_text():
                    break
                time.sleep(0.02)
            else:
                pytest.fail("mid-run snapshot never reflected the counter")
        finally:
            dumper.stop()
        assert dumper.writes >= 3  # start + periodic + final
        assert not path.with_name(path.name + ".tmp").exists()

    def test_start_prom_dump_honours_env(self, tmp_path, monkeypatch):
        path = tmp_path / "dump.txt"
        monkeypatch.delenv("REPRO_PROM_DUMP", raising=False)
        assert start_prom_dump() is None
        monkeypatch.setenv("REPRO_PROM_DUMP", str(path))
        monkeypatch.setenv("REPRO_PROM_DUMP_INTERVAL", "0.05")
        reg = MetricsRegistry()
        reg.counter("c_total").inc()
        dumper = start_prom_dump(registry=reg)
        try:
            assert dumper is not None
            assert dumper.interval == 0.05
        finally:
            dumper.stop()
        assert "c_total 1" in path.read_text()

    def test_bad_interval_rejected(self, tmp_path, monkeypatch):
        with pytest.raises(ObservabilityError):
            PromFileDumper(tmp_path / "x", interval=0.0)
        monkeypatch.setenv("REPRO_PROM_DUMP", str(tmp_path / "x"))
        monkeypatch.setenv("REPRO_PROM_DUMP_INTERVAL", "soon")
        with pytest.raises(ObservabilityError):
            start_prom_dump()
