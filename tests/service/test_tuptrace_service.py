"""Tuple tracing across the service layer: shards and summaries."""

import pytest

from repro.experiments import ExperimentConfig, build_service_workload
from repro.obs import EventBus
from repro.obs.tuptrace import TraceCollector
from repro.service import ServiceConfig, build_service

CFG = ExperimentConfig(duration=40.0, seed=3)


class TestStreamServiceTuptrace:
    def test_run_produces_per_shard_tail_summary(self):
        svc = ServiceConfig(n_shards=2, n_sources=2, tuptrace=1.0)
        arrivals = build_service_workload(CFG, svc)
        result = build_service(CFG, svc).run(arrivals, CFG.duration)
        assert result.tail_summary is not None
        assert set(result.tail_summary) == set(svc.shard_names)
        for name, summary in result.tail_summary.items():
            assert summary["sampled"] > 0, name
            assert summary["sampled"] == (summary["completed"]
                                          + summary["dropped"])
            assert set(summary["percentiles"]) == {"p50", "p95", "p99"}
            assert summary["percentiles"]["p99"] >= \
                summary["percentiles"]["p50"] >= 0.0

    def test_tuptrace_off_leaves_summary_empty(self):
        svc = ServiceConfig(n_shards=2, n_sources=2)
        arrivals = build_service_workload(CFG, svc)
        result = build_service(CFG, svc).run(arrivals, CFG.duration)
        assert result.tail_summary is None

    def test_shards_sample_independent_deterministic_sets(self):
        """Per-shard seeds differ, so the same arrival sequence numbers
        are not forced to co-sample — but reruns are identical."""
        svc = ServiceConfig(n_shards=2, n_sources=2, tuptrace=0.2)
        arrivals = build_service_workload(CFG, svc)

        def traced_ids():
            bus = EventBus()
            collector = TraceCollector(bus, max_finished=100_000)
            service = build_service(CFG, svc)
            service.bus = bus
            for i, shard in enumerate(service.shards):
                scoped = bus.scoped(shard.name)
                shard.loop.bus = scoped
                shard.loop.tuple_tracer.bus = scoped
            service.run(arrivals, CFG.duration)
            collector.close()
            return sorted((d["shard"], d["tuple_id"], d["outcome"])
                          for d in collector.records())

        first = traced_ids()
        assert first
        assert {shard for shard, _, __ in first} == set(svc.shard_names)
        assert traced_ids() == first

    def test_invalid_fraction_rejected(self):
        from repro.errors import ServiceError
        with pytest.raises(ServiceError):
            ServiceConfig(n_shards=2, n_sources=2, tuptrace=1.5)
