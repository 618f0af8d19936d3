"""Sampled per-tuple lifecycle tracing: sampling, spans, audit, analysis."""

import json
import pickle
import random

from repro.core import (
    ControlLoop,
    DsmsModel,
    EntryActuator,
    Monitor,
    PolePlacementController,
)
from repro.dsms import identification_network, make_engine
from repro.experiments import ExperimentConfig, make_workload, run_strategy
from repro.obs import EventBus
from repro.obs.events import TupleTraceCompleted
from repro.obs.tuptrace import (
    TailAnalyzer,
    TraceCollector,
    TupleTracer,
)

CFG = ExperimentConfig(duration=40.0)


def traced_run(fraction=1.0, seed=0, duration=40.0, **kw):
    cfg = ExperimentConfig(duration=duration)
    workload = make_workload("web", cfg)
    tracer = TupleTracer(fraction=fraction, seed=seed,
                         max_finished=1_000_000, **kw)
    record = run_strategy("CTRL", workload, cfg, tuple_tracer=tracer)
    return tracer, record


class TestSampling:
    def test_fraction_zero_samples_nothing(self):
        tracer = TupleTracer(fraction=0.0)
        for i in range(1000):
            assert tracer.on_arrival(float(i), "in") is None
        assert tracer.offered == 1000
        assert tracer.sampled == 0

    def test_fraction_one_samples_everything(self):
        tracer = TupleTracer(fraction=1.0)
        for i in range(500):
            assert tracer.on_arrival(float(i), "in") is not None
        assert tracer.sampled == 500

    def test_partial_fraction_rate_is_close(self):
        tracer = TupleTracer(fraction=0.1, seed=3)
        n = 20_000
        hits = sum(tracer.on_arrival(float(i), "in") is not None
                   for i in range(n))
        assert 0.08 * n < hits < 0.12 * n

    def test_sampling_is_deterministic_in_sequence(self):
        picks = []
        for _ in range(2):
            tracer = TupleTracer(fraction=0.2, seed=7)
            picks.append([i for i in range(2000)
                          if tracer.on_arrival(float(i), "in") is not None])
        assert picks[0] == picks[1]

    def test_distinct_seeds_sample_distinct_sets(self):
        a = TupleTracer(fraction=0.2, seed=1)
        b = TupleTracer(fraction=0.2, seed=2)
        set_a = {i for i in range(2000)
                 if a.on_arrival(float(i), "in") is not None}
        set_b = {i for i in range(2000)
                 if b.on_arrival(float(i), "in") is not None}
        assert set_a != set_b

    def test_fraction_validation(self):
        import pytest
        with pytest.raises(ValueError):
            TupleTracer(fraction=1.5)

    def test_tuple_ids_are_source_qualified_and_unique(self):
        tracer = TupleTracer(fraction=1.0)
        ids = [tracer.on_arrival(float(i), "s0").tuple_id for i in range(10)]
        assert len(set(ids)) == 10
        assert all(i.startswith("s0#") for i in ids)


class TestSpanThreading:
    def test_full_run_traces_every_arrival(self):
        tracer, record = traced_run(fraction=1.0)
        offered = sum(p.offered for p in record.periods)
        assert tracer.offered == offered
        assert tracer.sampled == offered
        assert tracer.completed + tracer.dropped == tracer.sampled

    def test_completed_traces_have_enqueue_and_service_spans(self):
        tracer, _ = traced_run(fraction=1.0)
        done = [d for d in tracer.records() if d["outcome"] == "completed"]
        assert done
        for doc in done[:50]:
            kinds = [e["kind"] for e in doc["events"]]
            assert "enqueue" in kinds
            assert "service" in kinds or "drain" in kinds
            assert doc["latency"] is not None and doc["latency"] >= 0
            for ev in doc["events"]:
                if ev["kind"] == "service":
                    assert ev["dur"] >= 0
                    assert ev["detail"] > 0  # measured CPU cost

    def test_entry_drops_record_shedder_and_alpha(self):
        tracer, _ = traced_run(fraction=1.0)
        dropped = [d for d in tracer.records() if d["outcome"] == "dropped"]
        assert dropped, "an overloaded CTRL run must shed"
        entry = [d for d in dropped
                 if any(e["kind"] == "shed" and e["label"] == "entry"
                        for e in d["events"])]
        assert entry
        shed = next(e for e in entry[0]["events"] if e["kind"] == "shed")
        assert shed["detail"]["reason"] == "entry"
        # the deciding class: the entry policy is the actuator itself
        assert shed["detail"]["shedder"] == "EntryActuator"
        assert 0.0 < shed["detail"]["alpha"] <= 1.0

    def test_run_is_reproducible(self):
        a, _ = traced_run(fraction=0.1, seed=5)
        b, _ = traced_run(fraction=0.1, seed=5)
        assert [d["tuple_id"] for d in a.records()] == \
               [d["tuple_id"] for d in b.records()]

    def test_unsampled_tuples_carry_no_trace(self):
        """Fraction 0 through the engine leaves every lineage trace None."""
        network = identification_network()
        engine = make_engine("full", network=network,
                             rng=random.Random(0))
        model = DsmsModel(cost=1 / 190.0, headroom=0.97, period=1.0)
        loop = ControlLoop(engine, PolePlacementController(model),
                           Monitor(engine, model), EntryActuator(),
                           target=2.0, period=1.0,
                           tuple_tracer=TupleTracer(fraction=0.0))
        record = loop.begin()
        arrivals = [(i * 0.02, (0.5, 0.5, 0.5, 0.5), "src")
                    for i in range(40)]
        loop.run_period(record, 0, arrivals)
        assert loop.tuple_tracer.sampled == 0
        assert engine.admitted_total > 0
        assert all(tup.lineage.trace is None
                   for q in engine.queues.values()
                   for tup, _port in q._items)


class TestDrainScope:
    def test_drain_scope_relabels_service_spans(self):
        tracer = TupleTracer(fraction=1.0)
        ctx = tracer.on_arrival(0.0, "in")
        ctx.service("op", 1.0, 0.1, 0.01)
        with tracer.drain_scope("final"):
            ctx.service("op", 2.0, 0.1, 0.01)
        ctx.finish(2.2, "completed")
        doc = tracer.records()[0]
        kinds = [(e["kind"], e["label"]) for e in doc["events"]]
        assert ("service", "op") in kinds
        drains = [e for e in doc["events"] if e["kind"] == "drain"]
        assert len(drains) == 1
        assert drains[0]["detail"]["scope"] == "final"

    def test_end_of_run_drain_tags_final_spans(self):
        """Tuples admitted in the last period finish inside finish()'s
        drain scope and carry 'final'-scoped drain spans."""
        tracer, _ = traced_run(fraction=1.0, duration=20.0)
        scopes = {e["detail"]["scope"]
                  for d in tracer.records() for e in d["events"]
                  if e["kind"] == "drain"}
        assert "final" in scopes


class TestAuditAndExport:
    def test_jsonl_export_round_trips(self, tmp_path):
        tracer, _ = traced_run(fraction=0.05)
        path = tmp_path / "traces.jsonl"
        n = tracer.export_jsonl(path)
        lines = path.read_text().splitlines()
        assert n == len(lines) == len(tracer.records())
        parsed = [json.loads(line) for line in lines]
        assert parsed == tracer.records()

    def test_chrome_export_is_valid_trace_event_json(self, tmp_path):
        tracer, _ = traced_run(fraction=0.05)
        path = tmp_path / "trace.json"
        n = tracer.export_chrome(path)
        assert n == len(tracer.records())
        doc = json.loads(path.read_text())
        events = doc["traceEvents"]
        phases = {e["ph"] for e in events}
        assert {"M", "X"} <= phases
        names = {e["name"] for e in events if e["ph"] == "X"}
        assert "completed" in names
        # shed decisions appear as instant markers with full detail
        sheds = [e for e in events if e.get("cat") == "shed"]
        assert sheds
        assert sheds[0]["args"]["detail"]["reason"]

    def test_ring_eviction_bounds_memory_and_index(self):
        tracer = TupleTracer(fraction=1.0, max_finished=10)
        for i in range(25):
            ctx = tracer.on_arrival(float(i), "in")
            ctx.finish(float(i) + 0.1, "completed")
        assert len(tracer.finished) == 10
        assert len(tracer._by_id) == 10
        assert tracer.get("in#0") is None
        assert tracer.get("in#24") is not None


class TestTailAnalyzer:
    def test_percentiles_and_decomposition(self):
        docs = []
        for i in range(100):
            latency = (i + 1) / 10.0
            docs.append({
                "tuple_id": f"in#{i}", "outcome": "completed",
                "latency": latency,
                "events": [
                    {"kind": "service", "t": 0.0, "dur": 0.05, "label": "op",
                     "detail": 0.01},
                    {"kind": "drain", "t": 0.0, "dur": 0.02, "label": "op",
                     "detail": {"cost": 0.01, "scope": "final"}},
                ],
            })
        an = TailAnalyzer(docs)
        assert len(an) == 100
        pcts = an.percentiles()
        assert pcts["p50"] == 5.1
        assert pcts["p95"] == 9.6
        assert pcts["p99"] == 10.0
        decomp = an.decompose(window=5)
        for name in ("mean", "p50", "p95", "p99"):
            row = decomp[name]
            assert abs(row["service"] - 0.05) < 1e-9
            assert abs(row["drain"] - 0.02) < 1e-9
            assert abs(row["latency"]
                       - (row["queue_wait"] + 0.07)) < 1e-9

    def test_dropped_traces_are_excluded(self):
        docs = [{"tuple_id": "a", "outcome": "dropped", "latency": 0.0,
                 "events": []},
                {"tuple_id": "b", "outcome": "completed", "latency": 1.0,
                 "events": []}]
        an = TailAnalyzer(docs)
        assert len(an) == 1
        assert an.mean_latency == 1.0

    def test_cross_check_full_sampling_within_2pct(self):
        """Acceptance: the fully-sampled trace mean equals the Monitor's
        run-wide mean delay within tolerance on a seeded run."""
        tracer, record = traced_run(fraction=1.0)
        check = tracer.analyzer().cross_check(record)
        assert check["ok"], check
        assert check["rel_err"] <= 0.02

    def test_cross_check_partial_sampling_within_2pct(self):
        tracer, record = traced_run(fraction=0.25, seed=11)
        check = tracer.analyzer().cross_check(record)
        assert check["ok"], check

    def test_empty_analyzer_is_calm(self):
        an = TailAnalyzer([])
        assert an.percentiles() == {"p50": 0.0, "p95": 0.0, "p99": 0.0}
        assert an.decompose() == {}
        assert an.mean_latency == 0.0


class TestBusEmission:
    def test_finished_traces_emit_and_collect(self):
        bus = EventBus()
        collector = TraceCollector(bus)
        tracer, _ = traced_run(fraction=0.1, bus=bus)
        try:
            assert len(collector.records()) == tracer.sampled
            assert collector.records() == tracer.records()
        finally:
            collector.close()
        # closed collector no longer accumulates
        before = len(collector.records())
        bus.emit(TupleTraceCompleted(trace={"tuple_id": "x#1"}))
        assert len(collector.records()) == before

    def test_collector_stamps_worker_provenance(self):
        bus = EventBus()
        collector = TraceCollector(bus)
        event = TupleTraceCompleted(trace={"tuple_id": "in#1",
                                           "outcome": "completed"})
        event.worker = "pid4242"
        bus.emit(event)
        collector.close()
        assert collector.records()[0]["worker"] == "pid4242"

    def test_trace_event_pickles_round_trip(self):
        """The relay ships events by pickle; the dict payload must survive."""
        tracer = TupleTracer(fraction=1.0)
        ctx = tracer.on_arrival(0.0, "in")
        ctx.enqueue("op", 0.0)
        ctx.service("op", 0.1, 0.05, 0.01)
        ctx.finish(0.2, "completed")
        event = TupleTraceCompleted(trace=tracer.records()[0])
        clone = pickle.loads(pickle.dumps(event))
        assert clone.trace == tracer.records()[0]

    def test_ingest_drop_hook_samples_and_finishes(self):
        tracer = TupleTracer(fraction=1.0)
        tracer.on_ingest_drop(1.5, "live")
        assert tracer.dropped == 1
        doc = tracer.records()[0]
        assert doc["outcome"] == "dropped"
        shed, = (e for e in doc["events"] if e["kind"] == "shed")
        assert shed["detail"]["reason"] == "buffer_full"
        assert shed["detail"]["shedder"] == "IngestBuffer"
