"""HTTP serving: /metrics, /health, /status, SSE and the dashboard."""

import json
import urllib.error
import urllib.request

import pytest

from repro.experiments import ExperimentConfig
from repro.experiments.service_demo import run_service_experiment
from repro.obs import EventBus, MetricsRegistry, ObsServer, get_bus
from repro.obs.events import EVENT_KINDS, HeadroomChanged
from repro.service import ServiceConfig, build_service
from repro.service.service import StreamService

CFG = ExperimentConfig(duration=40.0)
SVC = ServiceConfig(n_shards=2, n_sources=2, backend="fluid")


def get_url(url, timeout=10.0):
    with urllib.request.urlopen(url, timeout=timeout) as resp:
        return resp.status, resp.headers, resp.read().decode()


@pytest.fixture()
def server():
    bus = EventBus()
    registry = MetricsRegistry()
    registry.counter("repro_demo_total", "demo").inc(shard="main")
    srv = ObsServer(bus=bus, registry=registry,
                    status_fn=lambda: {"answer": 42})
    srv.start()
    yield srv
    srv.stop()


class TestEndpoints:
    def test_metrics_exposition(self, server):
        status, headers, body = get_url(server.url + "/metrics")
        assert status == 200
        assert headers["Content-Type"].startswith("text/plain; version=0.0.4")
        assert '# TYPE repro_demo_total counter' in body
        assert 'repro_demo_total{shard="main"} 1' in body

    def test_health_json(self, server):
        status, headers, body = get_url(server.url + "/health")
        assert status == 200
        doc = json.loads(body)
        assert "healthy" in doc

    def test_status_document(self, server):
        server.bus.emit(HeadroomChanged(old=0.5, new=0.7, shard="shard0"))
        _, __, body = get_url(server.url + "/status")
        doc = json.loads(body)
        assert doc["events_seen"] == 1
        assert doc["event_counts"] == {"headroom_changed": 1}
        assert doc["headroom"] == {"shard0": 0.7}
        assert doc["service"] == {"answer": 42}

    def test_dashboard_html(self, server):
        status, headers, body = get_url(server.url + "/")
        assert status == 200
        assert headers["Content-Type"].startswith("text/html")
        assert "viz-root" in body
        assert "EventSource" in body  # fed by /events, not by polling

    def test_unknown_route_404s(self, server):
        with pytest.raises(urllib.error.HTTPError) as err:
            get_url(server.url + "/nope")
        assert err.value.code == 404

    def test_port_is_ephemeral_by_default(self, server):
        assert server.port > 0
        assert server.url.startswith("http://127.0.0.1:")


class TestSse:
    def test_sse_streams_period_events_from_a_live_service_run(self):
        """The acceptance path: an SSE client connected to the default
        bus sees hello + period frames from a real sharded run."""
        server = ObsServer(bus=get_bus(), registry=MetricsRegistry())
        server.start()
        try:
            resp = urllib.request.urlopen(server.url + "/events", timeout=10)
            first = resp.readline().decode()
            assert first == "event: hello\n"
            run_service_experiment(CFG, SVC)
            deadline = 200  # frames, not seconds: every readline has data
            found = None
            for _ in range(deadline):
                line = resp.readline().decode()
                if line.startswith("event: period"):
                    data = resp.readline().decode()
                    assert data.startswith("data: ")
                    found = json.loads(data[len("data: "):])
                    break
            assert found is not None, "no period frame within budget"
            assert found["shard"] in SVC.shard_names
            assert found["record"]["k"] >= 0
            resp.close()
        finally:
            server.stop()

    def test_unknown_kind_is_a_400_listing_the_valid_ones(self, server):
        url = server.url + "/events?kinds=period,targte_changed"
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(url, timeout=10).close()
        assert err.value.code == 400
        doc = json.loads(err.value.read().decode())
        assert "targte_changed" in doc["error"]
        assert doc["kinds"] == list(EVENT_KINDS)
        assert server.sse_clients == 0

    def test_sse_client_counts(self, server):
        resp = urllib.request.urlopen(server.url + "/events", timeout=10)
        resp.readline()  # hello arrived: the handler is live
        assert server.sse_clients == 1
        resp.close()


class TestServiceServe:
    def test_stream_service_serves_while_running(self):
        """serve=True exposes /status for exactly the duration of run()."""
        svc = ServiceConfig(n_shards=2, n_sources=2, backend="fluid",
                            serve=True)
        service = build_service(CFG, svc)
        assert isinstance(service, StreamService)
        assert service.observers.obs.serve
        from repro.experiments.service_demo import build_service_workload

        arrivals = build_service_workload(CFG, svc)
        statuses = []

        # probe from inside the run: the first closed period triggers one
        # synchronous GET against the in-flight server (handler threads
        # answer while the run thread waits), so the mid-run observation
        # is deterministic rather than a sleep race
        def probe_once(event):
            if not statuses:
                _, __, body = get_url(service.obs_server.url + "/status")
                statuses.append(json.loads(body))

        service.bus.subscribe(probe_once, kinds=("period",))
        try:
            service.run(arrivals, CFG.duration)
        finally:
            service.bus.unsubscribe(probe_once)
        assert service.obs_server is None, "server must stop with the run"
        assert len(statuses) == 1
        doc = statuses[0]["service"]
        assert doc["running"] is True
        assert doc["n_shards"] == 2
        assert set(doc["shards"]) == {"shard0", "shard1"}
        for shard in doc["shards"].values():
            assert 0.0 < shard["headroom"] <= 1.0
            assert shard["target"] == CFG.target
