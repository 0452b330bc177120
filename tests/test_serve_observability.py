"""End-to-end observability tests for the serving stack.

Covers the acceptance criteria of the tracing/quality/exposition work:

* ``/metrics`` speaks Prometheus text by default (correct Content-Type,
  parses under the 0.0.4 rules) with the JSON snapshot behind
  ``?format=json`` / ``Accept: application/json``;
* a forecast served through the micro-batcher produces one complete
  trace — http → engine.forecast → queue → batch_forward →
  model_forward — and the batch span carries links to ≥ 2 request
  traces when requests fuse;
* ``/healthz`` flips to ``degraded`` when a sensor feed is cut mid-run;
* ``/traces`` exposes the trace buffer; the ``repro traces`` CLI
  pretty-prints it from a JSONL export or a live server.
"""

import json
import threading
import urllib.request

import numpy as np
import pytest

from repro.experiments import build_model
from repro.serve import ServeApp, export_bundle, load_bundle, make_server
from repro.telemetry import MetricRegistry, Tracer, format_trace

from .test_telemetry_prometheus import parse_exposition


@pytest.fixture()
def bundle(tiny_ctx, tmp_path):
    model = build_model("FC-LSTM-I", tiny_ctx)
    base = str(tmp_path / "bundle")
    export_bundle(model, "FC-LSTM-I", tiny_ctx, base)
    return load_bundle(base)


def _traced_app(bundle, **engine_kwargs):
    registry = MetricRegistry()
    tracer = Tracer(sample_rate=1.0, seed=0)
    store = bundle.make_store()
    engine = bundle.make_engine(
        store=store, registry=registry, tracer=tracer, **engine_kwargs
    )
    return ServeApp(bundle, store=store, engine=engine, registry=registry,
                    tracer=tracer)


def _warm(app, rng_seed=0):
    rng = np.random.default_rng(rng_seed)
    n, d = app.store.num_nodes, app.store.num_features
    for step in range(app.store.input_length):
        app.store.observe(step, rng.normal(60.0, 5.0, size=(n, d)))


class TestMetricsContentNegotiation:
    def test_default_is_prometheus_text_over_http(self, bundle):
        app = _traced_app(bundle)
        server = make_server(app)
        threading.Thread(target=server.serve_forever, daemon=True).start()
        host, port = server.server_address[:2]
        try:
            app.handle("GET", "/forecast", None)
            with urllib.request.urlopen(
                f"http://{host}:{port}/metrics", timeout=30
            ) as response:
                content_type = response.headers["Content-Type"]
                body = response.read().decode("utf-8")
            assert content_type == "text/plain; version=0.0.4; charset=utf-8"
            families = parse_exposition(body)
            assert "repro_serve_requests_total" in families
            assert families["repro_serve_latency_ms"]["type"] == "histogram"
        finally:
            server.shutdown()
            server.server_close()
            app.engine.stop()

    def test_format_json_returns_legacy_snapshot(self, bundle):
        app = _traced_app(bundle)
        app.handle("GET", "/forecast", None)
        response = app.handle("GET", "/metrics?format=json", None)
        assert response.status == 200
        assert isinstance(response.body, dict)
        assert response.body["counters"]["serve/requests"] == 1

    def test_accept_header_negotiates_json(self, bundle):
        app = _traced_app(bundle)
        response = app.handle(
            "GET", "/metrics", None, {"Accept": "application/json"}
        )
        assert response.status == 200 and "counters" in response.body

    def test_explicit_format_beats_accept_header(self, bundle):
        app = _traced_app(bundle)
        from repro.serve import PlainText

        response = app.handle(
            "GET", "/metrics?format=prometheus", None,
            {"Accept": "application/json"},
        )
        assert isinstance(response.body, PlainText)


class TestTraceTree:
    def test_single_request_trace_spans_http_to_model(self, bundle):
        app = _traced_app(bundle)
        _warm(app)
        assert app.handle("GET", "/forecast", None).status == 200
        spans = {s.name: s for s in app.tracer.finished_spans()}
        assert set(spans) >= {"http", "engine.forecast", "batch_forward",
                              "model_forward"}
        # one trace end to end, parents chaining down the stack
        assert spans["engine.forecast"].trace_id == spans["http"].trace_id
        assert spans["engine.forecast"].parent_id == spans["http"].span_id
        assert spans["batch_forward"].trace_id == spans["http"].trace_id
        assert spans["model_forward"].parent_id == spans["batch_forward"].span_id
        assert spans["engine.forecast"].attributes["cache_hit"] is False

    def test_cache_hit_short_circuits_with_attribute(self, bundle):
        app = _traced_app(bundle)
        _warm(app)
        app.handle("GET", "/forecast", None)
        app.handle("GET", "/forecast", None)
        hits = [s for s in app.tracer.finished_spans()
                if s.name == "engine.forecast" and s.attributes.get("cache_hit")]
        assert len(hits) == 1

    def test_batch_span_links_at_least_two_request_traces(self, bundle):
        """Two concurrent uncached requests fuse into one batch whose
        span is parented into the head request's trace and linked from
        both request traces."""
        app = _traced_app(bundle, max_batch_size=8, max_wait_s=0.25)
        _warm(app)
        app.engine.start()
        try:
            barrier = threading.Barrier(2)
            statuses = []

            def client():
                barrier.wait()
                statuses.append(app.handle("GET", "/forecast", None).status)

            threads = [threading.Thread(target=client) for _ in range(2)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        finally:
            app.engine.stop()
        assert statuses == [200, 200]

        spans = app.tracer.finished_spans()
        batches = [s for s in spans if s.name == "batch_forward"]
        assert len(batches) == 1, "both requests should fuse into one batch"
        batch = batches[0]
        assert batch.attributes["batch_size"] == 2
        assert len(batch.links) == 2
        request_traces = {s.trace_id for s in spans if s.name == "http"}
        assert {link.trace_id for link in batch.links} == request_traces
        assert batch.trace_id in request_traces  # adopted the head trace
        # every queued request got a queue span inside its own trace
        queue_traces = {s.trace_id for s in spans if s.name == "queue"}
        assert queue_traces == request_traces

    def test_http_error_marks_span(self, bundle):
        app = _traced_app(bundle)
        assert app.handle("GET", "/forecast?horizon=999", None).status == 400
        (http_span,) = [s for s in app.tracer.finished_spans()
                        if s.name == "http"]
        assert http_span.status == "error"
        assert http_span.attributes["status"] == 400


class TestHealthzDegradation:
    def test_feed_cut_flips_healthz_to_degraded(self, bundle):
        app = _traced_app(bundle)
        n, d = app.store.num_nodes, app.store.num_features
        length = app.store.input_length
        for step in range(length):
            app.store.observe(step, np.full((n, d), 60.0))
        healthy = app.handle("GET", "/healthz", None).body
        assert healthy["status"] == "ok"
        assert healthy["quality"]["degraded"] is False

        # cut every sensor but node 0 for a full window
        for step in range(length, 2 * length):
            app.store.observe_sensor(step, 0, np.full(d, 60.0))
        degraded = app.handle("GET", "/healthz", None).body
        assert degraded["status"] == "degraded"
        assert degraded["quality"]["degraded"] is True
        assert any("silent" in reason for reason in degraded["quality"]["reasons"])
        assert degraded["sensors"]["lag_steps"][0] == 0
        assert min(degraded["sensors"]["lag_steps"][1:]) >= length

    def test_degradation_visible_in_prometheus_gauges(self, bundle):
        app = _traced_app(bundle)
        n, d = app.store.num_nodes, app.store.num_features
        length = app.store.input_length
        for step in range(length):
            app.store.observe(step, np.full((n, d), 60.0))
        app.handle("GET", "/healthz", None)
        for step in range(length, 2 * length):
            app.store.observe_sensor(step, 0, np.full(d, 60.0))
        response = app.handle("GET", "/metrics", None)
        families = parse_exposition(response.body.body)
        quality = families["repro_quality_missing_rate"]["samples"]
        # EWMA: one degraded inspection moves node 1 by alpha, not to 1.0
        assert quality['repro_quality_missing_rate{node="1"}'] > (
            quality['repro_quality_missing_rate{node="0"}']
        )
        staleness = families["repro_quality_staleness_steps"]["samples"]
        assert staleness['repro_quality_staleness_steps{node="0"}'] == 0.0
        assert staleness['repro_quality_staleness_steps{node="1"}'] == length
        degraded = families["repro_quality_degraded"]["samples"]
        assert degraded["repro_quality_degraded"] == 1.0


class TestTracesEndpoint:
    def test_traces_returns_grouped_spans(self, bundle):
        app = _traced_app(bundle)
        _warm(app)
        app.handle("GET", "/forecast", None)
        response = app.handle("GET", "/traces", None)
        assert response.status == 200
        assert len(response.body["traces"]) == 1
        names = {s["name"] for s in response.body["traces"][0]["spans"]}
        assert "http" in names and "model_forward" in names

    def test_limit_query_parameter(self, bundle):
        app = _traced_app(bundle)
        _warm(app)
        app.handle("GET", "/forecast", None)
        app.handle("GET", "/healthz", None)
        response = app.handle("GET", "/traces?limit=1", None)
        assert len(response.body["traces"]) == 1

    def test_format_trace_renders_server_payload(self, bundle):
        app = _traced_app(bundle)
        _warm(app)
        app.handle("GET", "/forecast", None)
        response = app.handle("GET", "/traces", None)
        text = format_trace(response.body["traces"][0])
        assert "http" in text and "model_forward" in text


class TestTracesCLI:
    def test_pretty_prints_jsonl_export(self, bundle, tmp_path, capsys):
        from repro.cli import main

        app = _traced_app(bundle)
        _warm(app)
        app.handle("GET", "/forecast", None)
        path = tmp_path / "spans.jsonl"
        app.tracer.export_jsonl(str(path))
        assert main(["traces", str(path)]) == 0
        out = capsys.readouterr().out
        assert "trace " in out
        assert "engine.forecast" in out

    def test_limit_flag(self, bundle, tmp_path, capsys):
        from repro.cli import main

        app = _traced_app(bundle)
        _warm(app)
        app.handle("GET", "/forecast", None)
        app.handle("GET", "/healthz", None)
        path = tmp_path / "spans.jsonl"
        app.tracer.export_jsonl(str(path))
        assert main(["traces", str(path), "--limit", "1"]) == 0
        out = capsys.readouterr().out
        assert out.count("trace ") == 1

    def test_fetches_from_live_server(self, bundle, capsys):
        from repro.cli import main

        app = _traced_app(bundle)
        server = make_server(app)
        threading.Thread(target=server.serve_forever, daemon=True).start()
        host, port = server.server_address[:2]
        try:
            _warm(app)
            with urllib.request.urlopen(
                f"http://{host}:{port}/forecast", timeout=30
            ) as response:
                json.load(response)
            assert main(["traces", f"http://{host}:{port}"]) == 0
        finally:
            server.shutdown()
            server.server_close()
            app.engine.stop()
        out = capsys.readouterr().out
        assert "engine.forecast" in out


class TestLoadReportRatio:
    def test_cache_hit_ratio_in_load_report(self, bundle):
        from repro.serve import run_load

        engine = bundle.make_engine(registry=MetricRegistry())
        with engine:
            report = run_load(engine, num_clients=2, requests_per_client=5)
        payload = report.to_json_dict()
        assert set(payload) >= {"latency_ms_p95", "latency_ms_p99"}
        assert set(payload["details"]) >= {"cache_hits", "cache_hit_ratio"}
        assert 0.0 <= payload["details"]["cache_hit_ratio"] <= 1.0
