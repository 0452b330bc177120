"""Tests for the HTTP serving layer (repro.serve.http)."""

import json
import socket
import threading
import urllib.request

import numpy as np
import pytest

from repro.experiments import build_model, default_trainer_config
from repro.serve import ServeApp, export_bundle, load_bundle, make_server
from repro.telemetry import MetricRegistry
from repro.training import Trainer


@pytest.fixture()
def app(tiny_ctx, tmp_path):
    model = build_model("FC-LSTM-I", tiny_ctx)
    base = str(tmp_path / "bundle")
    export_bundle(model, "FC-LSTM-I", tiny_ctx, base)
    bundle = load_bundle(base)
    return ServeApp(bundle, registry=MetricRegistry())


@pytest.fixture()
def server(app):
    server = make_server(app)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    host, port = server.server_address[:2]
    yield f"http://{host}:{port}", app
    server.shutdown()
    server.server_close()
    app.engine.stop()


def _get(base, path):
    with urllib.request.urlopen(base + path, timeout=30) as response:
        return response.status, json.loads(response.read())


def _post(base, path, payload):
    request = urllib.request.Request(
        base + path,
        data=json.dumps(payload).encode("utf-8"),
        headers={"Content-Type": "application/json"},
    )
    with urllib.request.urlopen(request, timeout=30) as response:
        return response.status, json.loads(response.read())


class TestRouting:
    """App-level dispatch without a socket."""

    def test_unknown_route_404(self, app):
        response = app.handle("GET", "/nope", None)
        assert response.status == 404 and "no route" in response.body["error"]

    def test_bad_json_400(self, app):
        response = app.handle("POST", "/observe", b"{not json")
        assert response.status == 400
        assert "invalid JSON" in response.body["error"]

    def test_non_object_body_400(self, app):
        response = app.handle("POST", "/observe", b"[1, 2]")
        assert response.status == 400
        assert "JSON object" in response.body["error"]

    def test_observation_without_step_400(self, app):
        response = app.handle(
            "POST", "/observe", json.dumps({"values": [[1.0]]}).encode()
        )
        assert response.status == 400 and "step" in response.body["error"]

    def test_observation_without_values_400(self, app):
        response = app.handle(
            "POST", "/observe", json.dumps({"step": 0}).encode()
        )
        assert response.status == 400 and "values" in response.body["error"]

    def test_wrong_shape_400_not_crash(self, app):
        response = app.handle(
            "POST", "/observe",
            json.dumps({"step": 0, "values": [[1.0, 2.0]]}).encode(),
        )
        assert response.status == 400
        assert "values must be" in response.body["error"]

    def test_bad_horizon_400(self, app):
        response = app.handle("GET", "/forecast?horizon=999", None)
        assert response.status == 400 and "horizon" in response.body["error"]


class TestEndpoints:
    def test_healthz_reports_state(self, server):
        base, app = server
        status, payload = _get(base, "/healthz")
        assert status == 200
        assert payload["status"] == "ok"
        assert payload["model"] == "FC-LSTM-I"
        assert payload["warm"] is False
        assert payload["input_length"] == app.bundle.input_length

    def test_observe_then_forecast_round_trip(self, server):
        base, app = server
        n, d = app.bundle.num_nodes, app.bundle.num_features
        rng = np.random.default_rng(0)
        for step in range(app.bundle.input_length):
            status, payload = _post(base, "/observe", {
                "step": step,
                "values": rng.normal(60.0, 5.0, size=(n, d)).tolist(),
            })
            assert status == 200 and payload["accepted"]
        status, health = _get(base, "/healthz")
        assert health["warm"] is True

        status, forecast = _get(base, "/forecast")
        assert status == 200
        prediction = np.asarray(forecast["prediction"])
        assert prediction.shape == (app.bundle.output_length, n, d)
        assert np.isfinite(prediction).all()
        assert forecast["cached"] is False

    def test_per_sensor_observation(self, server):
        base, app = server
        status, payload = _post(base, "/observe", {
            "step": 0, "node": 1,
            "features": [50.0] * app.bundle.num_features,
        })
        assert status == 200 and payload["accepted"]

    def test_stale_observation_reported_not_crashed(self, server):
        base, app = server
        n, d = app.bundle.num_nodes, app.bundle.num_features
        values = np.full((n, d), 60.0).tolist()
        _post(base, "/observe", {"step": 100, "values": values})
        status, payload = _post(base, "/observe", {"step": 1, "values": values})
        assert status == 200 and payload["accepted"] is False

    def test_metrics_exposes_serve_counters(self, server):
        base, app = server
        _get(base, "/forecast")
        status, metrics = _get(base, "/metrics?format=json")
        assert status == 200
        assert metrics["counters"]["serve/requests"] >= 1
        assert "serve/latency_ms" in metrics["histograms"]


class TestHTTPOfflineParity:
    def test_http_forecast_matches_trainer_predict(self, tiny_ctx, tmp_path):
        """End-to-end acceptance: bundle → HTTP → forecast equals the
        offline Trainer.predict path on the same window to ≤ 1e-6."""
        model = build_model("GCN-LSTM", tiny_ctx)
        base = str(tmp_path / "parity")
        export_bundle(model, "GCN-LSTM", tiny_ctx, base)
        bundle = load_bundle(base)
        app = ServeApp(bundle, registry=MetricRegistry())
        server = make_server(app)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        host, port = server.server_address[:2]
        url = f"http://{host}:{port}"
        try:
            _train_u, _val_u, test_u = tiny_ctx.corrupted.chronological_split()
            first_step = int(test_u.steps_of_day[0])
            for offset in range(bundle.input_length):
                status, payload = _post(url, "/observe", {
                    "step": first_step + offset,
                    "values": test_u.data[offset].tolist(),
                    "mask": test_u.mask[offset].tolist(),
                })
                assert status == 200 and payload["accepted"]
            _status, forecast = _get(url, "/forecast")
            online = np.asarray(forecast["prediction"])

            trainer = Trainer(bundle.model, default_trainer_config(max_epochs=1))
            offline_scaled = trainer.predict(tiny_ctx.test_windows)[0]
            offline = tiny_ctx.scaler.inverse_transform(offline_scaled)
            np.testing.assert_allclose(online, offline, atol=1e-6)
        finally:
            server.shutdown()
            server.server_close()
            app.engine.stop()


class TestContentLength:
    """A malformed Content-Length gets a 400 JSON answer instead of a
    dropped connection (non-integer) or a handler thread blocked in
    ``rfile.read`` (negative)."""

    @pytest.mark.parametrize("value", ["abc", "-5"])
    def test_bad_content_length_answered_400(self, server, value):
        base, _ = server
        host, port = base.rsplit("/", 1)[-1].split(":")
        request = (
            "POST /observe HTTP/1.1\r\nHost: test\r\n"
            f"Content-Length: {value}\r\n\r\n"
        ).encode()
        raw = b""
        with socket.create_connection((host, int(port)), timeout=5) as sock:
            sock.sendall(request)
            while chunk := sock.recv(4096):
                raw += chunk
        head, _, body = raw.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 400"), raw
        assert "Content-Length" in json.loads(body)["error"]
