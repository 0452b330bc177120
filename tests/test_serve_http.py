"""Tests for the HTTP serving layer (repro.serve.http)."""

import http.client
import json
import os
import socket
import subprocess
import sys
import textwrap
import threading
import time
import urllib.request

import numpy as np
import pytest

import repro
from repro.experiments import build_model, default_trainer_config
from repro.serve import ServeApp, export_bundle, load_bundle, make_demo_bundle, make_server
from repro.serve import http as serve_http
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


def _connect(base: str, nodelay: bool = False) -> socket.socket:
    """A raw client socket; the 5 s timeout turns a stalled server into a
    failure instead of a hang."""
    host, port = base.rsplit("/", 1)[-1].split(":")
    sock = socket.create_connection((host, int(port)), timeout=5)
    if nodelay:
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    return sock


def _exchange(sock: socket.socket, request: bytes) -> tuple[int, dict, bytes]:
    """Send one request and read its response: (status, headers, body)."""
    sock.sendall(request)
    response = http.client.HTTPResponse(sock)
    response.begin()
    return response.status, dict(response.getheaders()), response.read()


def _post_request(path: str, payload: dict) -> bytes:
    body = json.dumps(payload).encode()
    return (
        f"POST {path} HTTP/1.1\r\nHost: test\r\n"
        f"Content-Type: application/json\r\nContent-Length: {len(body)}\r\n\r\n"
    ).encode() + body


def _get_request(path: str) -> bytes:
    return f"GET {path} HTTP/1.1\r\nHost: test\r\n\r\n".encode()


def _at_eof(sock: socket.socket) -> bool:
    try:
        return sock.recv(1) == b""
    except ConnectionResetError:
        return True


@pytest.fixture()
def wire(app):
    """A server whose handlers record every response write and the
    accepted socket's TCP_NODELAY setting."""
    server = make_server(app)
    record = {"writes": [], "nodelay": []}

    class Recording(server.RequestHandlerClass):
        def setup(self):
            super().setup()
            record["nodelay"].append(
                self.connection.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY)
            )
            write = self.wfile.write

            def counted(data):
                record["writes"].append(bytes(data))
                return write(data)

            self.wfile.write = counted

    server.RequestHandlerClass = Recording
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    host, port = server.server_address[:2]
    yield f"http://{host}:{port}", app, record
    server.shutdown()
    server.server_close()
    app.engine.stop()


class TestWire:
    """Each response leaves in one write on a TCP_NODELAY socket, so no
    part of it waits on the client's delayed ACK."""

    @pytest.mark.parametrize("request_bytes, status, closes", [
        (_get_request("/healthz"), 200, False),
        (b"POST /observe HTTP/1.1\r\nHost: test\r\nContent-Length: 9\r\n\r\n{not json", 400, False),
        (b"POST /observe HTTP/1.1\r\nHost: test\r\nContent-Length: abc\r\n\r\n", 400, True),
    ], ids=["200", "400", "connection-close"])
    def test_one_write_per_response(self, wire, request_bytes, status, closes):
        base, _, record = wire
        with _connect(base) as sock:
            got, headers, body = _exchange(sock, request_bytes)
            assert got == status
            assert (headers.get("Connection") == "close") is closes
            if closes:
                assert _at_eof(sock)
        assert len(record["writes"]) == 1, record["writes"]
        (written,) = record["writes"]
        assert written.startswith(f"HTTP/1.1 {status} ".encode())
        assert written.endswith(b"\r\n\r\n" + body)

    def test_accepted_socket_has_nodelay(self, wire):
        base, _, record = wire
        with _connect(base) as sock:
            assert _exchange(sock, _get_request("/healthz"))[0] == 200
        assert record["nodelay"] and all(record["nodelay"])

    def test_back_to_back_requests_on_one_connection(self, wire):
        """A stalled server answers each reused-connection request only
        after the client's ~40 ms delayed ACK."""
        base, app, _ = wire
        n, d = app.bundle.num_nodes, app.bundle.num_features
        values = np.full((n, d), 60.0).tolist()
        with _connect(base, nodelay=True) as sock:
            # warm the window and compile the forecast plan untimed
            for step in range(app.bundle.input_length):
                status, _, _ = _exchange(
                    sock, _post_request("/observe", {"step": step, "values": values})
                )
                assert status == 200
            assert _exchange(sock, _get_request("/forecast"))[0] == 200
            elapsed_ms = []
            for step in range(app.bundle.input_length, app.bundle.input_length + 20):
                for request in (
                    _post_request("/observe", {"step": step, "values": values}),
                    _get_request("/forecast"),
                ):
                    began = time.perf_counter()
                    status, _, _ = _exchange(sock, request)
                    elapsed_ms.append((time.perf_counter() - began) * 1e3)
                    assert status == 200
        assert max(elapsed_ms) < 20.0, elapsed_ms


class TestBodyGuards:
    """The body read is bounded in size and time; idle keep-alive
    connections are not."""

    def test_overstated_content_length_answered_408(self, server, monkeypatch):
        monkeypatch.setattr(serve_http, "BODY_READ_TIMEOUT_S", 0.2)
        base, _ = server
        with _connect(base) as sock:
            began = time.perf_counter()
            status, headers, body = _exchange(
                sock,
                b"POST /observe HTTP/1.1\r\nHost: test\r\n"
                b"Content-Length: 100\r\n\r\n{\"step\": 0}",
            )
            assert status == 408 and headers["Connection"] == "close"
            assert "not received" in json.loads(body)["error"]
            assert time.perf_counter() - began < 2.0
            assert _at_eof(sock)

    def test_oversized_body_answered_413_unread(self, server):
        base, _ = server
        length = serve_http.MAX_BODY_BYTES + 1
        with _connect(base) as sock:
            status, headers, body = _exchange(
                sock,
                f"POST /observe HTTP/1.1\r\nHost: test\r\n"
                f"Content-Length: {length}\r\n\r\n".encode(),
            )
            assert status == 413 and headers["Connection"] == "close"
            assert str(serve_http.MAX_BODY_BYTES) in json.loads(body)["error"]
            assert _at_eof(sock)

    def test_idle_keep_alive_outlives_body_timeout(self, server, monkeypatch):
        monkeypatch.setattr(serve_http, "BODY_READ_TIMEOUT_S", 0.1)
        base, app = server
        reading = {"step": 0, "node": 0, "features": [50.0] * app.bundle.num_features}
        with _connect(base) as sock:
            assert _exchange(sock, _get_request("/healthz"))[0] == 200
            time.sleep(0.3)
            status, _, body = _exchange(sock, _post_request("/observe", reading))
            assert status == 200, body


class TestLeanServingProcess:
    def test_dense_serving_imports_neither_networkx_nor_scipy_sparse(self, tmp_path):
        """networkx (~18 MB) and scipy.sparse (~22 MB) load only where a
        graph is generated or a sparse basis is built."""
        path = str(tmp_path / "demo")
        make_demo_bundle(path, num_nodes=16)
        script = textwrap.dedent(f"""
            import json, sys
            import numpy as np
            import repro.cli
            from repro.serve import ServeApp, load_bundle
            from repro.telemetry import MetricRegistry

            bundle = load_bundle({path!r})
            app = ServeApp(bundle, registry=MetricRegistry())
            app.pool.start()
            values = np.full((bundle.num_nodes, bundle.num_features), 60.0).tolist()
            for step in range(bundle.input_length):
                body = json.dumps({{"step": step, "values": values}}).encode()
                assert app.handle("POST", "/observe", body).status == 200
            assert app.handle("GET", "/forecast", None).status == 200
            app.pool.stop()
            print(json.dumps([m for m in ("networkx", "scipy.sparse") if m in sys.modules]))
        """)
        src = os.path.dirname(os.path.dirname(repro.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        done = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, text=True,
            timeout=120,
        )
        assert done.returncode == 0, done.stderr
        assert json.loads(done.stdout.splitlines()[-1]) == []
