"""Serve-level resilience behaviour: fallback ladder, shedding, tagging.

Covers the graceful-degradation contract end to end through
``ServeApp.handle`` — degraded answers are tagged (X-Degraded header and
body field), shedding and saturation map to 429 with Retry-After, a dry
ladder maps to 503 with the original cause, and the disabled policy is
bitwise-identical to the resilient one on the happy path.
"""

import json
import threading
import time

import numpy as np
import pytest

from repro.errors import ServeError
from repro.experiments import build_model
from repro.reliability import OPEN, ResiliencePolicy
from repro.serve import (
    Response,
    ServeApp,
    ServeConfig,
    export_bundle,
    load_bundle,
)
from repro.telemetry import MetricRegistry


@pytest.fixture()
def bundle(tiny_ctx, tmp_path):
    model = build_model("FC-LSTM-I", tiny_ctx)
    base = str(tmp_path / "bundle")
    export_bundle(model, "FC-LSTM-I", tiny_ctx, base)
    return load_bundle(base)


def make_app(bundle, **policy_kwargs):
    registry = MetricRegistry()
    config = ServeConfig(resilience=ResiliencePolicy(
        retry_attempts=1, retry_base_delay_s=0.0, retry_max_delay_s=0.0,
        **policy_kwargs,
    ))
    return ServeApp(bundle, registry=registry, config=config), registry


def fill_store(app, value=50.0, steps=None):
    steps = app.store.input_length if steps is None else steps
    for step in range(steps):
        app.store.observe(
            step,
            np.full((app.store.num_nodes, app.store.num_features), value),
        )


def observe_body(app, step, node=0, value=55.0):
    features = [value] * app.store.num_features
    return json.dumps({"step": step, "node": node, "features": features}).encode()


def break_model(app, error=None):
    error = error or ServeError("model down")

    def broken(windows):
        raise error

    app.engine._predict = broken


class TestFallbackLadder:
    def test_window_mean_before_any_success(self, bundle):
        app, _ = make_app(bundle)
        fill_store(app, value=50.0)
        break_model(app)
        response = app.handle("GET", "/forecast", None)
        assert response.status == 200
        assert response.headers["X-Degraded"] == "window_mean"
        assert response.body["degraded"] == "window_mean"
        prediction = np.asarray(response.body["prediction"])
        assert np.allclose(prediction, 50.0)

    def test_stale_after_a_success(self, bundle):
        app, registry = make_app(bundle)
        fill_store(app)
        fresh = app.handle("GET", "/forecast", None)
        assert fresh.status == 200 and "X-Degraded" not in fresh.headers
        # New data bumps the version (cache miss), then the model dies.
        accepted = app.handle(
            "POST", "/observe", observe_body(app, app.store.input_length)
        )
        assert accepted.status == 200 and accepted.body["accepted"]
        break_model(app)
        degraded = app.handle("GET", "/forecast", None)
        assert degraded.status == 200
        assert degraded.headers["X-Degraded"] == "stale"
        assert degraded.body["degraded"] == "stale"
        # Stale really is the previous answer, re-served.
        assert degraded.body["prediction"] == fresh.body["prediction"]
        assert degraded.body["version"] == fresh.body["version"]
        assert registry.counter('serve/fallback{rung="stale"}').value == 1

    def test_stale_serves_shorter_horizons(self, bundle):
        app, _ = make_app(bundle)
        fill_store(app)
        full = app.handle("GET", "/forecast", None)
        app.store.observe_sensor(
            app.store.input_length, 0, [55.0] * app.store.num_features
        )
        break_model(app)
        short = app.handle("GET", "/forecast?horizon=1", None)
        assert short.status == 200
        assert short.headers["X-Degraded"] == "stale"
        assert short.body["prediction"] == full.body["prediction"][:1]

    def test_dry_ladder_maps_to_503_with_cause(self, bundle):
        app, registry = make_app(bundle)
        # No observations, no prior success: every rung is dry.
        break_model(app, ServeError("model down"))
        response = app.handle("GET", "/forecast", None)
        assert response.status == 503
        assert "model down" in response.body["error"]
        assert response.body["cause"] == "ServeError"
        assert int(response.headers["Retry-After"]) >= 1
        assert registry.counter("serve/unavailable").value == 1

    def test_fallback_disabled_surfaces_errors(self, bundle):
        app, _ = make_app(bundle, fallback=False)
        fill_store(app)
        break_model(app)
        response = app.handle("GET", "/forecast", None)
        assert response.status == 503
        assert "X-Degraded" not in response.headers

    def test_degraded_results_never_cached(self, bundle):
        app, _ = make_app(bundle)
        fill_store(app)
        real_predict = app.engine._predict
        break_model(app)
        assert app.handle("GET", "/forecast", None).headers["X-Degraded"]
        # The model recovers; the same version must now be answered fresh.
        app.engine._predict = real_predict
        recovered = app.handle("GET", "/forecast", None)
        assert recovered.status == 200
        assert "X-Degraded" not in recovered.headers


class TestResponseCompat:
    def test_response_tuple_unpacking_removed(self, bundle):
        """A Response is read by attribute, never unpacked as a tuple."""
        app, _ = make_app(bundle)
        response = app.handle("GET", "/healthz", None)
        assert isinstance(response, Response)
        with pytest.raises(TypeError, match="non-iterable"):
            status, payload = response
        with pytest.raises(TypeError, match="not iterable"):
            tuple(response)

    def test_headers_default_empty(self):
        assert Response(200, {"ok": True}).headers == {}


class TestSheddingAndSaturation:
    def test_queue_full_sheds_with_429(self, bundle):
        app, registry = make_app(bundle, max_queue_depth=1, deadline_s=None)
        fill_store(app)
        release = threading.Event()
        entered = threading.Event()
        real_predict = app.engine._predict

        def slow_predict(windows):
            entered.set()
            release.wait(10.0)
            return real_predict(windows)

        app.engine._predict = slow_predict
        app.engine.start()
        try:
            waiters = [
                threading.Thread(
                    target=lambda: app.handle("GET", "/forecast", None),
                    daemon=True,
                )
                for _ in range(2)
            ]
            waiters[0].start()
            assert entered.wait(5.0)  # dispatcher busy inside the model
            waiters[1].start()  # occupies the single queue slot
            deadline = time.time() + 5.0
            while app.engine.queue_depth < 1 and time.time() < deadline:
                time.sleep(0.005)
            assert app.engine.saturated

            shed = app.handle("GET", "/forecast", None)
            assert shed.status == 429
            assert "Retry-After" in shed.headers
            assert registry.counter("serve/shed").value == 1

            rejected = app.handle("POST", "/observe", observe_body(app, 99))
            assert rejected.status == 429
            assert "Retry-After" in rejected.headers
            assert registry.counter("serve/observe_rejected").value == 1
            assert app.store.newest_step < 99  # nothing landed
        finally:
            release.set()
            for thread in waiters:
                thread.join(timeout=10.0)
            app.engine.stop()

    def test_unbounded_queue_never_saturates(self, bundle):
        app, _ = make_app(bundle, max_queue_depth=0)
        assert not app.engine.saturated
        assert app.handle("POST", "/observe", observe_body(app, 0)).status == 200


class TestDuplicateObservations:
    def test_duplicate_is_idempotent_and_counted(self, bundle):
        app, registry = make_app(bundle)
        body = observe_body(app, 3, node=1, value=42.0)
        first = app.handle("POST", "/observe", body)
        assert first.status == 200 and first.body["accepted"]
        version = first.body["version"]
        second = app.handle("POST", "/observe", body)
        assert second.status == 200 and second.body["accepted"]
        assert second.body["version"] == version  # no version churn
        assert registry.counter("serve/observe_duplicates").value == 1
        assert app.store.observations == 1

    def test_conflicting_redelivery_is_not_a_duplicate(self, bundle):
        app, registry = make_app(bundle)
        app.handle("POST", "/observe", observe_body(app, 3, node=1, value=42.0))
        redelivered = app.handle(
            "POST", "/observe", observe_body(app, 3, node=1, value=43.0)
        )
        assert redelivered.status == 200 and redelivered.body["accepted"]
        assert registry.counter("serve/observe_duplicates").value == 0
        assert app.store.observations == 2


class TestHealthAndMetrics:
    def test_healthz_reports_reliability(self, bundle):
        app, _ = make_app(bundle)
        fill_store(app)
        break_model(app)
        app.handle("GET", "/forecast", None)  # one degraded answer
        response = app.handle("GET", "/healthz", None)
        assert response.status == 200
        reliability = response.body["reliability"]
        assert reliability["degraded_total"] == 1
        assert reliability["fallback_hit_rate"] == 1.0
        assert reliability["breaker"]["state"] in ("closed", "open", "half_open")
        assert reliability["policy"]["fallback"] is True

    def test_open_breaker_degrades_health(self, bundle):
        app, _ = make_app(bundle)
        breaker = app.engine.breaker
        while breaker.state != OPEN:
            breaker.record_failure()
        response = app.handle("GET", "/healthz", None)
        assert response.status == 200
        assert response.body["status"] == "degraded"
        assert response.body["reliability"]["breaker"]["state"] == OPEN

    def test_prometheus_exposes_breaker_and_fallback_series(self, bundle):
        app, _ = make_app(bundle)
        fill_store(app)
        break_model(app)
        app.handle("GET", "/forecast", None)
        response = app.handle("GET", "/metrics", None)
        text = response.body.body
        assert 'reliability_breaker_state{name="model"}' in text
        assert 'serve_fallback_total{rung="window_mean"}' in text


class TestDisabledPolicyIdentity:
    def test_disabled_policy_is_bitwise_identical(self, bundle):
        """``ResiliencePolicy.disabled()`` must reproduce the pre-policy
        serving numbers exactly — resilience is free when nothing fails."""
        resilient, _ = make_app(bundle)
        plain = ServeApp(
            bundle,
            registry=MetricRegistry(),
            config=ServeConfig(resilience=ResiliencePolicy.disabled()),
        )
        for app in (resilient, plain):
            fill_store(app, value=47.0)
        a = resilient.handle("GET", "/forecast", None)
        b = plain.handle("GET", "/forecast", None)
        assert a.status == b.status == 200
        assert np.array_equal(
            np.asarray(a.body["prediction"]), np.asarray(b.body["prediction"])
        )
        assert "X-Degraded" not in a.headers and "X-Degraded" not in b.headers
