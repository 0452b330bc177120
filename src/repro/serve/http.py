"""Stdlib HTTP front-end for the forecast engine fleet.

A deliberately small JSON API on :class:`http.server.ThreadingHTTPServer`
(no web framework — the repo stays dependency-free):

* ``POST /observe`` — ingest a reading. Body is either a full-network
  observation ``{"step": 17, "values": [[...], ...], "mask": [[...]]}``
  (``mask`` optional) or a single sensor ``{"step": 17, "node": 3,
  "features": [61.2]}``.
* ``GET /forecast?horizon=12`` — forecast from the current state, in
  original units; micro-batched with concurrent requests, quota-checked
  and canary-routed when the tenant has a rollout in flight.
* ``GET /healthz`` — liveness plus state summary (warm-up, version) and
  the data-quality verdict; ``status`` flips to ``"degraded"`` when any
  sensor trips a :class:`~repro.telemetry.QualityThresholds` limit.
* ``GET /metrics`` — Prometheus text exposition of the telemetry
  registry (content-type ``text/plain; version=0.0.4``); append
  ``?format=json`` (or send ``Accept: application/json``) for the
  legacy JSON snapshot. Fleet series carry a ``tenant`` label.
* ``GET /traces?limit=10`` — recent finished traces from the tracer
  buffer, grouped per trace (pretty-print them with ``repro traces``).
* ``GET /slo`` — the SLO engine's snapshot: per-objective burn rates,
  error-budget remaining, active and recent burn events, plus any
  in-flight canary's SLO tracker (render with ``repro slo``).
* ``GET /profile`` — the continuous profiler's collapsed-stack flame
  data (``?format=json`` for the full snapshot); 404 while
  ``profile_hz`` is 0.
* ``GET /tenants`` — one summary per tenant: bundle, version, warm-up,
  quota counters.
* ``GET /rollouts`` — live shadow/canary state per tenant;
  ``POST /rollouts`` with ``{"tenant": ..., "action": "rollback" |
  "promote"}`` drives a rollout by hand.

**Tenant routing.** Requests address a tenant three ways, most specific
first: a ``/t/<tenant>/...`` path prefix, an ``X-Tenant`` header, or a
``?tenant=`` query parameter. With none of the three the request lands
on the ``default`` tenant (a single-tenant pool's only tenant is the
implicit default). Unknown tenants are a 404.

Every request runs under an ``http <METHOD> <route>`` root span, so the
trace tree of a forecast shows HTTP → engine.forecast → queue →
batch_forward → model_forward in one place.

Threading model: each connection gets a handler thread (the stdlib
mixin); handlers funnel forecasts through the pool's routing and each
engine's batching queue, and observations through the store's lock.

Resilience surface (see ``docs/RELIABILITY.md``): endpoints return
:class:`Response` objects so degraded answers can carry ``X-Degraded``
and ``Retry-After`` headers; resilience errors map onto HTTP —
:class:`~repro.errors.QuotaExceeded` and any other
:class:`~repro.errors.Overloaded` → 429, any other
:class:`~repro.errors.ServeError` (open breaker, blown deadline, dry
fallback ladder) → 503, all with ``Retry-After``. Tuning arrives as one
:class:`~repro.serve.config.ServeConfig` per tenant.
"""

from __future__ import annotations

import json
import math
import threading
import time
from dataclasses import dataclass, field
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import parse_qs, urlparse

import numpy as np

from ..autodiff import default_dtype
from ..errors import (
    CircuitOpen,
    ConfigError,
    DataError,
    Overloaded,
    QuotaExceeded,
    ServeError,
    StateError,
)
from ..reliability import OPEN
from ..telemetry import (
    PROMETHEUS_CONTENT_TYPE,
    ContinuousProfiler,
    MetricRegistry,
    QualityMonitor,
    SLOEngine,
    Tracer,
    default_serving_objectives,
    extract_trace_context,
    get_registry,
    get_tracer,
    render_prometheus,
)
from .artifact import ModelBundle
from .config import DEFAULT_TENANT, ServeConfig
from .engine import ForecastEngine
from .fleet import EnginePool
from .state import StateStore

__all__ = ["PlainText", "Response", "ServeApp", "bind_http", "make_server", "run_server"]


@dataclass(frozen=True)
class PlainText:
    """A non-JSON response body; ``handle`` returns it where it would a dict."""

    body: str
    content_type: str = "text/plain; charset=utf-8"


@dataclass(frozen=True)
class Response:
    """One HTTP response: status, body and response headers.

    Degraded and rejected responses set ``X-Degraded`` / ``Retry-After``.
    """

    status: int
    body: dict | PlainText
    headers: dict = field(default_factory=dict)


class ServeApp:
    """Routes requests onto a pool of per-tenant stores and engines.

    Two construction paths:

    * ``ServeApp(bundle, config=ServeConfig(...))`` — the single-model
      setup: builds a one-tenant :class:`~repro.serve.fleet.EnginePool`
      whose ``default`` tenant keeps the unlabelled metric names, so
      responses and ``/metrics`` are byte-identical to the pre-fleet
      server.
    * ``ServeApp(pool=pool)`` — adopt a pre-built multi-tenant pool
      (see :func:`~repro.serve.fleet.build_pool`).
    """

    def __init__(
        self,
        bundle: ModelBundle | None = None,
        store: StateStore | None = None,
        engine: ForecastEngine | None = None,
        registry: MetricRegistry | None = None,
        tracer: Tracer | None = None,
        quality: QualityMonitor | None = None,
        config: ServeConfig | None = None,
        pool: EnginePool | None = None,
        slo: SLOEngine | None = None,
    ):
        if pool is not None:
            if bundle is not None or store is not None or engine is not None:
                raise TypeError(
                    "ServeApp(pool=...) adopts the pool's runtimes; do not "
                    "also pass bundle/store/engine"
                )
            self.pool = pool
            self.registry = pool.registry
            self.tracer = pool.tracer
            self.config = config if config is not None else ServeConfig()
        else:
            if bundle is None:
                raise TypeError("ServeApp() needs a bundle or a pool")
            config = config if config is not None else ServeConfig()
            self.config = config
            self.registry = registry if registry is not None else get_registry()
            if tracer is not None:
                self.tracer = tracer
            elif config.trace_sample > 0:
                # Honour the config like ShardApp/ClusterRouter do; the
                # zero-sampled global tracer stays the default otherwise.
                self.tracer = Tracer(
                    sample_rate=config.trace_sample,
                    export_path=config.trace_export,
                    service="serve",
                )
            else:
                self.tracer = get_tracer()
            if engine is not None and store is not None and engine.store is not store:
                raise ValueError("engine and app must share one state store")
            if engine is not None and store is None:
                store = engine.store
            self.pool = EnginePool(registry=self.registry, tracer=self.tracer)
            # Empty labels + breaker name "model": the default tenant of a
            # single-bundle app keeps the pre-fleet metric series names.
            self.pool.add_tenant(
                DEFAULT_TENANT,
                bundle,
                config=config,
                labels={},
                engine_name="model",
                store=store,
                engine=engine,
                monitor=quality,
            )
        if slo is not None:
            self.slo: SLOEngine | None = slo
        elif self.config.slo_enabled:
            self.slo = SLOEngine(
                default_serving_objectives(latency_ms=self.config.slo_latency_ms)
            )
        else:
            self.slo = None
        self.profiler: ContinuousProfiler | None = None
        if self.config.profile_hz > 0:
            self.profiler = ContinuousProfiler(
                interval_s=1.0 / self.config.profile_hz, registry=self.registry
            ).start()

    def close(self) -> None:
        """Stop background observers (the continuous profiler)."""
        if self.profiler is not None:
            self.profiler.stop()

    # ------------------------------------------------------------------
    # Default-tenant aliases: the chaos soak, the load generator and the
    # single-model tests address the app as if it held one engine.
    # ------------------------------------------------------------------
    def _default_name(self) -> str | None:
        tenants = self.pool.tenants()
        if DEFAULT_TENANT in tenants:
            return DEFAULT_TENANT
        if len(tenants) == 1:
            return tenants[0]
        return None

    def _runtime(self, tenant: str):
        return self.pool.runtime(tenant)

    @property
    def bundle(self) -> ModelBundle:
        return self._runtime(self._default_name()).bundle

    @property
    def store(self) -> StateStore:
        return self._runtime(self._default_name()).store

    @property
    def engine(self) -> ForecastEngine:
        return self._runtime(self._default_name()).engine

    @property
    def quality(self) -> QualityMonitor:
        return self._runtime(self._default_name()).monitor

    # ------------------------------------------------------------------
    # Endpoint bodies: return Response objects.
    # ------------------------------------------------------------------
    def _inspect_quality(self, runtime):
        """Refresh the tenant's quality monitor from its live window."""
        report = runtime.monitor.update(runtime.store.window(), store=runtime.store)
        if self.slo is not None:
            self.slo.record_quality(report)
        return report

    def _retry_after(self, runtime, error: BaseException | None = None) -> dict:
        """``Retry-After`` header for rejected/unavailable responses."""
        engine = runtime.engine
        after = engine.policy.retry_after_s
        if isinstance(error, QuotaExceeded) and runtime.quota is not None:
            after = max(after, runtime.quota.retry_after_s)
        if isinstance(error, CircuitOpen) and engine.breaker is not None:
            after = max(after, engine.breaker.snapshot()["open_remaining_s"])
        return {"Retry-After": str(max(1, math.ceil(after)))}

    def healthz(self, tenant: str) -> Response:
        runtime = self._runtime(tenant)
        report = self._inspect_quality(runtime)
        engine = runtime.engine
        reliability = engine.reliability_snapshot()
        requests = self.registry.counter(engine._m("serve/requests")).value
        reliability["fallback_hit_rate"] = (
            reliability["degraded_total"] / requests if requests else 0.0
        )
        breaker = reliability["breaker"]
        breaker_open = breaker is not None and breaker["state"] == OPEN
        body = {
            "status": "degraded" if (report.degraded or breaker_open) else "ok",
            "model": runtime.bundle.model_name,
            "num_nodes": runtime.bundle.num_nodes,
            "num_features": runtime.bundle.num_features,
            "input_length": runtime.bundle.input_length,
            "output_length": runtime.bundle.output_length,
            "warm": runtime.store.warm,
            "version": runtime.store.version,
            "newest_step": runtime.store.newest_step,
            "observations": runtime.store.observations,
            "quality": report.to_json_dict(),
            "sensors": runtime.store.sensor_summary(),
            "reliability": reliability,
        }
        if len(self.pool) > 1:
            body["tenant"] = runtime.name
            body["tenants"] = self.pool.tenants()
        return Response(200, body)

    def metrics(
        self, as_json: bool = False, exemplars: bool | None = None
    ) -> Response:
        for name in self.pool.tenants():
            runtime = self._runtime(name)
            self._inspect_quality(runtime)
            runtime.engine.reliability_snapshot()  # refresh breaker gauges
        if self.slo is not None:
            self.slo.publish(self.registry)
        if as_json:
            return Response(200, self.registry.snapshot())
        if exemplars is None:
            exemplars = self.config.exemplars
        return Response(200, PlainText(
            body=render_prometheus(self.registry, exemplars=exemplars),
            content_type=PROMETHEUS_CONTENT_TYPE,
        ))

    def traces(self, limit: int | None = None) -> Response:
        return Response(200, {"traces": self.tracer.traces(limit=limit)})

    def slo_status(self) -> Response:
        if self.slo is None:
            return Response(
                404, {"error": "SLO engine disabled; enable slo_enabled"}
            )
        self.slo.publish(self.registry)
        body = {"slo": self.slo.snapshot()}
        canaries = self.pool.canary_slo_snapshots()
        if canaries:
            body["canaries"] = canaries
        return Response(200, body)

    def profile(self, as_json: bool = False) -> Response:
        if self.profiler is None:
            return Response(
                404, {"error": "continuous profiler off; set profile_hz > 0"}
            )
        if as_json:
            return Response(200, self.profiler.snapshot())
        return Response(200, PlainText(self.profiler.collapsed()))

    def tenants(self) -> Response:
        return Response(200, {"tenants": self.pool.tenants_snapshot()})

    def rollouts(self) -> Response:
        return Response(200, {"rollouts": self.pool.rollouts_snapshot()})

    def rollout_action(self, payload: dict) -> Response:
        tenant = payload.get("tenant")
        action = payload.get("action")
        if not tenant or action not in ("rollback", "promote"):
            return Response(400, {
                "error": "rollout action body needs 'tenant' and 'action' "
                "('rollback' or 'promote')"
            })
        if action == "rollback":
            snapshot = self.pool.rollback_canary(
                tenant, reason=payload.get("reason", "manual rollback via API")
            )
        else:
            snapshot = self.pool.promote_canary(tenant)
        return Response(200, {"tenant": tenant, "canary": snapshot})

    def observe(self, payload: dict, tenant: str) -> Response:
        runtime = self._runtime(tenant)
        if runtime.engine.saturated:
            # Reject-with-backoff: while the forecast queue is drowning,
            # state churn (each accepted observation invalidates the
            # forecast cache) only deepens the hole.
            self.registry.counter(runtime.engine._m("serve/observe_rejected")).inc()
            return Response(
                429,
                {"error": "server saturated; back off and retry"},
                self._retry_after(runtime),
            )
        if "step" not in payload:
            return Response(400, {"error": "observation needs an integer 'step'"})
        step = int(payload["step"])
        if "node" in payload:
            features = payload.get("features", payload.get("value"))
            if features is None:
                return Response(
                    400, {"error": "per-sensor observation needs 'features'"}
                )
            accepted = self.pool.observe_sensor(
                tenant, step, int(payload["node"]),
                np.asarray(features, dtype=default_dtype()),
            )
        elif "values" in payload:
            values = np.asarray(payload["values"], dtype=default_dtype())
            if values.ndim == 1 and runtime.store.num_features == 1:
                values = values[:, None]
            mask = payload.get("mask")
            if mask is not None:
                mask = np.asarray(mask, dtype=default_dtype())
                if mask.ndim == 1 and runtime.store.num_features == 1:
                    mask = mask[:, None]
            accepted = self.pool.observe(tenant, step, values, mask)
        else:
            return Response(
                400, {"error": "observation needs 'values' or 'node'+'features'"}
            )
        return Response(200, {
            "accepted": accepted,
            "version": runtime.store.version,
            "newest_step": runtime.store.newest_step,
        })

    def forecast(self, horizon: int | None, tenant: str) -> Response:
        result = self.pool.forecast(tenant, horizon=horizon)
        headers = {"X-Degraded": result.degraded} if result.degraded else {}
        return Response(200, result.to_json_dict(), headers)

    # ------------------------------------------------------------------
    @staticmethod
    def _wants_json(query: dict, headers: dict | None) -> bool:
        fmt = query.get("format", [""])[0].lower()
        if fmt:
            return fmt == "json"
        accept = (headers or {}).get("Accept", "")
        return "application/json" in accept

    def _resolve_tenant(
        self, route: str, query: dict, headers: dict | None
    ) -> tuple[str | None, str]:
        """(tenant, remaining route); path > header > query > default."""
        if route == "/t" or route.startswith("/t/"):
            parts = route.split("/", 3)  # ['', 't', tenant, rest?]
            tenant = parts[2] if len(parts) > 2 and parts[2] else None
            rest = "/" + parts[3] if len(parts) > 3 else "/"
            return tenant, rest.rstrip("/") or "/"
        header_tenant = (headers or {}).get("X-Tenant")
        if header_tenant:
            return header_tenant, route
        query_tenant = query.get("tenant", [""])[0]
        if query_tenant:
            return query_tenant, route
        return self._default_name(), route

    #: meta routes observed span-free: the router fans /metrics and
    #: /traces scrapes to every worker at sample rate 1.0, and tracing
    #: those fetches would flood the very buffers they read.
    _UNTRACED_ROUTES = frozenset({"/metrics", "/traces", "/slo", "/profile"})

    def handle(
        self,
        method: str,
        path: str,
        body: bytes | None,
        headers: dict | None = None,
    ) -> Response:
        """Dispatch one request; exceptions become JSON error responses."""
        parsed = urlparse(path)
        route = parsed.path.rstrip("/") or "/"
        if "/" + route.rsplit("/", 1)[-1] in self._UNTRACED_ROUTES:
            return self._route(method, route, parsed.query, body, headers)
        # Parent precedence: an in-process caller (the cluster shard's
        # wrapping span) wins over a traceparent header; with neither —
        # or a malformed header — this span starts a fresh root trace.
        parent = Tracer.current_context()
        if parent is None:
            parent = extract_trace_context(headers or {})
        began = time.perf_counter()
        with self.tracer.span(
            "http",
            parent=parent,
            attributes={"method": method, "route": route},
        ) as span:
            response = self._route(method, route, parsed.query, body, headers)
            span.set_attribute("status", response.status)
            if response.status >= 400:
                span.status = "error"
        if self.slo is not None and route.split("/")[-1] in ("forecast", "observe"):
            self.slo.record_request(
                response.status,
                latency_ms=(time.perf_counter() - began) * 1e3,
                degraded=bool(response.headers.get("X-Degraded")),
            )
        return response

    def _parse_json(self, body: bytes | None) -> dict | Response:
        try:
            payload = json.loads(body or b"")
        except json.JSONDecodeError as error:
            return Response(400, {"error": f"invalid JSON body: {error}"})
        if not isinstance(payload, dict):
            return Response(400, {"error": "request body must be a JSON object"})
        return payload

    def _route(
        self,
        method: str,
        route: str,
        query_string: str,
        body: bytes | None,
        headers: dict | None,
    ) -> Response:
        query = parse_qs(query_string)
        tenant, route = self._resolve_tenant(route, query, headers)
        runtime = None
        try:
            if tenant is not None:
                try:
                    runtime = self.pool.runtime(tenant)
                except ConfigError:
                    return Response(
                        404,
                        {
                            "error": f"no tenant {tenant!r}",
                            "tenants": self.pool.tenants(),
                        },
                    )
            if method == "GET" and route == "/metrics":
                raw = query.get("exemplars", [""])[0].lower()
                exemplars = None if not raw else raw in ("1", "true", "yes", "on")
                return self.metrics(
                    as_json=self._wants_json(query, headers), exemplars=exemplars
                )
            if method == "GET" and route == "/traces":
                limit = query.get("limit")
                return self.traces(int(limit[0]) if limit else None)
            if method == "GET" and route == "/slo":
                return self.slo_status()
            if method == "GET" and route == "/profile":
                return self.profile(as_json=self._wants_json(query, headers))
            if method == "GET" and route == "/tenants":
                return self.tenants()
            if method == "GET" and route == "/rollouts":
                return self.rollouts()
            if method == "POST" and route == "/rollouts":
                payload = self._parse_json(body)
                if isinstance(payload, Response):
                    return payload
                return self.rollout_action(payload)
            if runtime is None:
                return Response(
                    404,
                    {
                        "error": "no default tenant; address one via "
                        "/t/<tenant>/..., X-Tenant or ?tenant=",
                        "tenants": self.pool.tenants(),
                    },
                )
            if method == "GET" and route == "/healthz":
                return self.healthz(tenant)
            if method == "GET" and route == "/forecast":
                horizon = query.get("horizon")
                return self.forecast(int(horizon[0]) if horizon else None, tenant)
            if method == "POST" and route == "/observe":
                payload = self._parse_json(body)
                if isinstance(payload, Response):
                    return payload
                return self.observe(payload, tenant)
            return Response(404, {"error": f"no route {method} {route}"})
        except Overloaded as error:
            # Shed load (queue saturation or quota): back off, not degrade.
            return Response(429, {"error": str(error)}, self._retry_after(
                runtime if runtime is not None else self._any_runtime(), error
            ))
        except ConfigError as error:
            # Rollout/tenant management called with a bad argument.
            return Response(400, {"error": str(error)})
        # Input errors stay 400 — StateError and DataError are typed
        # repro errors now (no stdlib bases), so they are caught by name
        # next to the stdlib trio raised by payload parsing.
        except (StateError, DataError, ValueError, KeyError, TypeError) as error:
            return Response(400, {"error": str(error)})
        except ServeError as error:
            # Resilience signals that survived the fallback ladder: open
            # breaker, blown deadline, dry ladder. The server is alive
            # but cannot answer — 503 with a backoff hint.
            self.registry.counter("serve/unavailable_responses").inc()
            return Response(
                503,
                {"error": str(error), "cause": type(error).__name__},
                self._retry_after(
                    runtime if runtime is not None else self._any_runtime(), error
                ),
            )

    def _any_runtime(self):
        """Fallback runtime for Retry-After hints on tenant-less errors."""
        return self._runtime(self.pool.tenants()[0])


class _Handler(BaseHTTPRequestHandler):
    app: ServeApp  # injected via the make_server subclass
    protocol_version = "HTTP/1.1"

    def log_message(self, format: str, *args) -> None:  # noqa: A002
        pass  # keep test/CI output clean; telemetry covers observability

    def _respond(self, response: Response) -> None:
        payload = response.body
        if isinstance(payload, PlainText):
            body = payload.body.encode("utf-8")
            content_type = payload.content_type
        else:
            body = json.dumps(payload).encode("utf-8")
            content_type = "application/json"
        self.send_response(response.status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        for name, value in response.headers.items():
            self.send_header(name, str(value))
        self.end_headers()
        self.wfile.write(body)

    def do_GET(self) -> None:  # noqa: N802
        self._respond(self.app.handle("GET", self.path, None, dict(self.headers)))

    def do_POST(self) -> None:  # noqa: N802
        raw = self.headers.get("Content-Length", "0")
        try:
            length = int(raw)
        except ValueError:
            length = -1
        if length < 0:
            # answer instead of dropping the connection on int() or
            # blocking the handler thread in rfile.read(-n); the unread
            # body makes the connection unusable, so close it
            self._respond(Response(
                400,
                {"error": f"invalid Content-Length {raw!r}"},
                {"Connection": "close"},
            ))
            return
        body = self.rfile.read(length) if length else b""
        self._respond(self.app.handle("POST", self.path, body, dict(self.headers)))


def bind_http(app, host: str, port: int) -> ThreadingHTTPServer:
    """Bind a threading HTTP server for any ``handle``-shaped app.

    ``app`` needs only ``handle(method, path, body, headers) -> Response``
    — :class:`ServeApp`, the cluster shard servers and the cluster
    router all share this surface. Lifecycle (``serve_forever`` /
    ``shutdown`` / ``server_close``) belongs to the caller; so does
    starting whatever engines sit behind the app.
    """
    handler = type("BoundHandler", (_Handler,), {"app": app})
    return ThreadingHTTPServer((host, port), handler)


def make_server(app: ServeApp) -> ThreadingHTTPServer:
    """Bind a threading HTTP server for ``app``.

    The bind address comes from ``app.config`` (``port=0`` = ephemeral).
    The caller owns the lifecycle: ``serve_forever()`` to block,
    ``shutdown()`` + ``server_close()`` to stop. The pool is started
    here so every engine's batching dispatcher and the shadow worker
    run before the first request.
    """
    server = bind_http(app, app.config.host, app.config.port)
    app.pool.start()
    return server


def run_server(
    app: ServeApp, ready_event: threading.Event | None = None
) -> None:
    """Blocking entry point used by ``repro serve`` and ``repro fleet``.

    Prints the bound address (machine-parseable first line) before
    serving; ``ready_event`` is set once the socket is listening.
    """
    server = make_server(app)
    bound_host, bound_port = server.server_address[:2]
    print(f"serving on http://{bound_host}:{bound_port}", flush=True)
    if ready_event is not None:
        ready_event.set()
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.shutdown()
        server.server_close()
        app.pool.stop()
        app.close()
