"""Closed-loop load generation: one driver, many scenarios.

:func:`drive` is the only in-process client loop. ``num_clients``
threads start together on a barrier and each run ``rounds`` of *observe
one reading → request one forecast* against any ``handle(method, path,
body)`` surface: :class:`~repro.serve.http.ServeApp`, a shard app, the
cluster router, an HTTP client wrapper, or a bare engine (see
:func:`run_load`). Observations take consecutive steps from one
shared counter, so forecasts see fresh state versions (they cannot all
collapse into the LRU cache) and concurrent clients give the dispatcher
real fusion opportunities. Every response goes through one tally into
one :class:`LoadReport`; forecast and observe latencies are kept apart.

The scenarios on top supply only request paths and bodies:

* :func:`run_load` / :func:`compare_batched_sequential` — the engine
  alone, no HTTP or JSON in the timed forecast call (the committed
  ``BENCH_serve_latency`` comparison);
* :func:`run_chaos_soak` — a fault-injected app from
  :func:`make_chaos_app` (the chaos-smoke availability gate);
* :func:`run_fleet_smoke` / :func:`run_slo_smoke` — multi-phase rollout
  and SLO exercises over a tenant pool.

Closed-loop clients wait for each answer before sending the next
request, so this measures capacity, not latency at a fixed offered
rate. Open-loop measurement over real sockets, with latency counted
from the scheduled arrival, is ``perfbench/`` (see its README).
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from dataclasses import asdict, dataclass, field

import numpy as np

from ..reliability import ChaosModel, ChaosStore, FaultPlan, ResiliencePolicy
from ..telemetry import MetricRegistry
from .artifact import ModelBundle
from .config import ServeConfig
from .engine import ForecastEngine
from .http import Response, ServeApp

__all__ = [
    "LoadReport",
    "drive",
    "sensor_traffic",
    "zipf_node_sampler",
    "run_load",
    "compare_batched_sequential",
    "make_chaos_app",
    "run_chaos_soak",
    "run_fleet_smoke",
    "run_slo_smoke",
]

#: mean of the synthetic readings every scenario sends (speed-like units)
VALUE_SCALE = 60.0

_COUNTS = (
    "requests", "forecasts", "ok", "degraded", "untagged_degraded",
    "rejected", "client_errors", "server_errors", "crashes",
)


@dataclass
class LoadReport:
    """Aggregate result of one :func:`drive` run."""

    num_clients: int
    requests: int  # observe + forecast requests issued
    forecasts: int
    ok: int  # 2xx responses
    degraded: int  # 2xx forecasts answered by a fallback rung
    untagged_degraded: int  # X-Degraded header disagrees with body tag
    rejected: int  # 429s (load shedding, quota)
    client_errors: int  # other 4xx
    server_errors: int  # 5xx
    crashes: int  # exceptions escaping ``handle``
    errors: int  # server_errors + crashes
    availability: float  # 1 - errors / requests
    duration_s: float
    throughput_rps: float  # requests per second
    latency_ms_mean: float  # forecast latency
    latency_ms_p50: float
    latency_ms_p95: float
    latency_ms_p99: float
    observe_latency_ms_p50: float
    observe_latency_ms_p99: float
    retry_after: str | None = None  # Retry-After of the last 429 seen
    #: scenario extras: engine counters, injected faults, fallback rungs
    details: dict = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        return asdict(self)

    def render(self) -> str:
        lines = [
            f"load: {self.requests} requests ({self.forecasts} forecasts) "
            f"from {self.num_clients} clients in {self.duration_s:.2f}s",
            f"  availability       {self.availability:.2%} "
            f"({self.server_errors} server errors, {self.crashes} crashes)",
            f"  degraded answers   {self.degraded} "
            f"({self.untagged_degraded} missing tags)",
            f"  rejected (backoff) {self.rejected}   "
            f"client errors {self.client_errors}",
            f"  forecast latency   p50 {self.latency_ms_p50:.2f}ms "
            f"p99 {self.latency_ms_p99:.2f}ms",
        ]
        lines += [
            f"  {key:<18} {json.dumps(value, sort_keys=True)}"
            for key, value in self.details.items()
        ]
        return "\n".join(lines)


def _tally(counts: dict, response, is_forecast: bool) -> None:
    status = response.status
    if status >= 500:
        counts["server_errors"] += 1
    elif status == 429:
        counts["rejected"] += 1
    elif status >= 400:
        counts["client_errors"] += 1
    else:
        counts["ok"] += 1
        if is_forecast:
            body = response.body if isinstance(response.body, dict) else {}
            degraded = body.get("degraded")
            header = response.headers.get("X-Degraded")
            if degraded:
                counts["degraded"] += 1
            # every degraded 200 carries the rung in both header and body
            if (degraded or header) and header != degraded:
                counts["untagged_degraded"] += 1


def _percentile(values: np.ndarray, q: float) -> float:
    return float(np.percentile(values, q)) if values.size else 0.0


def drive(
    handle,
    observe,
    forecast="/forecast",
    *,
    num_clients: int = 1,
    rounds: int = 40,
    seed: int = 0,
    start_step: int = 0,
) -> LoadReport:
    """Run closed-loop observe → forecast rounds against ``handle``.

    ``observe(rng, step)`` returns the ``(path, body)`` of one ``POST``
    at the next step of a counter shared by all clients (starting at
    ``start_step``); ``forecast`` is the ``GET`` path that follows, or a
    callable ``forecast(rng)`` returning it. Client ``i`` draws from
    ``np.random.default_rng(seed + i)``, so one seed gives one request
    sequence per client. Exceptions escaping ``handle`` count as
    crashes; forecast latency percentiles exclude observe latency.
    """
    counts = [dict.fromkeys(_COUNTS, 0) for _ in range(num_clients)]
    forecast_ms: list[list[float]] = [[] for _ in range(num_clients)]
    observe_ms: list[list[float]] = [[] for _ in range(num_clients)]
    retry_after: list[str | None] = [None] * num_clients
    steps = itertools.count(start_step)
    step_lock = threading.Lock()
    start_barrier = threading.Barrier(num_clients + 1)

    def send(idx: int, method: str, path: str, body, latencies: list) -> None:
        c = counts[idx]
        c["requests"] += 1
        began = time.perf_counter()
        try:
            response = handle(method, path, body)
        except Exception:
            c["crashes"] += 1
            return
        latencies.append((time.perf_counter() - began) * 1e3)
        _tally(c, response, is_forecast=method == "GET")
        if response.status == 429:
            retry_after[idx] = response.headers.get("Retry-After")

    def client(idx: int) -> None:
        rng = np.random.default_rng(seed + idx)
        start_barrier.wait()
        for _ in range(rounds):
            with step_lock:
                step = next(steps)
            path, body = observe(rng, step)
            send(idx, "POST", path, body, observe_ms[idx])
            counts[idx]["forecasts"] += 1
            path = forecast(rng) if callable(forecast) else forecast
            send(idx, "GET", path, None, forecast_ms[idx])

    threads = [
        threading.Thread(target=client, args=(idx,), daemon=True)
        for idx in range(num_clients)
    ]
    for thread in threads:
        thread.start()
    start_barrier.wait()
    begin = time.perf_counter()
    for thread in threads:
        thread.join()
    duration = time.perf_counter() - begin

    total = {key: sum(c[key] for c in counts) for key in _COUNTS}
    errors = total["server_errors"] + total["crashes"]
    fc = np.array([ms for per in forecast_ms for ms in per])
    ob = np.array([ms for per in observe_ms for ms in per])
    requests = total["requests"]
    return LoadReport(
        num_clients=num_clients,
        **total,
        errors=errors,
        availability=float(1.0 - errors / requests) if requests else 1.0,
        duration_s=float(duration),
        throughput_rps=float(requests / duration) if duration > 0 else 0.0,
        latency_ms_mean=float(fc.mean()) if fc.size else 0.0,
        latency_ms_p50=_percentile(fc, 50),
        latency_ms_p95=_percentile(fc, 95),
        latency_ms_p99=_percentile(fc, 99),
        observe_latency_ms_p50=_percentile(ob, 50),
        observe_latency_ms_p99=_percentile(ob, 99),
        retry_after=next((r for r in reversed(retry_after) if r), None),
    )


def _engine_handle(engine: ForecastEngine, horizon: int | None = None):
    """A :func:`drive` ``handle`` over a bare engine, no HTTP or JSON.

    Observe bodies are ``(step, node, features)`` tuples handed to
    ``engine.store.observe_sensor``; every ``GET`` is one
    ``engine.forecast``, so forecast latency times only the serving core.
    """
    def handle(method, path, body):
        if method == "POST":
            engine.store.observe_sensor(*body)
            return Response(200, {})
        degraded = engine.forecast(horizon=horizon).degraded
        return Response(
            200, {"degraded": degraded}, {"X-Degraded": degraded} if degraded else {}
        )

    return handle


def sensor_traffic(num_nodes: int, num_features: int, weights=None):
    """``(observe, forecast)`` for per-sensor HTTP load.

    Each round posts one sensor's reading. Nodes are uniform and the
    forecast covers the whole network; with ``weights`` (e.g. a
    :func:`zipf_node_sampler`'s) both the observed sensor and a
    ``?node=`` forecast target are drawn from them.
    """
    def pick(rng) -> int:
        if weights is None:
            return int(rng.integers(num_nodes))
        return int(rng.choice(num_nodes, p=weights))

    def observe(rng, step):
        node = pick(rng)
        features = rng.normal(VALUE_SCALE, 5.0, size=num_features)
        body = {"step": step, "node": node, "features": features.tolist()}
        return "/observe", json.dumps(body).encode()

    if weights is None:
        return observe, "/forecast"
    return observe, lambda rng: f"/forecast?node={pick(rng)}"


def _network_observe(prefix: str, store):
    """Observe builder posting a full-network reading under ``prefix``."""
    def observe(rng, step):
        values = rng.normal(
            VALUE_SCALE, 5.0, size=(store.num_nodes, store.num_features)
        )
        body = {"step": step, "values": values.tolist()}
        return f"{prefix}/observe", json.dumps(body).encode()

    return observe


def zipf_node_sampler(
    num_nodes: int,
    exponent: float = 1.1,
    seed: int = 0,
):
    """Zipf-skewed node popularity: returns ``sample(size=None)``.

    Rank ``r`` (1-based) carries weight ``r**-exponent``; ranks are
    mapped onto node ids through a seeded permutation so the hot nodes
    are not simply the low ids (which would all land on shard 0 under a
    contiguous partition). ``sample()`` returns one ``int`` node id;
    ``sample(k)`` an ``ndarray`` of ``k`` ids. The sampler also exposes
    ``sample.weights`` (per-node probability, id order), which
    :func:`sensor_traffic` takes.
    """
    if num_nodes < 1:
        raise ValueError(f"num_nodes must be >= 1, got {num_nodes}")
    if exponent < 0:
        raise ValueError(f"exponent must be >= 0, got {exponent}")
    ranks = np.arange(1, num_nodes + 1, dtype=np.float64)
    rank_weights = ranks ** -float(exponent)
    rank_weights /= rank_weights.sum()
    rng = np.random.default_rng(seed)
    node_of_rank = rng.permutation(num_nodes)
    weights = np.zeros(num_nodes)
    weights[node_of_rank] = rank_weights

    def sample(size: int | None = None):
        picked = node_of_rank[rng.choice(num_nodes, size=size, p=rank_weights)]
        return int(picked) if size is None else picked

    sample.weights = weights
    sample.node_of_rank = node_of_rank
    return sample


# ----------------------------------------------------------------------
# Engine benchmarks
# ----------------------------------------------------------------------
def run_load(
    engine: ForecastEngine,
    num_clients: int = 8,
    requests_per_client: int = 40,
    horizon: int | None = None,
    seed: int = 0,
) -> LoadReport:
    """Drive ``engine`` directly with ``num_clients`` closed-loop clients.

    Each round feeds one random sensor a synthetic reading, then times
    one forecast. ``details`` carries the engine's batching and cache
    counters.
    """
    store = engine.store

    def observe(rng, step):
        node = int(rng.integers(store.num_nodes))
        features = rng.normal(VALUE_SCALE, 5.0, size=store.num_features)
        return "/observe", (step, node, features)

    report = drive(
        _engine_handle(engine, horizon),
        observe,
        num_clients=num_clients,
        rounds=requests_per_client,
        seed=seed,
        start_step=store.newest_step + 1,
    )
    registry = engine.registry
    cache_hits = int(registry.counter("serve/cache_hits").value)
    answered = int(registry.counter("serve/requests").value)
    report.details = {
        "forwards": int(registry.counter("serve/forwards").value),
        "batches": int(registry.counter("serve/batches").value),
        "mean_batch_size": float(registry.histogram("serve/batch_size").mean),
        "cache_hits": cache_hits,
        "cache_hit_ratio": float(cache_hits / answered) if answered else 0.0,
    }
    return report


def compare_batched_sequential(
    bundle: ModelBundle,
    num_clients: int = 8,
    requests_per_client: int = 40,
    max_batch_size: int = 8,
    max_wait_s: float = 0.005,
    seed: int = 0,
    plan: bool = True,
) -> dict:
    """The headline serving benchmark: micro-batched vs sequential.

    Both runs use identical fresh stores and workloads; the sequential
    baseline is the same engine restricted to ``max_batch_size=1`` (one
    forward per request, same threading and cache). ``plan=False`` pins
    both engines to the eager forward, isolating the micro-batching
    effect from traced-plan acceleration. Returns a dict of two
    :class:`LoadReport` payloads plus the throughput ratio.
    """
    reports = {}
    for mode, batch_size, wait in (
        ("sequential", 1, 0.0),
        ("batched", max_batch_size, max_wait_s),
    ):
        engine = ForecastEngine(
            model=bundle.model,
            scaler=bundle.scaler,
            store=bundle.make_store(),
            max_batch_size=batch_size,
            max_wait_s=wait,
            registry=MetricRegistry(),  # isolate counters per run
            plan=plan,
        )
        with engine:
            reports[mode] = run_load(
                engine,
                num_clients=num_clients,
                requests_per_client=requests_per_client,
                seed=seed,
            )
    ratio = (
        reports["batched"].throughput_rps / reports["sequential"].throughput_rps
        if reports["sequential"].throughput_rps > 0
        else 0.0
    )
    return {
        "sequential": reports["sequential"].to_json_dict(),
        "batched": reports["batched"].to_json_dict(),
        "batched_over_sequential_throughput": float(ratio),
    }


# ----------------------------------------------------------------------
# Chaos soak
# ----------------------------------------------------------------------
def make_chaos_app(
    bundle: ModelBundle,
    plan: FaultPlan,
    config: ServeConfig | None = None,
    registry: MetricRegistry | None = None,
):
    """A :class:`ServeApp` whose model and store misbehave per ``plan``.

    Returns ``(app, injector)`` — the injector exposes the fault counts
    for the soak report. The wrappers sit at the two seams the engine
    trusts (model forward, observation path); everything else is the
    production request path.
    """
    config = config if config is not None else ServeConfig()
    registry = registry if registry is not None else MetricRegistry()
    injector = plan.injector()
    store = ChaosStore(bundle.make_store(registry=registry), injector)
    engine = ForecastEngine(
        model=ChaosModel(bundle.model, injector),
        scaler=bundle.scaler,
        store=store,
        max_batch_size=config.max_batch_size,
        max_wait_s=config.max_wait_s,
        cache_size=config.cache_size,
        registry=registry,
        policy=config.resilience,
    )
    app = ServeApp(
        bundle, store=store, engine=engine, registry=registry, config=config
    )
    return app, injector


def run_chaos_soak(
    app,
    num_clients: int = 4,
    requests_per_client: int = 50,
    seed: int = 0,
    injector=None,
) -> LoadReport:
    """Soak ``app`` with concurrent sensor observe/forecast clients.

    Runs the full routing, error mapping and header path, minus sockets.
    Asserting on the report: ``crashes`` must be 0 and ``availability``
    at target; ``untagged_degraded`` counts degraded 200s missing their
    ``X-Degraded`` header or body tag. ``details`` carries the fallback
    rungs taken and, given the ``injector``, the fault plan, the faults
    that fired and the sensor-drop scenario (``{"pattern", "name",
    "seed", "params"}`` — the same JSON the offline gauntlet consumes,
    so a soak reproduces by name + seed).
    """
    store = app.store
    with app.engine:
        report = drive(
            app.handle,
            *sensor_traffic(store.num_nodes, store.num_features),
            num_clients=num_clients,
            rounds=requests_per_client,
            seed=seed,
            start_step=store.newest_step + 1,
        )

    def count(name: str) -> int:
        return int(app.registry.counter(name).value)

    if injector is not None:
        report.details["fault_plan"] = injector.plan.to_json_dict()
        report.details["injected"] = injector.snapshot()
        if injector.plan.scenario:
            report.details["scenario"] = injector.plan.scenario
    report.details["fallback"] = {
        "stale": count('serve/fallback{rung="stale"}'),
        "window_mean": count('serve/fallback{rung="window_mean"}'),
        "unavailable": count("serve/unavailable"),
        "shed": count("serve/shed"),
    }
    return report


# ----------------------------------------------------------------------
# Fleet and SLO smokes
# ----------------------------------------------------------------------
def _warm(pool, tenant: str, rng: np.random.Generator) -> None:
    """Fill ``tenant``'s window with ``input_length`` full-network steps."""
    store = pool.runtime(tenant).store
    for offset in range(store.input_length):
        values = rng.normal(
            VALUE_SCALE, 5.0, size=(store.num_nodes, store.num_features)
        )
        pool.observe(tenant, offset, values)


def run_fleet_smoke(
    bundle_a: ModelBundle,
    bundle_b: ModelBundle,
    rounds: int = 120,
    seed: int = 0,
    registry: MetricRegistry | None = None,
) -> dict:
    """End-to-end fleet exercise: two tenants, shadow, canary, quota.

    Boots a two-tenant pool (``alpha`` on ``bundle_a``, ``beta`` on
    ``bundle_b``) behind the full :class:`~repro.serve.http.ServeApp`
    request path and checks the rollout machinery in one pass:

    1. a shadow of ``bundle_b`` mirrors all of ``alpha``'s traffic and
       must record divergence comparisons without touching live answers;
    2. a canary of ``bundle_a`` on ``beta`` must **promote** on clean
       traffic (bumping the tenant version);
    3. a canary poisoned by a seeded :class:`~repro.reliability.chaos.
       FaultPlan` on ``alpha`` must **roll back** automatically;
    4. a quota-capped third tenant must get a 429 with ``Retry-After``;
    5. ``/metrics`` must expose per-tenant ``fleet_*`` series.

    Returns a JSON-ready report; ``report["passed"]`` gates CI.
    """
    from .config import CanaryConfig, ShadowConfig
    from .fleet import EnginePool

    registry = registry if registry is not None else MetricRegistry()
    pool = EnginePool(registry=registry)
    pool.add_tenant("alpha", bundle_a, bundle_ref="bundle_a")
    pool.add_tenant("beta", bundle_b, bundle_ref="bundle_b")
    pool.add_tenant(
        "gamma", bundle_a, bundle_ref="bundle_a",
        quota_rps=0.001, quota_burst=3.0,
    )
    app = ServeApp(pool=pool)
    phases = itertools.count(seed)

    def traffic(tenant: str, n: int) -> dict:
        store = pool.runtime(tenant).store
        return drive(
            app.handle,
            _network_observe(f"/t/{tenant}", store),
            f"/t/{tenant}/forecast",
            rounds=n,
            seed=next(phases),
            start_step=store.newest_step + 1,
        ).to_json_dict()

    report: dict = {"rounds": rounds, "seed": seed}
    with pool:
        warm_rng = np.random.default_rng(seed)
        for tenant in ("alpha", "beta", "gamma"):
            _warm(pool, tenant, warm_rng)

        # 1+2: shadow on alpha while beta's clean canary promotes.
        pool.start_shadow(
            "alpha", ShadowConfig(bundle="bundle_b", mirror_fraction=1.0),
            bundle=bundle_b,
        )
        pool.start_canary(
            "beta",
            CanaryConfig(
                bundle="bundle_a", stages=(0.5, 1.0), stage_requests=5,
                max_failure_ratio=0.5, min_failure_samples=10, seed=seed,
            ),
            bundle=bundle_a,
        )
        report["alpha_traffic"] = traffic("alpha", rounds)
        report["beta_traffic"] = traffic("beta", rounds)
        pool.drain_shadow()
        report["shadow"] = pool.stop_shadow("alpha")
        beta = pool.runtime("beta")
        report["canary_clean"] = (
            beta.canary.snapshot() if beta.canary is not None else None
        )
        report["beta_version"] = beta.version

        # 3: chaos canary on alpha must roll back, not fail live traffic.
        plan = FaultPlan(seed=seed, error_rate=0.7, corrupt_rate=0.3)
        injector = plan.injector()
        pool.start_canary(
            "alpha",
            CanaryConfig(
                bundle="bundle_b", stages=(0.5, 1.0), stage_requests=50,
                max_failure_ratio=0.2, min_failure_samples=5, seed=seed,
            ),
            bundle=bundle_b,
            model=ChaosModel(bundle_b.model, injector),
        )
        report["alpha_chaos_traffic"] = traffic("alpha", rounds)
        alpha = pool.runtime("alpha")
        report["canary_chaos"] = (
            alpha.canary.snapshot() if alpha.canary is not None else None
        )
        report["chaos_injected"] = injector.snapshot()

        # 4: quota exhaustion returns 429 + Retry-After.
        report["gamma_traffic"] = traffic("gamma", 8)

        # 5: per-tenant series in the exposition.
        metrics = app.handle("GET", "/metrics", None).body.body
        needed_series = [
            'repro_fleet_requests_total{tenant="alpha"}',
            'repro_fleet_requests_total{tenant="beta"}',
            'repro_fleet_shadow_mirrored_total{tenant="alpha"}',
            'repro_fleet_rollbacks_total{tenant="alpha"}',
            'repro_fleet_promotions_total{tenant="beta"}',
            'repro_fleet_quota_rejected_total{tenant="gamma"}',
        ]
        report["missing_series"] = [s for s in needed_series if s not in metrics]

    checks = {
        "shadow_compared": report["shadow"]["compared"] > 0,
        "canary_promoted": (
            report["canary_clean"] is not None
            and report["canary_clean"]["state"] == "promoted"
            and report["beta_version"] > 1
        ),
        "canary_rolled_back": (
            report["canary_chaos"] is not None
            and report["canary_chaos"]["state"] == "rolled_back"
        ),
        "live_traffic_survived_chaos": (
            report["alpha_chaos_traffic"]["server_errors"] == 0
        ),
        "quota_429_with_retry_after": (
            report["gamma_traffic"]["rejected"] > 0
            and report["gamma_traffic"]["retry_after"] is not None
        ),
        "per_tenant_metrics": not report["missing_series"],
        "no_crashes": _no_crashes(report),
    }
    report["checks"] = checks
    report["passed"] = all(checks.values())
    return report


def _no_crashes(report: dict) -> bool:
    """No request of any ``*_traffic`` phase raised out of ``handle``."""
    return all(
        phase["crashes"] == 0
        for key, phase in report.items()
        if key.endswith("_traffic")
    )


def run_slo_smoke(
    bundle: ModelBundle,
    rounds: int = 30,
    seed: int = 0,
    registry: MetricRegistry | None = None,
) -> dict:
    """Seeded-fault SLO exercise: a burn event fires, clears, and gates a canary.

    Drives the full :class:`~repro.serve.http.ServeApp` request path in
    four phases against a single labelled tenant whose model sits behind
    a seeded :class:`~repro.reliability.chaos.FaultInjector`:

    1. **healthy** — clean traffic; nothing may burn;
    2. **fault** — the injector's plan is swapped to a high error rate,
       so forecasts fall back to degraded answers and a burn event must
       fire (visible on ``GET /slo`` and as ``repro_slo_*`` series on
       ``/metrics``);
    3. **recovery** — the benign plan is restored and the clock jumps
       past the short window, so the event must resolve;
    4. **canary gate** — a canary rollout whose candidate model errors
       must be rolled back by the SLO-burn gate (the failure-*ratio*
       threshold is set so high it cannot be the trigger), with the
       rollback reason citing the burn and the ``canary:alpha`` tracker
       series landing on ``/metrics``.

    The app-level SLO engine runs on an injected clock with compressed
    windows (60s/600s), so phases 1–3 are deterministic and take no wall
    time; the canary tracker uses its production defaults on the real
    clock, which the request loop outruns by orders of magnitude.

    Returns a JSON-ready report; ``report["passed"]`` gates CI.
    """
    from ..telemetry.slo import BurnRule, SLOEngine, default_serving_objectives
    from .config import CanaryConfig
    from .fleet import EnginePool

    registry = registry if registry is not None else MetricRegistry()

    # Injectable clock: requests are stamped by hand, and "waiting out"
    # the short window is a single assignment, not a real 60s sleep.
    clock = [0.0]
    slo = SLOEngine(
        default_serving_objectives(),
        rules=(
            BurnRule(
                "fast", short_s=60.0, long_s=600.0,
                burn_threshold=2.0, min_events=10,
            ),
        ),
        clock=lambda: clock[0],
        bucket_s=5.0,
    )

    # Benign plan first; swapping ``injector.plan`` mid-run toggles the
    # fault without rebuilding the engine (the injector re-reads it per
    # decision).
    injector = FaultPlan(seed=seed).injector()
    # Breaker off for the live tenant: its open window is real seconds,
    # which would keep recovery-phase answers degraded long after the
    # fault plan is restored. The smoke tests SLO window math, and the
    # clock it controls is the SLO engine's — not the breaker's.
    config = ServeConfig(
        resilience=ResiliencePolicy(breaker=False),
    )
    store = ChaosStore(bundle.make_store(registry=registry), injector)
    pool = EnginePool(registry=registry)
    engine = ForecastEngine(
        model=ChaosModel(bundle.model, injector),
        scaler=bundle.scaler,
        store=store,
        max_batch_size=config.max_batch_size,
        max_wait_s=config.max_wait_s,
        cache_size=config.cache_size,
        registry=registry,
        policy=config.resilience,
        labels={"tenant": "alpha"},
        name="model:alpha",
    )
    pool.add_tenant(
        "alpha", bundle, config=config, bundle_ref="bundle_a",
        store=store, engine=engine,
    )
    app = ServeApp(pool=pool, slo=slo)
    phases = itertools.count(seed)

    network_observe = _network_observe("/t/alpha", store)

    def traffic(n: int, tick_s: float = 2.0) -> dict:
        def observe(rng, step):  # one SLO-clock tick per round
            clock[0] += tick_s
            return network_observe(rng, step)

        return drive(
            app.handle,
            observe,
            "/t/alpha/forecast",
            rounds=n,
            seed=next(phases),
            start_step=store.newest_step + 1,
        ).to_json_dict()

    def series_value(text: str, series: str) -> float | None:
        for line in text.splitlines():
            if line.startswith(series + " "):
                return float(line.split(" # ")[0].rsplit(" ", 1)[-1])
        return None

    report: dict = {"rounds": rounds, "seed": seed}
    with pool:
        _warm(pool, "alpha", np.random.default_rng(seed))

        # 1: clean traffic leaves every objective quiet.
        report["healthy_traffic"] = traffic(rounds)
        report["healthy_burning"] = slo.burning()

        # 2: seeded fault — forecasts degrade, a burn event must fire.
        injector.plan = FaultPlan(seed=seed, error_rate=0.9)
        report["fault_traffic"] = traffic(rounds)
        report["burning_during_fault"] = slo.burning()
        during = app.handle("GET", "/metrics", None).body.body
        report["burning_gauges_during_fault"] = {
            name: series_value(during, f'repro_slo_burning{{slo="{name}"}}')
            for name in report["burning_during_fault"]
        }
        slo_during = app.handle("GET", "/slo", None)
        report["slo_endpoint_during_fault"] = {
            "status": slo_during.status,
            "burning": slo_during.body["slo"]["burning"],
        }

        # 3: restore the benign plan and jump past the short window —
        # the short-window burn rate collapses to 0 and the event clears.
        injector.plan = FaultPlan(seed=seed)
        clock[0] += 120.0
        report["recovery_traffic"] = traffic(rounds, tick_s=1.0)
        report["burning_after_recovery"] = slo.burning()
        report["burn_events_total"] = sum(
            tracker.fired_total for tracker in slo.trackers.values()
        )
        report["resolved_events"] = sum(
            1
            for tracker in slo.trackers.values()
            for event in tracker.events
            if event["state"] == "resolved"
        )

        # 4: a canary whose candidate errors must be SLO-gated. The
        # failure-ratio trigger is parked at 0.99 so the burn gate — not
        # the ratio check — is what rolls the stage back.
        canary_injector = FaultPlan(seed=seed + 1, error_rate=0.5).injector()
        pool.start_canary(
            "alpha",
            CanaryConfig(
                bundle="bundle_b", stages=(1.0,), stage_requests=10_000,
                max_failure_ratio=0.99, min_failure_samples=5, seed=seed,
            ),
            bundle=bundle,
            model=ChaosModel(bundle.model, canary_injector),
        )
        report["canary_traffic"] = traffic(rounds)
        canary = pool.runtime("alpha").canary
        report["canary"] = canary.snapshot() if canary is not None else None

        slo_response = app.handle("GET", "/slo", None)
        report["slo_endpoint"] = {
            "status": slo_response.status,
            "burning": slo_response.body["slo"]["burning"],
            "canaries": {
                name: {"state": entry["state"], "reason": entry["reason"]}
                for name, entry in slo_response.body.get("canaries", {}).items()
            },
        }
        metrics = app.handle("GET", "/metrics", None).body.body
        report["canary_burn_events_series"] = series_value(
            metrics,
            'repro_slo_burn_events_total{slo="canary:alpha",tenant="alpha"}',
        )
        report["missing_series"] = [
            series
            for series in (
                'repro_slo_error_budget_remaining{slo="availability"}',
                'repro_slo_burning{slo="degraded_ratio"}',
                'repro_slo_burn_events_total{slo="canary:alpha",tenant="alpha"}',
            )
            if series_value(metrics, series) is None
        ]

    canary_reason = (report["canary"] or {}).get("reason") or ""
    checks = {
        "healthy_no_burn": not report["healthy_burning"],
        "burn_fired": bool(report["burning_during_fault"]),
        "burn_on_slo_endpoint": (
            report["slo_endpoint_during_fault"]["status"] == 200
            and bool(report["slo_endpoint_during_fault"]["burning"])
        ),
        "burn_gauge_on_metrics": any(
            value == 1.0
            for value in report["burning_gauges_during_fault"].values()
        ),
        "burn_cleared": (
            not report["burning_after_recovery"]
            and report["resolved_events"] >= 1
            and report["burn_events_total"] >= 1
        ),
        "canary_rolled_back_on_slo": (
            report["canary"] is not None
            and report["canary"]["state"] == "rolled_back"
            and "SLO burn" in canary_reason
        ),
        "canary_on_slo_endpoint": (
            report["slo_endpoint"]["canaries"].get("alpha", {}).get("state")
            == "rolled_back"
        ),
        "canary_burn_on_metrics": (
            report["canary_burn_events_series"] is not None
            and report["canary_burn_events_series"] >= 1.0
        ),
        "slo_series_on_metrics": not report["missing_series"],
        "no_crashes": _no_crashes(report),
    }
    report["checks"] = checks
    report["passed"] = all(checks.values())
    return report
