"""Resilience-path overhead benchmark: the happy path must stay free.

Runs the same closed-loop serving workload twice on the RIHGCN profile
configuration — once with the default :class:`ResiliencePolicy`
(deadline, retry wrapper, circuit breaker, fallback ladder, bounded
queue) and once with ``ResiliencePolicy.disabled()`` (the pre-policy
code path) — and emits ``BENCH_resilience_overhead.json``.

Acceptance: with no faults injected the resilient engine's p50 latency
may regress at most 3% against the disabled baseline, and the two
engines must produce **bitwise-identical** forecasts from identical
state. The in-test assertion is looser than the 3% record target so a
noisy CI machine doesn't flake the suite; the committed JSON carries the
measured number.
"""

import numpy as np
import pytest

from bench_config import SCALE, emit_bench_record, model_config, pems_data_config

from repro.experiments import build_model, prepare_context
from repro.reliability import ResiliencePolicy
from repro.serve import export_bundle, load_bundle
from repro.serve.loadgen import run_load
from repro.telemetry import MetricRegistry

pytestmark = pytest.mark.bench

MISSING_RATE = 0.4
CLIENTS = {"fast": 4, "small": 6, "full": 8}[SCALE]
REQUESTS = {"fast": 10, "small": 25, "full": 60}[SCALE]


def _make_engine(bundle, policy):
    return bundle.make_engine(
        store=bundle.make_store(),
        registry=MetricRegistry(),
        max_batch_size=8,
        max_wait_s=0.004,
        policy=policy,
    ).start()


def _fill(engine, value=55.0):
    store = engine.store
    for step in range(store.input_length):
        store.observe(
            step, np.full((store.num_nodes, store.num_features), value)
        )


def test_resilience_overhead(tmp_path):
    ctx = prepare_context(
        pems_data_config(missing_rate=MISSING_RATE), model_config()
    )
    model = build_model("RIHGCN", ctx)
    base = str(tmp_path / "rihgcn")
    export_bundle(model, "RIHGCN", ctx, base)
    bundle = load_bundle(base)

    policies = {
        "disabled": ResiliencePolicy.disabled(),
        "default": ResiliencePolicy(),
    }

    # -- bitwise identity on identical state -------------------------------
    predictions = {}
    for name, policy in policies.items():
        engine = _make_engine(bundle, policy)
        try:
            _fill(engine)
            result = engine.forecast()
            assert result.degraded is None
            predictions[name] = result.prediction
        finally:
            engine.stop()
    assert np.array_equal(predictions["disabled"], predictions["default"]), (
        "default policy changed forecast values on the no-fault path"
    )

    # -- closed-loop latency, interleaved to decorrelate machine noise -----
    reports = {name: [] for name in policies}
    rounds = 3
    for _ in range(rounds):
        for name, policy in policies.items():
            engine = _make_engine(bundle, policy)
            try:
                reports[name].append(run_load(
                    engine,
                    num_clients=CLIENTS,
                    requests_per_client=REQUESTS,
                ))
            finally:
                engine.stop()
    for name in policies:
        assert all(r.errors == 0 for r in reports[name])

    def best(name, field):
        return min(getattr(r, field) for r in reports[name])

    p50_off = best("disabled", "latency_ms_p50")
    p50_on = best("default", "latency_ms_p50")
    overhead = p50_on / p50_off - 1.0
    print()
    for name in policies:
        print(f"{name:>8}: p50 {best(name, 'latency_ms_p50'):.2f}ms "
              f"p99 {best(name, 'latency_ms_p99'):.2f}ms "
              f"{best(name, 'throughput_rps'):.0f} req/s")
    print(f"p50 overhead (default vs disabled): {overhead * 100:+.2f}%")
    # Record target is 3%; the gate leaves headroom for shared-runner noise
    # on sub-millisecond p50s.
    assert overhead <= 0.15, (
        f"resilience overhead {overhead * 100:.1f}% p50 (limit 15% in-test)"
    )

    emit_bench_record("resilience_overhead", {
        "model": "RIHGCN",
        "dataset": "pems",
        "missing_rate": MISSING_RATE,
        "num_clients": CLIENTS,
        "requests_per_client": REQUESTS,
        "rounds": rounds,
        "bitwise_identical": True,
        "p50_overhead_fraction": overhead,
        "disabled": {
            "latency_ms_p50": best("disabled", "latency_ms_p50"),
            "latency_ms_p99": best("disabled", "latency_ms_p99"),
            "throughput_rps": best("disabled", "throughput_rps"),
        },
        "default": {
            "latency_ms_p50": best("default", "latency_ms_p50"),
            "latency_ms_p99": best("default", "latency_ms_p99"),
            "throughput_rps": best("default", "throughput_rps"),
        },
    })
