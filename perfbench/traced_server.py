"""Child process: ``repro serve`` rebuilt from the public API, with timers.

Serves a bundle like the CLI does (default ``ServeConfig``), but

* hands ``bind_http`` a wrapper app whose ``handle`` times
  ``ServeApp.handle`` and returns that time in ``X-Server-Ms``;
* wraps instance methods of the pool, store, engine, planner and scaler
  with timers keyed by the client's ``X-Bench-Id``;
* samples every request in the existing Tracer, for the ``queue``,
  ``batch_forward``, ``model_forward`` and ``plan.compile`` spans.

Records stay in memory; on SIGTERM the process times a few direct calls
at the workload shape, then writes everything to ``--spans-out``.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
import threading
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.autodiff import ChebBasis, inference_mode  # noqa: E402
from repro.nn import graph as nn_graph  # noqa: E402
from repro.serve import PlanRuntime, Response, ServeApp, ServeConfig, bind_http, load_bundle  # noqa: E402
from repro.telemetry import MetricRegistry, Tracer, label_block, set_tracer  # noqa: E402

DIRECT_REPEATS = 15


class Recorder:
    """Call timings per layer; a layer nested in itself is timed once."""

    def __init__(self):
        self.local = threading.local()
        self.lock = threading.Lock()
        self.calls: list[tuple] = []  # (layer, bench id or None, seconds, note)
        self.active = True

    def record(self, layer: str, ident, seconds: float, note=None) -> None:
        with self.lock:
            self.calls.append((layer, ident, seconds, note))

    def wrap(self, obj, method: str, layer: str, note=None) -> None:
        original = getattr(obj, method)
        recorder = self

        def timed(*args, **kwargs):
            open_layers = recorder.local.__dict__.setdefault("open", set())
            if not recorder.active or layer in open_layers:
                return original(*args, **kwargs)
            open_layers.add(layer)
            before = note.before() if note is not None else None
            start = time.perf_counter()
            try:
                out = original(*args, **kwargs)
            finally:
                seconds = time.perf_counter() - start
                open_layers.discard(layer)
            recorder.record(layer, getattr(recorder.local, "ident", None), seconds,
                            note.after(out, before) if note is not None else None)
            return out

        setattr(obj, method, timed)


class TimedApp:
    """``handle``-shaped wrapper that times the real app's ``handle``."""

    def __init__(self, app: ServeApp, recorder: Recorder):
        self.app = app
        self.recorder = recorder

    def handle(self, method, path, body, headers=None):
        ident = (headers or {}).get("X-Bench-Id")
        self.recorder.local.ident = ident
        start = time.perf_counter()
        try:
            response = self.app.handle(method, path, body, headers)
        finally:
            seconds = time.perf_counter() - start
            self.recorder.local.ident = None
        self.recorder.record("http.handle", ident, seconds, path.split("?")[0])
        return Response(response.status, response.body,
                        {**response.headers, "X-Server-Ms": f"{seconds * 1e3:.6f}"})


class Accepted:
    @staticmethod
    def before():
        return None

    @staticmethod
    def after(out, _before):
        return bool(out)


class TraceId:
    @staticmethod
    def before():
        context = Tracer.current_context()
        return context.trace_id if context is not None else None

    @staticmethod
    def after(_out, before):
        return before


class ExecMode:
    """Tags a planner call "planned" when it replayed a ready plan."""

    def __init__(self, registry, labels: dict):
        self.counter = registry.counter("serve/engine_exec_mode" + label_block({**labels, "mode": "planned"}))

    def before(self):
        return self.counter.value

    def after(self, _out, before):
        return "planned" if self.counter.value > before else "other"


def _median_ms(fn, repeats: int = DIRECT_REPEATS) -> float:
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return float(np.median(times)) * 1e3


def basis_bytes(model) -> int:
    """Bytes held by every distinct Chebyshev basis inside ``model``."""
    seen, total, stack = set(), 0, [model]
    while stack:
        obj = stack.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        if isinstance(obj, ChebBasis):
            for array in (obj.forward_basis, obj.backward_basis):
                if isinstance(array, np.ndarray):
                    total += array.nbytes
                else:  # CSR
                    total += array.data.nbytes + array.indices.nbytes + array.indptr.nbytes
            continue
        children = getattr(obj, "__dict__", None)
        if children:
            stack.extend(v for v in children.values() if not isinstance(v, np.ndarray))
        elif isinstance(obj, (list, tuple)):
            stack.extend(obj)
        elif isinstance(obj, dict):
            stack.extend(obj.values())
    return total


def direct_timings(app: ServeApp) -> dict:
    """Batch-1 calls into each layer at the workload shape, after the traffic."""
    store, engine, model, scaler = app.store, app.engine, app.engine.model, app.engine.scaler
    window = store.window()
    x, m, steps = window.x[None], window.m[None], window.steps_of_day[None]
    x_scaled = scaler.transform(x, m)

    def eager():
        with inference_mode():
            model(x_scaled, m, steps)

    planner = PlanRuntime(model, MetricRegistry(), Tracer(sample_rate=0.0))
    for _ in range(3):  # compile, validate, ready
        planner.predict(x_scaled, m, steps)

    out = {
        "telemetry.quality_update_ms": _median_ms(lambda: app.quality.update(store.window(), store=store)),
        "model.eager_b1_ms": _median_ms(eager),
        "model.planned_b1_ms": _median_ms(lambda: planner.predict(x_scaled, m, steps)),
        "model.basis_bytes": basis_bytes(model),
    }
    # Per-call time of the graph propagation inside eager forwards.
    original, calls = nn_graph.cheb_propagate, []

    def timed(*args, **kwargs):
        start = time.perf_counter()
        result = original(*args, **kwargs)
        calls.append(time.perf_counter() - start)
        return result

    nn_graph.cheb_propagate = timed
    try:
        for _ in range(3):
            eager()
    finally:
        nn_graph.cheb_propagate = original
    out["autodiff.cheb_propagate_ms"] = float(np.median(calls)) * 1e3 if calls else 0.0
    return out


def span_dict(span) -> dict:
    return {
        "name": span.name,
        "trace_id": span.context.trace_id,
        "start": span.start,
        "end": span.end,
        "attributes": {k: v for k, v in span.attributes.items() if isinstance(v, (int, float, str, bool))},
        "links": [link.trace_id for link in span.links],
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--bundle", required=True)
    parser.add_argument("--spans-out", required=True)
    args = parser.parse_args()

    bundle = load_bundle(args.bundle)
    tracer = Tracer(sample_rate=1.0, max_spans=1_000_000, service="serve")
    set_tracer(tracer)
    app = ServeApp(bundle, tracer=tracer, config=ServeConfig())
    recorder = Recorder()
    pool, store, engine = app.pool, app.store, app.engine
    for method in ("observe", "observe_sensor"):
        recorder.wrap(pool, method, "fleet.observe")
        recorder.wrap(store, method, "state.observe", Accepted)
    recorder.wrap(pool, "forecast", "fleet.forecast", TraceId)
    recorder.wrap(store, "window", "state.window")
    recorder.wrap(engine, "forecast", "engine.forecast")
    if engine.planner is not None:
        recorder.wrap(engine.planner, "predict", "plan.predict", ExecMode(app.registry, engine.labels))
    recorder.wrap(engine.scaler, "transform", "scaler.transform")
    recorder.wrap(engine.scaler, "inverse_transform", "scaler.inverse")

    server = bind_http(TimedApp(app, recorder), "127.0.0.1", 0)
    app.pool.start()

    def terminate(_signum, _frame):
        raise SystemExit(0)

    signal.signal(signal.SIGTERM, terminate)
    host, port = server.server_address[:2]
    print(f"serving on http://{host}:{port}", flush=True)
    try:
        server.serve_forever()
    except (SystemExit, KeyboardInterrupt):
        pass
    finally:
        recorder.active = False
        server.server_close()
        app.pool.stop()
        app.close()

    def count(name: str) -> float:
        return app.registry.counter(name + label_block(engine.labels)).value

    def mode(name: str) -> float:
        return app.registry.counter("serve/engine_exec_mode" + label_block({**engine.labels, "mode": name})).value

    dump = {
        "calls": recorder.calls,
        "spans": [span_dict(s) for s in tracer.finished_spans()],
        "counters": {
            "requests": count("serve/requests"),
            "cache_hits": count("serve/cache_hits"),
            "forwards": count("serve/forwards"),
            "plan_hits": count("serve/plan_cache_hits"),
            "plan_misses": count("serve/plan_cache_misses"),
            "plan_fallbacks": count("serve/plan_fallbacks"),
            "mode_planned": mode("planned"),
            "mode_traced": mode("traced"),
            "mode_eager": mode("eager"),
        },
        "direct": direct_timings(app),
    }
    with open(args.spans_out, "w") as handle:
        json.dump(dump, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
