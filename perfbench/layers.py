"""Per-layer metrics from a traced serving run and a traced training run.

Serving numbers join three sources per request by its ``X-Bench-Id``:
the client's round trip, the server's ``X-Server-Ms`` handle time and
the traced server's timer records; queue and batch times come from the
Tracer spans of the same trace. Along a request's blocking path the
named parts are: wire (client RTT minus handle), HTTP self time, fleet
self time, the state call, and for fresh forecasts the queue wait and
the batch forward. What is left (engine glue, thread hand-offs) is
``trace.other_share`` of the summed client round trips.
"""

from __future__ import annotations

from collections import defaultdict

import numpy as np

import loadgen

#: op names reported as train.op.<op>.*: the union over the workloads of
#: the ops that covered >= 95% of profiled training time at the seed commit
TRAIN_OPS = ("matmul", "sigmoid", "add", "mul", "cheb_propagate", "tanh", "relu")


def _p50(values) -> float:
    return float(np.median(values)) if len(values) else 0.0


def serving_layers(results: list[loadgen.Result], dump: dict) -> dict:
    """Per-layer serving metrics from ok open-loop results and the dump."""
    by_ident: dict[str, dict[str, float]] = defaultdict(dict)
    notes: dict[str, dict] = defaultdict(dict)
    flat: dict[str, list[float]] = defaultdict(list)
    accepted = []
    replay = []
    for layer, ident, seconds, note in dump["calls"]:
        flat[layer].append(seconds * 1e3)
        if ident is not None:
            by_ident[ident][layer] = by_ident[ident].get(layer, 0.0) + seconds * 1e3
            notes[ident][layer] = note
        if layer == "state.observe":
            accepted.append(bool(note))
        if layer == "plan.predict" and note == "planned":
            replay.append(seconds * 1e3)

    spans = dump["spans"]
    queue_by_trace = {s["trace_id"]: (s["end"] - s["start"]) * 1e3 for s in spans if s["name"] == "queue"}
    batch_by_trace = {}
    batch_ms, batch_sizes = [], []
    for s in spans:
        if s["name"] == "batch_forward":
            ms = (s["end"] - s["start"]) * 1e3
            batch_ms.append(ms)
            batch_sizes.append(s["attributes"].get("batch_size", 1))
            for trace_id in s["links"]:
                batch_by_trace[trace_id] = ms
    span_ms = defaultdict(list)
    for s in spans:
        span_ms[s["name"]].append((s["end"] - s["start"]) * 1e3)

    parts = defaultdict(list)
    rtt_total = other_total = 0.0
    for result in results:
        if result.outcome != "ok":
            continue
        ident = result.request.ident
        layers = by_ident.get(ident, {})
        kind = result.request.kind
        rtt = result.rtt_ms
        handle = float(result.headers.get("x-server-ms", "nan"))
        fleet = layers.get(f"fleet.{kind}", 0.0)
        child = layers.get("engine.forecast" if kind == "forecast" else "state.observe", 0.0)
        parts[f"http.handle_{kind}_ms"].append(handle)
        parts[f"http.wire_{kind}_ms"].append(rtt - handle)
        parts[f"http.self_{kind}_ms"].append(handle - fleet)
        parts[f"fleet.self_{kind}_ms"].append(fleet - child)
        if kind == "forecast":
            parts["http.forecast_bytes"].append(len(result.body))
            trace_id = notes.get(ident, {}).get("fleet.forecast")
            named = layers.get("state.window", 0.0)
            named += queue_by_trace.get(trace_id, 0.0) + batch_by_trace.get(trace_id, 0.0)
            other = max(0.0, child - named)
        else:
            parts["http.observe_bytes"].append(len(result.request.body or b""))
            other = 0.0
        rtt_total += rtt
        other_total += other

    counters = dump["counters"]
    requests = counters["requests"] or 1.0
    plan_lookups = counters["plan_hits"] + counters["plan_misses"]
    modes = counters["mode_planned"] + counters["mode_traced"] + counters["mode_eager"]
    out = {name: _p50(values) for name, values in parts.items()}
    out.update({
        "state.observe_ms": _p50(flat["state.observe"]),
        "state.window_ms": _p50(flat["state.window"]),
        "state.accepted_ratio": float(np.mean(accepted)) if accepted else 0.0,
        "engine.queue_wait_ms": _p50(span_ms["queue"]),
        "engine.batch_forward_ms": _p50(batch_ms),
        "engine.batch_size_mean": float(np.mean(batch_sizes)) if batch_sizes else 0.0,
        "engine.cache_hit_ratio": counters["cache_hits"] / requests,
        "engine.forwards_per_forecast": counters["forwards"] / requests,
        "plan.replay_ms": _p50(replay),
        "plan.hit_ratio": counters["plan_hits"] / plan_lookups if plan_lookups else 0.0,
        "plan.compiles": counters["plan_misses"],
        "plan.compile_ms": _p50(span_ms["plan.compile"]),
        "plan.fallbacks": counters["plan_fallbacks"],
        "plan.planned_share": counters["mode_planned"] / modes if modes else 0.0,
        "model.forward_ms": _p50(span_ms["model_forward"]),
        "scaler.transform_ms": _p50(flat["scaler.transform"]),
        "scaler.inverse_ms": _p50(flat["scaler.inverse"]),
        "trace.other_share": other_total / rtt_total if rtt_total else 0.0,
    })
    out.update(dump["direct"])
    return out


def training_layers(trace: dict) -> dict:
    """Flatten the training trace; ops outside TRAIN_OPS go to other_s."""
    out = {k: v for k, v in trace.items() if k != "ops"}
    ops = trace["ops"]
    for op in TRAIN_OPS:
        stat = ops.get(op, {"fwd_s": 0.0, "bwd_s": 0.0, "alloc_mb": 0.0})
        for key in ("fwd_s", "bwd_s", "alloc_mb"):
            out[f"train.op.{op}.{key}"] = stat[key]
    out["train.op.other_s"] = sum(
        stat["fwd_s"] + stat["bwd_s"] for op, stat in ops.items() if op not in TRAIN_OPS
    )
    return out
