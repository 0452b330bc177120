"""The benchmark's workloads: what each serves, trains and sends.

Every workload runs the same pipeline so every end-to-end metric is
measured on each: train a model for a fixed number of epochs, export a
bundle, serve it with ``repro serve`` in a child process, drive seeded
traffic over keep-alive sockets, and check a forecast against an offline
forward of the same bundle. The two workloads load different layers:

* ``rihgcn-serve16-train64`` — serving RIHGCN at N=16, where per-request
  fixed costs dominate (HTTP framing, JSON, routing, state writes, queue
  wait, cache, plan replay under RIHGCN's signature churn) and 40% of
  forecasts are cache-eligible; training RIHGCN at N=64 with 40% MCAR
  missing values, the only accuracy metric.
* ``serve-corridor2048`` — the O(N^2) dense graph propagation, 260 KB
  responses and basis memory; the cache never hits.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    model: str  # "RIHGCN" (synthetic PeMS context) or "GCN-LSTM" (corridor demo)
    nodes: int  # served graph size
    train_nodes: int  # graph size of the training job
    mix: str  # "sensor": per-sensor observes + forecasts; "network": 3 full observes per forecast
    rate_rps: float  # open-loop Poisson offered rate
    latency_limit_ms: float  # goodput counts 200s answered within this
    epochs: int  # fixed training epochs (no early stop)
    open_share: float  # share of --seconds spent in the open-loop phase


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="rihgcn-serve16-train64", model="RIHGCN", nodes=16, train_nodes=64,
            mix="sensor", rate_rps=16.0, latency_limit_ms=100.0, epochs=6,
            open_share=1.2,
        ),
        Workload(
            name="serve-corridor2048", model="GCN-LSTM", nodes=2048, train_nodes=2048,
            mix="network", rate_rps=8.0, latency_limit_ms=400.0, epochs=4,
            open_share=1.7,
        ),
    )
}
