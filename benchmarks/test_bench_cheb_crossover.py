"""Dense vs sparse Chebyshev basis: the sweep behind the selection rule.

``ChebBasis`` stores a graph's ``T_k`` stack dense (one BLAS matmul per
propagation) or as CSR (a constant-index gather, a multiply and a sum),
by a fixed rule on N and nnz (``repro.autodiff.fused.use_sparse_basis``).
This bench times both sides on the width-2 corridor graph the demo
bundles use, emitted as ``BENCH_cheb_crossover.json``:

* ``kernel`` — one no-grad ``cheb_propagate`` and one forward+backward,
  per N, channel count C and graph width (width 8 is ~3x denser);
* ``model`` — the demo bundle's GCN-LSTM at batch 1, eager no-grad and
  planned (``ExecutionPlan.replay``), p50 in ms.

Gates: at N=2048 the planned sparse forward is at least 1.5x faster
than the dense eager one, the sparse basis holds O(nnz) bytes, and at
the clear-cut sizes (N=16, N=2048) the rule's side is the faster one.
The dense N=2048 forward is memory-bound and swings from ~56 to ~100 ms
with load on a shared host; the sparse one holds at ~32-38 ms, so the
ratio reads 1.7x on a quiet host and 2.6x on a busy one.
"""

import time

import numpy as np
import pytest

from bench_config import emit_bench_record

from repro.autodiff import Tensor, cheb_propagate, fused, inference_mode, no_grad, trace
from repro.models import gcn_lstm
from repro.nn import chebyshev_basis
from repro.serve.cluster.demo import corridor_adjacency

pytestmark = pytest.mark.bench

KERNEL_SIZES = (128, 256, 512, 1024, 2048)
MODEL_SIZES = (16, 512, 2048)
MIN_PLANNED_SPARSE_SPEEDUP = 1.5  # over dense eager at N=2048
MAX_BYTES_PER_NNZ = 64


def _p50_ms(fn, seconds: float = 1.0, min_reps: int = 5) -> float:
    fn()
    times = []
    deadline = time.perf_counter() + seconds
    while len(times) < min_reps or time.perf_counter() < deadline:
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return float(np.median(times)) * 1e3


def _forced(monkeypatch, sparse: bool, build):
    """``build()`` with the rule pinned to one side."""
    with monkeypatch.context() as patch:
        patch.setattr(fused, "SPARSE_MIN_NODES", 0 if sparse else 10**9)
        patch.setattr(fused, "SPARSE_MAX_DENSITY", 1.0 if sparse else 0.0)
        return build()


def _side(basis) -> str:
    return "dense" if isinstance(basis.forward_basis, np.ndarray) else "sparse"


def test_cheb_crossover(monkeypatch):
    rng = np.random.default_rng(0)
    kernel_rows = []
    for width, sizes in ((2, KERNEL_SIZES), (8, (256, 512))):
        for n in sizes:
            adj = corridor_adjacency(n, width=width)
            chosen = _side(chebyshev_basis(adj, 3))
            bases = {side: _forced(monkeypatch, side == "sparse", lambda: chebyshev_basis(adj, 3))
                     for side in ("dense", "sparse")}
            nnz = bases["sparse"].forward_basis.nnz
            for channels in (1, 16):
                x = rng.normal(size=(1, n, channels)).astype(np.float32)
                row = {"n": n, "width": width, "channels": channels, "density": nnz / (3 * n * n),
                       "rule": chosen}
                for side, basis in bases.items():
                    def forward(basis=basis):
                        with no_grad():
                            cheb_propagate(Tensor(x), basis)

                    xt = Tensor(x, requires_grad=True)

                    def train(basis=basis, xt=xt):
                        cheb_propagate(xt, basis).sum().backward()

                    row[f"{side}_fwd_us"] = _p50_ms(forward, 0.3) * 1e3
                    row[f"{side}_fwd_bwd_us"] = _p50_ms(train, 0.3) * 1e3
                kernel_rows.append(row)
                print(f"kernel N={n:5d} width={width} C={channels:2d} density={row['density']:.4f} "
                      f"rule={chosen:6s} fwd dense/sparse {row['dense_fwd_us']:8.1f}/"
                      f"{row['sparse_fwd_us']:7.1f} us  fwd+bwd {row['dense_fwd_bwd_us']:8.1f}/"
                      f"{row['sparse_fwd_bwd_us']:7.1f} us")

    model_rows = []
    for n in MODEL_SIZES:
        adj = corridor_adjacency(n)
        x = rng.normal(size=(1, 12, n, 1)).astype(np.float32)
        row = {"n": n, "rule": _side(chebyshev_basis(adj, 3))}
        for side in ("dense", "sparse"):
            # the demo bundle's GCN-LSTM: 12 steps in, 6 out, embed 16, hidden 32
            model = _forced(monkeypatch, side == "sparse", lambda: gcn_lstm(
                input_length=12, output_length=6, num_nodes=n, num_features=1,
                adjacency=adj, embed_dim=16, hidden_dim=32, seed=0))
            inputs, _ = model.plan_inputs(x, None, None)
            plan, _ = trace(model.plan_forward, inputs)

            def eager(model=model):
                with inference_mode():
                    model(x, None, None)

            row[f"{side}_eager_ms"] = _p50_ms(eager, 2.0)
            row[f"{side}_planned_ms"] = _p50_ms(lambda plan=plan: plan.replay(inputs), 2.0)
            row[f"{side}_basis_bytes"] = model.encoder._basis.nbytes
            row[f"{side}_planned_over_eager"] = row[f"{side}_eager_ms"] / row[f"{side}_planned_ms"]
        model_rows.append(row)
        print(f"model  N={n:5d} rule={row['rule']:6s} dense eager/planned "
              f"{row['dense_eager_ms']:7.2f}/{row['dense_planned_ms']:7.2f} ms  sparse eager/planned "
              f"{row['sparse_eager_ms']:7.2f}/{row['sparse_planned_ms']:7.2f} ms")

    sparse_nnz = _forced(monkeypatch, True, lambda: chebyshev_basis(corridor_adjacency(2048), 3))
    emit_bench_record("cheb_crossover", {
        "graph": "corridor",
        "rule": {"min_nodes": fused.SPARSE_MIN_NODES, "max_density": fused.SPARSE_MAX_DENSITY},
        "kernel": kernel_rows,
        "model": model_rows,
    })

    by_n = {row["n"]: row for row in model_rows}
    big = by_n[2048]
    assert big["rule"] == "sparse" and by_n[16]["rule"] == "dense"
    assert big["dense_eager_ms"] / big["sparse_planned_ms"] >= MIN_PLANNED_SPARSE_SPEEDUP
    assert big["sparse_basis_bytes"] <= MAX_BYTES_PER_NNZ * sparse_nnz.forward_basis.nnz
    # The rule's side is the faster one where the sweep is clear-cut.
    for n, faster in ((16, "dense"), (2048, "sparse")):
        other = "sparse" if faster == "dense" else "dense"
        assert by_n[n][f"{faster}_planned_ms"] <= by_n[n][f"{other}_planned_ms"] * 1.05
