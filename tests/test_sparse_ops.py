"""Tests for the sparse side of the Chebyshev basis.

Large, sparse road graphs propagate through a CSR gather kernel
(``repro.autodiff.fused._Ell``) instead of a dense matmul; which side a
basis takes is a fixed rule on N and nnz (``use_sparse_basis``). The
kernel is checked against the dense basis, and the sparse side against
the memory and planning properties it exists for.
"""

import numpy as np
import pytest
from scipy import sparse as sp

from repro.autodiff import ChebBasis, Tensor, cheb_propagate, dtype_policy, gradcheck, inference_mode
from repro.autodiff import fused
from repro.autodiff.fused import _Ell, use_sparse_basis
from repro.graphs import chebyshev_polynomials, sparse_chebyshev_polynomials
from repro.models import gcn_lstm
from repro.nn import ChebConv, chebyshev_basis
from repro.serve import make_demo_bundle
from repro.serve.cluster.demo import corridor_adjacency
from repro.serve.planner import PlanRuntime
from repro.telemetry import MetricRegistry, Tracer


def ring(n):
    adj = np.zeros((n, n))
    for i in range(n):
        adj[i, (i + 1) % n] = adj[(i + 1) % n, i] = 1.0
    return adj


def sparse_everywhere(monkeypatch):
    """Move the crossover to zero so tiny graphs exercise the CSR kernel."""
    monkeypatch.setattr(fused, "SPARSE_MIN_NODES", 0)
    monkeypatch.setattr(fused, "SPARSE_MAX_DENSITY", 1.0)


@pytest.fixture(name="sparse_everywhere")
def _sparse_everywhere_fixture(monkeypatch):
    sparse_everywhere(monkeypatch)


def csr_kernel(dense):
    csr = sp.csr_matrix(dense)
    return _Ell(csr.indptr, csr.indices, csr.data, dense.shape[1])


def is_sparse(basis: ChebBasis) -> bool:
    return sp.issparse(basis.forward_basis) and sp.issparse(basis.backward_basis)


def reference_hops(stack, x):
    """The pre-fusion concat-of-matmuls layout, ``(..., N, K·C)``."""
    return np.concatenate([np.matmul(t, x) for t in stack], axis=-1)


class TestSparseMatmul:
    """The gather kernel is a sparse-dense product over axis -2."""

    def test_matches_dense_2d(self):
        rng = np.random.default_rng(0)
        dense = rng.normal(size=(6, 6)) * (rng.random((6, 6)) > 0.6)
        x = rng.normal(size=(6, 3))
        assert np.allclose(csr_kernel(dense).apply(x), dense @ x)

    def test_matches_dense_batched(self):
        rng = np.random.default_rng(1)
        dense = rng.normal(size=(5, 5)) * (rng.random((5, 5)) > 0.5)
        x = rng.normal(size=(4, 5, 2))
        assert np.allclose(csr_kernel(dense).apply(x), np.matmul(dense, x))

    def test_gradcheck(self, sparse_everywhere):
        rng = np.random.default_rng(2)
        stack = rng.normal(size=(2, 4, 4)) * (rng.random((2, 4, 4)) > 0.4)
        with dtype_policy(np.float64):
            basis = ChebBasis(sp.csr_matrix(stack.reshape(8, 4)))
            assert is_sparse(basis)
            x = Tensor(rng.normal(size=(2, 4, 3)), requires_grad=True)
            assert gradcheck(lambda x: cheb_propagate(x, basis), [x])

    def test_rejects_shape_mismatch(self, sparse_everywhere):
        basis = ChebBasis(sp.eye(4, format="csr"))
        with pytest.raises(ValueError):
            cheb_propagate(Tensor(np.zeros((3, 2))), basis)

    def test_rectangular_matrix(self):
        rng = np.random.default_rng(3)
        dense = rng.normal(size=(3, 5))
        x = rng.normal(size=(5, 2))
        out = csr_kernel(dense).apply(x)
        assert out.shape == (3, 2)
        assert np.allclose(out, dense @ x)

    def test_empty_rows_sum_to_zero(self):
        dense = np.zeros((5, 4))
        dense[1, 2] = 3.0
        dense[3, [0, 3]] = [1.0, -2.0]  # rows 0, 2 and the last are empty
        x = np.random.default_rng(4).normal(size=(2, 4, 3))
        out = csr_kernel(dense).apply(x)
        np.testing.assert_array_equal(out[:, [0, 2, 4]], 0.0)
        assert np.allclose(out, np.matmul(dense, x))

    def test_padding_reads_only_the_rows_support(self):
        """A non-finite reading reaches exactly the rows that use it."""
        dense = np.zeros((4, 4))
        dense[0, [0, 1, 2]] = 1.0  # the widest row sets the padding width
        dense[1, 3] = 2.0
        dense[3, [1, 2]] = 1.0  # row 2 is empty
        x = np.ones((4, 1))
        x[0] = np.nan
        out = csr_kernel(dense).apply(x)
        assert np.isnan(out[0, 0])
        assert np.isfinite(out[1:]).all()


class TestSparseChebConv:
    def test_sparse_matches_dense_forward(self, monkeypatch):
        n = 12
        stack = chebyshev_polynomials(ring(n), 3)
        rng_seed = np.random.default_rng(0)
        dense_conv = ChebConv(4, 6, stack, rng=np.random.default_rng(7))
        sparse_everywhere(monkeypatch)
        sparse_conv = ChebConv(4, 6, stack, rng=np.random.default_rng(7))
        assert not is_sparse(dense_conv._basis) and is_sparse(sparse_conv._basis)
        x = Tensor(rng_seed.normal(size=(3, n, 4)))
        assert np.allclose(dense_conv(x).data, sparse_conv(x).data, atol=1e-12)

    def test_sparse_matches_dense_gradients(self, monkeypatch):
        n = 8
        stack = chebyshev_polynomials(ring(n), 3)
        dense_conv = ChebConv(2, 3, stack, rng=np.random.default_rng(7))
        sparse_everywhere(monkeypatch)
        sparse_conv = ChebConv(2, 3, stack, rng=np.random.default_rng(7))
        assert is_sparse(sparse_conv._basis)
        x_data = np.random.default_rng(1).normal(size=(2, n, 2))
        for conv in (dense_conv, sparse_conv):
            conv.zero_grad()
            conv(Tensor(x_data)).sum().backward()
        assert np.allclose(dense_conv.weight.grad, sparse_conv.weight.grad,
                           atol=1e-12)

    def test_sparse_model_trains(self, sparse_everywhere):
        from repro.autodiff import mse
        from repro.optim import Adam

        n = 10
        stack = chebyshev_polynomials(ring(n), 3)
        conv = ChebConv(2, 1, stack, rng=np.random.default_rng(0))
        assert is_sparse(conv._basis)
        rng = np.random.default_rng(1)
        x = rng.normal(size=(16, n, 2))
        y = x.sum(axis=-1, keepdims=True)
        opt = Adam(conv.parameters(), lr=0.05)
        losses = []
        for _ in range(60):
            opt.zero_grad()
            loss = mse(conv(Tensor(x)), y)
            loss.backward()
            opt.step()
            losses.append(loss.item())
        assert losses[-1] < losses[0] * 0.5


class TestCsrKernelAgainstDenseBasis:
    """At sizes the rule sends to CSR, no monkeypatching."""

    def test_forward_batch_axes_and_channels_float32(self):
        n = 300
        stack = chebyshev_polynomials(corridor_adjacency(n), 3)
        basis = ChebBasis(stack)
        assert is_sparse(basis)
        x = np.random.default_rng(0).normal(size=(2, 3, n, 4)).astype(np.float32)
        out = cheb_propagate(Tensor(x), basis).data
        assert out.dtype == np.float32 and out.shape == (2, 3, n, 12)
        expected = reference_hops(stack.astype(np.float32), x)
        np.testing.assert_allclose(out, expected, rtol=1e-5, atol=1e-5)

    def test_gradcheck_float64(self):
        n = 300
        with dtype_policy(np.float64):
            basis = ChebBasis(sparse_chebyshev_polynomials(ring(n), 3))
            assert is_sparse(basis)
            x = Tensor(np.random.default_rng(1).normal(size=(2, n, 1)), requires_grad=True)
            assert gradcheck(lambda t: cheb_propagate(t, basis), [x])

    def test_isolated_node_in_bipartite_graph(self):
        """lambda_max = 2 zeroes the isolated node's L̃ diagonal: T_1 gets
        an empty row, which must propagate (and back-propagate) as zero."""
        n = 300
        adj = np.zeros((n, n))
        for i in range(n - 2):  # a path (bipartite) plus isolated node n-1
            adj[i, i + 1] = adj[i + 1, i] = 1.0
        stack = chebyshev_polynomials(adj, 3, lambda_max=2.0)
        assert not stack[1, n - 1].any()
        with dtype_policy(np.float64):
            basis = ChebBasis(stack)
            assert is_sparse(basis)
            assert basis.forward_basis.indptr[n + n] == basis.forward_basis.indptr[n + n - 1]
            rng = np.random.default_rng(2)
            x = Tensor(rng.normal(size=(3, n, 2)), requires_grad=True)
            out = cheb_propagate(x, basis)
            np.testing.assert_allclose(out.data, reference_hops(stack, x.data), atol=1e-12)
            upstream = rng.normal(size=out.shape)
            (out * Tensor(upstream)).sum().backward()
            dense_grad = sum(t.T @ upstream[..., k * 2:(k + 1) * 2] for k, t in enumerate(stack))
            np.testing.assert_allclose(x.grad, dense_grad, atol=1e-12)


class TestSparseChebyshevPolynomials:
    @pytest.mark.parametrize("order", [1, 3, 5])
    def test_matches_dense_stack(self, order):
        rng = np.random.default_rng(order)
        asymmetric = rng.random((40, 40)) * (rng.random((40, 40)) > 0.8)
        for adj in (ring(40), asymmetric):
            stack = sparse_chebyshev_polynomials(adj, order)
            assert sp.issparse(stack) and stack.shape == (order * 40, 40)
            np.testing.assert_allclose(stack.toarray().reshape(order, 40, 40),
                                       chebyshev_polynomials(adj, order), atol=1e-10)

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            sparse_chebyshev_polynomials(np.zeros((3, 4)), 3)
        with pytest.raises(ValueError):
            sparse_chebyshev_polynomials(ring(4), 0)


class TestSelectionRule:
    def test_small_graphs_stay_dense(self):
        for n in (16, 64):
            basis = chebyshev_basis(corridor_adjacency(n), 3)
            assert isinstance(basis.forward_basis, np.ndarray)
            assert isinstance(basis.backward_basis, np.ndarray)

    def test_large_sparse_graph_goes_sparse(self):
        assert is_sparse(chebyshev_basis(corridor_adjacency(2048), 3))

    def test_large_dense_graph_stays_dense(self):
        rng = np.random.default_rng(0)
        adj = rng.random((300, 300)) * (rng.random((300, 300)) > 0.9)
        adj = (adj + adj.T) / 2
        basis = chebyshev_basis(adj, 3)
        assert isinstance(basis.forward_basis, np.ndarray)

    def test_rule_needs_size_and_sparsity(self):
        assert not use_sparse_basis(128, 3 * 128, 3)  # 0.8% dense but small
        assert not use_sparse_basis(2048, int(0.05 * 3 * 2048 ** 2), 3)
        assert use_sparse_basis(2048, 30694, 3)

    def test_dense_stack_converts_by_the_same_rule(self):
        stack = chebyshev_polynomials(corridor_adjacency(300), 3)
        assert is_sparse(ChebBasis(stack))
        assert is_sparse(ChebBasis(sp.csr_matrix(stack.reshape(900, 300))))
        small = chebyshev_polynomials(corridor_adjacency(40), 3)
        assert isinstance(ChebBasis(sp.csr_matrix(small.reshape(120, 40))).forward_basis, np.ndarray)


class TestSparseSideProperties:
    def test_corridor_bundle_basis_is_csr_and_small(self, tmp_path):
        bundle = make_demo_bundle(str(tmp_path / "corridor"), num_nodes=1024)
        bases = [m._basis for m in bundle.model.modules() if isinstance(m, ChebConv)]
        assert bases
        for basis in bases:
            assert is_sparse(basis)
            assert basis.forward_basis.shape == (3 * 1024, 1024)
            nnz = basis.forward_basis.nnz
            # O(nnz): a few dozen bytes per stored entry, far from the
            # 37 MB a dense (K, N, N) float32 stack would take.
            assert basis.nbytes < 64 * nnz
            assert basis.nbytes < 1_000_000

    def test_sparse_gcn_lstm_plans_and_replays_bitwise(self):
        n = 300
        model = gcn_lstm(input_length=4, output_length=2, num_nodes=n, num_features=1,
                         adjacency=corridor_adjacency(n), embed_dim=4, hidden_dim=8, seed=0)
        assert is_sparse(model.encoder._basis)
        registry = MetricRegistry()
        runtime = PlanRuntime(model, registry, Tracer())
        rng = np.random.default_rng(0)
        for state in ("validate", "ready", "ready"):
            x = rng.normal(size=(1, 4, n, 1)).astype(np.float32)
            out = runtime.predict(x, None, None)
            with inference_mode():
                eager = model(x, None, None).prediction.data
            np.testing.assert_array_equal(out, eager)
            assert next(iter(runtime._entries.values())).state == state
        counters = registry.snapshot()["counters"]
        assert counters.get("serve/plan_fallbacks", 0) == 0
        assert runtime.snapshot()["ready"] == 1
