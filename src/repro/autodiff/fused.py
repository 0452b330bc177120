"""Fused kernels for the training hot path.

:func:`cheb_propagate` collapses the ChebConv propagation loop

.. code-block:: python

    concat([T_k @ x for T_k in cheb], axis=-1)        # K matmuls + concat

into **one** op against a precomputed :class:`ChebBasis`, so the autodiff
graph records one node instead of ``K + 1``. The basis is stored in one
of two forms, chosen from the graph by :func:`use_sparse_basis`:

* **dense** — the ``K`` polynomial matrices stacked vertically into a
  ``(K·N, N)`` forward basis (its transpose, ``(N, K·N)``, drives the
  backward): a batch of windows pays a single BLAS call per layer. The
  reordering from ``(..., K·N, C)`` to the concat layout
  ``(..., N, K·C)`` is a reshape/moveaxis, bitwise identical to the loop
  version, so existing ``(K·C, out)`` weight layouts (checkpoints,
  bundles) are untouched.
* **sparse** — for large road graphs, where ``T_k`` has a few entries per
  row: the stacked basis and its transpose are CSR matrices, and
  propagation is a constant-index gather, a multiply and a sum over
  padded rows (:class:`_Ell`). Those are plain numpy calls, so execution
  plans trace them like any other op. Nothing of size ``N²`` is held.
"""

from __future__ import annotations

import sys

import numpy as np

from .dtype import default_dtype
from .tensor import Tensor, as_tensor, is_grad_enabled

__all__ = ["ChebBasis", "cheb_propagate", "use_sparse_basis"]

#: The dense/sparse crossover, from the sweep in docs/PERFORMANCE.md:
#: below 256 nodes, or above 2% stored entries, one BLAS matmul is at
#: least as fast as the gather kernel.
SPARSE_MIN_NODES = 256
SPARSE_MAX_DENSITY = 0.02


def use_sparse_basis(num_nodes: int, nnz: int, order: int) -> bool:
    """Whether an order-``K`` basis over ``num_nodes`` nodes with ``nnz``
    stored entries is propagated as CSR (the rule is fixed, not a setting)."""
    return (num_nodes >= SPARSE_MIN_NODES
            and nnz <= SPARSE_MAX_DENSITY * order * num_nodes * num_nodes)


def _issparse(matrix) -> bool:
    """``scipy.sparse.issparse`` without importing scipy.

    A sparse matrix cannot exist unless ``scipy.sparse`` is loaded, so
    dense-only processes (the small-graph serving path) never pay its
    ~22 MB import.
    """
    sparse = sys.modules.get("scipy.sparse")
    return sparse is not None and sparse.issparse(matrix)


def _contiguous(a: np.ndarray) -> np.ndarray:
    """C-contiguous ``a``, preserving ndarray subclasses.

    ``np.ascontiguousarray`` strips subclasses at the C level, which
    makes the copy invisible to execution-plan tracing; an explicit
    ``copy()`` of the non-contiguous view is bitwise-identical and
    dispatches through the subclass.
    """
    return a if a.flags["C_CONTIGUOUS"] else a.copy()


class _Ell:
    """A CSR operand with its rows padded to one width ``W``, column-major.

    ``apply`` gathers ``x`` into ``(..., W, R, C)``, weights it and sums
    over ``W`` — numpy does that as ``W - 1`` contiguous vector adds,
    and an empty row simply sums to zero. Padding slots repeat a column
    the row already reads (an empty row reads its own index) with weight
    0, so no row ever touches a value outside its own support.
    """

    __slots__ = ("cols", "vals")

    def __init__(self, indptr: np.ndarray, indices: np.ndarray,
                 data: np.ndarray, num_cols: int):
        lengths = np.diff(indptr)
        rows = lengths.size
        width = max(1, int(lengths.max(initial=0)))
        pad = np.minimum(np.arange(rows), num_cols - 1)
        filled = lengths > 0
        pad[filled] = indices[indptr[1:][filled] - 1]
        slot = np.arange(indices.size) - np.repeat(indptr[:-1], lengths)
        row = np.repeat(np.arange(rows), lengths)
        self.cols = np.broadcast_to(pad, (width, rows)).astype(np.intp)
        self.cols[slot, row] = indices
        vals = np.zeros((width, rows), dtype=data.dtype)
        vals[slot, row] = data
        self.vals = vals[..., None]

    @property
    def nbytes(self) -> int:
        return self.cols.nbytes + self.vals.nbytes

    def apply(self, x: np.ndarray) -> np.ndarray:
        """``(..., num_cols, C) -> (..., R, C)``."""
        gathered = np.take(x, self.cols, axis=-2, mode="clip")
        gathered *= self.vals
        return np.add.reduce(gathered, axis=-3)


class ChebBasis:
    """Precomputed stacked Chebyshev basis shared by fused propagations.

    Parameters
    ----------
    cheb_stack:
        ``T_k(L̃)`` for ``k = 0 .. K-1`` (constant during training — the
        graph is fixed): a dense ``(K, N, N)`` array, or the same stack as
        one ``scipy.sparse`` ``(K·N, N)`` matrix (see
        :func:`repro.graphs.sparse_chebyshev_polynomials`). Stored in the
        policy dtype, dense or CSR as :func:`use_sparse_basis` selects
        from ``N`` and the number of nonzeros.

    ``forward_basis`` is the ``(K·N, N)`` stacked basis and
    ``backward_basis`` its ``(N, K·N)`` transpose, both ndarrays or both
    CSR matrices.
    """

    __slots__ = ("order", "num_nodes", "forward_basis", "backward_basis",
                 "_forward_ells", "_backward_ell")

    def __init__(self, cheb_stack):
        dtype = default_dtype()
        if _issparse(cheb_stack):
            from scipy import sparse as sp

            stacked = sp.csr_matrix(cheb_stack).astype(dtype)
            rows, n = stacked.shape
            if n == 0 or rows % n:
                raise ValueError(
                    f"a sparse cheb_stack must have shape (K*N, N), got {stacked.shape}"
                )
            k = rows // n
            stacked.sum_duplicates()
            stacked.eliminate_zeros()
            nnz = stacked.nnz
        else:
            stack = np.asarray(cheb_stack, dtype=dtype)
            if stack.ndim != 3 or stack.shape[1] != stack.shape[2]:
                raise ValueError(
                    f"cheb_stack must have shape (K, N, N), got {stack.shape}"
                )
            k, n, _ = stack.shape
            stacked = np.ascontiguousarray(stack.reshape(k * n, n))
            nnz = int(np.count_nonzero(stacked))
        self.order = int(k)
        self.num_nodes = int(n)
        self._forward_ells = self._backward_ell = None
        if not use_sparse_basis(self.num_nodes, nnz, self.order):
            if _issparse(stacked):
                stacked = stacked.toarray()
            self.forward_basis = stacked  # (K·N, N)
            self.backward_basis = np.ascontiguousarray(stacked.T)  # (N, K·N)
            return
        from scipy import sparse as sp

        forward = stacked if _issparse(stacked) else sp.csr_matrix(stacked)
        backward = forward.T.tocsr()
        self.forward_basis, self.backward_basis = forward, backward
        # One padded operand per hop: each T_k pads to its own widest row.
        self._forward_ells = []
        for hop in range(k):
            block = forward[hop * n:(hop + 1) * n]
            self._forward_ells.append(_Ell(block.indptr, block.indices, block.data, n))
        # The backward reads the upstream gradient in its (N, K, C)
        # layout: column ``k·N + i`` of the stacked basis is ``i·K + k``.
        cols = backward.indices
        self._backward_ell = _Ell(backward.indptr, (cols % n) * k + cols // n,
                                  backward.data, k * n)

    @property
    def nbytes(self) -> int:
        """Bytes of every array the basis holds."""
        total = 0
        for matrix in (self.forward_basis, self.backward_basis):
            if _issparse(matrix):
                total += matrix.data.nbytes + matrix.indices.nbytes + matrix.indptr.nbytes
            else:
                total += matrix.nbytes
        if self._backward_ell is not None:
            total += self._backward_ell.nbytes
            total += sum(ell.nbytes for ell in self._forward_ells)
        return total

    def __repr__(self) -> str:
        kind = "sparse" if self._backward_ell is not None else "dense"
        return f"ChebBasis(K={self.order}, N={self.num_nodes}, {kind})"


def cheb_propagate(x: Tensor, basis: ChebBasis) -> Tensor:
    """``(..., N, C) -> (..., N, K·C)``: all K polynomial hops in one op.

    Output feature ``k·C + c`` equals ``(T_k @ x)[..., n, c]`` — the
    exact layout of the concat-of-matmuls it replaces.
    """
    x = as_tensor(x)
    k, n = basis.order, basis.num_nodes
    if x.data.ndim < 2 or x.data.shape[-2] != n:
        raise ValueError(
            f"expected {n} nodes on axis -2, got shape {x.shape}"
        )
    c = x.data.shape[-1]
    lead = x.data.shape[:-2]
    if basis._backward_ell is None:
        z = np.matmul(basis.forward_basis, x.data)  # (..., K·N, C)
        out = _contiguous(
            np.moveaxis(z.reshape(lead + (k, n, c)), -3, -2)
        ).reshape(lead + (n, k * c))
    else:
        hops = [ell.apply(x.data) for ell in basis._forward_ells]
        out = np.stack(hops, axis=-2).reshape(lead + (n, k * c))
    if not is_grad_enabled():
        return Tensor(out)

    if basis._backward_ell is not None:
        def backward(g, ell=basis._backward_ell, k=k, n=n, c=c):
            return (ell.apply(g.reshape(g.shape[:-2] + (n * k, c))),)
    else:
        def backward(g, bb=basis.backward_basis, k=k, n=n, c=c):
            lead = g.shape[:-2]
            gz = np.ascontiguousarray(
                np.moveaxis(g.reshape(lead + (n, k, c)), -2, -3)
            ).reshape(lead + (k * n, c))
            return (np.matmul(bb, gz),)

    return Tensor._make(out, (x,), backward, "cheb_propagate")
