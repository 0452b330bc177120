"""Graph Laplacians and Chebyshev polynomial stacks (Section III-C).

The spectral GCN of Eq. (1) needs ``T_k(L̃)`` where
``L̃ = 2 L / lambda_max - I`` is the scaled normalized Laplacian. The graph
is fixed during training, so these matrices are computed once and cached in
each :class:`~repro.nn.graph.ChebConv`.

Road graphs are corridors with a few neighbours per sensor, so
:func:`sparse_chebyshev_polynomials` builds the same stack in
``scipy.sparse`` — O(nnz) memory and time, ``eigsh`` for the largest
eigenvalue — for graphs too large to hold as ``(K, N, N)``.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "normalized_laplacian",
    "scaled_laplacian",
    "chebyshev_polynomials",
    "sparse_chebyshev_polynomials",
    "max_eigenvalue",
]


def normalized_laplacian(adjacency: np.ndarray) -> np.ndarray:
    """Symmetric normalized Laplacian ``I - D^{-1/2} A D^{-1/2}``.

    Isolated nodes contribute identity rows (their normalized adjacency row
    is zero).
    """
    a = np.asarray(adjacency, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"adjacency must be square, got shape {a.shape}")
    degree = a.sum(axis=1)
    inv_sqrt = np.zeros_like(degree)
    nonzero = degree > 0
    inv_sqrt[nonzero] = degree[nonzero] ** -0.5
    normalized = (a * inv_sqrt[:, None]) * inv_sqrt[None, :]
    return np.eye(a.shape[0]) - normalized


def max_eigenvalue(matrix: np.ndarray) -> float:
    """Largest eigenvalue of a symmetric matrix (for Laplacian scaling)."""
    sym = (matrix + matrix.T) / 2.0
    eigenvalues = np.linalg.eigvalsh(sym)
    return float(eigenvalues[-1])


def scaled_laplacian(adjacency: np.ndarray, lambda_max: float | None = None) -> np.ndarray:
    """``L̃ = 2 L / lambda_max - I`` with eigenvalues in ``[-1, 1]``.

    ``lambda_max`` defaults to the exact largest eigenvalue; pass ``2.0``
    for the common cheap approximation.
    """
    lap = normalized_laplacian(adjacency)
    if lambda_max is None:
        lambda_max = max_eigenvalue(lap)
    if lambda_max <= 0:
        # Edgeless graph: L == 0, scaling is irrelevant.
        lambda_max = 2.0
    return (2.0 / lambda_max) * lap - np.eye(lap.shape[0])


def chebyshev_polynomials(
    adjacency: np.ndarray,
    order: int,
    lambda_max: float | None = None,
) -> np.ndarray:
    """Stack ``T_0 .. T_{K-1}`` of the scaled Laplacian, shape ``(K, N, N)``.

    Uses the recurrence ``T_k = 2 L̃ T_{k-1} - T_{k-2}``. ``order`` is the
    paper's ``K`` (3 in all experiments).
    """
    if order < 1:
        raise ValueError(f"Chebyshev order must be >= 1, got {order}")
    lap = scaled_laplacian(adjacency, lambda_max=lambda_max)
    n = lap.shape[0]
    stack = np.empty((order, n, n))
    stack[0] = np.eye(n)
    if order > 1:
        stack[1] = lap
    for k in range(2, order):
        stack[k] = 2.0 * lap @ stack[k - 1] - stack[k - 2]
    return stack


def _sparse_max_eigenvalue(matrix) -> float:
    """Largest eigenvalue of the symmetric part of a sparse matrix.

    The Lanczos start vector is seeded, so the same graph always scales
    to the same basis.
    """
    # Imported here: scipy.sparse.linalg adds ~10 MB to every process
    # that imports repro, and only large sparse graphs need it.
    from scipy.sparse.linalg import eigsh

    sym = ((matrix + matrix.T) * 0.5).tocsr()
    v0 = np.random.default_rng(0).uniform(0.5, 1.5, sym.shape[0])
    values = eigsh(sym, k=1, which="LA", v0=v0, return_eigenvectors=False)
    return float(values[0])


def sparse_chebyshev_polynomials(
    adjacency,
    order: int,
    lambda_max: float | None = None,
):
    """``T_0 .. T_{K-1}`` stacked vertically as one ``(K·N, N)`` CSR matrix.

    The sparse counterpart of :func:`chebyshev_polynomials`: row
    ``k·N + i`` of the result is row ``i`` of ``T_k``. ``adjacency`` may
    be dense or ``scipy.sparse``; past reading it, nothing of size ``N²``
    is allocated, and ``lambda_max`` defaults to the largest eigenvalue
    from ``eigsh``.
    """
    # Imported here, like ``eigsh``: scipy.sparse adds ~22 MB to every
    # process that imports repro, and only large sparse graphs need it.
    from scipy import sparse as sp

    if order < 1:
        raise ValueError(f"Chebyshev order must be >= 1, got {order}")
    a = sp.csr_matrix(adjacency, dtype=np.float64)
    if a.shape[0] != a.shape[1]:
        raise ValueError(f"adjacency must be square, got shape {a.shape}")
    n = a.shape[0]
    degree = np.asarray(a.sum(axis=1)).ravel()
    inv_sqrt = np.zeros_like(degree)
    nonzero = degree > 0
    inv_sqrt[nonzero] = degree[nonzero] ** -0.5
    scale = sp.diags(inv_sqrt)
    identity = sp.identity(n, format="csr")
    lap = (identity - scale @ a @ scale).tocsr()
    if lambda_max is None:
        lambda_max = _sparse_max_eigenvalue(lap)
    if lambda_max <= 0:
        lambda_max = 2.0  # edgeless graph, as in scaled_laplacian
    scaled = ((2.0 / lambda_max) * lap - identity).tocsr()
    polys = [identity]
    if order > 1:
        polys.append(scaled)
    for _k in range(2, order):
        polys.append((2.0 * (scaled @ polys[-1]) - polys[-2]).tocsr())
    stack = sp.vstack(polys, format="csr")
    stack.eliminate_zeros()
    return stack
