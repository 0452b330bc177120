"""Sub-graph model bundles: the exactness core of the sharded cluster.

A shard serves forecasts for its *owned* nodes using a model sliced to
its retained nodes (owned + halo). For the one-conv-per-timestep family
(FC-LSTM / FC-GCN / GCN-LSTM) the slice is **exact**: every parameter is
node-count independent, and the only N-dependent state — the Chebyshev
basis — is replaced with row/column slices of the *full* graph's
precomputed basis. Recomputing the basis on the sub-adjacency would
change the spectral operator (the scaled Laplacian bakes in global
degrees and the global max eigenvalue), so slicing is load-bearing, not
an optimisation. With a halo of at least ``cheb_order - 1`` hops, the
forecast rows at owned nodes match the full-graph model to float
round-off; halo rows are inexact and only served as degraded failover.

Models whose spatial receptive field grows per missing step (the
imputation family feeds spatial estimates back into missing entries) or
whose parameters are node-count dependent (GRU-D, Graph WaveNet's
learned adjacency) report ``spatial_hops() = None`` and require full
replication (every shard retains the whole graph) to stay exact.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from ...autodiff import ChebBasis, Tensor, dtype_policy
from ...datasets import ZScoreScaler
from ...errors import ConfigError, ShapeMismatchError
from ...graphs import HeterogeneousGraphSet
from ...models.recurrent_imputation import RecurrentImputationForecaster
from ...models.spatiotemporal import SpatioTemporalForecaster
from ...nn.graph import AdaptiveGraphConv, ChebConv, GraphConv
from ..artifact import ModelBundle, _RebuildContext

__all__ = [
    "spatial_hops",
    "coupling_adjacency",
    "make_shard_bundle",
    "translate_snapshot",
]


def _conv_hops(model) -> int | None:
    """Hops mixed by one application of the model's graph operators."""
    hops = 0
    for module in model.modules():
        if isinstance(module, AdaptiveGraphConv):
            return None  # learned adjacency: no fixed locality
        if isinstance(module, ChebConv):
            hops = max(hops, module.order - 1)
        elif isinstance(module, GraphConv):
            hops = max(hops, 1)
    return hops


def spatial_hops(model) -> int | None:
    """Spatial receptive field of one forward pass, in graph hops.

    ``None`` means unbounded (or unknown): the model is only exactly
    shardable with full replication. The recurrent imputation family
    is unbounded whenever it mixes space at all, because per-step
    estimates — which already saw the neighbourhood — are fed back into
    missing entries, compounding the reach by ``K - 1`` hops per missing
    step. Unknown model classes are treated conservatively.
    """
    hops = _conv_hops(model)
    if hops is None:
        return None
    if isinstance(model, SpatioTemporalForecaster):
        return hops  # one conv per timestep on raw inputs, no feedback
    if isinstance(model, RecurrentImputationForecaster):
        return 0 if hops == 0 else None
    return 0 if hops == 0 else None


def coupling_adjacency(bundle: ModelBundle) -> np.ndarray:
    """Union edge support the shard planner must respect.

    For heterogeneous models the temporal graphs couple nodes the
    geographic adjacency does not; the halo has to cover every edge any
    operator can propagate along.
    """
    support = (np.abs(bundle.adjacency) > 0).astype(np.float64)
    if bundle.graph_set is not None:
        support += np.abs(bundle.graph_set.geographic) > 0
        for temporal in bundle.graph_set.temporal:
            support += np.abs(temporal) > 0
    return (support > 0).astype(np.float64)


def _check_retained(retained, num_nodes: int) -> np.ndarray:
    ix = np.asarray(sorted(int(v) for v in retained), dtype=int)
    if ix.size == 0:
        raise ConfigError("a shard must retain at least one node")
    if ix[0] < 0 or ix[-1] >= num_nodes:
        raise ConfigError(
            f"retained nodes must lie in [0, {num_nodes}), got {ix[0]}..{ix[-1]}"
        )
    if np.unique(ix).size != ix.size:
        raise ConfigError("retained node list contains duplicates")
    return ix


def make_shard_bundle(bundle: ModelBundle, retained) -> ModelBundle:
    """Slice ``bundle`` down to the given sorted global node ids.

    Returns the bundle itself when the slice covers every node (full
    replication). Raises :class:`ConfigError` when the model has
    node-count-dependent parameters and therefore cannot be sliced.
    """
    n = bundle.num_nodes
    ix = _check_retained(retained, n)
    if ix.size == n:
        return bundle

    sub_adjacency = bundle.adjacency[np.ix_(ix, ix)]
    sub_graph_set = None
    if bundle.graph_set is not None:
        gs = bundle.graph_set
        sub_graph_set = HeterogeneousGraphSet(
            geographic=gs.geographic[np.ix_(ix, ix)],
            temporal=[t[np.ix_(ix, ix)] for t in gs.temporal],
            partition=gs.partition,
            membership_mode=gs.membership_mode,
            membership_temperature=gs.membership_temperature,
        )
    from ...experiments.registry import NEURAL_MODELS

    # build the sub-model under the PARENT's parameter dtype, not the
    # ambient policy — slicing a float64 bundle in a float32 process
    # must not downcast the weights (it would break shard exactness)
    parent_dtype = str(
        next(iter(bundle.model.parameters())).data.dtype
    )

    ctx = _RebuildContext(
        data_config=replace(bundle.data_config, num_nodes=int(ix.size)),
        model_config=bundle.model_config,
        num_nodes=int(ix.size),
        num_features=bundle.num_features,
        adjacency=sub_adjacency,
        graph_set=sub_graph_set,
    )
    with dtype_policy(parent_dtype):
        sub_model = NEURAL_MODELS[bundle.model_name](ctx)
    state = bundle.model.state_dict()
    for name, param in sub_model.named_parameters():
        ref = state.get(name)
        if ref is not None and tuple(ref.shape) != tuple(param.data.shape):
            raise ConfigError(
                f"model {bundle.model_name!r} is not node-shardable: "
                f"parameter {name} is node-count dependent "
                f"(full graph {tuple(ref.shape)}, sub-graph "
                f"{tuple(param.data.shape)}); shard it with full replication"
            )
    try:
        sub_model.load_state_dict(state)
    except ShapeMismatchError as error:  # e.g. non-parameter buffers
        raise ConfigError(
            f"model {bundle.model_name!r} is not node-shardable: {error}"
        ) from error

    # Replace every fixed graph operator with a row/column slice of the
    # FULL graph's operator (see module docstring: recomputing on the
    # sub-adjacency would change the spectral basis).
    full_chebs = [m for m in bundle.model.modules() if isinstance(m, ChebConv)]
    sub_chebs = [m for m in sub_model.modules() if isinstance(m, ChebConv)]
    for full_conv, sub_conv in zip(full_chebs, sub_chebs):
        # Slice the (K·N, N) stacked basis in the form it is stored in;
        # the sub-basis then takes the dense/sparse rule at its own size.
        basis = full_conv._basis.forward_basis
        rows = (np.arange(full_conv.order)[:, None] * n + ix).ravel()
        if isinstance(basis, np.ndarray):
            sub_stack = basis[np.ix_(rows, ix)].reshape(full_conv.order, ix.size, ix.size)
        else:  # CSR
            sub_stack = basis[rows][:, ix]
        sub_conv._basis = ChebBasis(sub_stack)
        sub_conv.num_nodes = int(ix.size)
    full_gconvs = [m for m in bundle.model.modules() if isinstance(m, GraphConv)]
    sub_gconvs = [m for m in sub_model.modules() if isinstance(m, GraphConv)]
    for full_conv, sub_conv in zip(full_gconvs, sub_gconvs):
        sub_conv._propagation = Tensor(full_conv._propagation.data[np.ix_(ix, ix)])
        sub_conv.num_nodes = int(ix.size)

    scaler = bundle.scaler
    if scaler.per_node and scaler.mean_ is not None:
        sub_scaler = ZScoreScaler(per_node=True)
        sub_scaler.mean_ = scaler.mean_[..., ix, :]
        sub_scaler.std_ = scaler.std_[..., ix, :]
        scaler = sub_scaler

    header = dict(bundle.header)
    header["shard"] = {
        "retained_nodes": [int(v) for v in ix],
        "parent_num_nodes": n,
    }
    return ModelBundle(
        model=sub_model,
        scaler=scaler,
        model_name=bundle.model_name,
        data_config=ctx.data_config,
        model_config=bundle.model_config,
        adjacency=sub_adjacency,
        graph_set=sub_graph_set,
        header=header,
    )


def translate_snapshot(state: dict, src_nodes, dst_nodes) -> dict:
    """Re-key a :meth:`StateStore.snapshot` between shard node layouts.

    ``src_nodes`` are the global ids behind the snapshot's rows (in row
    order); the result is a snapshot for a store over ``dst_nodes``.
    Nodes the source never held restore cold (zero mask, never seen) —
    a warmed-from-replica shard is exact on the intersection and merely
    cold, not wrong, on the rest.
    """
    src_index = {int(g): i for i, g in enumerate(src_nodes)}
    dst = [int(g) for g in dst_nodes]
    values = np.asarray(state["values"], dtype=np.float64)
    mask = np.asarray(state["mask"], dtype=np.float64)
    length, _, num_features = values.shape
    out_values = np.zeros((length, len(dst), num_features))
    out_mask = np.zeros_like(out_values)
    src_last = state["last_seen"]
    src_seen = state["seen_ever"]
    cold_last = int(state["start_step"]) - 1
    last_seen: list[int] = []
    seen_ever: list[bool] = []
    for j, node in enumerate(dst):
        i = src_index.get(node)
        if i is None:
            last_seen.append(cold_last)
            seen_ever.append(False)
            continue
        out_values[:, j] = values[:, i]
        out_mask[:, j] = mask[:, i]
        last_seen.append(int(src_last[i]))
        seen_ever.append(bool(src_seen[i]))
    out = dict(state)
    out.update(
        num_nodes=len(dst),
        values=out_values.tolist(),
        mask=out_mask.tolist(),
        last_seen=last_seen,
        seen_ever=seen_ever,
    )
    return out
