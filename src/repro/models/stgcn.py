"""STGCN baseline (Yu et al., IJCAI 2018).

Spatio-Temporal Graph Convolutional Network: "sandwich" ST-Conv blocks —
gated temporal convolution, Chebyshev graph convolution, gated temporal
convolution — stacked, then an output head. The gated-temporal-convolution
family the paper's related work cites ([16]); mean-filled inputs like the
other non-imputation baselines.
"""

from __future__ import annotations

import numpy as np

from ..autodiff import ChebBasis, Tensor, default_dtype
from ..nn import ChebConv, GatedTCNBlock, Linear, Module, chebyshev_basis
from .base import ForecastOutput, NeuralForecaster

__all__ = ["STGCN"]


class _STConvBlock(Module):
    """Temporal-gate -> ChebConv -> temporal-gate sandwich."""

    def __init__(
        self,
        in_channels: int,
        spatial_channels: int,
        out_channels: int,
        cheb_stack: ChebBasis,
        kernel_size: int,
        rng: np.random.Generator,
    ):
        super().__init__()
        self.temporal_in = GatedTCNBlock(in_channels, spatial_channels,
                                         kernel_size=kernel_size, rng=rng)
        self.spatial = ChebConv(spatial_channels, spatial_channels, cheb_stack,
                                rng=rng)
        self.temporal_out = GatedTCNBlock(spatial_channels, out_channels,
                                          kernel_size=kernel_size, rng=rng)

    def forward(self, x: Tensor) -> Tensor:
        """``x``: ``(B, N, T, C)`` -> same with ``out_channels``."""
        h = self.temporal_in(x)  # time axis is -2
        # Graph conv acts on the node axis: (B, N, T, C) -> (B, T, N, C).
        h = self.spatial(h.swapaxes(1, 2)).relu().swapaxes(1, 2)
        return self.temporal_out(h)


class STGCN(NeuralForecaster):
    """Stacked ST-Conv blocks with a fully-connected forecast head."""

    def __init__(
        self,
        input_length: int,
        output_length: int,
        num_nodes: int,
        num_features: int,
        output_features: int | None = None,
        adjacency: np.ndarray | None = None,
        hidden_channels: int = 32,
        num_blocks: int = 2,
        kernel_size: int = 3,
        cheb_order: int = 3,
        seed: int = 0,
    ):
        super().__init__(input_length, output_length, num_nodes, num_features,
                         output_features)
        if adjacency is None:
            raise ValueError("STGCN requires the geographic adjacency")
        if num_blocks < 1:
            raise ValueError(f"num_blocks must be >= 1, got {num_blocks}")
        rng = np.random.default_rng(seed)
        cheb = chebyshev_basis(adjacency, cheb_order)
        self.blocks = []
        channels = num_features
        for i in range(num_blocks):
            block = _STConvBlock(channels, hidden_channels, hidden_channels,
                                 cheb, kernel_size, rng)
            self.register_module(f"block{i}", block)
            self.blocks.append(block)
            channels = hidden_channels
        self.head = Linear(
            input_length * hidden_channels,
            output_length * self.output_features,
            rng=rng,
        )

    def forward(
        self, x: np.ndarray, m: np.ndarray, steps_of_day: np.ndarray
    ) -> ForecastOutput:
        x = np.asanyarray(x, dtype=default_dtype())
        batch, steps, nodes, _features = x.shape
        if steps != self.input_length:
            raise ValueError(f"expected {self.input_length} steps, got {steps}")
        h = Tensor(x).swapaxes(1, 2)  # (B, N, T, C)
        for block in self.blocks:
            h = block(h)
        flat = h.reshape(batch, nodes, steps * h.shape[-1])
        prediction = self.head(flat).reshape(
            batch, nodes, self.output_length, self.output_features
        ).transpose(0, 2, 1, 3)
        return ForecastOutput(prediction=prediction)
