"""Selfcheck smoke test + convergence tests for the heavier baselines."""

import numpy as np
import pytest

from repro.datasets import ZScoreScaler, make_pems_dataset, make_windows, make_pattern
from repro.graphs import gaussian_kernel_adjacency
from repro.models import ASTGCN, GraphWaveNet
from repro.selfcheck import run_selfcheck
from repro.training import Trainer, TrainerConfig


def test_selfcheck_passes():
    report = run_selfcheck(verbose=False)
    assert report["gradcheck"] == "ok"
    assert report["loss_last"] < report["loss_first"]
    assert np.isfinite(report["seconds"])


@pytest.fixture(scope="module")
def scaled_windows():
    ds = make_pems_dataset(num_nodes=5, num_days=3, steps_per_day=96, seed=0)
    ds = ds.with_mask(make_pattern("mcar", rate=0.2).mask(ds.data.shape, rng=np.random.default_rng(1)))
    scaler = ZScoreScaler().fit(ds.data, ds.mask)
    from dataclasses import replace

    scaled = replace(ds, data=scaler.transform(ds.data, ds.mask),
                     truth=scaler.transform(ds.truth))
    windows = make_windows(scaled, 6, 4, stride=4)
    adjacency = gaussian_kernel_adjacency(ds.network.distances)
    return windows, adjacency


class TestBaselineConvergence:
    def test_astgcn_loss_decreases(self, scaled_windows):
        windows, adjacency = scaled_windows
        model = ASTGCN(input_length=6, output_length=4, num_nodes=5,
                       num_features=4, adjacency=adjacency,
                       hidden_channels=8, seed=0)
        history = Trainer(model, TrainerConfig(max_epochs=3, batch_size=32)).fit(
            windows, None
        )
        assert history.train_loss[-1] < history.train_loss[0]

    def test_graph_wavenet_loss_decreases(self, scaled_windows):
        windows, adjacency = scaled_windows
        model = GraphWaveNet(input_length=6, output_length=4, num_nodes=5,
                             num_features=4, adjacency=adjacency,
                             residual_channels=8, num_layers=2, seed=0)
        history = Trainer(model, TrainerConfig(max_epochs=3, batch_size=32)).fit(
            windows, None
        )
        assert history.train_loss[-1] < history.train_loss[0]

    def test_graph_wavenet_learns_adjacency(self, scaled_windows):
        """The adaptive adjacency must move from its initialization."""
        windows, adjacency = scaled_windows
        model = GraphWaveNet(input_length=6, output_length=4, num_nodes=5,
                             num_features=4, adjacency=adjacency,
                             residual_channels=8, num_layers=1, seed=0)
        before = model.gcn0.adaptive_adjacency().data.copy()
        Trainer(model, TrainerConfig(max_epochs=2, batch_size=32)).fit(
            windows, None
        )
        after = model.gcn0.adaptive_adjacency().data
        assert not np.allclose(before, after)


class TestSoftMembershipModel:
    def test_rihgcn_with_soft_interval_weights(self):
        from repro.experiments import (
            DataConfig,
            ModelConfig,
            build_model,
            default_trainer_config,
            prepare_context,
        )
        from repro.training import Trainer as _Trainer

        ctx = prepare_context(
            DataConfig(num_nodes=4, num_days=3, steps_per_day=96,
                       input_length=6, output_length=4, stride=10,
                       missing_rate=0.3, seed=0),
            ModelConfig(embed_dim=6, hidden_dim=8, num_graphs=3,
                        partition_downsample=6, membership_mode="soft"),
        )
        weights = ctx.graphs().interval_weights(np.array([0, 40, 90]))
        # Soft weights are dense (every interval contributes).
        assert (weights > 0).all()
        model = build_model("RIHGCN", ctx)
        history = _Trainer(model, default_trainer_config(max_epochs=2)).fit(
            ctx.train_windows, None
        )
        assert history.train_loss[-1] < history.train_loss[0]
