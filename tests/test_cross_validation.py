"""Tests for rolling-origin cross-validation."""

import numpy as np
import pytest

from repro.datasets import ZScoreScaler, make_pems_dataset, make_pattern
from repro.models import fc_lstm_i
from repro.training import (
    RollingOriginCV,
    TrainerConfig,
    rolling_origin_folds,
)


class TestFoldComputation:
    def test_fold_structure(self):
        folds = rolling_origin_folds(1000, num_folds=3, test_fraction=0.1)
        assert len(folds) == 3
        # Test blocks tile the series tail without overlap.
        assert folds[0] == (700, 700, 800)
        assert folds[1] == (800, 800, 900)
        assert folds[2] == (900, 900, 1000)

    def test_expanding_train_windows(self):
        folds = rolling_origin_folds(500, num_folds=2, test_fraction=0.2)
        train_ends = [f[0] for f in folds]
        assert train_ends == sorted(train_ends)
        assert train_ends[0] < train_ends[1]

    def test_insufficient_history_rejected(self):
        with pytest.raises(ValueError):
            rolling_origin_folds(100, num_folds=8, test_fraction=0.12)

    def test_validation(self):
        with pytest.raises(ValueError):
            rolling_origin_folds(100, num_folds=0)
        with pytest.raises(ValueError):
            rolling_origin_folds(100, num_folds=1, test_fraction=0.0)
        with pytest.raises(ValueError):
            rolling_origin_folds(100, num_folds=1, test_fraction=0.001)


class TestRollingOriginCV:
    @pytest.fixture(scope="class")
    def scaled_dataset(self):
        ds = make_pems_dataset(num_nodes=4, num_days=3, steps_per_day=96, seed=0)
        ds = ds.with_mask(make_pattern("mcar", rate=0.3).mask(ds.data.shape, rng=np.random.default_rng(1)))
        scaler = ZScoreScaler().fit(ds.data, ds.mask)
        from dataclasses import replace

        scaled = replace(ds, data=scaler.transform(ds.data, ds.mask),
                         truth=scaler.transform(ds.truth))
        return scaled, scaler

    def _cv(self):
        return RollingOriginCV(
            model_builder=lambda: fc_lstm_i(
                input_length=6, output_length=4, num_nodes=4, num_features=4,
                embed_dim=4, hidden_dim=6, seed=0,
            ),
            trainer_config=TrainerConfig(max_epochs=1, batch_size=32),
            input_length=6,
            output_length=4,
            stride=6,
        )

    def test_runs_all_folds(self, scaled_dataset):
        scaled, scaler = scaled_dataset
        results = self._cv().run(scaled, num_folds=2, test_fraction=0.15,
                                 scaler=scaler)
        assert len(results) == 2
        assert all(np.isfinite(r.metrics.mae) for r in results)
        assert results[0].train_steps < results[1].train_steps

    def test_fresh_model_per_fold(self, scaled_dataset):
        """Each fold must get an untrained model (builder called per fold)."""
        scaled, _scaler = scaled_dataset
        calls = []

        def builder():
            calls.append(1)
            return fc_lstm_i(input_length=6, output_length=4, num_nodes=4,
                             num_features=4, embed_dim=4, hidden_dim=6, seed=0)

        cv = self._cv()
        cv.model_builder = builder
        cv.run(scaled, num_folds=2, test_fraction=0.15)
        assert len(calls) == 2

    def test_summary(self, scaled_dataset):
        scaled, scaler = scaled_dataset
        results = self._cv().run(scaled, num_folds=2, test_fraction=0.15,
                                 scaler=scaler)
        mean, std = RollingOriginCV.summarize(results)
        assert mean > 0
        assert std >= 0
