"""Tests for the paper's mentioned extensions implemented here:
circular timeline partition (Section III-D2 future work), weekday/weekend
temporal graphs, merged heterogeneous graph, and the attention
aggregation head (Section III-F alternative)."""

import numpy as np
import pytest

from repro.graphs import (
    PartitionConfig,
    TimelinePartition,
    TimelinePartitioner,
    build_temporal_graphs,
    build_weekly_temporal_graphs,
    wrap_slice,
)
from repro.models import fc_lstm_i


def midnight_block_data(steps_per_day=48, days=4, nodes=3):
    """Busy regime straddling midnight (22:00-02:00): the case where the
    paper's linear partition is suboptimal and the circular one shines."""
    total = steps_per_day * days
    hours = (np.arange(total) % steps_per_day) * 24 / steps_per_day
    busy = ((hours >= 22) | (hours < 2)).astype(float) * 10.0
    return np.repeat(busy[:, None, None], nodes, axis=1)


class TestWrapSlice:
    def test_plain_slice(self):
        profile = np.arange(10.0)[:, None, None]
        assert np.allclose(wrap_slice(profile, 2, 5)[:, 0, 0], [2, 3, 4])

    def test_wrapped_slice(self):
        profile = np.arange(10.0)[:, None, None]
        out = wrap_slice(profile, 8, 12)[:, 0, 0]
        assert np.allclose(out, [8, 9, 0, 1])

    def test_full_cycle(self):
        profile = np.arange(6.0)[:, None, None]
        out = wrap_slice(profile, 3, 9)
        assert out.shape[0] == 6

    def test_validation(self):
        profile = np.arange(6.0)[:, None, None]
        with pytest.raises(ValueError):
            wrap_slice(profile, 6, 8)  # start out of range
        with pytest.raises(ValueError):
            wrap_slice(profile, 2, 2)  # empty
        with pytest.raises(ValueError):
            wrap_slice(profile, 2, 9)  # longer than a period


class TestCircularPartition:
    def test_wrapped_interval_structure(self):
        part = TimelinePartition(boundaries=(6, 20, 40), steps_per_day=48)
        assert part.circular
        assert part.intervals == [(6, 20), (20, 40), (40, 54)]

    def test_interval_of_wrapped(self):
        part = TimelinePartition(boundaries=(6, 20, 40), steps_per_day=48)
        assert part.interval_of(6) == 0
        assert part.interval_of(45) == 2
        assert part.interval_of(2) == 2  # before first boundary -> wrapped

    def test_boundary_validation(self):
        with pytest.raises(ValueError):
            TimelinePartition(boundaries=(0, 50), steps_per_day=48)
        with pytest.raises(ValueError):
            TimelinePartition(boundaries=(10, 5), steps_per_day=48)

    def test_hard_weights_cover_wrapped(self):
        part = TimelinePartition(boundaries=(6, 20, 40), steps_per_day=48)
        w = part.membership_weights(np.arange(48), mode="hard")
        assert np.allclose(w.sum(axis=1), 1.0)

    def test_soft_weights_wrapped_center(self):
        part = TimelinePartition(boundaries=(6, 20, 40), steps_per_day=48)
        w = part.membership_weights(np.array([47, 0, 1]), mode="soft")
        # All these steps sit inside the wrapped interval 2 (40 -> 54≡6).
        assert (np.argmax(w, axis=1) == 2).all()

    def test_circular_fit_beats_or_matches_linear(self):
        data = midnight_block_data()
        linear = TimelinePartitioner(
            PartitionConfig(num_intervals=3, downsample_to=6)
        ).fit(data, None, 48)
        circular = TimelinePartitioner(
            PartitionConfig(num_intervals=3, circular=True, downsample_to=6)
        ).fit(data, None, 48)
        # The circular search space contains the linear one.
        assert circular.score >= linear.score - 1e-9

    def test_temporal_graphs_from_wrapped_partition(self):
        data = midnight_block_data()
        part = TimelinePartition(boundaries=(4, 20, 44), steps_per_day=48)
        graphs = build_temporal_graphs(data, None, part, downsample_to=6)
        assert len(graphs) == 3
        assert all(np.isfinite(g).all() for g in graphs)


class TestWeeklyGraphs:
    def test_weekday_weekend_split(self):
        steps_per_day, days = 48, 7
        data = midnight_block_data(steps_per_day, days)
        dow = np.repeat(np.arange(days) % 7, steps_per_day)
        part = TimelinePartition(boundaries=(0, 24), steps_per_day=steps_per_day)
        out = build_weekly_temporal_graphs(data, None, part, dow,
                                           downsample_to=6)
        assert set(out) == {"weekday", "weekend"}
        assert len(out["weekday"]) == 2
        assert len(out["weekend"]) == 2

    def test_length_mismatch(self):
        data = midnight_block_data()
        part = TimelinePartition(boundaries=(0, 24), steps_per_day=48)
        with pytest.raises(ValueError):
            build_weekly_temporal_graphs(data, None, part, np.zeros(3))

    def test_no_weekend_days_raises(self):
        steps_per_day, days = 48, 3
        data = midnight_block_data(steps_per_day, days)
        dow = np.repeat([0, 1, 2], steps_per_day)  # no weekend present
        part = TimelinePartition(boundaries=(0, 24), steps_per_day=steps_per_day)
        with pytest.raises(ValueError):
            build_weekly_temporal_graphs(data, None, part, dow)


class TestMergedAdjacency:
    def _graph_set(self):
        from repro.graphs import HeterogeneousGraphSet

        part = TimelinePartition(boundaries=(0, 24), steps_per_day=48)
        geo = np.array([[0.0, 1.0], [1.0, 0.0]])
        temporal = [np.array([[0.0, 0.5], [0.5, 0.0]]),
                    np.array([[0.0, 0.1], [0.1, 0.0]])]
        return HeterogeneousGraphSet(geographic=geo, temporal=temporal,
                                     partition=part)

    def test_uniform_merge(self):
        hg = self._graph_set()
        merged = hg.merged_adjacency()
        assert merged[0, 1] == pytest.approx((1.0 + 0.5 + 0.1) / 3.0)

    def test_weighted_merge(self):
        hg = self._graph_set()
        merged = hg.merged_adjacency(np.array([1.0, 0.0, 0.0]))
        assert merged[0, 1] == pytest.approx(1.0)

    def test_weight_count_validated(self):
        hg = self._graph_set()
        with pytest.raises(ValueError):
            hg.merged_adjacency(np.array([1.0, 2.0]))


class TestAttentionHead:
    def _model(self, head_mode):
        return fc_lstm_i(
            input_length=6, output_length=4, num_nodes=3, num_features=2,
            embed_dim=4, hidden_dim=6, head_mode=head_mode, seed=0,
        )

    def test_attention_head_shapes(self):
        model = self._model("attention")
        x = np.random.default_rng(0).normal(size=(2, 6, 3, 2))
        out = model(x, np.ones_like(x), np.zeros((2, 6)))
        assert out.prediction.shape == (2, 4, 3, 2)

    def test_attention_parameters_trainable(self):
        model = self._model("attention")
        x = np.random.default_rng(0).normal(size=(2, 6, 3, 2))
        out = model(x, np.ones_like(x), np.zeros((2, 6)))
        out.prediction.sum().backward()
        assert model.att_proj.weight.grad is not None
        assert model.att_score.weight.grad is not None

    def test_fewer_head_parameters_than_concat(self):
        concat = self._model("concat")
        attention = self._model("attention")
        assert attention.head.weight.size < concat.head.weight.size

    def test_invalid_head_mode(self):
        with pytest.raises(ValueError):
            self._model("pooling")

    def test_attention_model_trains(self):
        from repro.datasets import make_pems_dataset, make_windows, make_pattern
        from repro.training import Trainer, TrainerConfig
        from dataclasses import replace

        ds = make_pems_dataset(num_nodes=3, num_days=2, steps_per_day=96, seed=0)
        ds = replace(ds, data=ds.data[:, :, :2], mask=ds.mask[:, :, :2],
                     truth=ds.truth[:, :, :2], feature_names=ds.feature_names[:2])
        ds = ds.with_mask(make_pattern("mcar", rate=0.3).mask(ds.data.shape, rng=np.random.default_rng(1)))
        windows = make_windows(ds, 6, 4, stride=6)
        trainer = Trainer(self._model("attention"),
                          TrainerConfig(max_epochs=3, batch_size=16))
        history = trainer.fit(windows, None)
        assert history.train_loss[-1] < history.train_loss[0]
