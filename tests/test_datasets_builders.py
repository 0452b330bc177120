"""Tests for the PeMS-like and Stampede-like dataset builders and the
TrafficDataset container."""

import numpy as np
import pytest

from repro.datasets import (
    PEMS_FEATURES,
    StampedeConfig,
    make_pems_dataset,
    make_stampede_dataset,
    make_pattern,
)


class TestPemsBuilder:
    @pytest.fixture(scope="class")
    def dataset(self):
        return make_pems_dataset(num_nodes=8, num_days=4, steps_per_day=96, seed=0)

    def test_shapes(self, dataset):
        assert dataset.data.shape == (4 * 96, 8, 4)
        assert dataset.feature_names == PEMS_FEATURES

    def test_fully_observed(self, dataset):
        assert dataset.missing_rate == 0.0
        assert np.allclose(dataset.truth, dataset.data)

    def test_speeds_positive(self, dataset):
        assert (dataset.data > 0).all()

    def test_lane_structure(self, dataset):
        """Lane 1 (passing lane) runs faster than lane 3 on average."""
        lane1 = dataset.data[:, :, 1]
        lane3 = dataset.data[:, :, 3]
        assert lane1.mean() > lane3.mean()

    def test_avg_speed_between_lane_extremes(self, dataset):
        avg = dataset.data[:, :, 0].mean()
        assert dataset.data[:, :, 3].mean() < avg < dataset.data[:, :, 1].mean()

    def test_deterministic(self):
        a = make_pems_dataset(num_nodes=5, num_days=2, steps_per_day=48, seed=3)
        b = make_pems_dataset(num_nodes=5, num_days=2, steps_per_day=48, seed=3)
        assert np.allclose(a.data, b.data)

    def test_field_config_mismatch_raises(self):
        from repro.datasets import TrafficFieldConfig

        with pytest.raises(ValueError):
            make_pems_dataset(
                num_days=4, field_config=TrafficFieldConfig(num_days=2)
            )


class TestStampedeBuilder:
    @pytest.fixture(scope="class")
    def dataset(self):
        return make_stampede_dataset(
            StampedeConfig(num_days=5, steps_per_day=96, seed=0)
        )

    def test_shapes(self, dataset):
        assert dataset.num_nodes == 12
        assert dataset.num_features == 1
        assert dataset.feature_names == ["travel_time_sec"]

    def test_high_natural_missingness(self, dataset):
        """The defining property of roving-sensor data."""
        assert dataset.missing_rate > 0.5

    def test_night_fully_missing(self, dataset):
        """Shuttles do not run outside service hours."""
        hours = dataset.steps_of_day * 24 / 96
        night = hours < 5.0
        assert dataset.mask[night].sum() == 0

    def test_observed_entries_positive(self, dataset):
        observed = dataset.mask > 0
        assert (dataset.data[observed] > 0).all()

    def test_truth_complete_and_positive(self, dataset):
        assert (dataset.truth > 0).all()

    def test_observations_near_truth(self, dataset):
        """Observed travel times are noisy samples of the ground truth."""
        observed = dataset.mask[:, :, 0] > 0
        err = np.abs(dataset.data[:, :, 0] - dataset.truth[:, :, 0])[observed]
        assert err.mean() < 30.0  # bounded by measurement noise scale

    def test_more_shuttles_less_missing(self):
        few = make_stampede_dataset(
            StampedeConfig(num_shuttles=3, num_days=3, steps_per_day=96, seed=1)
        )
        many = make_stampede_dataset(
            StampedeConfig(num_shuttles=30, num_days=3, steps_per_day=96, seed=1)
        )
        assert many.missing_rate < few.missing_rate

    def test_config_validation(self):
        with pytest.raises(ValueError):
            StampedeConfig(num_shuttles=0)
        with pytest.raises(ValueError):
            StampedeConfig(monitored_fraction=0.0)
        with pytest.raises(ValueError):
            StampedeConfig(service_start_hour=23, service_end_hour=5)


class TestTrafficDatasetContainer:
    @pytest.fixture()
    def dataset(self):
        return make_pems_dataset(num_nodes=6, num_days=3, steps_per_day=96, seed=0)

    def test_with_mask_zeroes_hidden(self, dataset):
        rng = np.random.default_rng(0)
        mask = make_pattern("mcar", rate=0.5).mask(dataset.data.shape, rng=rng)
        masked = dataset.with_mask(mask)
        hidden = mask == 0
        assert (masked.data[hidden] == 0).all()
        assert np.allclose(masked.data[~hidden], dataset.truth[~hidden])

    def test_with_mask_keeps_truth(self, dataset):
        rng = np.random.default_rng(0)
        masked = dataset.with_mask(make_pattern("mcar", rate=0.5).mask(dataset.data.shape, rng=rng))
        assert np.allclose(masked.truth, dataset.truth)

    def test_with_mask_shape_check(self, dataset):
        with pytest.raises(ValueError):
            dataset.with_mask(np.ones((3, 3, 3)))

    def test_chronological_split_sizes(self, dataset):
        train, val, test = dataset.chronological_split()
        total = dataset.num_steps
        assert train.num_steps == int(total * 0.7)
        assert train.num_steps + val.num_steps + test.num_steps == total

    def test_split_is_chronological(self, dataset):
        train, val, test = dataset.chronological_split()
        assert np.allclose(train.data, dataset.data[: train.num_steps])
        assert np.allclose(test.data, dataset.data[-test.num_steps :])

    def test_split_ratios_validated(self, dataset):
        with pytest.raises(ValueError):
            dataset.chronological_split((0.5, 0.4, 0.3))

    def test_slice_steps(self, dataset):
        sl = dataset.slice_steps(10, 20)
        assert sl.num_steps == 10
        assert np.allclose(sl.steps_of_day, dataset.steps_of_day[10:20])

    def test_slice_bounds_validated(self, dataset):
        with pytest.raises(ValueError):
            dataset.slice_steps(20, 10)

    def test_missing_rate(self, dataset):
        rng = np.random.default_rng(1)
        masked = dataset.with_mask(make_pattern("mcar", rate=0.3).mask(dataset.data.shape, rng=rng))
        assert masked.missing_rate == pytest.approx(0.3, abs=0.02)

    def test_construction_validation(self, dataset):
        from dataclasses import replace

        with pytest.raises(ValueError):
            replace(dataset, mask=np.ones((2, 2, 2)))
        with pytest.raises(ValueError):
            replace(dataset, feature_names=["x"])
