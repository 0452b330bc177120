"""Zipf node popularity for the cluster load scenarios.

:func:`repro.serve.zipf_node_sampler`: popularity follows
``rank^-exponent`` with a seeded permutation decoupling popularity rank
from node id order.
"""

import numpy as np
import pytest

from repro.serve import zipf_node_sampler


class TestZipfNodeSampler:
    def test_weights_are_a_distribution(self):
        sample = zipf_node_sampler(32, exponent=1.1, seed=0)
        assert len(sample.weights) == 32
        assert np.all(np.asarray(sample.weights) > 0)
        assert np.sum(sample.weights) == pytest.approx(1.0)

    def test_popularity_decays_by_rank(self):
        sample = zipf_node_sampler(16, exponent=1.2, seed=1)
        weights = np.asarray(sample.weights)
        by_rank = weights[list(sample.node_of_rank)]
        assert all(a >= b for a, b in zip(by_rank, by_rank[1:]))
        # exact zipf shape: w(rank) proportional to rank^-exponent
        expected = np.arange(1, 17, dtype=float) ** -1.2
        np.testing.assert_allclose(by_rank, expected / expected.sum())

    def test_higher_exponent_concentrates_mass(self):
        mild = zipf_node_sampler(64, exponent=0.8, seed=2)
        steep = zipf_node_sampler(64, exponent=1.6, seed=2)
        top_mild = np.asarray(mild.weights)[mild.node_of_rank[0]]
        top_steep = np.asarray(steep.weights)[steep.node_of_rank[0]]
        assert top_steep > top_mild

    def test_empirical_frequencies_track_weights(self):
        sample = zipf_node_sampler(8, exponent=1.1, seed=3)
        draws = sample(size=40_000)
        freq = np.bincount(draws, minlength=8) / draws.size
        np.testing.assert_allclose(freq, sample.weights, atol=0.01)

    def test_seed_permutes_which_node_is_popular(self):
        tops = {
            zipf_node_sampler(64, exponent=1.1, seed=s).node_of_rank[0]
            for s in range(6)
        }
        assert len(tops) > 1, "popularity must not be glued to node id 0"

    def test_scalar_and_array_draws(self):
        sample = zipf_node_sampler(10, seed=4)
        one = sample()
        many = sample(size=17)
        assert isinstance(one, int)
        assert 0 <= one < 10
        assert many.shape == (17,)
        assert many.min() >= 0 and many.max() < 10

    def test_deterministic_per_seed(self):
        a = zipf_node_sampler(12, seed=5)(size=100)
        b = zipf_node_sampler(12, seed=5)(size=100)
        np.testing.assert_array_equal(a, b)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            zipf_node_sampler(0)
        with pytest.raises(ValueError):
            zipf_node_sampler(4, exponent=-0.5)
