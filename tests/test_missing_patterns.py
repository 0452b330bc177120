"""Contract tests for the MissingPattern scenario API.

Every registered pattern must be seed-stable, shape-correct, hit its
target rate within its declared tolerance, and round-trip through
scenario JSON. The chaos acceptance test at the bottom proves offline
masks and chaos sensor drops are one code path: both sides are built
from the same scenario JSON and must silence the same sensors.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.datasets import (
    MissingPattern,
    make_pattern,
    pattern_names,
)
from repro.errors import ConfigError, DataError
from repro.reliability import FaultPlan

SHAPE = (96, 8, 2)
RNG_DATA = np.random.default_rng(11).normal(55.0, 12.0, size=SHAPE)


def example_pattern(kind: str, rate: float = 0.4, seed: int = 3) -> MissingPattern:
    """A representative instance of each registered kind."""
    if kind == "mixed":
        return make_pattern(
            "mixed",
            seed=seed,
            components=[
                {"pattern": "mcar", "params": {"rate": rate / 2}},
                {"pattern": "sensor", "params": {"rate": rate / 2}},
            ],
        )
    return make_pattern(kind, seed=seed, rate=rate)


def pattern_mask(pattern: MissingPattern, shape=SHAPE) -> np.ndarray:
    data = RNG_DATA[: shape[0], : shape[1], : shape[2]]
    return pattern.mask(shape, data=data)


class TestRegistry:
    def test_all_kinds_registered(self):
        assert {"mcar", "sensor", "block", "corridor", "blackout",
                "mnar_congestion", "mixed"} <= set(pattern_names())

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigError):
            make_pattern("gremlins", rate=0.5)

    def test_bad_params_rejected(self):
        with pytest.raises(ConfigError):
            make_pattern("mcar", rate=0.5, wingspan=3)

    def test_default_name_is_kind(self):
        assert make_pattern("mcar", rate=0.1).name == "mcar"
        assert make_pattern("mcar", rate=0.1, name="x").name == "x"


@pytest.mark.parametrize("kind", sorted(pattern_names()))
class TestEveryPattern:
    def test_seed_stable(self, kind):
        pattern = example_pattern(kind)
        assert np.array_equal(pattern_mask(pattern), pattern_mask(pattern))
        # A fresh instance of the same scenario agrees too.
        again = example_pattern(kind)
        assert np.array_equal(pattern_mask(pattern), pattern_mask(again))

    def test_seed_changes_mask(self, kind):
        a = pattern_mask(example_pattern(kind, seed=3))
        b = pattern_mask(example_pattern(kind, seed=4))
        assert not np.array_equal(a, b)

    def test_shape_binary_dtype(self, kind):
        mask = pattern_mask(example_pattern(kind))
        assert mask.shape == SHAPE
        assert set(np.unique(mask)) <= {0.0, 1.0}
        assert mask.dtype in (np.float32, np.float64)

    def test_hits_target_rate(self, kind):
        pattern = example_pattern(kind)
        achieved = 1.0 - pattern_mask(pattern).mean()
        assert achieved == pytest.approx(
            pattern.expected_rate, abs=pattern.rate_tolerance
        )

    def test_json_round_trip(self, kind):
        pattern = example_pattern(kind)
        clone = MissingPattern.from_json_dict(pattern.to_json_dict())
        assert clone == pattern
        assert np.array_equal(pattern_mask(clone), pattern_mask(pattern))

    def test_with_rate_retargets(self, kind):
        pattern = example_pattern(kind).with_rate(0.25)
        assert pattern.expected_rate == pytest.approx(0.25, abs=1e-6)

    @settings(max_examples=8, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**31 - 1))
    def test_property_any_seed_is_stable(self, kind, seed):
        pattern = example_pattern(kind, seed=seed)
        small = (48, 6, 1)
        data = RNG_DATA[:48, :6, :1]
        first = pattern.mask(small, data=data)
        second = pattern.mask(small, data=data)
        assert np.array_equal(first, second)
        assert first.shape == small


class TestScenarioJSON:
    def test_unknown_fields_rejected(self):
        with pytest.raises(ConfigError):
            MissingPattern.from_json_dict(
                {"pattern": "mcar", "params": {"rate": 0.1}, "blast": 1}
            )

    def test_missing_pattern_key_rejected(self):
        with pytest.raises(ConfigError):
            MissingPattern.from_json_dict({"params": {"rate": 0.1}})

    def test_mixed_round_trips_components(self):
        pattern = example_pattern("mixed")
        spec = pattern.to_json_dict()
        assert [c["pattern"] for c in spec["params"]["components"]] == [
            "mcar", "sensor",
        ]
        assert MissingPattern.from_json_dict(spec) == pattern


class TestStructuredBehaviour:
    def test_corridor_is_spatially_contiguous_with_adjacency(self):
        # Ring adjacency: corridor members must be graph neighbours.
        n = 8
        adjacency = np.zeros((n, n))
        for i in range(n):
            adjacency[i, (i + 1) % n] = adjacency[(i + 1) % n, i] = 1.0
        pattern = make_pattern("corridor", rate=0.25, corridor_size=2, seed=0)
        dead = pattern.dropped_nodes(n, adjacency=adjacency)
        assert len(dead) == 2
        a, b = sorted(dead)
        assert adjacency[a, b] == 1.0

    def test_blackout_hits_all_sensors_at_once(self):
        mask = make_pattern("blackout", rate=0.3, seed=1).mask(SHAPE)
        dark_steps = (mask == 0).all(axis=(1, 2))
        partially_dark = ((mask == 0).any(axis=(1, 2))) & ~dark_steps
        assert dark_steps.any()
        assert not partially_dark.any()

    def test_mnar_targets_congested_readings(self):
        pattern = make_pattern("mnar_congestion", rate=0.4, seed=2)
        mask = pattern.mask(SHAPE, data=RNG_DATA)
        missing_mean = RNG_DATA[mask == 0].mean()
        observed_mean = RNG_DATA[mask == 1].mean()
        # congested="low": low speeds go missing preferentially.
        assert missing_mean < observed_mean

    def test_mnar_requires_data(self):
        with pytest.raises(DataError):
            make_pattern("mnar_congestion", rate=0.4).mask(SHAPE)

    def test_bad_shape_rejected(self):
        with pytest.raises(DataError):
            make_pattern("sensor", rate=0.4).mask((10, 4))


class TestChaosOfflineSharedPath:
    """Acceptance: chaos drops and offline masks from one scenario JSON."""

    def test_same_scenario_json_silences_same_sensors(self):
        scenario = make_pattern(
            "corridor", rate=0.3, corridor_size=2, seed=5,
            name="i405-north",
        ).to_json_dict()

        # Offline evaluation path: scenario JSON -> pattern -> mask.
        offline = MissingPattern.from_json_dict(scenario)
        mask = offline.mask((64, 8, 2))
        dark = {int(n) for n in range(8) if mask[:, n].max() == 0.0}
        assert dark  # the scenario silences someone

        # Chaos path: the same scenario JSON inside a FaultPlan.
        plan = FaultPlan(dropped_sensors=scenario)
        resolved = set(plan.injector().resolve_dropped(8))
        assert resolved == dark

    def test_identical_masks_from_shared_scenario(self):
        scenario = example_pattern("sensor").to_json_dict()
        a = MissingPattern.from_json_dict(scenario)
        b = FaultPlan(dropped_sensors=scenario).drop_pattern
        assert np.array_equal(a.mask(SHAPE), b.mask(SHAPE))
