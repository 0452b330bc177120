"""Tests for fault injection and the chaos soak (repro.reliability.chaos)."""

import numpy as np
import pytest

from repro.datasets import make_pattern
from repro.errors import ConfigError, InjectedFault
from repro.experiments import build_model
from repro.reliability import (
    ChaosModel,
    ChaosStore,
    FaultPlan,
    ResiliencePolicy,
)
from repro.serve import (
    ServeConfig,
    StateStore,
    export_bundle,
    load_bundle,
    make_chaos_app,
    run_chaos_soak,
)


@pytest.fixture()
def bundle(tiny_ctx, tmp_path):
    model = build_model("FC-LSTM-I", tiny_ctx)
    base = str(tmp_path / "bundle")
    export_bundle(model, "FC-LSTM-I", tiny_ctx, base)
    return load_bundle(base)


def _forward_args(bundle):
    """Model-ready ``(x, m, steps)`` built exactly like the engine does."""
    store = bundle.make_store()
    for step in range(bundle.input_length):
        store.observe(
            step, np.full((bundle.num_nodes, bundle.num_features), 50.0)
        )
    window = store.window()
    x = bundle.scaler.transform(window.x[None], window.m[None])
    return x, window.m[None], window.steps_of_day[None]


class TestFaultPlan:
    def test_rates_validated(self):
        with pytest.raises(ConfigError):
            FaultPlan(error_rate=1.5)
        with pytest.raises(ConfigError):
            FaultPlan(latency_rate=-0.1)
        with pytest.raises(ConfigError):
            FaultPlan(latency_s=-1.0)

    def test_round_trips_through_json_dict(self):
        plan = FaultPlan(
            seed=7, latency_rate=0.1, error_rate=0.05, dropped_sensors=(2, 3)
        )
        assert FaultPlan.from_dict(plan.to_json_dict()) == plan

    def test_unknown_fields_rejected(self):
        with pytest.raises(ConfigError):
            FaultPlan.from_dict({"seed": 0, "blast_radius": 1.0})

    def test_active_flag(self):
        assert not FaultPlan().active
        assert FaultPlan(error_rate=0.1).active
        assert FaultPlan(dropped_sensors=(0,)).active

    def test_decisions_deterministic_from_seed(self):
        decisions_a = [
            FaultPlan(seed=3, latency_rate=0.3, error_rate=0.2).injector()
        ]
        decisions_b = [
            FaultPlan(seed=3, latency_rate=0.3, error_rate=0.2).injector()
        ]
        stream_a = [decisions_a[0].forward_decision() for _ in range(50)]
        stream_b = [decisions_b[0].forward_decision() for _ in range(50)]
        assert stream_a == stream_b
        different = FaultPlan(seed=4, latency_rate=0.3, error_rate=0.2).injector()
        assert [different.forward_decision() for _ in range(50)] != stream_a


class TestPatternDrops:
    """FaultPlan.dropped_sensors accepts a named MissingPattern scenario."""

    SCENARIO = {
        "pattern": "sensor", "name": "flaky-loop", "seed": 5,
        "params": {"rate": 0.4},
    }

    def test_plan_accepts_pattern_object(self):
        pattern = make_pattern("sensor", rate=0.4, seed=5, name="flaky-loop")
        plan = FaultPlan(dropped_sensors=pattern)
        assert plan.drop_pattern is pattern
        assert plan.scenario == pattern.to_json_dict()
        assert plan.active

    def test_plan_accepts_scenario_dict_and_round_trips(self):
        plan = FaultPlan(dropped_sensors=dict(self.SCENARIO))
        assert plan.drop_pattern == make_pattern(
            "sensor", rate=0.4, seed=5, name="flaky-loop"
        )
        assert FaultPlan.from_dict(plan.to_json_dict()) == plan

    def test_tuple_plans_keep_working(self):
        plan = FaultPlan(dropped_sensors=[2, 0])
        assert plan.dropped_sensors == (2, 0)
        assert plan.drop_pattern is None
        assert plan.scenario is None
        assert plan.to_json_dict()["dropped_sensors"] == [2, 0]

    def _corridor(self):
        # A steady corridor outage: the drop-scenario kind chaos consumes.
        return make_pattern(
            "corridor", rate=0.3, corridor_size=2, seed=7, name="i405"
        )

    def test_resolve_matches_pattern_dropped_nodes(self):
        plan = FaultPlan(dropped_sensors=self._corridor().to_json_dict())
        resolved = plan.injector().resolve_dropped(6)
        assert resolved == plan.drop_pattern.dropped_nodes(6)
        assert resolved  # the corridor silences someone

    def test_unresolved_pattern_drops_nothing(self):
        injector = FaultPlan(dropped_sensors=dict(self.SCENARIO)).injector()
        assert not injector.observation_dropped(0)
        assert injector.counts["dropped_observations"] == 0

    def test_chaos_store_resolves_pattern_on_wrap(self):
        store = StateStore(num_nodes=6, num_features=1, input_length=4)
        injector = FaultPlan(
            dropped_sensors=self._corridor().to_json_dict()
        ).injector()
        chaos = ChaosStore(store, injector)
        dead = injector.resolve_dropped(6)
        assert dead
        for node in range(6):
            landed = chaos.observe_sensor(0, node, [5.0])
            # Dropped sensors report success but never land.
            assert landed or node not in dead
        assert store.observations == 6 - len(dead)


class TestChaosWrappers:
    def test_chaos_model_injects_errors_and_latency(self, bundle):
        sleeps = []
        x, m, steps = _forward_args(bundle)
        injector = FaultPlan(seed=0, error_rate=1.0).injector()
        chaos = ChaosModel(bundle.model, injector, sleep=sleeps.append)
        with pytest.raises(InjectedFault):
            chaos(x, m, steps)
        assert injector.counts["errors"] == 1

        injector = FaultPlan(seed=0, latency_rate=1.0, latency_s=0.25).injector()
        chaos = ChaosModel(bundle.model.eval(), injector, sleep=sleeps.append)
        chaos(x, m, steps)
        assert sleeps == [0.25]

    def test_chaos_model_corrupts_output(self, bundle):
        x, m, steps = _forward_args(bundle)
        injector = FaultPlan(seed=0, corrupt_rate=1.0).injector()
        chaos = ChaosModel(bundle.model.eval(), injector)
        out = chaos(x, m, steps)
        assert np.isnan(out.prediction.data).any()
        assert injector.counts["corruptions"] == 1

    def test_chaos_model_delegates_attributes(self, bundle):
        chaos = ChaosModel(bundle.model, FaultPlan().injector())
        assert chaos.input_length == bundle.model.input_length
        assert chaos.eval() is chaos

    def test_chaos_store_drops_sensor_readings(self):
        store = StateStore(num_nodes=3, num_features=1, input_length=4)
        injector = FaultPlan(dropped_sensors=(1,)).injector()
        chaos = ChaosStore(store, injector)
        assert chaos.observe_sensor(0, 1, [5.0])  # producer sees success
        assert store.observations == 0  # ...but nothing landed
        assert chaos.observe_sensor(0, 0, [5.0])
        assert store.observations == 1
        assert injector.counts["dropped_observations"] == 1
        # Full-network observations lose the dropped sensor's mask rows.
        chaos.observe(1, np.full((3, 1), 9.0))
        window = store.window()
        assert window.m[-1, 1, 0] == 0.0
        assert window.m[-1, 0, 0] == 1.0

    def test_chaos_store_skews_clock(self):
        store = StateStore(num_nodes=2, num_features=1, input_length=4)
        chaos = ChaosStore(store, FaultPlan(clock_skew_steps=3).injector())
        chaos.observe_sensor(0, 0, [1.0])
        assert store.newest_step == 3


class TestChaosSoak:
    def test_soak_meets_availability_target(self, bundle):
        """The acceptance scenario: latency spikes + exceptions + a dead
        sensor, and the stack stays >= 99% available with zero crashes
        and every degraded answer tagged."""
        plan = FaultPlan(
            seed=0, latency_rate=0.1, latency_s=0.02, error_rate=0.05,
            dropped_sensors=(0,),
        )
        config = ServeConfig(
            max_wait_s=0.001,
            resilience=ResiliencePolicy(
                retry_base_delay_s=0.001, retry_max_delay_s=0.01
            ),
        )
        app, injector = make_chaos_app(bundle, plan, config=config)
        report = run_chaos_soak(
            app, num_clients=3, requests_per_client=15, seed=0,
            injector=injector,
        )
        assert report.crashes == 0
        assert report.availability >= 0.99
        assert report.untagged_degraded == 0
        assert report.requests == 3 * 15 * 2
        assert report.details["injected"]["errors"] > 0  # the faults actually fired
        assert "availability" in report.render()

    def test_soak_report_carries_scenario(self, bundle):
        scenario = make_pattern(
            "sensor", rate=0.4, seed=2, name="flaky-loop"
        ).to_json_dict()
        plan = FaultPlan(seed=0, dropped_sensors=scenario)
        app, injector = make_chaos_app(bundle, plan)
        report = run_chaos_soak(
            app, num_clients=1, requests_per_client=3, injector=injector
        )
        assert report.details["scenario"] == scenario
        assert "flaky-loop" in report.render()

    def test_soak_without_fallback_shows_errors(self, bundle):
        """Control experiment: same faults, resilience off — failures
        surface as 5xx instead of degraded 200s, proving the ladder (not
        luck) is what keeps availability up."""
        plan = FaultPlan(seed=0, error_rate=1.0)
        config = ServeConfig(resilience=ResiliencePolicy.disabled())
        app, injector = make_chaos_app(bundle, plan, config=config)
        report = run_chaos_soak(
            app, num_clients=2, requests_per_client=5, injector=injector
        )
        assert report.crashes == 0  # errors are mapped, never crashes
        assert report.server_errors > 0
        assert report.degraded == 0
        assert report.availability < 0.99
