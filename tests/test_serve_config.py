"""Tests for ServeConfig (repro.serve.config)."""

import argparse

import pytest

from repro.errors import ConfigError, ReproError
from repro.reliability import ResiliencePolicy
from repro.serve import ServeConfig


class TestValidation:
    def test_defaults_are_valid(self):
        config = ServeConfig()
        assert config.max_batch_size == 8
        assert config.resilience == ResiliencePolicy()

    def test_bad_values_raise_config_error(self):
        with pytest.raises(ConfigError):
            ServeConfig(port=99999)
        with pytest.raises(ConfigError):
            ServeConfig(max_batch_size=0)
        with pytest.raises(ConfigError):
            ServeConfig(max_wait_s=-1.0)
        with pytest.raises(ConfigError):
            ServeConfig(trace_sample=1.5)
        with pytest.raises(ConfigError):
            ServeConfig(resilience="nope")

    def test_config_error_is_repro_error_only(self):
        """The stdlib ``ValueError`` base was removed with the other
        transitional shims; callers catch :class:`ConfigError` (or
        :class:`ReproError`)."""
        with pytest.raises(ConfigError):
            ServeConfig(port=-1)
        with pytest.raises(ReproError):
            ServeConfig(port=-1)
        assert not issubclass(ConfigError, ValueError)

    def test_nested_policy_validated(self):
        with pytest.raises(ConfigError):
            ServeConfig(resilience=ResiliencePolicy(retry_attempts=0))

    def test_with_overrides_revalidates(self):
        config = ServeConfig()
        assert config.with_overrides(port=9000).port == 9000
        with pytest.raises(ConfigError):
            config.with_overrides(port=-2)

    def test_frozen(self):
        with pytest.raises(Exception):
            ServeConfig().port = 1234


class TestFromEnv:
    def test_empty_env_gives_defaults(self):
        assert ServeConfig.from_env(env={}) == ServeConfig()

    def test_overrides_parse(self):
        config = ServeConfig.from_env(env={
            "REPRO_SERVE_HOST": "0.0.0.0",
            "REPRO_SERVE_PORT": "9000",
            "REPRO_SERVE_MAX_BATCH_SIZE": "4",
            "REPRO_SERVE_MAX_WAIT_MS": "5",
            "REPRO_SERVE_CACHE_SIZE": "64",
            "REPRO_SERVE_DEADLINE_S": "2.5",
            "REPRO_SERVE_RETRY_ATTEMPTS": "3",
            "REPRO_SERVE_BREAKER": "false",
            "REPRO_SERVE_MAX_QUEUE_DEPTH": "16",
        })
        assert config.host == "0.0.0.0" and config.port == 9000
        assert config.max_batch_size == 4
        assert config.max_wait_s == pytest.approx(0.005)
        assert config.cache_size == 64
        assert config.resilience.deadline_s == 2.5
        assert config.resilience.retry_attempts == 3
        assert config.resilience.breaker is False
        assert config.resilience.max_queue_depth == 16

    def test_deadline_none_disables(self):
        config = ServeConfig.from_env(env={"REPRO_SERVE_DEADLINE_S": "none"})
        assert config.resilience.deadline_s is None

    def test_unparseable_value_raises_config_error(self):
        with pytest.raises(ConfigError):
            ServeConfig.from_env(env={"REPRO_SERVE_PORT": "not-a-port"})


class TestFromArgs:
    def test_namespace_without_flags_gives_defaults(self):
        assert ServeConfig.from_args(argparse.Namespace()) == ServeConfig()

    def test_cli_flags_map(self):
        ns = argparse.Namespace(
            host="10.0.0.1", port=8787, max_batch_size=2, max_wait_ms=1.0,
            trace_sample=0.5, trace_export="spans.jsonl",
            deadline_s=3.0, retry_attempts=4, no_breaker=True,
            no_fallback=False, max_queue_depth=32,
        )
        config = ServeConfig.from_args(ns)
        assert config.host == "10.0.0.1" and config.port == 8787
        assert config.max_wait_s == pytest.approx(0.001)
        assert config.trace_sample == 0.5
        assert config.trace_export == "spans.jsonl"
        assert config.resilience.deadline_s == 3.0
        assert config.resilience.retry_attempts == 4
        assert config.resilience.breaker is False
        assert config.resilience.fallback is True
        assert config.resilience.max_queue_depth == 32


class TestRemovedShims:
    """Tuning lives on ServeConfig only: the old loose kwargs of ServeApp,
    make_server and run_server are not accepted."""

    @pytest.fixture()
    def app_bundle(self, tiny_ctx, tmp_path):
        from repro.experiments import build_model
        from repro.serve import export_bundle, load_bundle

        model = build_model("FC-LSTM-I", tiny_ctx)
        base = str(tmp_path / "bundle")
        export_bundle(model, "FC-LSTM-I", tiny_ctx, base)
        return load_bundle(base)

    def test_unknown_kwargs_still_type_error(self, app_bundle):
        from repro.serve import ServeApp

        with pytest.raises(TypeError, match="unexpected keyword"):
            ServeApp(app_bundle, turbo_mode=True)

    def test_config_drives_engine(self, app_bundle):
        from repro.serve import ServeApp
        from repro.telemetry import MetricRegistry

        config = ServeConfig(
            max_batch_size=3,
            resilience=ResiliencePolicy(max_queue_depth=7),
        )
        app = ServeApp(app_bundle, registry=MetricRegistry(), config=config)
        assert app.engine.max_batch_size == 3
        assert app.engine.policy.max_queue_depth == 7

    def test_make_server_host_port_args_raise(self, app_bundle):
        from repro.serve import ServeApp, make_server
        from repro.telemetry import MetricRegistry

        app = ServeApp(app_bundle, registry=MetricRegistry())
        with pytest.raises(TypeError, match="unexpected keyword argument 'host'"):
            make_server(app, host="127.0.0.1", port=0)

    def test_run_server_host_port_args_raise(self, app_bundle):
        from repro.serve import ServeApp, run_server
        from repro.telemetry import MetricRegistry

        app = ServeApp(app_bundle, registry=MetricRegistry())
        with pytest.raises(TypeError, match="unexpected keyword argument 'port'"):
            run_server(app, port=8787)

    def test_make_server_binds_from_config(self, app_bundle):
        from repro.serve import ServeApp, make_server
        from repro.telemetry import MetricRegistry

        app = ServeApp(app_bundle, registry=MetricRegistry())
        server = make_server(app)
        try:
            assert server.server_address[0] == app.config.host
        finally:
            server.server_close()
            app.pool.stop()
