"""One validated configuration object for the whole serving stack.

``ServeApp``'s tuning used to arrive as loose kwargs sprinkled over
``ForecastEngine``, ``make_server``, ``run_server`` and the CLI
``serve`` flags. :class:`ServeConfig` collapses all of it — batching,
cache, tracing, quality thresholds and the resilience policy — into a
single frozen dataclass with three constructors:

* ``ServeConfig(...)`` — programmatic, validated in ``__post_init__``;
* ``ServeConfig.from_env()`` — ``REPRO_SERVE_*`` environment variables
  over the defaults (containers, CI);
* ``ServeConfig.from_args(ns)`` — an ``argparse`` namespace from the
  CLI ``serve``/``chaos`` subcommands.

The multi-tenant fleet layers on top: a :class:`FleetConfig` is a base
``ServeConfig`` plus one :class:`TenantConfig` per tenant, each naming
its model bundle, an optional token-bucket quota, per-tenant resilience
overrides and optional :class:`ShadowConfig` / :class:`CanaryConfig`
rollout plans. ``FleetConfig.single()`` wraps a lone ``ServeConfig``
into a one-tenant fleet, which is how the single-engine entry points
keep working unchanged.
"""

from __future__ import annotations

import os
import re
from dataclasses import asdict, dataclass, field, fields, replace

from ..errors import ConfigError
from ..reliability import ResiliencePolicy
from ..telemetry import QualityThresholds

__all__ = [
    "DEFAULT_TENANT",
    "CanaryConfig",
    "FleetConfig",
    "ServeConfig",
    "ShadowConfig",
    "TenantConfig",
]

#: tenant used by every single-tenant entry point (legacy ``ServeApp``)
DEFAULT_TENANT = "default"

# Tenant names become Prometheus label values, path segments and
# manifest keys. Label values are escaped at exposition time, but paths
# and manifests want one predictable charset, so names are restricted
# up front.
_TENANT_NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9._-]{0,63}$")


def _env_value(env, key: str, cast, default):
    raw = env.get(key)
    if raw is None:
        return default
    try:
        if cast is bool:
            return raw.strip().lower() in ("1", "true", "yes", "on")
        return cast(raw)
    except ValueError as error:
        raise ConfigError(f"cannot parse {key}={raw!r}: {error}") from error


@dataclass(frozen=True)
class ServeConfig:
    """Everything a serving process needs besides the bundle itself."""

    host: str = "127.0.0.1"
    port: int = 0  # 0 = ephemeral; the CLI defaults to 8787 via its flag
    max_batch_size: int = 8
    max_wait_s: float = 0.002
    cache_size: int = 256
    plan_enabled: bool = True  # traced execution plans on the forward path
    trace_sample: float = 0.0
    trace_export: str | None = None
    slo_enabled: bool = True
    slo_latency_ms: float = 250.0
    profile_hz: float = 0.0  # 0 = continuous profiler off
    exemplars: bool = False  # trace-id exemplars on /metrics histograms
    quality: QualityThresholds = field(default_factory=QualityThresholds)
    resilience: ResiliencePolicy = field(default_factory=ResiliencePolicy)

    def __post_init__(self):
        if not 0 <= self.port <= 65535:
            raise ConfigError(f"port must be in 0..65535, got {self.port}")
        if self.max_batch_size < 1:
            raise ConfigError(
                f"max_batch_size must be >= 1, got {self.max_batch_size}"
            )
        if self.max_wait_s < 0:
            raise ConfigError(f"max_wait_s must be >= 0, got {self.max_wait_s}")
        if self.cache_size < 0:
            raise ConfigError(f"cache_size must be >= 0, got {self.cache_size}")
        if not 0.0 <= self.trace_sample <= 1.0:
            raise ConfigError(
                f"trace_sample must be in [0, 1], got {self.trace_sample}"
            )
        if self.slo_latency_ms <= 0:
            raise ConfigError(
                f"slo_latency_ms must be positive, got {self.slo_latency_ms}"
            )
        if not 0.0 <= self.profile_hz <= 1000.0:
            raise ConfigError(
                f"profile_hz must be in [0, 1000], got {self.profile_hz}"
            )
        if not isinstance(self.quality, QualityThresholds):
            raise ConfigError(
                f"quality must be a QualityThresholds, got {type(self.quality).__name__}"
            )
        if not isinstance(self.resilience, ResiliencePolicy):
            raise ConfigError(
                f"resilience must be a ResiliencePolicy, "
                f"got {type(self.resilience).__name__}"
            )

    def with_overrides(self, **changes) -> "ServeConfig":
        """A copy with ``changes`` applied (re-validated)."""
        return replace(self, **changes)

    # ------------------------------------------------------------------
    @classmethod
    def from_env(cls, env=None, prefix: str = "REPRO_SERVE_") -> "ServeConfig":
        """Defaults overridden by ``REPRO_SERVE_*`` environment variables.

        Recognised keys (suffix after the prefix): ``HOST``, ``PORT``,
        ``MAX_BATCH_SIZE``, ``MAX_WAIT_MS``, ``CACHE_SIZE``, ``PLAN``
        (bool), ``TRACE_SAMPLE``, ``TRACE_EXPORT``, ``SLO`` (bool),
        ``SLO_LATENCY_MS``, ``PROFILE_HZ``, ``EXEMPLARS`` (bool),
        ``DEADLINE_S``, ``RETRY_ATTEMPTS``, ``BREAKER`` (bool),
        ``BREAKER_OPEN_S``, ``FALLBACK`` (bool), ``MAX_QUEUE_DEPTH``.
        """
        env = os.environ if env is None else env
        base = cls()
        deadline_raw = env.get(prefix + "DEADLINE_S")
        resilience = base.resilience.with_overrides(
            deadline_s=(
                (float(deadline_raw) if deadline_raw.strip().lower() != "none" else None)
                if deadline_raw is not None
                else base.resilience.deadline_s
            ),
            retry_attempts=_env_value(
                env, prefix + "RETRY_ATTEMPTS", int, base.resilience.retry_attempts
            ),
            breaker=_env_value(env, prefix + "BREAKER", bool, base.resilience.breaker),
            breaker_open_s=_env_value(
                env, prefix + "BREAKER_OPEN_S", float, base.resilience.breaker_open_s
            ),
            fallback=_env_value(
                env, prefix + "FALLBACK", bool, base.resilience.fallback
            ),
            max_queue_depth=_env_value(
                env, prefix + "MAX_QUEUE_DEPTH", int, base.resilience.max_queue_depth
            ),
        )
        return cls(
            host=env.get(prefix + "HOST", base.host),
            port=_env_value(env, prefix + "PORT", int, base.port),
            max_batch_size=_env_value(
                env, prefix + "MAX_BATCH_SIZE", int, base.max_batch_size
            ),
            max_wait_s=_env_value(
                env, prefix + "MAX_WAIT_MS", float, base.max_wait_s * 1e3
            )
            / 1e3,
            cache_size=_env_value(env, prefix + "CACHE_SIZE", int, base.cache_size),
            plan_enabled=_env_value(env, prefix + "PLAN", bool, base.plan_enabled),
            trace_sample=_env_value(
                env, prefix + "TRACE_SAMPLE", float, base.trace_sample
            ),
            trace_export=env.get(prefix + "TRACE_EXPORT", base.trace_export),
            slo_enabled=_env_value(env, prefix + "SLO", bool, base.slo_enabled),
            slo_latency_ms=_env_value(
                env, prefix + "SLO_LATENCY_MS", float, base.slo_latency_ms
            ),
            profile_hz=_env_value(env, prefix + "PROFILE_HZ", float, base.profile_hz),
            exemplars=_env_value(env, prefix + "EXEMPLARS", bool, base.exemplars),
            resilience=resilience,
        )

    @classmethod
    def from_args(cls, args) -> "ServeConfig":
        """Build from an ``argparse`` namespace (CLI ``serve``/``chaos``).

        Only attributes present on the namespace override the defaults,
        so both subcommands can share this without carrying every flag.
        """

        def pick(name, default):
            value = getattr(args, name, None)
            return default if value is None else value

        base = cls()
        resilience = base.resilience.with_overrides(
            deadline_s=pick("deadline_s", base.resilience.deadline_s),
            retry_attempts=int(pick("retry_attempts", base.resilience.retry_attempts)),
            breaker=not getattr(args, "no_breaker", False),
            breaker_open_s=float(
                pick("breaker_open_s", base.resilience.breaker_open_s)
            ),
            fallback=not getattr(args, "no_fallback", False),
            max_queue_depth=int(
                pick("max_queue_depth", base.resilience.max_queue_depth)
            ),
        )
        return cls(
            host=pick("host", base.host),
            port=int(pick("port", base.port)),
            max_batch_size=int(pick("max_batch_size", base.max_batch_size)),
            max_wait_s=float(pick("max_wait_ms", base.max_wait_s * 1e3)) / 1e3,
            cache_size=int(pick("cache_size", base.cache_size)),
            plan_enabled=not getattr(args, "no_plan", False),
            trace_sample=float(pick("trace_sample", base.trace_sample)),
            trace_export=getattr(args, "trace_export", None),
            slo_enabled=not getattr(args, "no_slo", False),
            slo_latency_ms=float(pick("slo_latency_ms", base.slo_latency_ms)),
            profile_hz=float(pick("profile_hz", base.profile_hz)),
            exemplars=bool(getattr(args, "exemplars", False)),
            resilience=resilience,
        )

    @classmethod
    def from_dict(cls, payload: dict) -> "ServeConfig":
        """Build from a JSON mapping (fleet manifests).

        ``resilience`` and ``quality`` may be nested JSON objects of
        overrides; every other key maps straight onto a field. Unknown
        keys raise :class:`~repro.errors.ConfigError`.
        """
        if not isinstance(payload, dict):
            raise ConfigError(
                f"serve config must be a JSON object, got {type(payload).__name__}"
            )
        payload = dict(payload)
        kwargs = {}
        if "resilience" in payload:
            kwargs["resilience"] = ResiliencePolicy.from_dict(payload.pop("resilience"))
        if "quality" in payload:
            quality = payload.pop("quality")
            if not isinstance(quality, dict):
                raise ConfigError(
                    f"quality must be a JSON object, got {type(quality).__name__}"
                )
            kwargs["quality"] = QualityThresholds(**quality)
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(payload) - known)
        if unknown:
            raise ConfigError(
                f"unknown serve config field(s) {unknown}; "
                f"valid fields: {sorted(known)}"
            )
        kwargs.update(payload)
        return cls(**kwargs)

    def to_json_dict(self) -> dict:
        """Every field as a JSON-serialisable mapping (fleet manifests)."""
        out = {f.name: getattr(self, f.name) for f in fields(self)}
        out["quality"] = asdict(self.quality)
        out["resilience"] = self.resilience.to_json_dict()
        return out


@dataclass(frozen=True)
class ShadowConfig:
    """A shadow deployment plan for one tenant.

    ``bundle`` names the candidate bundle (manifest-relative path). A
    ``mirror_fraction`` of live forecasts is replayed against the
    candidate *off the request path*; each pair of answers feeds the
    per-tenant divergence histogram.
    """

    bundle: str
    mirror_fraction: float = 0.1
    seed: int = 0

    def __post_init__(self):
        if not self.bundle:
            raise ConfigError("shadow bundle must be a non-empty path")
        if not 0.0 < self.mirror_fraction <= 1.0:
            raise ConfigError(
                f"mirror_fraction must be in (0, 1], got {self.mirror_fraction}"
            )

    def to_json_dict(self) -> dict:
        return {
            "bundle": self.bundle,
            "mirror_fraction": self.mirror_fraction,
            "seed": self.seed,
        }


@dataclass(frozen=True)
class CanaryConfig:
    """A staged canary rollout plan for one tenant.

    The candidate bundle receives a ``stages[i]`` fraction of live
    traffic; after ``stage_requests`` clean candidate answers the
    rollout advances to the next stage, and past the last stage the
    candidate is promoted to primary. Rollback is automatic when the
    candidate's circuit breaker opens, its ``QualityMonitor`` verdict
    degrades, its failure ratio exceeds ``max_failure_ratio``, or its
    availability SLO burns: candidate answers feed a dedicated
    :class:`~repro.telemetry.slo.SLOTracker` with canary-scale windows
    (``slo_fast_s``/``slo_slow_s``) against ``slo_target``, and a
    sustained burn past ``slo_burn_threshold`` rolls the stage back
    (``slo_target=None`` disables the gate).
    """

    bundle: str
    stages: tuple[float, ...] = (0.01, 0.1, 0.5, 1.0)
    stage_requests: int = 50
    max_failure_ratio: float = 0.1
    min_failure_samples: int = 5
    seed: int = 0
    slo_target: float | None = 0.99
    slo_fast_s: float = 30.0
    slo_slow_s: float = 300.0
    slo_burn_threshold: float = 2.0

    def __post_init__(self):
        if not self.bundle:
            raise ConfigError("canary bundle must be a non-empty path")
        object.__setattr__(self, "stages", tuple(float(s) for s in self.stages))
        if not self.stages:
            raise ConfigError("canary needs at least one stage weight")
        for weight in self.stages:
            if not 0.0 < weight <= 1.0:
                raise ConfigError(
                    f"canary stage weights must be in (0, 1], got {weight}"
                )
        if list(self.stages) != sorted(self.stages):
            raise ConfigError(f"canary stages must be non-decreasing, got {self.stages}")
        if self.stage_requests < 1:
            raise ConfigError(
                f"stage_requests must be >= 1, got {self.stage_requests}"
            )
        if not 0.0 <= self.max_failure_ratio < 1.0:
            raise ConfigError(
                f"max_failure_ratio must be in [0, 1), got {self.max_failure_ratio}"
            )
        if self.min_failure_samples < 1:
            raise ConfigError(
                f"min_failure_samples must be >= 1, got {self.min_failure_samples}"
            )
        if self.slo_target is not None and not 0.0 < self.slo_target < 1.0:
            raise ConfigError(
                f"slo_target must be in (0, 1) or None, got {self.slo_target}"
            )
        if not 0.0 < self.slo_fast_s < self.slo_slow_s:
            raise ConfigError(
                f"need 0 < slo_fast_s < slo_slow_s, got "
                f"{self.slo_fast_s}/{self.slo_slow_s}"
            )
        if self.slo_burn_threshold <= 0:
            raise ConfigError(
                f"slo_burn_threshold must be positive, got {self.slo_burn_threshold}"
            )

    def to_json_dict(self) -> dict:
        return {
            "bundle": self.bundle,
            "stages": list(self.stages),
            "stage_requests": self.stage_requests,
            "max_failure_ratio": self.max_failure_ratio,
            "min_failure_samples": self.min_failure_samples,
            "seed": self.seed,
            "slo_target": self.slo_target,
            "slo_fast_s": self.slo_fast_s,
            "slo_slow_s": self.slo_slow_s,
            "slo_burn_threshold": self.slo_burn_threshold,
        }


@dataclass(frozen=True)
class TenantConfig:
    """One tenant of the fleet: a bundle, a quota and rollout plans.

    ``quota_rps``/``quota_burst`` parameterise the tenant's token
    bucket (0 rps disables the quota). ``config`` overrides the fleet's
    base :class:`ServeConfig` for this tenant (``None`` inherits).
    """

    name: str
    bundle: str
    quota_rps: float = 0.0
    quota_burst: float = 10.0
    config: ServeConfig | None = None
    shadow: ShadowConfig | None = None
    canary: CanaryConfig | None = None

    def __post_init__(self):
        if not _TENANT_NAME.match(self.name):
            raise ConfigError(
                f"tenant name {self.name!r} is invalid: use 1-64 characters "
                "from [A-Za-z0-9._-], starting with a letter or digit"
            )
        if not self.bundle:
            raise ConfigError(f"tenant {self.name!r} needs a bundle path")
        if self.quota_rps < 0:
            raise ConfigError(f"quota_rps must be >= 0, got {self.quota_rps}")
        if self.quota_rps > 0 and self.quota_burst < 1:
            raise ConfigError(
                f"quota_burst must be >= 1 when a quota is set, got {self.quota_burst}"
            )
        if self.config is not None and not isinstance(self.config, ServeConfig):
            raise ConfigError(
                f"tenant config must be a ServeConfig, got {type(self.config).__name__}"
            )
        if self.shadow is not None and self.canary is not None:
            raise ConfigError(
                f"tenant {self.name!r}: run shadow and canary rollouts one at a "
                "time (shadow first, then canary)"
            )

    @classmethod
    def from_dict(cls, payload: dict) -> "TenantConfig":
        if not isinstance(payload, dict):
            raise ConfigError(
                f"tenant entry must be a JSON object, got {type(payload).__name__}"
            )
        payload = dict(payload)
        kwargs = {}
        if "config" in payload:
            kwargs["config"] = ServeConfig.from_dict(payload.pop("config"))
        if "shadow" in payload and payload["shadow"] is not None:
            kwargs["shadow"] = ShadowConfig(**payload.pop("shadow"))
        if "canary" in payload and payload["canary"] is not None:
            canary = dict(payload.pop("canary"))
            if "stages" in canary:
                canary["stages"] = tuple(canary["stages"])
            kwargs["canary"] = CanaryConfig(**canary)
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(payload) - known)
        if unknown:
            raise ConfigError(
                f"unknown tenant field(s) {unknown}; valid fields: {sorted(known)}"
            )
        kwargs.update({k: v for k, v in payload.items() if k not in kwargs})
        return cls(**kwargs)

    def to_json_dict(self) -> dict:
        out: dict = {"name": self.name, "bundle": self.bundle}
        if self.quota_rps:
            out["quota_rps"] = self.quota_rps
            out["quota_burst"] = self.quota_burst
        if self.shadow is not None:
            out["shadow"] = self.shadow.to_json_dict()
        if self.canary is not None:
            out["canary"] = self.canary.to_json_dict()
        return out


@dataclass(frozen=True)
class FleetConfig:
    """A fleet: the base serving config plus one entry per tenant."""

    default: ServeConfig = field(default_factory=ServeConfig)
    tenants: tuple[TenantConfig, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "tenants", tuple(self.tenants))
        if not isinstance(self.default, ServeConfig):
            raise ConfigError(
                f"default must be a ServeConfig, got {type(self.default).__name__}"
            )
        if not self.tenants:
            raise ConfigError("a fleet needs at least one tenant")
        names = [tenant.name for tenant in self.tenants]
        dupes = sorted({n for n in names if names.count(n) > 1})
        if dupes:
            raise ConfigError(f"duplicate tenant name(s): {dupes}")

    @classmethod
    def single(
        cls, config: ServeConfig | None = None, bundle: str = "<in-memory>"
    ) -> "FleetConfig":
        """A one-tenant fleet wrapping the legacy single-engine setup."""
        config = config if config is not None else ServeConfig()
        return cls(
            default=config,
            tenants=(TenantConfig(name=DEFAULT_TENANT, bundle=bundle),),
        )

    def tenant(self, name: str) -> TenantConfig:
        for entry in self.tenants:
            if entry.name == name:
                return entry
        raise ConfigError(f"no tenant named {name!r} in the fleet")

    def config_for(self, name: str) -> ServeConfig:
        """The effective ServeConfig for ``name`` (tenant override or base)."""
        entry = self.tenant(name)
        return entry.config if entry.config is not None else self.default

    @classmethod
    def from_dict(cls, payload: dict) -> "FleetConfig":
        if not isinstance(payload, dict):
            raise ConfigError(
                f"fleet manifest must be a JSON object, got {type(payload).__name__}"
            )
        default = ServeConfig.from_dict(payload.get("default", {}))
        raw_tenants = payload.get("tenants", [])
        if not isinstance(raw_tenants, list):
            raise ConfigError("fleet manifest 'tenants' must be a JSON array")
        tenants = tuple(TenantConfig.from_dict(entry) for entry in raw_tenants)
        unknown = sorted(set(payload) - {"default", "tenants", "format_version"})
        if unknown:
            raise ConfigError(f"unknown fleet manifest field(s) {unknown}")
        return cls(default=default, tenants=tenants)

    def to_json_dict(self) -> dict:
        return {
            "default": self.default.to_json_dict(),
            "tenants": [tenant.to_json_dict() for tenant in self.tenants],
        }
