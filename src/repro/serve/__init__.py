"""Online serving: model bundles, streaming state, micro-batched engine,
HTTP front-end and load benchmarking.

The offline story (train → evaluate on windowed arrays) gets a
deployment counterpart::

    from repro.serve import ServeApp, ServeConfig, export_bundle, load_bundle, run_server

    export_bundle(model, "RIHGCN", ctx, "artifacts/rihgcn-demo")
    bundle = load_bundle("artifacts/rihgcn-demo")
    run_server(ServeApp(bundle, config=ServeConfig(port=8787)))

See ``docs/SERVING.md`` for the full walk-through and
``examples/serve_quickstart.py`` for a runnable end-to-end script.
"""

from .artifact import (
    FLEET_FORMAT_VERSION,
    FORMAT_VERSION,
    QUANT_MODES,
    ModelBundle,
    export_bundle,
    load_bundle,
    load_fleet_manifest,
    quantization_mae_drift,
    quantize_bundle,
    save_fleet_manifest,
)
from .cache import LRUCache
from .cluster import (
    ClusterConfig,
    ClusterRouter,
    ClusterSupervisor,
    LocalCluster,
    ShardApp,
    build_plan,
    corridor_adjacency,
    make_demo_bundle,
    make_shard_bundle,
    run_cluster_smoke,
    spatial_hops,
)
from .config import (
    DEFAULT_TENANT,
    CanaryConfig,
    FleetConfig,
    ServeConfig,
    ShadowConfig,
    TenantConfig,
)
from .engine import Forecast, ForecastEngine
from .fleet import EnginePool, TenantQuota, build_pool
from .http import PlainText, Response, ServeApp, bind_http, make_server, run_server
from .planner import PlanRuntime
from .loadgen import (
    LoadReport,
    compare_batched_sequential,
    drive,
    make_chaos_app,
    run_chaos_soak,
    run_fleet_smoke,
    run_load,
    run_slo_smoke,
    sensor_traffic,
    zipf_node_sampler,
)
from .state import StateStore, StateWindow

__all__ = [
    "FLEET_FORMAT_VERSION",
    "FORMAT_VERSION",
    "ModelBundle",
    "export_bundle",
    "load_bundle",
    "load_fleet_manifest",
    "quantization_mae_drift",
    "quantize_bundle",
    "QUANT_MODES",
    "save_fleet_manifest",
    "LRUCache",
    "PlanRuntime",
    "DEFAULT_TENANT",
    "CanaryConfig",
    "FleetConfig",
    "ServeConfig",
    "ShadowConfig",
    "TenantConfig",
    "Forecast",
    "ForecastEngine",
    "EnginePool",
    "TenantQuota",
    "build_pool",
    "PlainText",
    "Response",
    "ServeApp",
    "bind_http",
    "make_server",
    "run_server",
    "LoadReport",
    "drive",
    "sensor_traffic",
    "zipf_node_sampler",
    "run_load",
    "compare_batched_sequential",
    "make_chaos_app",
    "run_chaos_soak",
    "run_fleet_smoke",
    "run_slo_smoke",
    "ClusterConfig",
    "ClusterRouter",
    "ClusterSupervisor",
    "LocalCluster",
    "ShardApp",
    "build_plan",
    "corridor_adjacency",
    "make_demo_bundle",
    "make_shard_bundle",
    "run_cluster_smoke",
    "spatial_hops",
    "StateStore",
    "StateWindow",
]
