"""Synthetic road-network generation.

The paper's geographic graph comes from road-network distances between
sensor locations (plus, for Stampede, lane counts / traffic lights / speed
limits). We generate two families of networks:

* :func:`highway_corridor` — sensors strung along a freeway with on/off
  branches, mimicking the PeMS district-07 loop-detector deployment;
* :func:`city_grid` — a small arterial grid, mimicking the 12 road
  segments covered by the Stampede shuttles.

Road distances are shortest-path lengths on the network (not straight-line
distances), which is what "road network distances" in Section III-A means.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    import networkx as nx

__all__ = ["RoadNetwork", "highway_corridor", "city_grid"]


@dataclass
class RoadNetwork:
    """A road network instrumented with ``num_nodes`` sensors/segments.

    Attributes
    ----------
    coordinates:
        Sensor positions ``(N, 2)`` in kilometres (synthetic plane).
    distances:
        Road-network shortest-path distances ``(N, N)`` in kilometres.
    graph:
        The underlying networkx graph over sensor indices.
    lanes / speed_limits / traffic_lights / segment_lengths:
        Per-segment metadata ``(N,)`` (used by the Stampede travel-time
        simulator and available for richer geographic kernels).
    """

    coordinates: np.ndarray
    distances: np.ndarray
    graph: nx.Graph
    lanes: np.ndarray
    speed_limits: np.ndarray
    traffic_lights: np.ndarray
    segment_lengths: np.ndarray
    name: str = "road-network"
    metadata: dict = field(default_factory=dict)

    @property
    def num_nodes(self) -> int:
        return len(self.coordinates)

    def __post_init__(self):
        n = self.num_nodes
        for attr in ("distances",):
            if getattr(self, attr).shape != (n, n):
                raise ValueError(f"{attr} must be (N, N) for N={n}")
        for attr in ("lanes", "speed_limits", "traffic_lights", "segment_lengths"):
            if getattr(self, attr).shape != (n,):
                raise ValueError(f"{attr} must be length {n}")


def _shortest_path_distances(graph: nx.Graph, n: int) -> np.ndarray:
    """Dense all-pairs shortest path lengths using edge ``length`` weights."""
    import networkx as nx

    distances = np.full((n, n), np.inf)
    for src, lengths in nx.all_pairs_dijkstra_path_length(graph, weight="length"):
        for dst, dist in lengths.items():
            distances[src, dst] = dist
    np.fill_diagonal(distances, 0.0)
    if np.isinf(distances).any():
        # Disconnected components: use a large finite distance so the
        # Gaussian kernel zeroes those edges rather than producing NaNs.
        finite_max = distances[np.isfinite(distances)].max()
        distances[np.isinf(distances)] = 10.0 * max(finite_max, 1.0)
    return distances


def highway_corridor(
    num_nodes: int = 20,
    spacing_km: float = 1.5,
    branch_prob: float = 0.25,
    seed: int = 0,
) -> RoadNetwork:
    """Freeway corridor with occasional parallel branches.

    Sensors ``0..k`` lie on the mainline at roughly ``spacing_km``
    intervals; with probability ``branch_prob`` a sensor spawns a short
    branch segment (an on-ramp / parallel arterial) placed off-axis.
    """
    if num_nodes < 2:
        raise ValueError(f"need at least 2 nodes, got {num_nodes}")
    import networkx as nx

    rng = np.random.default_rng(seed)
    graph = nx.Graph()
    coordinates = np.zeros((num_nodes, 2))

    mainline: list[int] = []
    node = 0
    x = 0.0
    while node < num_nodes:
        is_branch = mainline and rng.random() < branch_prob and node < num_nodes
        if is_branch:
            parent = mainline[-1]
            offset = rng.uniform(0.5, 1.5) * rng.choice([-1.0, 1.0])
            coordinates[node] = coordinates[parent] + np.array(
                [rng.uniform(0.2, 0.8), offset]
            )
            graph.add_edge(
                parent, node,
                length=float(np.linalg.norm(coordinates[node] - coordinates[parent])),
            )
        else:
            coordinates[node] = [x, rng.normal(0, 0.05)]
            if mainline:
                prev = mainline[-1]
                graph.add_edge(
                    prev, node,
                    length=float(np.linalg.norm(coordinates[node] - coordinates[prev])),
                )
            mainline.append(node)
            x += spacing_km * rng.uniform(0.8, 1.2)
        graph.add_node(node)
        node += 1

    distances = _shortest_path_distances(graph, num_nodes)
    lanes = rng.integers(3, 6, size=num_nodes).astype(np.float64)
    speed_limits = np.full(num_nodes, 65.0)  # mph, freeway
    traffic_lights = np.zeros(num_nodes)
    segment_lengths = np.full(num_nodes, spacing_km)
    return RoadNetwork(
        coordinates=coordinates,
        distances=distances,
        graph=graph,
        lanes=lanes,
        speed_limits=speed_limits,
        traffic_lights=traffic_lights,
        segment_lengths=segment_lengths,
        name=f"highway-corridor-{num_nodes}",
        metadata={"seed": seed, "mainline": mainline},
    )


def city_grid(
    rows: int = 3,
    cols: int = 4,
    block_km: float = 0.4,
    seed: int = 0,
) -> RoadNetwork:
    """Small arterial grid; each node is one monitored road segment.

    ``rows * cols`` segments with urban metadata: 1–2 lanes, 25–35 mph
    limits, 0–3 traffic lights per segment. This mirrors the road-network
    information the paper lists for Stampede (lanes, lights, limits,
    segment center GPS).
    """
    import networkx as nx

    num_nodes = rows * cols
    rng = np.random.default_rng(seed)
    graph = nx.Graph()
    coordinates = np.zeros((num_nodes, 2))
    for r in range(rows):
        for c in range(cols):
            idx = r * cols + c
            jitter = rng.normal(0, 0.02, size=2)
            coordinates[idx] = [c * block_km + jitter[0], r * block_km + jitter[1]]
            graph.add_node(idx)
    for r in range(rows):
        for c in range(cols):
            idx = r * cols + c
            if c + 1 < cols:
                nbr = idx + 1
                graph.add_edge(idx, nbr, length=float(
                    np.linalg.norm(coordinates[idx] - coordinates[nbr])))
            if r + 1 < rows:
                nbr = idx + cols
                graph.add_edge(idx, nbr, length=float(
                    np.linalg.norm(coordinates[idx] - coordinates[nbr])))

    distances = _shortest_path_distances(graph, num_nodes)
    lanes = rng.integers(1, 3, size=num_nodes).astype(np.float64)
    speed_limits = rng.choice([25.0, 30.0, 35.0], size=num_nodes)
    traffic_lights = rng.integers(0, 4, size=num_nodes).astype(np.float64)
    segment_lengths = np.full(num_nodes, block_km) * rng.uniform(0.8, 1.4, size=num_nodes)
    return RoadNetwork(
        coordinates=coordinates,
        distances=distances,
        graph=graph,
        lanes=lanes,
        speed_limits=speed_limits,
        traffic_lights=traffic_lights,
        segment_lengths=segment_lengths,
        name=f"city-grid-{rows}x{cols}",
        metadata={"seed": seed, "rows": rows, "cols": cols},
    )
