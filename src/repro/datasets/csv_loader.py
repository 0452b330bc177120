"""Loading real traffic data from CSV files (METR-LA / PEMS-BAY style).

The reproduction ships simulators, but downstream users will want to run
RIHGCN on real feeds. This loader accepts the de-facto community format:

* a *readings* CSV — one row per timestamp, one column per sensor (an
  optional first column holds timestamps); empty cells or a sentinel
  value mark missing entries;
* a *distances* CSV — either a dense ``N x N`` matrix or a sparse
  ``from,to,distance`` edge list.

Everything returns the same :class:`TrafficDataset` the simulators
produce, so the full pipeline (graph construction, windowing, training,
experiments) works unchanged on real data.
"""

from __future__ import annotations

import csv
import os

import numpy as np

from ..errors import DataError
from .dataset import TrafficDataset
from .network import RoadNetwork

__all__ = ["load_readings_csv", "load_distances_csv", "load_csv_dataset"]


def load_readings_csv(
    path: str | os.PathLike,
    has_header: bool = True,
    has_timestamp_column: bool = True,
    missing_values: tuple[str, ...] = ("", "nan", "NaN", "NA"),
    missing_sentinel: float | None = 0.0,
) -> tuple[np.ndarray, np.ndarray, list[str]]:
    """Parse a readings CSV into ``(data, mask, sensor_names)``.

    Returns ``data`` of shape ``(T, N, 1)`` (zeros at missing entries), a
    matching 0/1 ``mask`` and the sensor column names. A cell is missing
    when its text is in ``missing_values`` or its value equals
    ``missing_sentinel`` (PeMS exports commonly use 0 for "no reading";
    pass ``None`` to treat zeros as real).
    """
    with open(path, newline="") as handle:
        reader = csv.reader(handle)
        rows = [row for row in reader if row]
    if not rows:
        raise DataError(f"{path} contains no data rows")

    start_col = 1 if has_timestamp_column else 0
    if has_header:
        names = [c.strip() for c in rows[0][start_col:]]
        rows = rows[1:]
    else:
        names = [f"sensor_{i}" for i in range(len(rows[0]) - start_col)]
    if not rows:
        raise DataError(f"{path} has a header but no data rows")

    n = len(names)
    total = len(rows)
    data = np.zeros((total, n, 1))
    mask = np.zeros((total, n, 1))
    for t, row in enumerate(rows):
        cells = row[start_col:]
        if len(cells) != n:
            raise DataError(
                f"row {t} has {len(cells)} readings, expected {n}"
            )
        for i, cell in enumerate(cells):
            text = cell.strip()
            if text in missing_values:
                continue
            value = float(text)
            if missing_sentinel is not None and value == missing_sentinel:
                continue
            data[t, i, 0] = value
            mask[t, i, 0] = 1.0
    return data, mask, names


def load_distances_csv(
    path: str | os.PathLike,
    sensor_names: list[str] | None = None,
) -> np.ndarray:
    """Parse a distance CSV into a dense symmetric ``(N, N)`` matrix.

    Accepts either a dense matrix (N rows of N numbers, optional header)
    or an edge list with a ``from,to,distance`` header (sensor ids are
    resolved against ``sensor_names`` when given, else taken as integer
    indices). Missing pairs in edge-list form default to the maximum seen
    distance times 10 (i.e. effectively disconnected under Eq. 8).
    """
    with open(path, newline="") as handle:
        reader = csv.reader(handle)
        rows = [row for row in reader if row]
    if not rows:
        raise DataError(f"{path} contains no rows")

    header = [c.strip().lower() for c in rows[0]]
    if header[:3] == ["from", "to", "distance"] or header[:3] == ["from", "to", "cost"]:
        edges = rows[1:]
        if sensor_names is not None:
            index = {name: i for i, name in enumerate(sensor_names)}
            n = len(sensor_names)
        else:
            ids = sorted({r[0].strip() for r in edges} | {r[1].strip() for r in edges})
            index = {name: i for i, name in enumerate(ids)}
            n = len(ids)
        distances = np.full((n, n), np.nan)
        np.fill_diagonal(distances, 0.0)
        for row in edges:
            src, dst = row[0].strip(), row[1].strip()
            if src not in index or dst not in index:
                raise DataError(f"unknown sensor id in edge {row!r}")
            d = float(row[2])
            i, j = index[src], index[dst]
            distances[i, j] = d
            distances[j, i] = d
        finite = distances[np.isfinite(distances)]
        fallback = 10.0 * (finite.max() if finite.size else 1.0)
        distances[~np.isfinite(distances)] = fallback
        return distances

    # Dense form: drop a header row / label column if non-numeric.
    def _is_number(text: str) -> bool:
        try:
            float(text)
            return True
        except ValueError:
            return False

    if not all(_is_number(c) for c in rows[0]):
        rows = rows[1:]
    matrix = []
    for row in rows:
        cells = row if _is_number(row[0]) else row[1:]
        matrix.append([float(c) for c in cells])
    distances = np.asarray(matrix)
    if distances.ndim != 2 or distances.shape[0] != distances.shape[1]:
        raise DataError(f"dense distance matrix must be square, got {distances.shape}")
    return (distances + distances.T) / 2.0


def load_csv_dataset(
    readings_path: str | os.PathLike,
    distances_path: str | os.PathLike,
    steps_per_day: int = 288,
    name: str = "csv-traffic",
    start_step_of_day: int = 0,
    **reader_kwargs,
) -> TrafficDataset:
    """Build a :class:`TrafficDataset` from readings + distances CSVs.

    ``start_step_of_day`` anchors the first row's time-of-day (e.g. a file
    starting at 06:00 with 5-minute bins uses ``72``); the temporal-graph
    machinery depends on correct time-of-day indices.
    """
    import networkx as nx

    data, mask, names = load_readings_csv(readings_path, **reader_kwargs)
    distances = load_distances_csv(distances_path, sensor_names=names)
    if distances.shape[0] != data.shape[1]:
        raise DataError(
            f"distance matrix covers {distances.shape[0]} sensors, readings "
            f"have {data.shape[1]}"
        )
    total, n, _ = data.shape
    graph = nx.Graph()
    graph.add_nodes_from(range(n))
    network = RoadNetwork(
        coordinates=np.zeros((n, 2)),
        distances=distances,
        graph=graph,
        lanes=np.ones(n),
        speed_limits=np.full(n, 65.0),
        traffic_lights=np.zeros(n),
        segment_lengths=np.ones(n),
        name=f"{name}-network",
        metadata={"source": str(readings_path)},
    )
    steps_of_day = (np.arange(total) + start_step_of_day) % steps_per_day
    return TrafficDataset(
        data=data,
        mask=mask,
        truth=None,  # real data: no simulator ground truth
        network=network,
        steps_per_day=steps_per_day,
        steps_of_day=steps_of_day,
        feature_names=["reading"],
        name=name,
        metadata={"sensors": names},
    )
