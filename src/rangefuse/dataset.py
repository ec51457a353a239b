"""Measured-deployment ingestion and per-pair error evaluation.

The file format is a plain-text table with two sections introduced by the
marker lines '# nodes' (id, x, y per line) and '# rss' (id_i, id_j,
mean dBm per line); other '#' lines are comments. The RSS map is treated
as symmetric: when both directions of a pair appear, their mean is used.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .channel import ChannelParams, mean_rss
from .connectivity import FdModel, NeighborCounts, build_fd_model
from .errors import ConfigurationError
from .pipeline import PairEstimate, estimate_pair
from .simulator import Deployment


def _pair_key(i: int, j: int) -> tuple:
    return (i, j) if i < j else (j, i)


@dataclass(frozen=True)
class MeasurementSet:
    """Node coordinates, symmetric mean-RSS map, and the channel they obey."""

    nodes: tuple
    rss: dict
    channel: ChannelParams

    def __post_init__(self):
        seen = set()
        for node_id, x, y in self.nodes:
            if node_id in seen:
                raise ConfigurationError(f"duplicate node id {node_id}")
            if not (math.isfinite(x) and math.isfinite(y)):
                raise ConfigurationError(f"node {node_id} has non-finite coordinates")
            seen.add(node_id)
        for i, j in self.rss:
            if i not in seen or j not in seen:
                raise ConfigurationError(f"RSS entry ({i}, {j}) references an unknown node")
            if i == j:
                raise ConfigurationError(f"RSS entry ({i}, {j}) links a node to itself")

    @property
    def ids(self) -> tuple:
        return tuple(node_id for node_id, _, _ in self.nodes)

    def position(self, node_id: int) -> tuple:
        for nid, x, y in self.nodes:
            if nid == node_id:
                return (x, y)
        raise KeyError(node_id)

    def pair_rss(self, i: int, j: int):
        return self.rss.get(_pair_key(i, j))


def load_measurements(path, channel: ChannelParams) -> MeasurementSet:
    """Parse a measurement file; malformed rows get line-numbered diagnostics."""
    path = Path(path)
    if not path.is_file():
        raise ConfigurationError(f"measurement file not found: {path}")
    nodes = []
    node_ids = set()
    rss_sums: dict = {}
    rss_counts: dict = {}
    section = None
    for lineno, raw in enumerate(path.read_text().splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            marker = line[1:].strip().lower()
            if marker == "nodes":
                section = "nodes"
            elif marker == "rss":
                section = "rss"
            continue
        if section is None:
            raise ConfigurationError(
                f"{path}:{lineno}: data before any '# nodes' or '# rss' marker"
            )
        parts = [item.strip() for item in line.split(",")]
        if section == "nodes":
            try:
                node_id, x, y = int(parts[0]), float(parts[1]), float(parts[2])
                if len(parts) != 3:
                    raise ValueError
            except (ValueError, IndexError):
                raise ConfigurationError(
                    f"{path}:{lineno}: expected 'id, x, y', got {line!r}"
                ) from None
            if node_id in node_ids:
                raise ConfigurationError(f"{path}:{lineno}: duplicate node id {node_id}")
            node_ids.add(node_id)
            nodes.append((node_id, x, y))
        else:
            try:
                i, j, value = int(parts[0]), int(parts[1]), float(parts[2])
                if len(parts) != 3:
                    raise ValueError
            except (ValueError, IndexError):
                raise ConfigurationError(
                    f"{path}:{lineno}: expected 'id_i, id_j, rss_dbm', got {line!r}"
                ) from None
            if i == j:
                raise ConfigurationError(f"{path}:{lineno}: node {i} linked to itself")
            if i not in node_ids or j not in node_ids:
                raise ConfigurationError(
                    f"{path}:{lineno}: RSS entry references unknown node "
                    f"{i if i not in node_ids else j}"
                )
            key = _pair_key(i, j)
            rss_sums[key] = rss_sums.get(key, 0.0) + value
            rss_counts[key] = rss_counts.get(key, 0) + 1
    rss = {key: rss_sums[key] / rss_counts[key] for key in rss_sums}
    return MeasurementSet(nodes=tuple(nodes), rss=rss, channel=channel)


def save_measurements(ms: MeasurementSet, path) -> None:
    """Write the canonical form: nodes in stored order, RSS sorted by key."""
    lines = ["# nodes"]
    for node_id, x, y in ms.nodes:
        lines.append(f"{node_id}, {x!r}, {y!r}")
    lines.append("# rss")
    for (i, j) in sorted(ms.rss):
        lines.append(f"{i}, {j}, {ms.rss[(i, j)]!r}")
    Path(path).write_text("\n".join(lines) + "\n")


def neighbor_counts_for_pair(ms: MeasurementSet, i: int, j: int) -> NeighborCounts:
    """Counts of common/exclusive neighbors of i and j after thresholding.

    A third node is a neighbor when its RSS entry exists and reaches the
    channel threshold; the endpoints themselves are excluded.
    """
    threshold = ms.channel.rss_threshold_dbm
    common = exclusive_i = exclusive_j = 0
    for node_id, _, _ in ms.nodes:
        if node_id == i or node_id == j:
            continue
        value_i = ms.pair_rss(node_id, i)
        value_j = ms.pair_rss(node_id, j)
        near_i = value_i is not None and value_i >= threshold
        near_j = value_j is not None and value_j >= threshold
        if near_i and near_j:
            common += 1
        elif near_i:
            exclusive_i += 1
        elif near_j:
            exclusive_j += 1
    return NeighborCounts(common, exclusive_i, exclusive_j)


@dataclass(frozen=True)
class PairEvaluation:
    pair: tuple
    d_true: float | None
    d_rss: float | None
    d_conn: float | None
    d_fused: float | None
    err_rss: float | None
    err_conn: float | None
    err_fused: float | None
    status: str
    error: str | None = None


def evaluate_pairs(
    ms: MeasurementSet,
    pairs,
    model: FdModel | None = None,
    intensity: float | None = None,
    trust_coords: bool = True,
) -> tuple:
    """Run all three estimators on the requested pairs.

    Pairs without an RSS entry produce an error row and the run continues;
    unknown ids are a configuration error. Errors against the coordinate
    distances are reported when trust_coords is set.
    """
    if model is None:
        model = build_fd_model(ms.channel)
    known = set(ms.ids)
    results = []
    for i, j in pairs:
        if i not in known or j not in known:
            raise ConfigurationError(f"pair ({i}, {j}) references an unknown node id")
        d_true = None
        if trust_coords:
            (xi, yi), (xj, yj) = ms.position(i), ms.position(j)
            d_true = math.hypot(xi - xj, yi - yj)
        rss = ms.pair_rss(i, j)
        if rss is None:
            results.append(
                PairEvaluation(
                    pair=(i, j), d_true=d_true, d_rss=None, d_conn=None,
                    d_fused=None, err_rss=None, err_conn=None, err_fused=None,
                    status="error", error="no RSS measurement for this pair",
                )
            )
            continue
        counts = neighbor_counts_for_pair(ms, i, j)
        est: PairEstimate = estimate_pair(
            ms.channel, model, rss, counts, intensity=intensity
        )
        err = (
            lambda value: None
            if value is None or d_true is None
            else abs(value - d_true)
        )
        results.append(
            PairEvaluation(
                pair=(i, j),
                d_true=d_true,
                d_rss=est.d_rss,
                d_conn=est.d_conn,
                d_fused=est.d_fused,
                err_rss=err(est.d_rss),
                err_conn=err(est.d_conn),
                err_fused=err(est.d_fused),
                status=est.status,
            )
        )
    return tuple(results)


def synthesize_measurements(
    dep: Deployment, channel: ChannelParams, rng: np.random.Generator
) -> MeasurementSet:
    """Sample a full symmetric RSS map over a deployment.

    One shadowing draw per unordered node pair; readings below the link
    threshold represent failed links and are omitted, so thresholded
    neighbor sets agree exactly with the sampled link realization.
    """
    n = dep.nodes.shape[0]
    nodes = tuple(
        (idx + 1, float(dep.nodes[idx, 0]), float(dep.nodes[idx, 1])) for idx in range(n)
    )
    rss = {}
    if n > 1:
        row, col = np.triu_indices(n, k=1)
        gaps = dep.nodes[row] - dep.nodes[col]
        distances = np.hypot(gaps[:, 0], gaps[:, 1])
        values = mean_rss(channel, distances) + channel.sigma_db * rng.standard_normal(
            distances.size
        )
        for k in np.flatnonzero(values >= channel.rss_threshold_dbm):
            rss[(int(row[k]) + 1, int(col[k]) + 1)] = float(values[k])
    return MeasurementSet(nodes=nodes, rss=rss, channel=channel)
