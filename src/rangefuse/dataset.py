"""Measured-deployment ingestion and per-pair error evaluation.

The file format is a plain-text table with two sections introduced by the
marker lines '# nodes' (id, x, y per line) and '# rss' (id_i, id_j,
mean dBm per line); other '#' lines are comments. The RSS map is treated
as symmetric: when both directions of a pair appear, their mean is used.

Evaluation thresholds the map once into per-node neighbor lists, counts
the common and exclusive neighbors of every requested pair from them, and
runs the pairs through the shared estimation pipeline as one batch; a
reading below the link threshold counts as no reading there.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .channel import ChannelParams, estimate_distance_rss, mean_rss
from .config import atomic_output
from .connectivity import FdModel, build_fd_model
from .errors import ConfigurationError
from .pipeline import estimate_pairs
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

    def pair_rss(self, i: int, j: int):
        return self.rss.get(_pair_key(i, j))


# each section's row form and the type of its second field; the first is
# an id and the third a float in both
_ROW_FORMS = {"nodes": ("'id, x, y'", float), "rss": ("'id_i, id_j, rss_dbm'", int)}


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
            if marker in _ROW_FORMS:
                section = marker
            continue
        if section is None:
            raise ConfigurationError(
                f"{path}:{lineno}: data before any '# nodes' or '# rss' marker"
            )
        form, second_kind = _ROW_FORMS[section]
        parts = line.split(",")
        try:
            if len(parts) != 3:
                raise ValueError
            first, second, value = int(parts[0]), second_kind(parts[1]), float(parts[2])
        except ValueError:
            raise ConfigurationError(
                f"{path}:{lineno}: expected {form}, got {line!r}"
            ) from None
        if section == "nodes":
            if first in node_ids:
                raise ConfigurationError(f"{path}:{lineno}: duplicate node id {first}")
            node_ids.add(first)
            nodes.append((first, second, value))
            continue
        if first == second:
            raise ConfigurationError(f"{path}:{lineno}: node {first} linked to itself")
        if first not in node_ids or second not in node_ids:
            raise ConfigurationError(
                f"{path}:{lineno}: RSS entry references unknown node "
                f"{first if first not in node_ids else second}"
            )
        key = _pair_key(first, second)
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
    with atomic_output(path) as partial:
        partial.write_text("\n".join(lines) + "\n")


def _adjacency(ms: MeasurementSet) -> tuple:
    """Row of each node id, and every row's thresholded neighbors in CSR form.

    Memory grows with the links, not with the square of the node count.
    """
    rows = {node_id: k for k, (node_id, _, _) in enumerate(ms.nodes)}
    threshold = ms.channel.rss_threshold_dbm
    linked = [key for key, value in ms.rss.items() if value >= threshold]
    ends = np.fromiter((rows[node] for key in linked for node in key), dtype=np.int32,
                       count=2 * len(linked)).reshape(-1, 2)
    source, target = np.concatenate([ends, ends[:, ::-1]]).T
    start = np.concatenate([[0], np.cumsum(np.bincount(source, minlength=len(rows)))])
    return rows, (start, target[np.argsort(source)])


def _counts(adjacency: tuple, a, b) -> tuple:
    """Common and exclusive neighbor counts of row pairs (a, b), endpoints excluded."""
    start, neighbors = adjacency
    near = np.zeros(start.size - 1, dtype=bool)
    m, direct = np.zeros(len(a), dtype=int), np.zeros(len(a), dtype=int)
    for k, (i, j) in enumerate(zip(a, b)):
        around_i = neighbors[start[i]:start[i + 1]]
        near[around_i] = True
        m[k] = np.count_nonzero(near[neighbors[start[j]:start[j + 1]]])
        direct[k] = near[j]
        near[around_i] = False
    degree = np.diff(start)
    return m, degree[a] - m - direct, degree[b] - m - direct


@dataclass(frozen=True)
class PairEvaluation:
    pair: tuple
    d_true: float
    d_rss: float | None = None
    d_conn: float | None = None
    d_fused: float | None = None
    err_rss: float | None = None
    err_conn: float | None = None
    err_fused: float | None = None
    status: str = "error"
    error: str | None = None


def evaluate_pairs(
    ms: MeasurementSet,
    pairs,
    model: FdModel | None = None,
    intensity: float | None = None,
) -> tuple:
    """Run all three estimators on the requested pairs.

    Pairs without an RSS entry produce an error row and the run continues;
    unknown ids are a configuration error. Errors are taken against the
    coordinate distances.
    """
    pairs = [tuple(pair) for pair in pairs]
    rows, adjacency = _adjacency(ms)
    for i, j in pairs:
        if i not in rows or j not in rows:
            raise ConfigurationError(f"pair ({i}, {j}) references an unknown node id")
    if model is None:
        model = build_fd_model(ms.channel)
    measured = [pair for pair in pairs if ms.pair_rss(*pair) is not None]
    rss = np.array([ms.pair_rss(*pair) for pair in measured], dtype=float)
    d_rss = estimate_distance_rss(ms.channel, rss)
    usable = np.where(rss >= ms.channel.rss_threshold_dbm, d_rss, np.nan)
    a, b = (np.array([rows[pair[end]] for pair in measured], dtype=np.intp) for end in (0, 1))
    est = estimate_pairs(ms.channel, model, usable, *_counts(adjacency, a, b), intensity)
    batch = zip(*(v.tolist() for v in (d_rss, est.d_conn, est.d_fused, est.status)))
    results = []
    for i, j in pairs:
        (_, xi, yi), (_, xj, yj) = ms.nodes[rows[i]], ms.nodes[rows[j]]
        d_true = math.hypot(xi - xj, yi - yj)
        if ms.pair_rss(i, j) is None:
            results.append(PairEvaluation((i, j), d_true, error="no RSS measurement for this pair"))
            continue
        *values, status = next(batch)
        errors = (abs(v - d_true) for v in values)
        results.append(PairEvaluation((i, j), d_true, *values, *errors, status))
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
