"""Measured-deployment ingestion and per-pair error evaluation.

The file format is a plain-text table with two sections introduced by the
marker lines '# nodes' (id, x, y per line) and '# rss' (id_i, id_j,
mean dBm per line); other '#' lines are comments. The RSS map is treated
as symmetric: when both directions of a pair appear, their mean is used.

A MeasurementSet holds a deployment as columns: the node ids (int64) in
file order, their (n, 2) coordinates, the unique links as (lo, hi) node-id
pairs sorted by (lo, hi), and each link's mean RSS; constructing one checks
it. The loader's success path parses each section in row chunks, checks
the one rule a set cannot see (both ends of every RSS row are defined on
an earlier line), averages both directions of each link and builds the
set. If any of that fails, the error path reads the data lines one at a
time in file order and reports the earliest that holds a fault.

A set holds measurements only. Evaluation takes the channel from the
f(d) table it is given (model.params): it thresholds the links once into
per-node neighbor lists at that channel's link threshold, counts the
common and exclusive neighbors of every requested pair from them, and
runs the pairs through the shared estimation pipeline as one batch; a
reading below the link threshold counts as no reading there.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from itertools import compress, count, repeat
from operator import itemgetter
from pathlib import Path

import numpy as np

from .channel import ChannelParams, estimate_distance_rss, mean_rss
from .config import atomic_output, read_input
from .connectivity import FdModel
from .errors import ConfigurationError
from .pipeline import estimate_pairs
from .simulator import Deployment

# Rows parsed at a time, and pairs counted at a time: bounds the temporary
# token lists and tagged neighbor keys.
_CHUNK_ROWS = 2048
_CHUNK_PAIRS = 256

# status of a requested pair that has no RSS entry
NO_RSS = "error"


def _locate(sorted_values: np.ndarray, values) -> tuple:
    """Insertion point of each value in sorted_values, and whether it is there."""
    at = np.searchsorted(sorted_values, values)
    if sorted_values.size == 0:
        return at, np.zeros(at.shape, dtype=bool)
    return at, sorted_values[np.minimum(at, sorted_values.size - 1)] == values


class _Columns:
    """Equality by value over the compared dataclass fields; NaN equals NaN."""

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        pairs = ((getattr(self, f.name), getattr(other, f.name)) for f in fields(self) if f.compare)
        return all(
            np.array_equal(mine, theirs, equal_nan=mine.dtype.kind == "f")
            if isinstance(mine, np.ndarray) else mine == theirs
            for mine, theirs in pairs
        )


@dataclass(frozen=True, eq=False)
class MeasurementSet(_Columns):
    """Node and link columns of a measured deployment.

    ids: (n,) int64 node ids in stored order; xy: (n, 2) coordinates in the
    same order; links: (k, 2) int64 node-id pairs (lo, hi) with lo < hi,
    unique and sorted by (lo, hi); link_rss: (k,) mean RSS of each link,
    dBm. Construction takes array-likes of those shapes, orients each link
    and sorts the links. It rejects duplicate ids, non-finite values, links
    to unknown nodes, self links and a link given twice.
    """

    ids: np.ndarray
    xy: np.ndarray
    links: np.ndarray
    link_rss: np.ndarray
    # derived: the ids sorted, the stored row of each sorted id, and each
    # link's key lo_rank * n + hi_rank, where an id's rank is its place
    # among the sorted ids; the keys are sorted as the links are
    _sorted_ids: np.ndarray = field(init=False, repr=False, compare=False)
    _stored_row: np.ndarray = field(init=False, repr=False, compare=False)
    _keys: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        ids = np.asarray(self.ids, dtype=np.int64).reshape(-1)
        xy = np.asarray(self.xy, dtype=float).reshape(ids.size, 2)
        ends = np.asarray(self.links, dtype=np.int64).reshape(-1, 2).T
        # two contiguous rows of ends search about twice as fast as (lo, hi) pairs
        lo_hi = np.stack([np.minimum(*ends), np.maximum(*ends)])
        links = lo_hi.T
        link_rss = np.asarray(self.link_rss, dtype=float).reshape(len(links))
        rows = np.argsort(ids, kind="stable")
        sorted_ids = ids[rows]
        twice = np.flatnonzero(sorted_ids[1:] == sorted_ids[:-1])
        if twice.size:
            raise ConfigurationError(f"duplicate node id {sorted_ids[twice[0]]}")
        bad = np.flatnonzero(~np.isfinite(xy).all(axis=1))
        if bad.size:
            raise ConfigurationError(f"node {ids[bad[0]]} has non-finite coordinates")
        ranks, known = _locate(sorted_ids, lo_hi)
        for bad, what in ((~(known[0] & known[1]), "references an unknown node"),
                          (links[:, 0] == links[:, 1], "links a node to itself"),
                          (~np.isfinite(link_rss), "has a non-finite reading")):
            if bad.any():
                i, j = links[bad][0].tolist()
                raise ConfigurationError(f"RSS entry ({i}, {j}) {what}")
        keys = ranks[0] * ids.size + ranks[1]
        order = np.argsort(keys, kind="stable")
        keys = keys[order]
        twice = np.flatnonzero(keys[1:] == keys[:-1])
        if twice.size:
            i, j = links[order[twice[0]]].tolist()
            raise ConfigurationError(f"RSS entry ({i}, {j}) given twice")
        for name, value in (("ids", ids), ("xy", xy), ("links", links[order]),
                            ("link_rss", link_rss[order]), ("_sorted_ids", sorted_ids),
                            ("_stored_row", rows), ("_keys", keys)):
            object.__setattr__(self, name, value)

    @property
    def rss(self) -> dict:
        """The links as a {(lo, hi): mean dBm} dict, built on each access."""
        return dict(zip(map(tuple, self.links.tolist()), self.link_rss.tolist()))


# each section's row form and the type of its second field; the first is
# an id and the third a float in both
_ROW_FORMS = {"nodes": ("'id, x, y'", float), "rss": ("'id_i, id_j, rss_dbm'", int)}
_FIRST_CHAR = itemgetter(slice(None, 1))


def _parse_rows(rows: list, second_kind) -> tuple:
    """Columns of rows that each hold three comma-separated fields.

    The fields are read with Python's int, second_kind and float; ids come
    out as int64. Raises ValueError for a malformed row and OverflowError
    for an integer outside int64.
    """
    if np.any(np.fromiter(map(str.count, rows, repeat(",")), np.intp, len(rows)) != 2):
        raise ValueError("expected three fields")
    tokens = ",".join(rows).split(",")
    return tuple(
        np.fromiter(map(kind, tokens[k::3]), np.int64 if kind is int else float, len(rows))
        for k, kind in enumerate((int, second_kind, float))
    )


def _parse_section(lines: list, at: np.ndarray, section: str) -> tuple:
    """Columns of the rows at line indices at, parsed _CHUNK_ROWS rows at a time."""
    second_kind = _ROW_FORMS[section][1]
    pieces = [_parse_rows([], second_kind)]  # typed empty columns
    for start in range(0, at.size, _CHUNK_ROWS):
        rows = list(map(lines.__getitem__, at[start:start + _CHUNK_ROWS].tolist()))
        pieces.append(_parse_rows(rows, second_kind))
    return tuple(np.concatenate(column) for column in zip(*pieces))


def _measurement_set(lines: list, node_at: np.ndarray, rss_at: np.ndarray) -> MeasurementSet:
    """The set held by the rows at node_at and rss_at; raises on any fault in them."""
    ids, x, y = _parse_section(lines, node_at, "nodes")
    first, second, value = _parse_section(lines, rss_at, "rss")
    # the stable sort keeps an id's rows in file order, so each end's rank is its first row
    order = np.argsort(ids, kind="stable")
    sorted_ids = ids[order]
    ranks, known = _locate(sorted_ids, np.stack([first, second]))
    if not (known.all() and (node_at[order][ranks] < rss_at).all()):
        raise ConfigurationError("an RSS row names a node not defined above it")
    # both directions of a pair share one key; bincount sums each key's
    # readings in file order, as a running sum from 0.0 would. Where finite
    # readings near the largest double overflow that sum, each reading's
    # share of the mean is summed instead (only there: shares of subnormal
    # readings lose bits), clamped into the readings' range if it overflows
    n = sorted_ids.size
    keys, slot = np.unique(np.minimum(*ranks) * n + np.maximum(*ranks), return_inverse=True)
    count = np.bincount(slot)
    link_rss = np.bincount(slot, weights=value) / count
    over = np.isinf(link_rss)
    if over.any():
        shares = np.bincount(slot, weights=value / count[slot])
        low, high = np.full(keys.size, math.inf), np.full(keys.size, -math.inf)
        np.fmin.at(low, slot, value)
        np.fmax.at(high, slot, value)
        shares = np.where(np.isinf(shares), np.clip(shares, low, high), shares)
        link_rss = np.where(over, shares, link_rss)
    links = sorted_ids[np.stack(np.divmod(keys, max(n, 1)))].T
    return MeasurementSet(ids, np.stack([x, y], axis=1), links, link_rss)


def _first_fault(lines: list, data: np.ndarray, in_nodes: np.ndarray):
    """The earliest faulty data line, as (line index, reason), or None.

    Rows are read one at a time in file order; in a row the first check that fails wins.
    """
    defined = set()
    for k, is_node in zip(data.tolist(), in_nodes.tolist()):
        row = lines[k]
        form, second_kind = _ROW_FORMS["nodes" if is_node else "rss"]
        try:
            a, b, c = (column.item() for column in _parse_rows([row], second_kind))
        except ValueError:
            return k, f"expected {form}, got {row!r}"
        except OverflowError:
            return k, f"id outside the int64 range, got {row!r}"
        if is_node:
            reason = (f"duplicate node id {a}" if a in defined
                      else None if math.isfinite(b) and math.isfinite(c)
                      else f"node {a} has non-finite coordinates")
            defined.add(a)
        else:
            unknown = [end for end in (a, b) if end not in defined]
            reason = (f"node {a} linked to itself" if a == b
                      else f"RSS entry references unknown node {unknown[0]}" if unknown
                      else None if math.isfinite(c) else f"non-finite RSS reading {c!r}")
        if reason:
            return k, reason
    return None


def load_measurements(path) -> MeasurementSet:
    """Parse a measurement file; a fault is reported at its earliest line."""
    path = Path(path)
    lines = list(map(str.strip, read_input(path, "measurement").splitlines()))
    # blank and '#' lines hold no data (their first character, '' or '#', is
    # in '#'); the markers among them open sections
    skipped = list(compress(count(), map("#".__contains__, map(_FIRST_CHAR, lines))))
    markers = [(k, name) for k in skipped
               if (name := lines[k][1:].strip().lower()) in _ROW_FORMS]
    data = np.delete(np.arange(len(lines)), skipped)
    section = np.searchsorted([k for k, _ in markers], data) - 1
    if data.size and section[0] < 0:
        raise ConfigurationError(
            f"{path}:{data[0] + 1}: data before any '# nodes' or '# rss' marker"
        )
    in_nodes = np.array([name == "nodes" for _, name in markers], dtype=bool)[section]
    try:
        return _measurement_set(lines, data[in_nodes], data[~in_nodes])
    except (ValueError, OverflowError, ConfigurationError):
        fault = _first_fault(lines, data, in_nodes)
        if fault is None:
            raise
    raise ConfigurationError(f"{path}:{fault[0] + 1}: {fault[1]}")


def save_measurements(ms: MeasurementSet, path) -> None:
    """Write the canonical form: nodes in stored order, links sorted by (lo, hi)."""
    lines = ["# nodes", *map("{}, {!r}, {!r}".format, ms.ids.tolist(), *ms.xy.T.tolist()),
             "# rss", *map("{}, {}, {!r}".format, *ms.links.T.tolist(), ms.link_rss.tolist())]
    with atomic_output(path) as partial:
        partial.write_text("\n".join(lines) + "\n")


def checked_ranges(params: ChannelParams, obs, subject):
    """The RSS range estimates of a 1-d array of readings, each positive and finite.

    Raises ConfigurationError for the first reading whose range is 0 or
    infinite; subject(k) names reading k in the message.
    """
    d_rss = estimate_distance_rss(params, obs)
    lost = np.flatnonzero(~((d_rss > 0.0) & (d_rss < math.inf)))
    if lost.size:
        k = int(lost[0])
        raise ConfigurationError(f"{subject(k)} has an RSS reading of {float(obs[k])!r} dBm, "
                                 "which maps to no positive, finite distance")
    return d_rss


def _ranks(ms: MeasurementSet, ids) -> tuple:
    """Rank of each node id among the sorted ids, and whether the id is a node."""
    return _locate(ms._sorted_ids, ids)


def _adjacency(ms: MeasurementSet, threshold_dbm: float) -> tuple:
    """Every node's neighbors over links of at least threshold_dbm, as CSR (start, neighbors).

    Row r belongs to the node of rank r (see _ranks), and each row's
    neighbors are sorted. Memory grows with the links, not with the square
    of the node count.
    """
    n = max(ms.ids.size, 1)
    keys = ms._keys[ms.link_rss >= threshold_dbm]
    lo, hi = np.divmod(keys, n)
    row, neighbors = np.divmod(np.sort(np.concatenate([keys, hi * n + lo])), n)
    return np.searchsorted(row, np.arange(ms.ids.size + 1)), neighbors


def _neighbors_of(adjacency: tuple, rows: np.ndarray) -> tuple:
    """The neighbor lists of rows laid end to end, and the place in rows of each."""
    start, neighbors = adjacency
    lengths = start[rows + 1] - start[rows]
    offset = np.repeat(start[rows] - (np.cumsum(lengths) - lengths), lengths)
    place = np.repeat(np.arange(rows.size), lengths)
    return place, neighbors[np.arange(place.size) + offset]


def _counts(adjacency: tuple, a, b) -> tuple:
    """Common and exclusive neighbor counts of row pairs (a, b), endpoints excluded.

    Runs through the pairs in chunks. Within one, every neighbor of a pair's
    a is tagged with the pair's place in the chunk, which leaves the tagged
    keys sorted; the tagged neighbors of the pair's b, and b itself, are
    looked up among them.
    """
    start, _ = adjacency
    a, b = np.asarray(a, dtype=np.intp), np.asarray(b, dtype=np.intp)
    n = start.size - 1
    m, direct = np.zeros(a.size, dtype=np.int64), np.zeros(a.size, dtype=np.int64)
    for lo in range(0, a.size, _CHUNK_PAIRS):
        part = slice(lo, lo + _CHUNK_PAIRS)
        place_a, around_a = _neighbors_of(adjacency, a[part])
        place_b, around_b = _neighbors_of(adjacency, b[part])
        tagged_a = place_a * n + around_a
        _, common = _locate(tagged_a, place_b * n + around_b)
        m[part] = np.bincount(place_b[common], minlength=b[part].size)
        direct[part] = _locate(tagged_a, np.arange(b[part].size) * n + b[part])[1]
    degree = np.diff(start)
    return m, degree[a] - m - direct, degree[b] - m - direct


@dataclass(frozen=True, eq=False)
class PairEvaluation(_Columns):
    """The estimates and true distance of each requested pair, one column each.

    Rows follow the request order; pairs is (k, 2) int64 as requested. A
    pair with no RSS entry has status NO_RSS and NaN estimates; measured
    marks the others. The err_* columns are absolute errors against d_true.
    """

    pairs: np.ndarray
    d_true: np.ndarray
    d_rss: np.ndarray
    d_conn: np.ndarray
    d_fused: np.ndarray
    status: np.ndarray

    measured = property(lambda self: self.status != NO_RSS)
    err_rss = property(lambda self: np.abs(self.d_rss - self.d_true))
    err_conn = property(lambda self: np.abs(self.d_conn - self.d_true))
    err_fused = property(lambda self: np.abs(self.d_fused - self.d_true))


def evaluate_pairs(ms: MeasurementSet, pairs, model: FdModel,
                   intensity: float | None = None) -> PairEvaluation:
    """Run all three estimators on the requested (id, id) pairs.

    The channel is the one the f(d) table was built for, model.params.
    Pairs without an RSS entry get NaN estimates and the run continues;
    unknown ids and a reading whose RSS range estimate is 0 or infinite
    are configuration errors. Errors are taken against the coordinate
    distances.
    """
    try:
        pairs = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
    except OverflowError:
        raise ConfigurationError("a pair references an id outside the int64 range") from None
    ranks, known = _ranks(ms, pairs)
    if not known.all():
        i, j = pairs[np.argmin(known[:, 0] & known[:, 1])].tolist()
        raise ConfigurationError(f"pair ({i}, {j}) references an unknown node id")
    params = model.params
    link, measured = _locate(ms._keys, ranks.min(axis=1) * ms.ids.size + ranks.max(axis=1))
    rss = ms.link_rss[link[measured]]
    d_rss = checked_ranges(params, rss,
                           lambda k: "pair ({}, {})".format(*pairs[measured][k].tolist()))
    usable = np.where(rss >= params.rss_threshold_dbm, d_rss, np.nan)
    a, b = ranks[measured].T
    counts = _counts(_adjacency(ms, params.rss_threshold_dbm), a, b)
    est = estimate_pairs(model, usable, *counts, intensity)
    # math.hypot, not np.hypot: they differ in the last place for some inputs
    stored = ms._stored_row[ranks]
    gap = ms.xy[stored[:, 0]] - ms.xy[stored[:, 1]]
    d_true = np.array(list(map(math.hypot, *gap.T.tolist())), dtype=float)
    estimates = np.full((3, len(pairs)), np.nan)
    estimates[:, measured] = d_rss, est.d_conn, est.d_fused
    status = np.full(len(pairs), NO_RSS, dtype=object)
    status[measured] = est.status
    return PairEvaluation(pairs, d_true, *estimates, status)


def synthesize_measurements(
    dep: Deployment, channel: ChannelParams, rng: np.random.Generator
) -> MeasurementSet:
    """Sample a full symmetric RSS map over a deployment under the channel.

    Node ids are 1..n in deployment order. One shadowing draw per unordered
    node pair; readings below the link threshold represent failed links and
    are omitted, so neighbor sets thresholded at the same channel agree
    exactly with the sampled link realization. The set does not keep the
    channel.
    """
    n = dep.nodes.shape[0]
    links, link_rss = np.empty((0, 2), dtype=np.int64), np.empty(0)
    if n > 1:
        row, col = np.triu_indices(n, k=1)
        gaps = dep.nodes[row] - dep.nodes[col]
        distances = np.hypot(gaps[:, 0], gaps[:, 1])
        values = mean_rss(channel, distances) + channel.sigma_db * rng.standard_normal(
            distances.size
        )
        kept = values >= channel.rss_threshold_dbm
        links = np.stack([row[kept], col[kept]], axis=1) + 1
        link_rss = values[kept]
    return MeasurementSet(np.arange(1, n + 1), dep.nodes.copy(), links, link_rss)
