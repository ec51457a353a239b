"""Measured-deployment ingestion and per-pair error evaluation.

The file format is a plain-text table with two sections introduced by the
marker lines '# nodes' (id, x, y per line) and '# rss' (id_i, id_j,
mean dBm per line); other '#' lines are comments. The RSS map is treated
as symmetric: when both directions of a pair appear, their mean is used.

A MeasurementSet holds a deployment as columns: the node ids (int64) in
file order, their (n, 2) coordinates, the unique links as (lo, hi) node-id
pairs sorted by (lo, hi), and each link's mean RSS; constructing one checks
it. Node ids may be any distinct int64 values. Wherever an id is looked
up, _rank_ids turns it into its rank among the sorted ids: by its offset
from the first when the ids are consecutive integers (1..n, say), by
binary search otherwise. Link and neighbor keys are found by binary
search (_locate).

The loader reads each section with numpy's text reader, whose numbers
are ASCII only (no '_' separators, no other scripts' digits), checks the
one rule a set cannot see (both ends of every RSS row are defined on an
earlier line), averages both directions of each link and builds the set;
those checks and the set's own are the only statement of the file's
rules. If one fails, the loader bisects the data lines for the shortest
prefix that still fails and reports its last line, the earliest that
holds a fault.

A set holds measurements only. Evaluation takes the channel from the
f(d) table it is given (model.params): it thresholds the links once into
per-node neighbor lists at that channel's link threshold, counts the
common and exclusive neighbors of every requested pair from them, and
passes the pairs' readings and counts to the shared estimation pipeline
(pipeline.estimate_readings) as one batch, which decides what a reading
below the link threshold means.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from .channel import ChannelParams, sample_rss
from .config import read_input, write_atomic
from .errors import ConfigurationError
from .fdtable import FdModel
from .pipeline import estimate_readings

if TYPE_CHECKING:  # an annotation only: loading a file needs no simulator
    from .simulator import Deployment

# Pairs counted at a time: bounds the neighbor keys expanded at once.
_CHUNK_PAIRS = 256

# status of a requested pair that has no RSS entry
NO_RSS = "error"


def _locate(sorted_values: np.ndarray, values) -> tuple:
    """Insertion point of each value in sorted_values, and whether it is there."""
    at = np.searchsorted(sorted_values, values)
    if sorted_values.size == 0:
        return at, np.zeros(at.shape, dtype=bool)
    return at, sorted_values[np.minimum(at, sorted_values.size - 1)] == values


def _rank_ids(sorted_ids: np.ndarray, ids) -> tuple:
    """_locate for int64 node ids among the strictly increasing sorted_ids.

    Where sorted_ids are consecutive integers (1..n, say), an id's
    insertion point is its offset from the first, clipped to [0, size], and
    no search is made; the span is taken in Python ints and the offset after
    clipping, so neither wraps at the int64 ends.
    """
    size, ids = sorted_ids.size, np.asarray(ids)
    if size:
        first, last = sorted_ids[[0, -1]].tolist()
        if last - first == size - 1:
            at = np.clip(ids, first, last)
            known = at == ids
            at -= first
            at += ids > last
            return at, known
    return _locate(sorted_ids, ids)


def _sort_ids(ids: np.ndarray) -> tuple:
    """The stable sorting order of the node ids and the ids sorted; a repeated id raises."""
    order = np.argsort(ids, kind="stable")
    sorted_ids = ids[order]
    twice = np.flatnonzero(sorted_ids[1:] == sorted_ids[:-1])
    if twice.size:
        raise ConfigurationError(f"duplicate node id {sorted_ids[twice[0]]}")
    return order, sorted_ids


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
        rows, sorted_ids = _sort_ids(ids)
        bad = np.flatnonzero(~np.isfinite(xy).all(axis=1))
        if bad.size:
            raise ConfigurationError(f"node {ids[bad[0]]} has non-finite coordinates")
        ranks, known = _rank_ids(sorted_ids, lo_hi)
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


# each section's row form and the columns its rows are read into
_ROW_FORMS = {
    "nodes": ("'id, x, y'", np.dtype([("id", np.int64), ("x", float), ("y", float)])),
    "rss": ("'id_i, id_j, rss_dbm'",
            np.dtype([("id_i", np.int64), ("id_j", np.int64), ("rss_dbm", float)])),
}


def _parse_section(lines: list, at: np.ndarray, section: str) -> tuple:
    """Columns of the rows at line indices at; raises ValueError for a malformed row."""
    dtype = _ROW_FORMS[section][1]
    # loadtxt warns that an empty input holds no data, so an empty section skips it
    table = (np.loadtxt(list(map(lines.__getitem__, at.tolist())), dtype=dtype, delimiter=",",
                        comments=None, ndmin=1) if at.size else np.empty(0, dtype))
    return tuple(table[name] for name in dtype.names)


def _measurement_set(lines: list, node_at: np.ndarray, rss_at: np.ndarray) -> MeasurementSet:
    """The set held by the rows at node_at and rss_at; raises on any fault in them.

    Every check here and in MeasurementSet must keep one condition: whether
    a row is at fault depends only on that row and the rows above it. Then
    a prefix of the data lines with no faulty row loads and a prefix that
    ends at a faulty row fails, which _first_fault relies on.
    """
    ids, x, y = _parse_section(lines, node_at, "nodes")
    first, second, value = _parse_section(lines, rss_at, "rss")
    # _rank_ids needs the ids unique, so a repeated id fails here as in MeasurementSet
    order, sorted_ids = _sort_ids(ids)
    ends = np.stack([first, second])
    ranks, known = _rank_ids(sorted_ids, ends)
    # an unknown end may have rank n; the appended row keeps the lookup in range
    defined = known & (np.append(node_at[order], 0)[ranks] < rss_at)
    if not defined.all():
        raise ConfigurationError(f"RSS entry references unknown node {ends.T[~defined.T][0]}")
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


def _first_fault(lines: list, data: np.ndarray, in_nodes: np.ndarray, error: Exception) -> tuple:
    """The earliest faulty data line, as (line index, reason); error is the whole file's.

    Bisects for the shortest prefix of the data lines that _measurement_set
    rejects. It ends at the earliest faulty line, and its error gives the reason.
    """
    good, bad = 0, data.size  # the first good data lines load, the first bad do not
    while bad - good > 1:
        mid = (good + bad) // 2
        head, nodes = data[:mid], in_nodes[:mid]
        try:
            _measurement_set(lines, head[nodes], head[~nodes])
            good = mid
        except (ValueError, ConfigurationError) as exc:
            bad, error = mid, exc
    k = int(data[bad - 1])
    if isinstance(error, ConfigurationError):
        return k, str(error)
    form = _ROW_FORMS["nodes" if in_nodes[bad - 1] else "rss"][0]
    return k, f"expected {form}, got {lines[k]!r}"


def load_measurements(path) -> MeasurementSet:
    """Parse a measurement file; a fault is reported at its earliest line."""
    path = Path(path)
    lines = list(map(str.strip, read_input(path, "measurement").splitlines()))
    # blank and '#' lines hold no data; the markers among them open sections
    skipped = [k for k, line in enumerate(lines) if not line or line[0] == "#"]
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
    except (ValueError, ConfigurationError) as exc:
        k, reason = _first_fault(lines, data, in_nodes, exc)
    raise ConfigurationError(f"{path}:{k + 1}: {reason}")


def save_measurements(ms: MeasurementSet, path) -> None:
    """Write the canonical form: nodes in stored order, links sorted by (lo, hi)."""
    lines = ["# nodes", *map("{}, {!r}, {!r}".format, ms.ids.tolist(), *ms.xy.T.tolist()),
             "# rss", *map("{}, {}, {!r}".format, *ms.links.T.tolist(), ms.link_rss.tolist())]
    write_atomic(path, "\n".join(lines) + "\n")


def _adjacency(ms: MeasurementSet, threshold_dbm: float) -> tuple:
    """Every node's neighbors over links of at least threshold_dbm, as (start, keys).

    keys holds r * n + s, sorted, for every node rank r (an id's place
    among the sorted ids) and each neighbor rank s of it, n being the node
    count; the keys of rank r are keys[start[r]:start[r + 1]]. Memory grows
    with the links, not with the square of the node count.
    """
    n = max(ms.ids.size, 1)
    keys = ms._keys[ms.link_rss >= threshold_dbm]
    lo, hi = np.divmod(keys, n)
    keys = np.sort(np.concatenate([keys, hi * n + lo]))
    return np.searchsorted(keys, np.arange(ms.ids.size + 1) * n), keys


def _counts(adjacency: tuple, a, b) -> tuple:
    """Common and exclusive neighbor counts of rank pairs (a, b), endpoints excluded.

    A neighbor s of a pair's a is common when b * n + s is a key too. The
    pairs run in chunks, which bounds the neighbor keys expanded at once.
    """
    start, keys = adjacency
    a, b = np.asarray(a, dtype=np.intp), np.asarray(b, dtype=np.intp)
    n = start.size - 1
    m, direct = np.zeros(a.size, dtype=np.int64), np.zeros(a.size, dtype=bool)
    for lo in range(0, a.size, _CHUNK_PAIRS):
        part = slice(lo, lo + _CHUNK_PAIRS)
        first = start[a[part]]
        lengths = start[a[part] + 1] - first
        place = np.repeat(np.arange(lengths.size), lengths)
        at = np.arange(place.size) + np.repeat(first - (np.cumsum(lengths) - lengths), lengths)
        moved = keys[at] + ((b[part] - a[part]) * n)[place]  # a * n + s becomes b * n + s
        m[part] = np.bincount(place[_locate(keys, moved)[1]], minlength=lengths.size)
        direct[part] = _locate(keys, a[part] * n + b[part])[1]
    degree = np.diff(start)
    return m, degree[a] - m - direct, degree[b] - m - direct


@dataclass(frozen=True, eq=False)
class PairEvaluation(_Columns):
    """The estimates and true distance of each requested pair, one column each.

    Rows follow the request order; pairs is (k, 2) int64 as requested. A
    pair with no RSS entry has status NO_RSS and NaN estimates; measured
    marks the others. The err_* columns are absolute errors against d_true.
    to_csv_text gives the dataset command's CSV table, one line per pair.
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

    def to_csv_text(self) -> str:
        # NaN prints as 'nan', the value of every error column and of
        # d_fused for an unmeasured pair
        columns = (*self.pairs.T.tolist(),
                   *(v.tolist() for v in (self.d_true, self.err_rss, self.err_conn,
                                          self.err_fused)),
                   self.status.tolist(), self.d_fused.tolist())
        lines = ["pair,d_true,err_rss,err_conn,err_fused,status,d_fused",
                 *map("{}-{},{!r},{!r},{!r},{!r},{},{!r}".format, *columns)]
        return "\n".join(lines) + "\n"


def evaluate_pairs(ms: MeasurementSet, pairs, model: FdModel,
                   intensity: float | None = None) -> PairEvaluation:
    """Run all three estimators on the requested (id, id) pairs.

    The channel is the one the f(d) table was built for, model.params.
    Pairs without an RSS entry get NaN estimates and the run continues;
    unknown ids, a pair that names one node twice and a reading whose RSS
    range estimate is 0 or infinite are configuration errors. Errors are
    taken against the coordinate distances.
    """
    try:
        pairs = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
    except OverflowError:
        raise ConfigurationError("a pair references an id outside the int64 range") from None
    ranks, known = _rank_ids(ms._sorted_ids, pairs)
    if not known.all():
        i, j = pairs[np.argmin(known[:, 0] & known[:, 1])].tolist()
        raise ConfigurationError(f"pair ({i}, {j}) references an unknown node id")
    twice = pairs[:, 0] == pairs[:, 1]
    if twice.any():
        i, j = pairs[np.argmax(twice)].tolist()
        raise ConfigurationError(f"pair ({i}, {j}) names one node twice")
    link, measured = _locate(ms._keys, ranks.min(axis=1) * ms.ids.size + ranks.max(axis=1))
    a, b = ranks[measured].T
    counts = _counts(_adjacency(ms, model.params.rss_threshold_dbm), a, b)
    d_rss, est = estimate_readings(
        model, ms.link_rss[link[measured]], *counts, intensity,
        lambda k: "pair ({}, {})".format(*pairs[measured][k].tolist()))
    # math.hypot, not np.hypot: they differ in the last place for some inputs;
    # a gap past the largest double is inf, as is the distance
    stored = ms._stored_row[ranks]
    with np.errstate(over="ignore"):
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
        values = sample_rss(channel, distances, rng)
        kept = values >= channel.rss_threshold_dbm
        links = np.stack([row[kept], col[kept]], axis=1) + 1
        link_rss = values[kept]
    return MeasurementSet(np.arange(1, n + 1), dep.nodes.copy(), links, link_rss)
