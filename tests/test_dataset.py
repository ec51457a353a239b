import dataclasses
import math
import re
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rangefuse as rf
from rangefuse.connectivity import invert_counts
from conftest import PARAMS_FIELD

FIXTURE = """\
# layout fixture
# nodes
1, 0.0, 0.0
2, 3.0, 4.0
3, 1.0, 0.5
4, 2.0, 3.0
5, 0.5, 3.5
# rss
1, 2, -48.0
1, 3, -40.0
2, 3, -46.0
2, 4, -44.0
3, 4, -47.0
4, 5, -45.0
1, 5, -60.0
"""


@pytest.fixture
def fixture_path(tmp_path):
    path = tmp_path / "meas.txt"
    path.write_text(FIXTURE)
    return path


@pytest.fixture
def fixture_set(fixture_path):
    return rf.load_measurements(fixture_path)


def _counts_of(ms, i, j):
    """(M, P, Q) of the node pair (i, j), through _adjacency and _counts."""
    (a, b), known = rf.dataset._ranks(ms, [i, j])
    assert known.all()
    adjacency = rf.dataset._adjacency(ms, PARAMS_FIELD.rss_threshold_dbm)
    return [int(v[0]) for v in rf.dataset._counts(adjacency, [a], [b])]


class TestLoadMeasurements:
    def test_parses_nodes_and_links(self, fixture_set):
        assert fixture_set.ids.tolist() == [1, 2, 3, 4, 5]
        assert fixture_set.ids.dtype == np.int64
        assert fixture_set.xy.shape == (5, 2)
        assert len(fixture_set.links) == 7
        assert fixture_set.rss[(1, 2)] == -48.0

    def test_symmetric_entries_average(self, tmp_path):
        path = tmp_path / "sym.txt"
        path.write_text("# nodes\n1, 0, 0\n2, 1, 0\n# rss\n1, 2, -50.0\n2, 1, -40.0\n")
        ms = rf.load_measurements(path)
        assert ms.rss == {(1, 2): -45.0}

    def test_average_is_the_running_sum_over_the_count(self, tmp_path):
        # readings of one pair in file order, whichever direction they name
        readings = [-50.1, -40.3, -47.7, -0.0]
        path = tmp_path / "sum.txt"
        path.write_text("# nodes\n-4, 0, 0\n7, 1, 0\n9, 2, 0\n# rss\n"
                        + "".join(f"{(7, -4)[k % 2]}, {(-4, 7)[k % 2]}, {v!r}\n"
                                  for k, v in enumerate(readings))
                        + "9, 7, -0.0\n")
        ms = rf.load_measurements(path)
        total = 0.0
        for value in readings:
            total += value
        assert ms.links.tolist() == [[-4, 7], [7, 9]]
        assert ms.link_rss.tolist() == [total / len(readings), 0.0]
        assert math.copysign(1.0, ms.link_rss[1]) == 1.0

    def test_layout_matches_the_row_form(self, tmp_path):
        # comments, blank lines, CRLF endings, spaces, several sections of each kind
        path = tmp_path / "layout.txt"
        path.write_bytes(
            b"# header, with, commas\r\n\r\n  # NODES  \r\n 5 ,1_0.5, -2e0\r\n"
            b"# rss\r\n# nodes\r\n-3, +1, 0\r\n\t\r\n# Rss\r\n5, -3, -51\r\n"
            b"-3,5,-49.5\r\n  # comment\r\n"
        )
        ms = rf.load_measurements(path)
        assert ms.ids.tolist() == [5, -3]
        assert ms.xy.tolist() == [[10.5, -2.0], [1.0, 0.0]]
        assert ms.rss == {(-3, 5): -50.25}

    def test_empty_rss_section_is_valid(self, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_text("# nodes\n1, 0, 0\n2, 1, 0\n# rss\n")
        ms = rf.load_measurements(path)
        assert ms.rss == {}

    @pytest.mark.parametrize(
        "body, lineno",
        [
            ("1, 0, 0\n", 1),                                   # data before marker
            ("# nodes\n1, 0, 0\n1, 1, 1\n", 3),                  # duplicate id
            ("# nodes\n1, 0, 0\n# rss\n1, 9, -50\n", 4),         # dangling reference
            ("# nodes\n1, 0, 0\n# rss\n1, 1, -50\n", 4),         # self link
            ("# nodes\n1, zero, 0\n", 2),                        # malformed row
            ("# nodes\n1, 0, 0\n# rss\n1, 2\n", 4),              # missing column
            ("# nodes\n1, 0, 0\n2, 1, 0\n# rss\n1, 2, inf\n", 5),  # infinite reading
            ("# nodes\n1, 0, 0\n2, 1, 0\n# rss\n2, 1, nan\n", 5),  # NaN reading
            ("# nodes\n1, 0, 0\n2, -inf, 0\n", 3),              # infinite coordinate
            ("# nodes\n1, 0, 0\n2, 1, nan\n", 3),               # NaN coordinate
            ("# nodes\n1, 0, 0\n9223372036854775808, 1, 0\n", 3),  # id above int64
            ("# nodes\n1, 0, 0\n# rss\n1, -9223372036854775809, -50\n", 4),  # below int64
        ],
    )
    def test_errors_carry_line_numbers(self, tmp_path, body, lineno):
        path = tmp_path / "bad.txt"
        path.write_text(body)
        with pytest.raises(rf.ConfigurationError, match=f"^{re.escape(str(path))}:{lineno}: "):
            rf.load_measurements(path)

    @pytest.mark.parametrize(
        "body, lineno, reason",
        [
            ("# nodes\n1, 0, 0\n1, 1, 1\n# rss\n1, x, -50\n", 3, "duplicate node id 1"),
            ("# nodes\n1, 0, 0\n2, zero, 1\n1, 1, 1\n", 3, "expected 'id, x, y'"),
            ("# nodes\n1, 0, 0\n# rss\n1, 9, -50\n# nodes\n2, nan, 0\n", 4,
             "RSS entry references unknown node 9"),
            ("# nodes\n1, 0, 0\n2, 1, 0\n# rss\n1, 2, inf\n1, 1, -50\n", 5,
             "non-finite RSS reading inf"),
            ("# nodes\n1, 0, 0\n2, 1, 0\n# rss\n2, 2, -50\n1, 2, inf\n", 5,
             "node 2 linked to itself"),
            ("# nodes\n1, 0, 0\n2, 1, inf\n2, 0, 0\n", 3, "node 2 has non-finite"),
            ("# nodes\n1, 0, 0\n# rss\n1, 2, -50\n1, 2, -50, 0\n", 4,
             "RSS entry references unknown node 2"),
        ],
    )
    def test_two_faults_report_the_earlier_line(self, tmp_path, body, lineno, reason):
        path = tmp_path / "bad.txt"
        path.write_text(body)
        with pytest.raises(rf.ConfigurationError, match=f":{lineno}: {re.escape(reason)}"):
            rf.load_measurements(path)

    def test_rss_row_before_its_nodes_section_fails_at_its_line(self, tmp_path):
        path = tmp_path / "order.txt"
        path.write_text("# nodes\n1, 0, 0\n# rss\n1, 2, -50\n# nodes\n2, 1, 0\n")
        with pytest.raises(rf.ConfigurationError, match=":4: RSS entry references unknown node 2"):
            rf.load_measurements(path)

    def test_earliest_fault_across_row_chunks(self, tmp_path, monkeypatch):
        # four-row chunks, so the faults below sit in different chunks and sections
        monkeypatch.setattr(rf.dataset, "_CHUNK_ROWS", 4)
        path = tmp_path / "chunks.txt"

        def first_fault(rss_rows, late_node):
            nodes = "\n".join(f"{k}, {k}.0, 0.0" for k in range(1, 6))  # lines 2-6
            path.write_text(f"# nodes\n{nodes}\n# rss\n" + "\n".join(rss_rows)
                            + f"\n# nodes\n{late_node}\n")  # rss on 8-19, late node on 21
            with pytest.raises(rf.ConfigurationError) as excinfo:
                rf.load_measurements(path)
            return str(excinfo.value)

        rss = [f"1, {k}, -50" for k in (2, 3, 4, 5)] * 3
        rss[9] = "1, 5, oops"  # line 17, in the third chunk
        assert ":17: expected 'id_i, id_j, rss_dbm'" in first_fault(rss, "3, 0, 0")
        rss[1] = "1, 6, -50"  # line 9: node 6 is defined only on line 21
        assert ":9: RSS entry references unknown node 6" in first_fault(rss, "6, 0, 0")

    def test_missing_file(self, tmp_path):
        with pytest.raises(rf.ConfigurationError):
            rf.load_measurements(tmp_path / "nope.txt")
        # a file that is not UTF-8 is named in the error too
        path = tmp_path / "latin1.txt"
        path.write_bytes(b"# nodes\n1, 0, 0\xff\n")
        with pytest.raises(rf.ConfigurationError, match=f"^{re.escape(str(path))}: 'utf-8' codec"):
            rf.load_measurements(path)


class TestMeasurementSet:
    @pytest.mark.parametrize(
        "ids, links, readings, reason",
        [
            ([1, 1], [], [], "duplicate node id 1"),
            ([1, 2], [[1, 3]], [-50.0], "references an unknown node"),
            ([1, 2], [[2, 2]], [-50.0], "links a node to itself"),
            ([1, 2], [[1, 2]], [math.inf], "non-finite reading"),
            ([1, 2], [[1, 2], [2, 1]], [-50.0, -40.0], r"\(1, 2\) given twice"),
        ],
    )
    def test_rejects_bad_columns(self, ids, links, readings, reason):
        with pytest.raises(rf.ConfigurationError, match=reason):
            rf.MeasurementSet(ids, [[0.0, 0.0]] * len(ids), links, readings)

    def test_orients_and_sorts_links(self):
        ms = rf.MeasurementSet([9, -2, 4], [[0, 0], [1, 0], [2, 0]],
                               [[9, 4], [4, -2], [-2, 9]], [-41.0, -42.0, -43.0])
        assert ms.links.tolist() == [[-2, 4], [-2, 9], [4, 9]]
        assert ms.link_rss.tolist() == [-42.0, -43.0, -41.0]
        assert ms.ids.tolist() == [9, -2, 4]


class TestSaveMeasurements:
    def test_load_save_load_round_trip(self, fixture_set, tmp_path):
        path = tmp_path / "canon.txt"
        rf.save_measurements(fixture_set, path)
        again = rf.load_measurements(path)
        assert again == fixture_set
        second = tmp_path / "canon2.txt"
        rf.save_measurements(again, second)
        assert path.read_bytes() == second.read_bytes()


@st.composite
def _measurement_sets(draw):
    ids = draw(st.lists(st.integers(-10**6, 10**6), min_size=1, max_size=12, unique=True))
    coordinate = st.floats(allow_nan=False, allow_infinity=False)
    xy = [(draw(coordinate), draw(coordinate)) for _ in ids]
    keys = [(i, j) for i in ids for j in ids if i < j]
    linked = draw(st.lists(st.sampled_from(keys), unique=True)) if keys else []
    reading = st.floats(min_value=-200.0, max_value=50.0)
    readings = [draw(reading) for _ in linked]
    return rf.MeasurementSet(ids, xy, linked, readings)


class TestMeasurementRoundTrip:
    @settings(max_examples=60, deadline=None)
    @given(ms=_measurement_sets())
    def test_save_load_is_exact(self, ms):
        with tempfile.TemporaryDirectory() as folder:
            path = Path(folder) / "meas.txt"
            rf.save_measurements(ms, path)
            assert rf.load_measurements(path) == ms


def _data_rows(lines):
    return [k for k, line in enumerate(lines) if line and not line.startswith("#")]


def _insert(draw, lines, row):
    at = draw(st.integers(0, len(lines)))
    return lines[:at] + [row] + lines[at:]


def _replace_field(draw, lines, field_at, values, below="# nodes"):
    """A data row below the first marker below, its field at one of field_at now one of values."""
    rows = [k for k in _data_rows(lines) if k > lines.index(below)]
    if not rows:
        return lines
    k = draw(st.sampled_from(rows))
    fields = lines[k].split(",")
    fields[draw(st.sampled_from(field_at)) % len(fields)] = draw(st.sampled_from(values))
    return lines[:k] + [",".join(fields)] + lines[k + 1:]


def _overflowing_pair(draw, lines, readings):
    """An RSS row below the first '# rss' replaced by finite readings of its pair.

    The readings' sum overflows. readings holds (reversed, value) per row:
    each row names the pair in the file's order or reversed.
    """
    rows = [k for k in _data_rows(lines) if k > lines.index("# rss")]
    if not rows:
        return lines
    k = draw(st.sampled_from(rows))
    i, j = lines[k].split(",")[:2]
    return (lines[:k] + [f"{j},{i}, {value}" if reverse else f"{i},{j}, {value}"
                         for reverse, value in readings] + lines[k + 1:])


def _move_to_new_section(draw, lines):
    """A row from above the first '# rss' marker moved into a '# nodes' section at the end."""
    rows = [k for k in _data_rows(lines) if k < lines.index("# rss")]
    if not rows:
        return lines
    k = draw(st.sampled_from(rows))
    return lines[:k] + lines[k + 1:] + ["# nodes", lines[k]]


# row mutations, each (draw, lines, a node id of the file) -> lines
_MUTATIONS = [
    # a duplicate id, an unknown node, a self link (each row lands in either section)
    lambda draw, lines, i: _insert(draw, lines, f"{i}, 1.0, 2.0"),
    lambda draw, lines, i: _insert(draw, lines, f"{i}, 99, -50.0"),
    lambda draw, lines, i: _insert(draw, lines, f"{i}, {i}, -50.0"),
    # an inf or NaN reading or coordinate
    lambda draw, lines, i: _replace_field(draw, lines, [1, 2], [" inf", " -inf", " nan"]),
    lambda draw, lines, i: _replace_field(draw, lines, [2], [" inf", " nan"], below="# rss"),
    # a malformed row, an id outside int64
    lambda draw, lines, i: _replace_field(draw, lines, [0, 1, 2], [" x", "", " 1, 2"]),
    lambda draw, lines, i: _replace_field(draw, lines, [0, 1], [str(2**63), str(-2**63 - 1)]),
    # a node defined only below the RSS rows that name it
    lambda draw, lines, i: _move_to_new_section(draw, lines),
    # two finite readings of one pair whose sum is not finite
    lambda draw, lines, i: _overflowing_pair(draw, lines, [(False, 1.7e308), (True, 1.7e308)]),
    # three readings at the largest double, whose shares of the mean also sum to inf
    lambda draw, lines, i: _overflowing_pair(draw, lines, [(False, sys.float_info.max)] * 2
                                                   + [(True, sys.float_info.max)]),
    # an inserted marker, blank line or comment
    lambda draw, lines, i: _insert(draw, lines, draw(st.sampled_from(
        ["# nodes", "# rss", "", "# a comment, with commas"]))),
]


@st.composite
def _mutated_files(draw):
    ids = draw(st.lists(st.integers(-5, 12), min_size=1, max_size=6, unique=True))
    coordinate = st.floats(-1e3, 1e3)
    lines = ["# nodes", *(f"{i}, {draw(coordinate)!r}, {draw(coordinate)!r}" for i in ids),
             "# rss"]
    for i, j in draw(st.lists(st.tuples(st.sampled_from(ids), st.sampled_from(ids)),
                              max_size=8)):
        if i != j:
            lines.append(f"{i}, {j}, {draw(st.floats(-100.0, -20.0))!r}")
    for _ in range(draw(st.integers(0, 3))):
        lines = draw(st.sampled_from(_MUTATIONS))(draw, lines, draw(st.sampled_from(ids)))
    return "\n".join(lines) + "\n"


class TestLoaderPathsAgree:
    """The success path and the error path judge every file alike.

    A file the success path rejects must get a line from the error path; a
    ConfigurationError with no line means the two disagree.
    """

    @settings(max_examples=600, deadline=None)
    @given(text=_mutated_files(), chunk=st.sampled_from([2, 2048]))
    def test_set_or_line_numbered_error(self, text, chunk):
        with tempfile.TemporaryDirectory() as folder, pytest.MonkeyPatch.context() as patch:
            patch.setattr(rf.dataset, "_CHUNK_ROWS", chunk)
            path = Path(folder) / "meas.txt"
            path.write_text(text)
            try:
                ms = rf.load_measurements(path)
            except rf.ConfigurationError as exc:
                assert re.match(rf"{re.escape(str(path))}:\d+: ", str(exc)), str(exc)
            else:
                assert isinstance(ms, rf.MeasurementSet)


class TestNeighborCounts:
    """Thresholded neighbor lists (dataset._adjacency) and their counts (dataset._counts)."""

    def test_counts_from_fixture(self, fixture_set):
        # neighbors of 1: {2, 3}; neighbors of 2: {1, 3, 4}; common third
        # nodes of (1, 2): {3}; exclusive: none for 1, {4} for 2
        assert _counts_of(fixture_set, 1, 2) == [1, 0, 1]

    def test_threshold_consistency(self, tmp_path):
        # a below-threshold entry contributes no link anywhere
        path = tmp_path / "thr.txt"
        path.write_text(
            "# nodes\n1, 0, 0\n2, 1, 0\n3, 0.5, 0.5\n"
            "# rss\n1, 2, -50.0\n1, 3, -56.0\n2, 3, -40.0\n"
        )
        ms = rf.load_measurements(path)
        assert _counts_of(ms, 1, 2) == [0, 0, 1]

    def test_counts_match_the_per_pair_loop(self, model_field, monkeypatch):
        # the tagged-key count, over several pair chunks, against a plain
        # loop over set-valued neighbor lists; linked, unlinked and
        # repeated pairs, both orders, and negative ids
        monkeypatch.setattr(rf.dataset, "_CHUNK_PAIRS", 7)
        rng = np.random.default_rng(63)
        dep = rf.deploy_poisson(3.0 * model_field.d_th, 14.0 / model_field.s_mass, rng)
        base = rf.synthesize_measurements(dep, PARAMS_FIELD, rng)
        ids = 500 - 3 * base.ids
        ms = rf.MeasurementSet(ids, base.xy, 500 - 3 * base.links, base.link_rss)
        near = {node: set() for node in ids.tolist()}
        for (i, j), value in ms.rss.items():
            if value >= PARAMS_FIELD.rss_threshold_dbm:
                near[i].add(j)
                near[j].add(i)
        picks = rng.integers(0, ids.size, size=(60, 2))
        pairs = [tuple(ids[k].tolist()) for k in picks] + list(ms.rss)[:40] + [(ids[0], ids[0])]
        ranks, known = rf.dataset._ranks(ms, np.array(pairs))
        assert known.all()
        a, b = ranks.T
        m, p, q = rf.dataset._counts(
            rf.dataset._adjacency(ms, PARAMS_FIELD.rss_threshold_dbm), a, b)
        for k, (i, j) in enumerate(pairs):
            around_i, around_j = near[i] - {j}, near[j] - {i}
            expected = [len(around_i & around_j), len(around_i - around_j),
                        len(around_j - around_i)]
            assert [m[k], p[k], q[k]] == expected


class TestEvaluatePairs:
    def test_euclidean_truth(self, fixture_set, model_field):
        result = rf.evaluate_pairs(fixture_set, [(1, 2)], model_field)
        assert result.d_true[0] == 5.0

    def test_truth_is_math_hypot(self, model_field):
        # d_true stays math.hypot of the coordinate gaps, bit for bit
        rng = np.random.default_rng(64)
        xy = rng.uniform(-1e3, 1e3, size=(200, 2))
        ms = rf.MeasurementSet(np.arange(200), xy, [], [])
        pairs = rng.integers(0, 200, size=(3000, 2))
        result = rf.evaluate_pairs(ms, pairs, model_field)
        expected = [math.hypot(xy[i, 0] - xy[j, 0], xy[i, 1] - xy[j, 1]) for i, j in pairs]
        assert result.d_true.tolist() == expected

    def test_missing_rss_continues(self, tmp_path, model_field):
        path = tmp_path / "gap.txt"
        path.write_text("# nodes\n1, 0, 0\n2, 3, 4\n3, 1, 1\n# rss\n1, 3, -45.0\n")
        ms = rf.load_measurements(path)
        result = rf.evaluate_pairs(ms, [(1, 2), (1, 3)], model_field)
        assert result.measured.tolist() == [False, True]
        assert result.status[0] == rf.dataset.NO_RSS
        assert math.isnan(result.d_fused[0])
        assert math.isfinite(result.d_fused[1])

    def test_unknown_id_rejected(self, fixture_set, model_field):
        with pytest.raises(rf.ConfigurationError, match=r"pair \(1, 99\)"):
            rf.evaluate_pairs(fixture_set, [(1, 99)], model_field)
        with pytest.raises(rf.ConfigurationError, match="int64"):
            rf.evaluate_pairs(fixture_set, [(1, 2**63)], model_field)

    def test_order_independence(self, fixture_set, model_field):
        pairs = [(1, 2), (2, 3), (3, 4)]
        forward = rf.evaluate_pairs(fixture_set, pairs, model_field)
        backward = rf.evaluate_pairs(fixture_set, pairs[::-1], model_field)
        assert forward == rf.PairEvaluation(*(getattr(backward, f.name)[::-1]
                                              for f in dataclasses.fields(backward)))

    def test_below_threshold_rss_goes_connectivity_only(self, fixture_set, model_field):
        result = rf.evaluate_pairs(fixture_set, [(1, 5)], model_field)
        assert result.status[0] == "connectivity_only"
        # the reading is still reported, only kept out of the fusion
        assert result.d_rss[0] == rf.estimate_distance_rss(PARAMS_FIELD, -60.0)
        assert result.d_fused[0] == result.d_conn[0]

    def test_batch_counts_match_set_arithmetic(self, model_field):
        rng = np.random.default_rng(62)
        dep = rf.deploy_poisson(3.0 * model_field.d_th, 14.0 / model_field.s_mass, rng)
        ms = rf.synthesize_measurements(dep, PARAMS_FIELD, rng)
        near = {node: set() for node in ms.ids}
        for i, j in ms.rss:
            near[i].add(j)
            near[j].add(i)
        ids = ms.ids.tolist()
        pairs = sorted(ms.rss)[:60] + [(ids[k], ids[-1 - k]) for k in range(20)]
        result = rf.evaluate_pairs(ms, pairs, model_field)
        assert list(map(tuple, result.pairs.tolist())) == pairs
        assert 60 <= result.measured.sum() < len(pairs)
        for (i, j), d_conn in zip(result.pairs[result.measured].tolist(),
                                  result.d_conn[result.measured]):
            a, b = near[i] - {j}, near[j] - {i}
            assert d_conn == invert_counts(model_field, len(a & b), len(a - b), len(b - a))


class TestSynthesizedFixtures:
    def test_counts_match_link_realization(self, model_field):
        rng = np.random.default_rng(60)
        dep = rf.deploy_poisson(40.0, 0.12, rng)
        ms = rf.synthesize_measurements(dep, PARAMS_FIELD, rng)
        # independent recount from the raw map
        threshold = PARAMS_FIELD.rss_threshold_dbm
        ids = ms.ids.tolist()
        rss = ms.rss
        i, j = ids[0], ids[1]
        near = {
            node: {
                other
                for other in ids
                if other != node
                and rss.get((min(node, other), max(node, other)), -math.inf) >= threshold
            }
            for node in (i, j)
        }
        third_i = near[i] - {j}
        third_j = near[j] - {i}
        m, p, q = _counts_of(ms, i, j)
        assert m == len(third_i & third_j)
        assert p == len(third_i - third_j)
        assert q == len(third_j - third_i)

    def test_fused_error_bounded_by_worst_source(self, model_field):
        wins = 0
        total = 0
        cutoff = model_field.d_th
        for k in range(100):
            rng = np.random.default_rng((61, k))
            dep = rf.deploy_poisson(3.0 * cutoff, 14.0 / model_field.s_mass, rng)
            ms = rf.synthesize_measurements(dep, PARAMS_FIELD, rng)
            coords = dict(zip(ms.ids.tolist(), ms.xy.tolist()))
            linked = [
                (i, j)
                for (i, j) in ms.rss
                if all(
                    cutoff <= c <= 3.0 * cutoff - cutoff
                    for nid in (i, j)
                    for c in coords[nid]
                )
            ]
            if not linked:
                continue
            pair = linked[int(rng.integers(len(linked)))]
            row = rf.evaluate_pairs(ms, [pair], model_field)
            if not row.measured[0]:
                continue
            total += 1
            if row.err_fused[0] <= max(row.err_rss[0], row.err_conn[0]) + 1e-9:
                wins += 1
        assert total >= 50
        assert wins / total >= 0.8
