import math
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
    return rf.load_measurements(fixture_path, PARAMS_FIELD)


class TestLoadMeasurements:
    def test_parses_nodes_and_links(self, fixture_set):
        assert fixture_set.ids == (1, 2, 3, 4, 5)
        assert len(fixture_set.rss) == 7
        assert fixture_set.pair_rss(2, 1) == -48.0

    def test_symmetric_entries_average(self, tmp_path):
        path = tmp_path / "sym.txt"
        path.write_text("# nodes\n1, 0, 0\n2, 1, 0\n# rss\n1, 2, -50.0\n2, 1, -40.0\n")
        ms = rf.load_measurements(path, PARAMS_FIELD)
        assert ms.pair_rss(1, 2) == -45.0

    def test_empty_rss_section_is_valid(self, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_text("# nodes\n1, 0, 0\n2, 1, 0\n# rss\n")
        ms = rf.load_measurements(path, PARAMS_FIELD)
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
        ],
    )
    def test_errors_carry_line_numbers(self, tmp_path, body, lineno):
        path = tmp_path / "bad.txt"
        path.write_text(body)
        with pytest.raises(rf.ConfigurationError, match=f":{lineno}:"):
            rf.load_measurements(path, PARAMS_FIELD)

    def test_missing_file(self, tmp_path):
        with pytest.raises(rf.ConfigurationError):
            rf.load_measurements(tmp_path / "nope.txt", PARAMS_FIELD)


class TestSaveMeasurements:
    def test_load_save_load_round_trip(self, fixture_set, tmp_path):
        path = tmp_path / "canon.txt"
        rf.save_measurements(fixture_set, path)
        again = rf.load_measurements(path, PARAMS_FIELD)
        assert again == fixture_set
        second = tmp_path / "canon2.txt"
        rf.save_measurements(again, second)
        assert path.read_bytes() == second.read_bytes()


@st.composite
def _measurement_sets(draw):
    ids = draw(st.lists(st.integers(-10**6, 10**6), min_size=1, max_size=12, unique=True))
    coordinate = st.floats(allow_nan=False, allow_infinity=False)
    nodes = tuple((node_id, draw(coordinate), draw(coordinate)) for node_id in ids)
    keys = [(i, j) for i in ids for j in ids if i < j]
    linked = draw(st.lists(st.sampled_from(keys), unique=True)) if keys else []
    reading = st.floats(min_value=-200.0, max_value=50.0)
    rss = {key: draw(reading) for key in linked}
    return rf.MeasurementSet(nodes=nodes, rss=rss, channel=PARAMS_FIELD)


class TestMeasurementRoundTrip:
    @settings(max_examples=60, deadline=None)
    @given(ms=_measurement_sets())
    def test_save_load_is_exact(self, ms):
        with tempfile.TemporaryDirectory() as folder:
            path = Path(folder) / "meas.txt"
            rf.save_measurements(ms, path)
            assert rf.load_measurements(path, PARAMS_FIELD) == ms


class TestNeighborCounts:
    """Thresholded neighbor lists (dataset._adjacency) and their counts (dataset._counts)."""

    def test_counts_from_fixture(self, fixture_set):
        # neighbors of 1: {2, 3}; neighbors of 2: {1, 3, 4}; common third
        # nodes of (1, 2): {3}; exclusive: none for 1, {4} for 2
        rows, adjacency = rf.dataset._adjacency(fixture_set)
        counts = rf.dataset._counts(adjacency, [rows[1]], [rows[2]])
        assert [int(v[0]) for v in counts] == [1, 0, 1]

    def test_threshold_consistency(self, tmp_path):
        # a below-threshold entry contributes no link anywhere
        path = tmp_path / "thr.txt"
        path.write_text(
            "# nodes\n1, 0, 0\n2, 1, 0\n3, 0.5, 0.5\n"
            "# rss\n1, 2, -50.0\n1, 3, -56.0\n2, 3, -40.0\n"
        )
        ms = rf.load_measurements(path, PARAMS_FIELD)
        rows, adjacency = rf.dataset._adjacency(ms)
        counts = rf.dataset._counts(adjacency, [rows[1]], [rows[2]])
        assert [int(v[0]) for v in counts] == [0, 0, 1]


class TestEvaluatePairs:
    def test_euclidean_truth(self, fixture_set, model_field):
        rows = rf.evaluate_pairs(fixture_set, [(1, 2)], model=model_field)
        assert rows[0].d_true == 5.0

    def test_missing_rss_continues(self, tmp_path, model_field):
        path = tmp_path / "gap.txt"
        path.write_text("# nodes\n1, 0, 0\n2, 3, 4\n3, 1, 1\n# rss\n1, 3, -45.0\n")
        ms = rf.load_measurements(path, PARAMS_FIELD)
        rows = rf.evaluate_pairs(ms, [(1, 2), (1, 3)], model=model_field)
        assert rows[0].error is not None
        assert rows[0].d_fused is None
        assert rows[1].error is None
        assert rows[1].d_fused is not None

    def test_unknown_id_rejected(self, fixture_set, model_field):
        with pytest.raises(rf.ConfigurationError):
            rf.evaluate_pairs(fixture_set, [(1, 99)], model=model_field)

    def test_order_independence(self, fixture_set, model_field):
        pairs = [(1, 2), (2, 3), (3, 4)]
        forward = rf.evaluate_pairs(fixture_set, pairs, model=model_field)
        backward = rf.evaluate_pairs(fixture_set, pairs[::-1], model=model_field)
        assert forward == tuple(backward[::-1])

    def test_below_threshold_rss_goes_connectivity_only(self, fixture_set, model_field):
        rows = rf.evaluate_pairs(fixture_set, [(1, 5)], model=model_field)
        assert rows[0].status == "connectivity_only"
        # the reading is still reported, only kept out of the fusion
        assert rows[0].d_rss == rf.estimate_distance_rss(PARAMS_FIELD, -60.0)
        assert rows[0].d_fused == rows[0].d_conn

    def test_batch_counts_match_set_arithmetic(self, model_field):
        rng = np.random.default_rng(62)
        dep = rf.deploy_poisson(3.0 * model_field.d_th, 14.0 / model_field.s_mass, rng)
        ms = rf.synthesize_measurements(dep, PARAMS_FIELD, rng)
        near = {node: set() for node in ms.ids}
        for i, j in ms.rss:
            near[i].add(j)
            near[j].add(i)
        ids = ms.ids
        pairs = sorted(ms.rss)[:60] + [(ids[k], ids[-1 - k]) for k in range(20)]
        rows = rf.evaluate_pairs(ms, pairs, model=model_field)
        assert [row.pair for row in rows] == pairs
        measured = [row for row in rows if row.error is None]
        assert 60 <= len(measured) < len(rows)
        for row in measured:
            i, j = row.pair
            a, b = near[i] - {j}, near[j] - {i}
            assert row.d_conn == invert_counts(model_field, len(a & b), len(a - b), len(b - a))


class TestSynthesizedFixtures:
    def test_counts_match_link_realization(self, model_field):
        rng = np.random.default_rng(60)
        dep = rf.deploy_poisson(40.0, 0.12, rng)
        ms = rf.synthesize_measurements(dep, PARAMS_FIELD, rng)
        # independent recount from the raw map
        threshold = PARAMS_FIELD.rss_threshold_dbm
        ids = ms.ids
        i, j = ids[0], ids[1]
        near = {
            node: {
                other
                for other in ids
                if other != node
                and ms.pair_rss(node, other) is not None
                and ms.pair_rss(node, other) >= threshold
            }
            for node in (i, j)
        }
        third_i = near[i] - {j}
        third_j = near[j] - {i}
        rows, adjacency = rf.dataset._adjacency(ms)
        m, p, q = (int(v[0]) for v in rf.dataset._counts(adjacency, [rows[i]], [rows[j]]))
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
            coords = {nid: (x, y) for nid, x, y in ms.nodes}
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
            row = rf.evaluate_pairs(ms, [pair], model=model_field)[0]
            if row.error is not None:
                continue
            total += 1
            if row.err_fused <= max(row.err_rss, row.err_conn) + 1e-9:
                wins += 1
        assert total >= 50
        assert wins / total >= 0.8
