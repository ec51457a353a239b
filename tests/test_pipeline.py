import math
import re

import numpy as np
import pytest

import rangefuse as rf
from rangefuse.pipeline import (CONNECTIVITY_ONLY, NO_INFORMATION, RSS_ONLY,
                                estimate_readings, sqrt_bounds)
from conftest import PARAMS_44, PARAMS_DISK

NAN = math.nan


def _arrays(*rows):
    d_rss, m, p, q = (np.array(column) for column in zip(*rows))
    return d_rss, m, p, q


class TestEstimatePairs:
    def test_statuses(self, model44):
        d_rss, m, p, q = _arrays(
            (20.0, 6, 9, 11),   # both sources
            (NAN, 6, 9, 11),    # no usable reading
            (20.0, 0, 0, 0),    # no connectivity information
            (NAN, 0, 0, 0),     # neither
        )
        est = rf.estimate_pairs(model44, d_rss, m, p, q)
        assert est.status[0] in ("interior", "boundary_clamped")
        assert list(est.status[1:]) == [CONNECTIVITY_ONLY, RSS_ONLY, NO_INFORMATION]
        assert est.d_fused[1] == est.d_conn[1]
        assert est.d_fused[2] == 20.0
        assert est.d_fused[3] == 0.0
        assert np.isnan(est.sigma_c[2:]).all() and (est.intensity[2:] == 0.0).all()

    def test_supplied_intensity_fuses_zero_counts(self, model44):
        lam = rf.mu_to_lambda(20.0, model44.s_mass)
        est = rf.estimate_pairs(model44, [3.0], [0], [0], [0], intensity=lam)
        assert est.d_conn[0] == 0.0
        assert est.status[0] == "interior"
        # sigma_c of the second pass: taken at the first fused estimate
        d_th = model44.d_th
        first_sigma_c = rf.conn_error_sigma(model44, lam, 1e-9 * d_th)
        first, _ = rf.fusion.fuse_arrays(3.0, 0.0, PARAMS_44.sigma_r, first_sigma_c, d_th)
        plug = min(max(float(first), 1e-9 * d_th), d_th)
        assert est.sigma_c[0] == rf.conn_error_sigma(model44, lam, plug)

    def test_zero_intensity_means_no_connectivity(self, model44):
        est = rf.estimate_pairs(model44, [20.0], [6], [9], [11], intensity=0.0)
        assert est.status[0] == RSS_ONLY

    def test_noise_free_channel_keeps_rss(self):
        model = rf.build_fd_model(PARAMS_DISK, n_knots=16, quad_tol=1e-4)
        d_rss = np.array([3.0, 2.0 * model.d_th])
        est = rf.estimate_pairs(model, d_rss, [4, 4], [2, 2], [2, 2])
        assert list(est.d_fused) == [3.0, model.d_th]
        assert list(est.status) == [RSS_ONLY, RSS_ONLY]

    def test_sigma_c_plugged_in_at_clamped_connectivity_estimate(self, model44):
        rng = np.random.default_rng(5)
        m, p, q = (rng.integers(0, 12, 200) for _ in range(3))
        est = rf.estimate_pairs(model44, np.full(200, NAN), m, p, q)
        conn = est.intensity > 0.0
        plug = np.clip(est.d_conn[conn], 1e-9 * model44.d_th, model44.d_th)
        expected = [
            rf.conn_error_sigma(model44, lam, d) for lam, d in zip(est.intensity[conn], plug)
        ]
        assert list(est.sigma_c[conn]) == expected

    def test_rejects_degenerate_rss_estimate(self, model44):
        with pytest.raises(ValueError):
            rf.estimate_pairs(model44, [0.0], [6], [9], [11])

    def test_zero_d_counts_give_zero_d_arrays(self, model44):
        est = rf.estimate_pairs(model44, 10.0, 3, 4, 5)
        one = rf.estimate_pairs(model44, [10.0], [3], [4], [5])
        for mine, theirs in zip(est, one):
            assert mine.shape == ()
            assert mine[()] == theirs[0]
        bound = sqrt_bounds(model44, est)
        assert np.shape(bound) == () and bound == sqrt_bounds(model44, one)[0]

    @pytest.mark.parametrize("name", ["m", "p", "q"])
    @pytest.mark.parametrize("value, text", [(-1, "-1"), (2.5, "2.5"), (NAN, "nan"),
                                             (math.inf, "inf"), (-0.5, "-0.5")])
    def test_rejects_a_count_that_is_no_nonnegative_integer(self, model44, name, value, text):
        counts = {"m": [6, 6], "p": [9, 9], "q": [11, 11]}
        counts[name] = [3, value]
        with pytest.raises(ValueError, match=f"^{name} must be a nonnegative integer, "
                                             f"got {text}$"):
            rf.estimate_pairs(model44, [20.0, 20.0], counts["m"], counts["p"], counts["q"])

    def test_count_check_names_the_first_bad_value(self, model44):
        with pytest.raises(ValueError, match="^p must be a nonnegative integer, got -2$"):
            rf.estimate_pairs(model44, [NAN] * 3, [0, 0, 0], [1, -2, -3], [0, 0, -1])

    def test_integral_float_counts_pass(self, model44):
        ints = rf.estimate_pairs(model44, [20.0], [6], [9], [11])
        floats = rf.estimate_pairs(model44, [20.0], [6.0], [9.0], [11.0])
        assert ints.d_fused[0] == floats.d_fused[0]

    @pytest.mark.parametrize("intensity", [-1.0, NAN, math.inf, [0.01, -0.01]])
    def test_rejects_bad_supplied_intensity(self, model44, intensity):
        with pytest.raises(ValueError, match="intensity"):
            rf.estimate_pairs(model44, [20.0, 20.0], [6, 6], [9, 9], [11, 11],
                              intensity=intensity)



class TestEstimateReadings:
    def test_reading_below_threshold_counts_as_none(self, model44):
        rss = np.array([-85.0, -100.5, -100.0])
        d_rss, est = estimate_readings(model44, rss, [6] * 3, [9] * 3, [11] * 3)
        assert list(d_rss) == list(rf.estimate_distance_rss(PARAMS_44, rss))
        assert est.status[0] in ("interior", "boundary_clamped")
        assert est.status[1] == CONNECTIVITY_ONLY
        # a reading at the threshold is a link
        assert est.status[2] in ("interior", "boundary_clamped")
        direct = rf.estimate_pairs(model44, [d_rss[0], NAN, d_rss[2]], [6] * 3, [9] * 3, [11] * 3)
        assert list(est.d_fused) == list(direct.d_fused)

    @pytest.mark.parametrize("reading", [1e308, -1e308])
    def test_reading_without_finite_range(self, model44, reading):
        message = (f"pair 7 has an RSS reading of {reading!r} dBm, "
                   "which maps to no positive, finite distance")
        with pytest.raises(rf.ConfigurationError, match=f"^{re.escape(message)}$"):
            estimate_readings(model44, [-80.0, reading], [1, 1], [1, 1], [1, 1],
                              subject=lambda k: f"pair {k + 6}")
        with pytest.raises(rf.ConfigurationError, match="^reading 1 has an RSS reading"):
            estimate_readings(model44, [-80.0, reading], [1, 1], [1, 1], [1, 1])


def _sqrt_bound_oracle(model, status, d, intensity, sigma_c):
    """One pair's error bar, written out case by case."""
    if d > 0.0 and status == CONNECTIVITY_ONLY:
        return sigma_c
    if d > 0.0 and status in ("interior", "boundary_clamped"):
        point = min(max(d, 1e-9 * model.d_th), model.d_th)
        return math.sqrt(rf.crlb_distance(model, intensity, point))
    return NAN


def _check_against_oracle(model, est):
    bounds = sqrt_bounds(model, est)
    expected = [_sqrt_bound_oracle(model, *row) for row in zip(
        est.status.tolist(), est.d_fused.tolist(), est.intensity.tolist(),
        est.sigma_c.tolist())]
    np.testing.assert_array_equal(bounds, expected)
    return bounds


class TestSqrtBounds:
    def test_one_pair_per_status(self, model44):
        d_rss, m, p, q = _arrays(
            (20.0, 6, 9, 11),   # interior
            (500.0, 0, 9, 11),  # boundary_clamped: both sources beyond the cutoff
            (20.0, 0, 0, 0),    # rss_only
            (NAN, 5, 8, 7),     # connectivity_only
            (NAN, 0, 0, 0),     # no_information
        )
        est = rf.estimate_pairs(model44, d_rss, m, p, q)
        assert list(est.status) == ["interior", "boundary_clamped", RSS_ONLY,
                                    CONNECTIVITY_ONLY, NO_INFORMATION]
        bounds = _check_against_oracle(model44, est)
        assert np.isfinite(bounds[[0, 1, 3]]).all() and np.isnan(bounds[[2, 4]]).all()
        assert bounds[3] == est.sigma_c[3]

    def test_zero_connectivity_estimate_has_no_bound(self, model44):
        # P = Q = 0: the counts put the pair at d = 0, where sigma_c is finite
        est = rf.estimate_pairs(model44, [NAN], [5], [0], [0])
        assert est.status[0] == CONNECTIVITY_ONLY and est.d_fused[0] == 0.0
        assert np.isfinite(est.sigma_c[0])
        assert np.isnan(_check_against_oracle(model44, est)[0])

    def test_tiny_estimate_is_clamped(self, model44):
        d_rss, est = estimate_readings(model44, [1000.0], [6], [9], [11])
        assert est.status[0] == "interior" and 0.0 < est.d_fused[0] < 1e-25
        bound = _check_against_oracle(model44, est)[0]
        assert bound == math.sqrt(rf.crlb_distance(model44, est.intensity[0],
                                                   1e-9 * model44.d_th))

    def test_noise_free_table(self):
        model = rf.build_fd_model(PARAMS_DISK, n_knots=16, quad_tol=1e-4)
        d_rss, m, p, q = _arrays((3.0, 4, 2, 2), (NAN, 4, 2, 2), (NAN, 0, 0, 0), (3.0, 0, 0, 0))
        est = rf.estimate_pairs(model, d_rss, m, p, q)
        bounds = _check_against_oracle(model, est)
        assert np.isnan(bounds[[0, 2, 3]]).all() and bounds[1] == est.sigma_c[1]

    def test_seeded_batch(self, model44):
        rng = np.random.default_rng(8)
        n = 300
        d_rss = np.where(rng.random(n) < 0.2, NAN, rng.uniform(0.5, 120.0, n))
        m, p, q = (rng.integers(0, 12, n) for _ in range(3))
        for counts in (m, p, q):
            counts[:20] = 0
        est = rf.estimate_pairs(model44, d_rss, m, p, q)
        assert len(set(est.status.tolist())) == 5
        _check_against_oracle(model44, est)
