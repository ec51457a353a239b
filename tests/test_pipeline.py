import math

import numpy as np
import pytest

import rangefuse as rf
from rangefuse.pipeline import CONNECTIVITY_ONLY, NO_INFORMATION, RSS_ONLY
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

    @pytest.mark.parametrize("intensity", [-1.0, NAN, math.inf, [0.01, -0.01]])
    def test_rejects_bad_supplied_intensity(self, model44, intensity):
        with pytest.raises(ValueError, match="intensity"):
            rf.estimate_pairs(model44, [20.0, 20.0], [6, 6], [9, 9], [11, 11],
                              intensity=intensity)

