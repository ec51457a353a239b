import math

import numpy as np
import pytest

import rangefuse as rf
from conftest import PARAMS_44, PARAMS_DISK, PARAMS_FIELD


def _intensity(model, mu=20.0):
    return mu / model.s_mass


class TestRssFisherScale:
    def test_field_calibration_value(self):
        # (23 / (3.92 ln 10))^2
        assert rf.rss_fisher_scale(PARAMS_FIELD) == pytest.approx(
            6.49310103336785, rel=1e-12
        )

    def test_simulation_calibration_value(self):
        assert rf.rss_fisher_scale(PARAMS_44) == pytest.approx(
            18.8611697011614, rel=1e-12
        )

    def test_rejects_noise_free(self):
        with pytest.raises(ValueError):
            rf.rss_fisher_scale(PARAMS_DISK)


class TestFim:
    def test_off_diagonal_is_negative_segment_slope(self, model44):
        lam = _intensity(model44)
        for d in (5.0, 20.0, 50.0, 70.0):
            info = rf.fim(model44, lam, d)
            assert info.i_dl == -rf.fd_slope(model44, d)

    def test_left_segment_convention_at_knots(self, model44):
        i = 25
        d = float(model44.knots_d[i])
        info = rf.fim(model44, _intensity(model44), d)
        assert info.i_dl == -float(model44.slopes[i - 1])

    def test_intensity_scaling(self, model44):
        lam = _intensity(model44)
        d = 30.0
        kappa_term = rf.rss_fisher_scale(PARAMS_44) / d**2
        one = rf.fim(model44, lam, d)
        two = rf.fim(model44, 2.0 * lam, d)
        assert two.i_ll == pytest.approx(one.i_ll / 2.0, rel=1e-12)
        assert two.i_dd - kappa_term == pytest.approx(
            2.0 * (one.i_dd - kappa_term), rel=1e-12
        )

    def test_positive_definite_across_the_interior(self, model44):
        lam = _intensity(model44)
        for d in np.linspace(0.02, 0.98, 25) * model44.d_th:
            info = rf.fim(model44, lam, float(d))
            assert info.i_dd > 0 and info.i_ll > 0
            assert info.i_dd * info.i_ll - info.i_dl**2 > 0

    def test_domain_errors(self, model44):
        lam = _intensity(model44)
        with pytest.raises(ValueError):
            rf.fim(model44, lam, 0.0)
        with pytest.raises(ValueError):
            rf.fim(model44, lam, model44.d_th)
        with pytest.raises(ValueError):
            rf.fim(model44, 0.0, 10.0)
        for bad in (math.inf, math.nan):
            with pytest.raises(ValueError):
                rf.crlb_distance(model44, bad, 10.0)


class TestCrlbDistance:
    def test_schur_complement_identity(self, model44):
        lam = _intensity(model44)
        for d in np.linspace(0.03, 0.97, 20) * model44.d_th:
            info = rf.fim(model44, lam, float(d))
            schur = 1.0 / (info.i_dd - info.i_dl**2 / info.i_ll)
            assert rf.crlb_distance(model44, lam, float(d)) == pytest.approx(
                schur, rel=1e-9
            )

    def test_flat_overlap_reduces_to_rss_bound(self):
        # a nearly flat tabulated f carries no connectivity information
        knots_d = np.linspace(0.0, 10.0, 9)
        knots_f = 50.0 - 1e-9 * knots_d
        model = rf.FdModel(
            s_mass=100.0, d_th=10.0, knots_d=knots_d, knots_f=knots_f,
            params=PARAMS_44,
        )
        d = 5.0
        bound = rf.crlb_distance(model, 0.2, d)
        assert bound == pytest.approx(d * d / rf.rss_fisher_scale(PARAMS_44), rel=1e-9)

    def test_strictly_below_rss_bound_with_slope(self, model44):
        lam = _intensity(model44)
        for d in (10.0, 30.0, 60.0):
            bound = rf.crlb_distance(model44, lam, d)
            assert bound < d * d / rf.rss_fisher_scale(PARAMS_44)
