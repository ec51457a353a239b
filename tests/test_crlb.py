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

    def test_noise_free_is_infinite(self):
        # an exact reading gives the distance exactly
        assert rf.rss_fisher_scale(PARAMS_DISK) == math.inf


def _closed_form_fim(model, lam, d):
    """The information matrix's entries in closed form, the oracle of fim's generic sum.

    i_dd = lambda f'^2 (1/f + 2/(S - f)) + kappa/d^2, i_dl = -f' and
    i_ll = (2S - f)/lambda; positive definite, since 0 < f < S and
    (2S - f)(S + f) - f (S - f) = 2 S^2 give det = f'^2 [(2S - f)(S + f)/(f (S - f)) - 1]
    + kappa (2S - f)/(lambda d^2) > 0.
    """
    f_val, slope, s = rf.eval_fd(model, d), rf.fd_slope(model, d), model.s_mass
    i_dd = (lam * slope * slope * (1.0 / f_val + 2.0 / (s - f_val))
            + rf.rss_fisher_scale(model.params) / (d * d))
    return i_dd, -slope, (2.0 * s - f_val) / lam


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
        d = np.linspace(0.02, 1.0, 50) * model44.d_th
        assert d[-1] == model44.d_th
        info = rf.fim(model44, _intensity(model44), d)
        assert np.all(info.i_dd > 0) and np.all(info.i_ll > 0)
        assert np.all(info.i_dd * info.i_ll - info.i_dl**2 > 0)

    # fim sums the Poisson information of the two counts; the closed forms it
    # replaced agree to rounding, and i_dl = f' - 2 f' = -f' to the bit
    @pytest.mark.parametrize("name", ["model44", "model_field", "model_sharp"])
    @pytest.mark.parametrize("mu", [0.05, 3.0, 20.0, 400.0])
    def test_matches_the_closed_forms(self, request, name, mu):
        model = request.getfixturevalue(name)
        mids = 0.5 * (model.knots_d[:-1] + model.knots_d[1:])
        d = np.concatenate([model.knots_d[1:], mids, [1e-9 * model.d_th, model.d_th]])
        lam = _intensity(model, mu)
        info = rf.fim(model, lam, d)
        i_dd, i_dl, i_ll = _closed_form_fim(model, lam, d)
        assert np.array_equal(info.i_dl, i_dl)
        assert info.i_dd == pytest.approx(i_dd, rel=1e-15, abs=0.0)
        assert info.i_ll == pytest.approx(i_ll, rel=1e-15, abs=0.0)

    def test_domain_errors(self, model44):
        # the domain of the bound: d in (0, d_th], 0 < intensity < inf
        lam = _intensity(model44)
        rf.fim(model44, lam, model44.d_th)
        for bad in (0.0, math.nextafter(model44.d_th, math.inf), math.nan):
            with pytest.raises(ValueError, match="d_th"):
                rf.fim(model44, lam, bad)
        for bad in (0.0, math.inf, math.nan):
            for fn in (rf.fim, rf.crlb_distance):
                with pytest.raises(ValueError, match="intensity"):
                    fn(model44, bad, 10.0)


class TestCrlbDistance:
    def test_schur_complement_identity(self, model44):
        lam = _intensity(model44)
        # d_th included: fim and the bound share the domain (0, d_th]
        for d in np.linspace(0.03, 1.0, 20) * model44.d_th:
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

    def test_array_matches_scalar_calls_bit_for_bit(self, model44):
        # d_th included: the bound is defined on (0, d_th]
        lam = _intensity(model44)
        d = np.concatenate([np.linspace(0.01, 1.0, 50) * model44.d_th, model44.knots_d[1:]])
        assert d[49] == d[-1] == model44.d_th
        bounds = rf.crlb_distance(model44, lam, d)
        info = rf.fim(model44, lam, d)
        assert bounds.shape == d.shape
        assert all(entry.shape == d.shape for entry in info)
        scale = rf.rss_fisher_scale(PARAMS_44)
        for i, (x, bound) in enumerate(zip(d.tolist(), bounds.tolist())):
            assert bound == rf.crlb_distance(model44, lam, x)
            assert rf.fim(model44, lam, x) == tuple(entry[i] for entry in info)
            # the formula in Python floats, with libm's pow
            sigma_c = rf.conn_error_sigma(model44, lam, x)
            assert bound == 1.0 / (sigma_c**-2 + scale / (x * x))

    def test_tiny_distances_give_the_limit_without_warnings(self, model44):
        # below about 1e-153 the RSS information scale / d^2 overflows (or
        # divides by a zero d^2); warnings are errors in this suite
        lam = _intensity(model44)
        d = np.array([1e-160, 1e-320, 5e-324])
        assert rf.crlb_distance(model44, lam, d).tolist() == [0.0, 0.0, 0.0]
        assert rf.fim(model44, lam, d).i_dd.tolist() == [math.inf] * 3
        # a bound that is finite and nonzero is still the formula's value
        scale = rf.rss_fisher_scale(PARAMS_44)
        sigma_c = rf.conn_error_sigma(model44, lam, 1e-150)
        assert rf.crlb_distance(model44, lam, 1e-150) == 1.0 / (sigma_c**-2 + scale / 1e-300)

    def test_rejects_distances_outside_the_cutoff(self, model44):
        lam = _intensity(model44)
        for bad in (0.0, math.nextafter(model44.d_th, math.inf), math.nan):
            with pytest.raises(ValueError, match="d_th"):
                rf.crlb_distance(model44, lam, [10.0, bad])

    def test_strictly_below_rss_bound_with_slope(self, model44):
        lam = _intensity(model44)
        for d in (10.0, 30.0, 60.0):
            bound = rf.crlb_distance(model44, lam, d)
            assert bound < d * d / rf.rss_fisher_scale(PARAMS_44)
