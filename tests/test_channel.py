import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

import rangefuse as rf
from rangefuse.channel import _normal_tail
from rangefuse.fusion import fuse_arrays
from conftest import PARAMS_44, PARAMS_DISK, PARAMS_FIELD

LN10 = math.log(10.0)


class TestChannelParams:
    def test_rejects_threshold_at_or_above_reference(self):
        with pytest.raises(ValueError):
            rf.ChannelParams(p_ref_dbm=-40.0, alpha=2.0, sigma_db=1.0,
                             rss_threshold_dbm=-40.0)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(alpha=0.0),
            dict(alpha=-1.0),
            dict(sigma_db=-0.5),
            dict(d0=0.0),
            dict(p_ref_dbm=math.nan),
        ],
    )
    def test_rejects_bad_fields(self, kwargs):
        base = dict(p_ref_dbm=-37.47, alpha=4.0, sigma_db=4.0,
                    rss_threshold_dbm=-100.0)
        base.update(kwargs)
        with pytest.raises(ValueError):
            rf.ChannelParams(**base)

    # the pseudo range is 10^1.563 m at d0 = 1; its log10 is checked, so no
    # channel overflows in the check itself
    @pytest.mark.parametrize("kwargs", [dict(alpha=1e-3), dict(d0=1e154), dict(d0=1e-160),
                                        dict(p_ref_dbm=1e308, rss_threshold_dbm=-1e308)])
    def test_rejects_pseudo_range_at_extreme_scale(self, kwargs):
        base = dict(p_ref_dbm=-37.47, alpha=4.0, sigma_db=4.0, rss_threshold_dbm=-100.0)
        with pytest.raises(ValueError, match="the pseudo range, 10\\^.* m, lies outside "
                                             "1e-140 to 1e140 m"):
            rf.ChannelParams(**{**base, **kwargs})

    def test_sigma_r(self):
        assert PARAMS_44.sigma_r == pytest.approx(0.1, rel=1e-15)

    # sigma_r = sigma_db / 40 here; at 1e-322 dB it rounds to 0
    @pytest.mark.parametrize("sigma_db, sigma_r", [(1e-160, "2.5e-162"), (3.9e-99, "9.75e-101"),
                                                   (1e-322, "0.0")])
    def test_rejects_sigma_r_below_the_floor(self, sigma_db, sigma_r):
        with pytest.raises(ValueError, match=re.escape(
                "sigma_db must be 0 or give sigma_r = sigma_db / (10 alpha) >= 1e-100, "
                f"got sigma_r = {sigma_r}")):
            rf.ChannelParams(p_ref_dbm=-37.47, alpha=4.0, sigma_db=sigma_db,
                             rss_threshold_dbm=-100.0)

    @pytest.mark.parametrize("sigma_db", [0.0, 4e-99])
    def test_accepts_noise_free_and_the_floor(self, sigma_db):
        params = rf.ChannelParams(p_ref_dbm=-37.47, alpha=4.0, sigma_db=sigma_db,
                                  rss_threshold_dbm=-100.0)
        assert params.sigma_r in (0.0, 1e-100)


def _estimate_5000_pairs(model, **override):
    """estimate_pairs on 5000 pairs, with the arguments in override replaced."""
    args = {"d_rss": np.full(5000, 20.0), "m": np.full(5000, 6), "p": np.full(5000, 9),
            "q": np.full(5000, 11), **override}
    return rf.estimate_pairs(model, **args)


class TestArgumentCheck:
    """Every array argument check names the first bad value, however long the array."""

    # each check's call on an array, the array's good value and a bad one
    CASES = {
        "mean_rss": (lambda model, v: rf.mean_rss(PARAMS_44, v), 10.0, -0.25),
        "sample_rss": (lambda model, v: rf.sample_rss(PARAMS_44, v, np.random.default_rng(1)),
                       10.0, math.inf),
        "link_probability": (lambda model, v: rf.link_probability(PARAMS_44, v), 10.0, 0.0),
        "estimate_distance_rss": (lambda model, v: rf.estimate_distance_rss(PARAMS_44, v),
                                  -60.0, math.nan),
        "unit_disk_f": (lambda model, v: rf.unit_disk_f(1.0, v), 0.5, 2.5),
        "eval_fd": (lambda model, v: rf.eval_fd(model, v), 10.0, -0.5),
        "fd_slope": (lambda model, v: rf.fd_slope(model, v), 10.0, 1e6),
        "invert_fd": (lambda model, v: rf.invert_fd(model, v), 100.0, math.nan),
        "fuse_arrays": (lambda model, v: fuse_arrays(v, 20.0, 0.1, 5.0, 80.0), 10.0, 0.0),
        "estimate_pairs-count": (lambda model, v: _estimate_5000_pairs(model, p=v), 9, -3),
        "estimate_pairs-intensity": (
            lambda model, v: _estimate_5000_pairs(model, intensity=v), 0.01, -0.01),
    }

    @pytest.mark.parametrize("name", CASES)
    def test_names_the_bad_entry_of_a_long_array(self, model44, name):
        call, good, bad = self.CASES[name]
        values = np.full(5000, good)
        values[2500] = bad
        with pytest.raises(ValueError, match=f", got {re.escape(repr(bad))}$"):
            call(model44, values)

    def test_count_beyond_int64(self, model44):
        # numpy holds such a count as a Python int in an object array
        with pytest.raises(ValueError, match=f"^m must be a nonnegative integer, "
                                             f"got {-2**70}$"):
            rf.estimate_pairs(model44, [20.0], [-2**70], [9], [11])

    def test_scalar_radius(self):
        with pytest.raises(ValueError, match=r"^r must be positive and finite, got -1\.0$"):
            rf.unit_disk_f(-1, 0.5)

    def test_first_knot(self, model44):
        knots_d = model44.knots_d.copy()
        knots_d[0] = 0.5
        with pytest.raises(ValueError, match=r"^knots must start at distance 0, got 0\.5$"):
            rf.FdModel(s_mass=model44.s_mass, d_th=model44.d_th, knots_d=knots_d,
                       knots_f=model44.knots_f, params=model44.params)


class TestMeanRss:
    def test_reference_distance_zeroes_path_loss(self):
        p = rf.ChannelParams(p_ref_dbm=-37.47, alpha=2.3, sigma_db=1.0,
                             rss_threshold_dbm=-90.0)
        assert rf.mean_rss(p, 1.0) == -37.47

    def test_decade_subtracts_ten_alpha(self):
        p = rf.ChannelParams(p_ref_dbm=-37.47, alpha=2.3, sigma_db=1.0,
                             rss_threshold_dbm=-90.0)
        assert rf.mean_rss(p, 10.0) == pytest.approx(-60.47, abs=1e-12)

    def test_hundred_dbm_floor_distance(self):
        # direct arithmetic: -37.47 - 40*log10(36.6)
        assert rf.mean_rss(PARAMS_44, 36.6) == pytest.approx(
            -100.009243415776426, rel=1e-14
        )

    def test_rejects_nonpositive_distance(self):
        with pytest.raises(ValueError):
            rf.mean_rss(PARAMS_44, 0.0)
        with pytest.raises(ValueError):
            rf.mean_rss(PARAMS_44, np.array([1.0, -2.0]))


class TestSampleRss:
    def test_degenerate_noise_returns_mean(self):
        rng = np.random.default_rng(1)
        d = 7.3
        assert rf.sample_rss(PARAMS_DISK, d, rng) == rf.mean_rss(PARAMS_DISK, d)

    def test_sample_moments(self):
        rng = np.random.default_rng(2)
        d = 12.0
        draws = rf.sample_rss(PARAMS_44, np.full(10**5, d), rng)
        mean = rf.mean_rss(PARAMS_44, d)
        assert abs(draws.mean() - mean) <= 3.0 * PARAMS_44.sigma_db / math.sqrt(10**5)
        assert draws.var() == pytest.approx(PARAMS_44.sigma_db**2, rel=0.05)

    def test_reproducible_under_seed(self):
        a = rf.sample_rss(PARAMS_44, 5.0, np.random.default_rng(77))
        b = rf.sample_rss(PARAMS_44, 5.0, np.random.default_rng(77))
        assert a == b


class TestEstimateDistanceRss:
    def test_zero_exponent(self):
        p = rf.ChannelParams(p_ref_dbm=-37.47, alpha=2.3, sigma_db=1.0,
                             rss_threshold_dbm=-90.0)
        assert rf.estimate_distance_rss(p, -37.47) == 1.0

    def test_unit_exponent(self):
        p = rf.ChannelParams(p_ref_dbm=-37.47, alpha=2.3, sigma_db=1.0,
                             rss_threshold_dbm=-90.0)
        assert rf.estimate_distance_rss(p, -60.47) == pytest.approx(10.0, rel=1e-12)

    @settings(max_examples=50, deadline=None)
    @given(d=st.floats(min_value=1e-3, max_value=1e6))
    def test_inverts_mean_rss(self, d):
        est = rf.estimate_distance_rss(PARAMS_44, rf.mean_rss(PARAMS_44, d))
        assert est == pytest.approx(d, rel=1e-12)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            rf.estimate_distance_rss(PARAMS_44, math.inf)

    def test_non_finite_error_names_the_first_such_reading(self):
        with pytest.raises(ValueError, match=r"^RSS observation must be finite, got -inf$"):
            rf.estimate_distance_rss(PARAMS_44, [[-80.0, -math.inf], [math.nan, -70.0]])


class TestPseudoRange:
    def test_simulation_calibration(self):
        assert rf.pseudo_range(PARAMS_44) == pytest.approx(36.5805305477384, rel=1e-13)

    def test_field_calibration(self):
        assert rf.pseudo_range(PARAMS_FIELD) == pytest.approx(5.78327592083796, rel=1e-13)

    def test_decade_threshold(self):
        p = rf.ChannelParams(p_ref_dbm=-30.0, alpha=2.0, sigma_db=1.0,
                             rss_threshold_dbm=-50.0, d0=3.0)
        assert rf.pseudo_range(p) == pytest.approx(30.0, rel=1e-14)


class TestLinkProbability:
    def test_half_at_pseudo_range(self):
        assert rf.link_probability(PARAMS_44, rf.pseudo_range(PARAMS_44)) == 0.5

    def test_limit_near_zero(self):
        assert rf.link_probability(PARAMS_44, 1e-12) == pytest.approx(1.0, abs=1e-12)

    def test_gaussian_tail_value(self):
        # Q(40*log10(2)/4) = Q(3.0103) at r = 10
        p = rf.ChannelParams(p_ref_dbm=-37.47, alpha=4.0, sigma_db=4.0,
                             rss_threshold_dbm=-77.47)
        assert rf.pseudo_range(p) == pytest.approx(10.0, rel=1e-14)
        assert rf.link_probability(p, 20.0) == pytest.approx(
            0.00130494902170805, rel=1e-10
        )

    def test_value_where_the_cutoff_reads(self):
        # x = log10(d / r) / sigma_r rounds to exactly 3.09 here, next to the
        # 1e-3 cutoff; Q(3.09) to 20 digits, from mpmath at 50 digits
        d = rf.pseudo_range(PARAMS_44) * 10.0 ** (3.09 * PARAMS_44.sigma_r)
        q = 0.0010007824766140108776
        assert abs(rf.link_probability(PARAMS_44, d) - q) <= 1e-15 * q

    def test_step_when_noise_free(self):
        r = rf.pseudo_range(PARAMS_DISK)
        assert rf.link_probability(PARAMS_DISK, r) == 1.0
        assert rf.link_probability(PARAMS_DISK, r * 1.0000001) == 0.0

    @settings(max_examples=50, deadline=None)
    @given(
        d1=st.floats(min_value=1e-3, max_value=1e3),
        d2=st.floats(min_value=1e-3, max_value=1e3),
    )
    def test_nonincreasing(self, d1, d2):
        lo, hi = sorted((d1, d2))
        assert rf.link_probability(PARAMS_44, lo) >= rf.link_probability(PARAMS_44, hi)

    def test_keeps_the_shape_of_d(self):
        d = np.array([[1.0, 20.0, 36.0], [50.0, 80.0, 400.0]])
        out = rf.link_probability(PARAMS_44, d)
        assert out.shape == (2, 3)
        assert out.tolist() == [[rf.link_probability(PARAMS_44, v) for v in row]
                                for row in d.tolist()]
        assert type(rf.link_probability(PARAMS_44, 20.0)) is float

    def test_far_distance_is_zero_without_warning(self):
        with warnings.catch_warnings(), np.errstate(all="raise"):
            warnings.simplefilter("error")
            assert rf.link_probability(PARAMS_44, 1e300) == 0.0


class TestNormalTail:
    """channel._normal_tail, the package's one Q kernel, against 50-digit mpmath values."""

    @pytest.mark.parametrize("x, q", [
        (8.0, 6.2209605742717841235e-16),
        (20.0, 2.7536241186062336951e-89),
        (37.0, 5.7255712225245768227e-300),
    ])
    def test_far_tail(self, x, q):
        # the bound of the channel module docstring: 2.2e-16 (x^2 + 4) relative
        assert abs(float(_normal_tail(x)) - q) <= 2.2e-16 * (x * x + 4.0) * q

    def test_underflow_skip_keeps_the_bits_of_erfc(self):
        # past x = 40 the kernel returns 0.0 without calling erfc; erfc itself
        # is 0 from x = 38.5, so every value is the bits of the direct formula
        x = np.concatenate([np.linspace(36.0, 44.0, 8001),
                            [math.inf, -math.inf, math.nan, 1e300, -1e300, 40.0]])
        direct = np.array([0.5 * math.erfc(v / math.sqrt(2.0)) for v in x.tolist()])
        assert _normal_tail(x).tobytes() == direct.tobytes()
        grid = x[-12:].reshape(3, 4)
        assert _normal_tail(grid).shape == (3, 4)
        assert _normal_tail(grid).tobytes() == direct[-12:].tobytes()
        for v in (39.0, 41.0, math.inf, math.nan):
            q = _normal_tail(v)
            assert type(q) is np.float64
            assert q.tobytes() == np.float64(0.5 * math.erfc(v / math.sqrt(2.0))).tobytes()


class TestRssEstimatePdf:
    """The RSS range estimate's law: log10(estimate / d) is normal with scale sigma_r."""

    def test_histogram_matches_density(self):
        d = 9.0
        rng = np.random.default_rng(3)
        samples = rf.estimate_distance_rss(
            PARAMS_44, rf.sample_rss(PARAMS_44, np.full(10**5, d), rng)
        )
        cdf = lambda x: stats.norm.cdf(np.log10(x / d) / PARAMS_44.sigma_r)
        statistic, _ = stats.kstest(samples, cdf)
        assert statistic < 0.01


class TestErrorLaw:
    def test_multiplicative_error_is_lognormal(self):
        d = 14.0
        rng = np.random.default_rng(4)
        est = rf.estimate_distance_rss(
            PARAMS_44, rf.sample_rss(PARAMS_44, np.full(10**5, d), rng)
        )
        log_ratio = np.log10(est / d)
        assert abs(log_ratio.mean()) <= 3.0 * PARAMS_44.sigma_r / math.sqrt(10**5)
        assert log_ratio.std() == pytest.approx(PARAMS_44.sigma_r, rel=0.03)

    def test_rmse_matches_lognormal_moments(self):
        d = 22.0
        s = PARAMS_44.sigma_r * LN10
        expected = d * math.sqrt(math.exp(2 * s * s) - 2 * math.exp(s * s / 2) + 1)
        rng = np.random.default_rng(5)
        est = rf.estimate_distance_rss(
            PARAMS_44, rf.sample_rss(PARAMS_44, np.full(10**5, d), rng)
        )
        rmse = math.sqrt(np.mean((est - d) ** 2))
        assert rmse == pytest.approx(expected, rel=0.03)
