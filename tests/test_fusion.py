import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import rangefuse as rf
from rangefuse.fusion import BOUNDARY_CLAMPED, INTERIOR

LN10 = math.log(10.0)


def _inp(x1=5.0, x2=5.0, sigma_r=0.1, sigma_c=2.0, d_th=40.0):
    return rf.FusionInput(x1=x1, x2=x2, sigma_r=sigma_r, sigma_c=sigma_c, d_th=d_th)


def _grid_maxima(inp, n=10**6):
    """Global and local maximizers of the likelihood on a dense grid over (0, d_th]."""
    d = np.linspace(inp.d_th / n, inp.d_th, n)
    t = np.log10(inp.x1 / d)
    penalty = t * t / (2 * inp.sigma_r**2) + (inp.x2 - d) ** 2 / (2 * inp.sigma_c**2)
    inner = (penalty[1:-1] < penalty[:-2]) & (penalty[1:-1] < penalty[2:])
    return d[int(np.argmin(penalty))], d[1:-1][inner]


class TestFusionInput:
    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(x1=0.0),
            dict(x1=-1.0),
            dict(x2=-0.5),
            dict(x2=41.0),
            dict(sigma_r=0.0),
            dict(sigma_c=0.0),
            dict(sigma_c=math.inf),
            dict(d_th=0.0),
        ],
    )
    def test_rejects_bad_inputs(self, kwargs):
        with pytest.raises(ValueError):
            _inp(**kwargs)

    def test_admits_zero_connectivity_estimate(self):
        _inp(x2=0.0)


class TestLogLikelihood:
    def test_peak_where_both_estimates_agree(self):
        inp = _inp(x1=7.0, x2=7.0)
        peak = rf.log_likelihood(inp, 7.0)
        for d in (5.0, 6.5, 7.5, 9.0):
            assert rf.log_likelihood(inp, d) < peak

    def test_rss_dominates_when_conn_noise_is_huge(self):
        inp = _inp(x1=7.0, x2=20.0, sigma_c=1e9)
        assert rf.log_likelihood(inp, 7.0) > rf.log_likelihood(inp, 14.0)

    def test_rejects_nonpositive_distance(self):
        with pytest.raises(ValueError):
            rf.log_likelihood(_inp(), 0.0)

    def test_finite_at_subnormal_distance(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert math.isfinite(rf.log_likelihood(_inp(), 5e-324))
            assert math.isfinite(rf.score(_inp(), 5e-324))


class TestScore:
    def test_zero_at_joint_peak(self):
        assert rf.score(_inp(x1=5.0, x2=5.0), 5.0) == 0.0

    def test_zero_connectivity_estimate(self):
        inp = _inp(x1=3.0, x2=0.0, sigma_c=1.5)
        assert rf.score(inp, 3.0) == pytest.approx(-(3.0**2) / 1.5**2, rel=1e-12)

    def test_matches_numeric_gradient(self):
        inp = _inp(x1=4.0, x2=11.0, sigma_r=0.15, sigma_c=2.5)
        for d in (1.0, 3.0, 5.5, 9.0, 20.0):
            h = 1e-6 * d
            numeric = (
                rf.log_likelihood(inp, d + h) - rf.log_likelihood(inp, d - h)
            ) / (2 * h)
            analytic = rf.score(inp, d) / d
            assert numeric == pytest.approx(analytic, rel=1e-6)


class TestFuseMle:
    def test_fixed_point(self):
        result = rf.fuse_mle(_inp(x1=5.0, x2=5.0))
        assert result.d_hat == pytest.approx(5.0, abs=1e-9)
        assert result.status == INTERIOR

    def test_rss_dominates(self):
        result = rf.fuse_mle(_inp(x1=3.0, x2=7.0, sigma_c=1e6, d_th=20.0))
        assert result.d_hat == pytest.approx(3.0, abs=1e-3)

    def test_connectivity_dominates(self):
        result = rf.fuse_mle(_inp(x1=3.0, x2=7.0, sigma_r=1e6, sigma_c=1.0, d_th=20.0))
        assert result.d_hat == pytest.approx(7.0, abs=1e-3)

    def test_matches_dense_grid(self):
        inp = _inp(x1=2.0, x2=6.0, sigma_r=0.1, sigma_c=1.5, d_th=40.0)
        result = rf.fuse_mle(inp)
        assert result.d_hat == pytest.approx(_grid_maxima(inp)[0], rel=1e-4)

    def test_boundary_clamp(self):
        result = rf.fuse_mle(_inp(x1=120.0, x2=39.0, sigma_r=0.05, sigma_c=2.0, d_th=40.0))
        assert result.d_hat == 40.0
        assert result.status == BOUNDARY_CLAMPED

    @pytest.mark.parametrize(
        "x1, x2, sigma_r, sigma_c, expected",
        [(1.0, 37.5, 0.08, 2.0, 1.6532), (1.0, 30.0, 0.05, 1.0, 17.7939)],
        ids=["near_wins", "far_wins"],
    )
    def test_two_maxima(self, x1, x2, sigma_r, sigma_c, expected):
        inp = _inp(x1=x1, x2=x2, sigma_r=sigma_r, sigma_c=sigma_c, d_th=40.0)
        best, local = _grid_maxima(inp)
        assert len(local) == 2
        result = rf.fuse_mle(inp)
        assert result.status == INTERIOR
        assert result.d_hat == pytest.approx(best, rel=1e-4)
        assert result.d_hat == pytest.approx(expected, abs=1e-4)

    def test_stationarity_residual_small_when_interior(self):
        rng = np.random.default_rng(41)
        interior = 0
        for _ in range(100):
            inp = _inp(
                x1=float(rng.uniform(0.5, 35.0)),
                x2=float(rng.uniform(0.0, 40.0)),
                sigma_r=float(rng.uniform(0.05, 0.3)),
                sigma_c=float(rng.uniform(0.5, 8.0)),
            )
            result = rf.fuse_mle(inp)
            if result.status == INTERIOR:
                interior += 1
                d0 = 0.5 * (inp.x1 + inp.x2)
                budget = 1e-6 * (1.0 + abs(rf.score(inp, d0)))
                assert abs(rf.score(inp, result.d_hat)) <= budget
        assert interior > 50

    def test_deterministic(self):
        inp = _inp(x1=4.2, x2=17.0, sigma_r=0.2, sigma_c=3.0)
        assert rf.fuse_mle(inp) == rf.fuse_mle(inp)

    @pytest.mark.parametrize("x2", [0.0, 3.0, 40.0])
    def test_smallest_subnormal_rss_estimate(self, x2):
        # x1 / e underflows to 0 here; the estimate must stay in (0, d_th]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = rf.fuse_mle(_inp(x1=5e-324, x2=x2))
        assert 0.0 < result.d_hat <= 40.0
        # the RSS term dominates by hundreds of decades: the peak sits at x1
        assert result.d_hat < 1e-300


class TestFuseArrays:
    def test_batch_matches_one_pair_calls(self):
        rng = np.random.default_rng(43)
        n = 300
        x1 = 40.0 * 10.0 ** rng.uniform(-1.3, 0.25, n)
        x2 = rng.uniform(0.0, 40.0, n)
        sigma_r = rng.uniform(0.05, 0.35, n)
        sigma_c = 40.0 * rng.uniform(0.03, 0.4, n)
        d_hat, status = rf.fusion.fuse_arrays(x1, x2, sigma_r, sigma_c, 40.0)
        for k in range(n):
            one = rf.fuse_mle(_inp(x1[k], x2[k], sigma_r[k], sigma_c[k]))
            assert (d_hat[k], status[k]) == (one.d_hat, one.status)
        assert {BOUNDARY_CLAMPED, INTERIOR} == set(status)

    def test_empty_batch(self):
        d_hat, status = rf.fusion.fuse_arrays([], [], 0.1, [], 40.0)
        assert d_hat.shape == status.shape == (0,)

    @pytest.mark.parametrize("x1", [0.0, -1.0, math.inf, math.nan])
    def test_rejects_bad_rss_estimate(self, x1):
        with pytest.raises(ValueError):
            rf.fusion.fuse_arrays([5.0, x1], [5.0, 5.0], 0.1, [2.0, 2.0], 40.0)


class TestFuseInvariants:
    @settings(max_examples=60, deadline=None)
    @given(
        x1=st.floats(min_value=0.2, max_value=80.0),
        x2=st.floats(min_value=0.0, max_value=40.0),
        sigma_r=st.floats(min_value=0.03, max_value=0.4),
        sigma_c=st.floats(min_value=0.3, max_value=12.0),
    )
    @example(x1=5e-324, x2=0.0, sigma_r=0.1, sigma_c=2.0)
    @example(x1=5e-324, x2=40.0, sigma_r=0.03, sigma_c=12.0)
    def test_result_in_domain_and_beats_seeds(self, x1, x2, sigma_r, sigma_c):
        inp = _inp(x1=x1, x2=x2, sigma_r=sigma_r, sigma_c=sigma_c, d_th=40.0)
        result = rf.fuse_mle(inp)
        assert 0.0 < result.d_hat <= inp.d_th
        best = rf.log_likelihood(inp, result.d_hat)
        assert best >= rf.log_likelihood(inp, min(x1, inp.d_th)) - 1e-9
        if x2 > 0.0:
            assert best >= rf.log_likelihood(inp, x2) - 1e-9

    @settings(max_examples=40, deadline=None)
    @given(
        x1=st.floats(min_value=0.5, max_value=60.0),
        x2=st.floats(min_value=0.0, max_value=38.0),
        bump=st.floats(min_value=0.01, max_value=2.0),
        sigma_r=st.floats(min_value=0.05, max_value=0.3),
        sigma_c=st.floats(min_value=0.5, max_value=10.0),
    )
    def test_monotone_in_connectivity_estimate(self, x1, x2, bump, sigma_r, sigma_c):
        d_th = 40.0
        low = rf.fuse_mle(_inp(x1=x1, x2=x2, sigma_r=sigma_r, sigma_c=sigma_c))
        high = rf.fuse_mle(
            _inp(x1=x1, x2=min(x2 + bump, d_th), sigma_r=sigma_r, sigma_c=sigma_c)
        )
        assert high.d_hat >= low.d_hat - 1e-6 * d_th
