import functools
import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import rangefuse as rf
from rangefuse.fusion import BOUNDARY_CLAMPED, INTERIOR, stationarity
from conftest import penalty

LN10 = math.log(10.0)
EPS = np.finfo(float).eps


def _fuse(x1=5.0, x2=5.0, sigma_r=0.1, sigma_c=2.0, d_th=40.0):
    """One pair through fuse_arrays: (d_hat, status)."""
    d_hat, status = rf.fusion.fuse_arrays(x1, x2, sigma_r, sigma_c, d_th)
    return float(d_hat), str(status)


def _s(d, x1=5.0, x2=5.0, sigma_r=0.1, sigma_c=2.0):
    """The solver's stationarity function at d, with A and B from the error scales."""
    return stationarity(math.log(x1), x2, 1.0 / (sigma_r * LN10) ** 2, 1.0 / sigma_c**2, d)


def _grid_maxima(x1, x2, sigma_r, sigma_c, d_th, n=10**6):
    """Global and local maximizers of the likelihood on a dense grid over (0, d_th]."""
    d = np.linspace(d_th / n, d_th, n)
    pen = penalty(x1, x2, sigma_r, sigma_c, d)
    inner = (pen[1:-1] < pen[:-2]) & (pen[1:-1] < pen[2:])
    return d[int(np.argmin(pen))], d[1:-1][inner]


class TestLogLikelihood:
    """Shape of the joint log-likelihood, read from the sign of the stationarity function."""

    def test_peak_where_both_estimates_agree(self):
        rising = _s(np.array([5.0, 6.5]), x1=7.0, x2=7.0)
        falling = _s(np.array([7.5, 9.0]), x1=7.0, x2=7.0)
        assert (rising > 0.0).all() and (falling < 0.0).all()

    def test_rss_dominates_when_conn_noise_is_huge(self):
        d = np.linspace(7.01, 14.0, 50)
        assert (_s(d, x1=7.0, x2=20.0, sigma_c=1e9) < 0.0).all()

    def test_finite_at_subnormal_distance(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert math.isfinite(_s(5e-324))


class TestScore:
    """fusion.stationarity: d times the derivative of the log-likelihood."""

    def test_zero_at_joint_peak(self):
        assert _s(5.0, x1=5.0, x2=5.0) == 0.0

    def test_zero_connectivity_estimate(self):
        assert _s(3.0, x1=3.0, x2=0.0, sigma_c=1.5) == pytest.approx(
            -(3.0**2) / 1.5**2, rel=1e-12)

    def test_matches_numeric_gradient(self):
        args = (4.0, 11.0, 0.15, 2.5)
        for d in (1.0, 3.0, 5.5, 9.0, 20.0):
            h = 1e-6 * d
            numeric = -(penalty(*args, d + h) - penalty(*args, d - h)) / (2 * h)
            analytic = _s(d, *args) / d
            assert numeric == pytest.approx(analytic, rel=1e-6)


class TestFuseMle:
    """The ML fusion of one pair: one-row fuse_arrays calls."""

    def test_fixed_point(self):
        d_hat, status = _fuse(x1=5.0, x2=5.0)
        assert d_hat == pytest.approx(5.0, abs=1e-9)
        assert status == INTERIOR

    def test_rss_dominates(self):
        d_hat, _ = _fuse(x1=3.0, x2=7.0, sigma_c=1e6, d_th=20.0)
        assert d_hat == pytest.approx(3.0, abs=1e-3)

    def test_connectivity_dominates(self):
        d_hat, _ = _fuse(x1=3.0, x2=7.0, sigma_r=1e6, sigma_c=1.0, d_th=20.0)
        assert d_hat == pytest.approx(7.0, abs=1e-3)

    def test_matches_dense_grid(self):
        args = (2.0, 6.0, 0.1, 1.5, 40.0)
        assert _fuse(*args)[0] == pytest.approx(_grid_maxima(*args)[0], rel=1e-4)

    def test_boundary_clamp(self):
        d_hat, status = _fuse(x1=120.0, x2=39.0, sigma_r=0.05, sigma_c=2.0, d_th=40.0)
        assert d_hat == 40.0
        assert status == BOUNDARY_CLAMPED

    @pytest.mark.parametrize(
        "x1, x2, sigma_r, sigma_c, expected",
        [(1.0, 37.5, 0.08, 2.0, 1.6532), (1.0, 30.0, 0.05, 1.0, 17.7939)],
        ids=["near_wins", "far_wins"],
    )
    def test_two_maxima(self, x1, x2, sigma_r, sigma_c, expected):
        best, local = _grid_maxima(x1, x2, sigma_r, sigma_c, 40.0)
        assert len(local) == 2
        d_hat, status = _fuse(x1, x2, sigma_r, sigma_c, 40.0)
        assert status == INTERIOR
        assert d_hat == pytest.approx(best, rel=1e-4)
        assert d_hat == pytest.approx(expected, abs=1e-4)

    def test_stationarity_residual_small_when_interior(self):
        rng = np.random.default_rng(41)
        interior = 0
        for _ in range(100):
            args = (
                float(rng.uniform(0.5, 35.0)),
                float(rng.uniform(0.0, 40.0)),
                float(rng.uniform(0.05, 0.3)),
                float(rng.uniform(0.5, 8.0)),
            )
            d_hat, status = _fuse(*args)
            if status == INTERIOR:
                interior += 1
                d0 = 0.5 * (args[0] + args[1])
                budget = 1e-6 * (1.0 + abs(_s(d0, *args)))
                assert abs(_s(d_hat, *args)) <= budget
        assert interior > 50

    def test_deterministic(self):
        args = (4.2, 17.0, 0.2, 3.0)
        assert _fuse(*args) == _fuse(*args)

    @pytest.mark.parametrize("x2", [0.0, 3.0, 40.0])
    def test_smallest_subnormal_rss_estimate(self, x2):
        # x1 / e underflows to 0 here; the estimate must stay in (0, d_th]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            d_hat, _ = _fuse(x1=5e-324, x2=x2)
        assert 0.0 < d_hat <= 40.0
        # the RSS term dominates by hundreds of decades: the peak sits at x1
        assert d_hat < 1e-300


def _random_pairs(rng, n):
    x1 = 40.0 * 10.0 ** rng.uniform(-1.3, 0.25, n)
    x2 = rng.uniform(0.0, 40.0, n)
    sigma_r = rng.uniform(0.05, 0.35, n)
    sigma_c = 40.0 * rng.uniform(0.03, 0.4, n)
    return x1, x2, sigma_r, sigma_c


def _bisection_reference(x1, x2, sigma_r, sigma_c, d_th):
    """The earlier solver: the same brackets and selection, roots bisected to adjacent doubles."""
    a, b = 1.0 / (sigma_r * LN10) ** 2, 1.0 / sigma_c**2
    s = functools.partial(stationarity, np.log(x1), x2, a, b)
    disc = x2 * x2 - 8.0 * a / b
    far = 0.25 * (x2 + np.sqrt(np.abs(disc)))
    near, far = (np.where((disc > 0.0) & (t < d_th), t, d_th) for t in (a / (2.0 * b * far), far))
    d0 = np.maximum(0.5 * np.minimum(x1 / math.e, np.sqrt(a / b)), 5e-324)
    lo, hi = np.stack([np.minimum(d0, near), far]), np.stack([near, d_th])
    usable = ((s(lo) > 0.0) | [[True], [False]]) & (lo < hi) & (s(hi) <= 0.0)
    lo = np.where(usable, lo, hi)
    while (open_ := (lo < (mid := 0.5 * (lo + hi))) & (mid < hi)).any():
        rising = s(mid) > 0.0
        lo, hi = np.where(open_ & rising, mid, lo), np.where(open_ & ~rising, mid, hi)
    cand = np.concatenate([d_th[None], np.where(usable, lo, d_th)])
    t = np.log10(x1) - np.log10(cand)
    pen = t * t * (0.5 / sigma_r**2) + (x2 - cand) ** 2 * (0.5 * b)
    winner = np.take_along_axis(cand, np.argmin(pen, axis=0)[None], axis=0)[0]
    clamped = d_th - winner <= 1e-9 * d_th
    return np.where(clamped, d_th, winner), np.where(clamped, BOUNDARY_CLAMPED, INTERIOR)


class TestFuseArrays:
    def test_matches_bisection_reference(self):
        rng = np.random.default_rng(45)
        n = 10**4
        d_th = rng.uniform(20.0, 100.0, n)
        x1 = d_th * 10.0 ** rng.uniform(-1.3, 0.25, n)
        x2 = d_th * rng.uniform(0.0, 1.0, n)
        sigma_r, sigma_c = rng.uniform(0.05, 0.35, n), d_th * rng.uniform(0.03, 0.4, n)
        x1[:40] = 5e-324
        # the two inputs of test_two_maxima, whose likelihood has two local maxima
        two = np.array([(1.0, 37.5, 0.08, 2.0, 40.0), (1.0, 30.0, 0.05, 1.0, 40.0)]).T
        x1, x2, sigma_r, sigma_c, d_th = (
            np.concatenate([v, w]) for v, w in zip((x1, x2, sigma_r, sigma_c, d_th), two))
        d_hat, status = rf.fusion.fuse_arrays(x1, x2, sigma_r, sigma_c, d_th)
        d_ref, status_ref = _bisection_reference(x1, x2, sigma_r, sigma_c, d_th)
        assert (status == status_ref).all()
        # Rounding moves s by less than the stop rule's floor 8 eps T, with
        # T = A (|ln x1| + |ln d|) + B d (x2 + d), the size of s's terms; so
        # each solver's root lies within 8 eps T / |ds/d(ln d)| of the exact
        # one in ln d, the two within twice that plus an ulp of the
        # bisection's last halving. At T / |ds/d(ln d)| = 28 that budget is
        # 16 eps * 28 + 2 eps = 1.0e-13; only the subnormal rows (about 1500,
        # with both roots at the smallest double) and two near-double roots
        # of this corpus have a larger ratio.
        a, b = 1.0 / (sigma_r * LN10) ** 2, 1.0 / sigma_c**2
        terms = a * (np.abs(np.log(x1)) + np.abs(np.log(d_ref))) + b * d_ref * (x2 + d_ref)
        ratio = terms / np.abs(b * d_ref * (x2 - 2.0 * d_ref) - a)
        gap = np.abs(d_hat - d_ref) / d_ref
        assert (gap <= 16.0 * EPS * ratio + 2.0 * EPS).all()
        assert gap.max() <= 1e-13

    def test_batch_matches_one_pair_calls(self):
        x1, x2, sigma_r, sigma_c = _random_pairs(np.random.default_rng(43), 300)
        d_hat, status = rf.fusion.fuse_arrays(x1, x2, sigma_r, sigma_c, 40.0)
        for k in range(x1.size):
            assert (d_hat[k], status[k]) == _fuse(x1[k], x2[k], sigma_r[k], sigma_c[k])
        assert {BOUNDARY_CLAMPED, INTERIOR} == set(status)

    def test_per_pair_cutoff_matches_one_pair_calls(self):
        rng = np.random.default_rng(44)
        x1, x2, sigma_r, sigma_c = _random_pairs(rng, 300)
        scale = rng.uniform(0.5, 2.5, 300)
        x1, x2, sigma_c, d_th = x1 * scale, x2 * scale, sigma_c * scale, 40.0 * scale
        d_hat, status = rf.fusion.fuse_arrays(x1, x2, sigma_r, sigma_c, d_th)
        for k in range(d_th.size):
            assert (d_hat[k], status[k]) == _fuse(x1[k], x2[k], sigma_r[k], sigma_c[k], d_th[k])
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
        d_th = 40.0
        d_hat, _ = _fuse(x1, x2, sigma_r, sigma_c, d_th)
        assert 0.0 < d_hat <= d_th
        best = penalty(x1, x2, sigma_r, sigma_c, d_hat)
        assert best <= penalty(x1, x2, sigma_r, sigma_c, min(x1, d_th)) + 1e-9
        if x2 > 0.0:
            assert best <= penalty(x1, x2, sigma_r, sigma_c, x2) + 1e-9

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
        low, _ = _fuse(x1, x2, sigma_r, sigma_c)
        high, _ = _fuse(x1, min(x2 + bump, d_th), sigma_r, sigma_c)
        assert high >= low - 1e-6 * d_th
