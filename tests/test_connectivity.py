import functools
import math
import operator
import re
import tempfile
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy import integrate, special

import rangefuse as rf
from rangefuse.fdtable import invert_counts
from conftest import PARAMS_44, PARAMS_DISK, PARAMS_FIELD, PARAMS_SHARP, save_damaged_table

LN10 = math.log(10.0)
# wide channels: sigma_r 0.469 and 0.625
PARAMS_WIDE = rf.ChannelParams(p_ref_dbm=-37.47, alpha=1.6, sigma_db=7.5, rss_threshold_dbm=-49.0)
PARAMS_WIDER = rf.ChannelParams(p_ref_dbm=-37.47, alpha=2.0, sigma_db=12.5,
                                rss_threshold_dbm=-55.0)


def _poisson_triples(model, intensity, d, trials, seed):
    rng = np.random.default_rng(seed)
    f_true = rf.eval_fd(model, d)
    m = rng.poisson(intensity * f_true, trials)
    p = rng.poisson(intensity * (model.s_mass - f_true), trials)
    q = rng.poisson(intensity * (model.s_mass - f_true), trials)
    return m, p, q


class TestUnitDiskF:
    def test_full_overlap(self):
        assert rf.unit_disk_f(1.0, 0.0) == pytest.approx(math.pi, rel=1e-14)

    def test_tangent_disks(self):
        assert rf.unit_disk_f(1.0, 2.0) == 0.0

    def test_half_separation_value(self):
        # 2*pi/3 - sqrt(3)/2
        assert rf.unit_disk_f(1.0, 1.0) == pytest.approx(1.22836969860876, rel=1e-13)

    def test_domain_errors(self):
        for bad_r, bad_d in ((0.0, 0.5), (1.0, -0.1), (1.0, 2.1)):
            with pytest.raises(ValueError):
                rf.unit_disk_f(bad_r, bad_d)

    def test_strictly_decreasing(self):
        d = np.linspace(0.0, 2.0, 200)
        values = rf.unit_disk_f(1.0, d)
        assert np.all(np.diff(values) < 0)

    def test_derivative(self):
        r = 3.0
        for d in (0.3, 1.5, 2.9, 4.5):
            h = 1e-5 * r
            numeric = (rf.unit_disk_f(r, d + h) - rf.unit_disk_f(r, d - h)) / (2 * h)
            analytic = -2.0 * math.sqrt(r * r - d * d / 4.0)
            assert numeric == pytest.approx(analytic, rel=1e-6)


class TestGenericS:
    def test_unit_disk_limit(self):
        p = rf.ChannelParams(p_ref_dbm=-37.47, alpha=4.0, sigma_db=0.0,
                             rss_threshold_dbm=-77.47)
        assert rf.generic_s(p) == math.pi * 100.0

    def test_near_step_matches_disk_area(self):
        assert rf.generic_s(PARAMS_SHARP) == pytest.approx(math.pi * 100.0, rel=0.005)

    @pytest.mark.parametrize("params", [PARAMS_44, PARAMS_FIELD], ids=["p44", "field"])
    def test_matches_radial_quadrature(self, params):
        # u = r e^t turns the radial integral into 2 pi r^2 int e^(2t) Q(t/beta) dt
        # with beta = sigma_r ln 10; the window drops a lower tail of
        # e^(-80 beta - 10) / 2, which is 4e-13 of the value for p44
        r, beta = rf.pseudo_range(params), params.sigma_r * LN10
        value, _ = integrate.quad(lambda t: math.exp(2.0 * t) * special.ndtr(-t / beta),
                                  -40.0 * beta - 5.0, 40.0 * beta, epsabs=0.0,
                                  epsrel=1e-13, limit=200)
        assert rf.generic_s(params) == pytest.approx(2.0 * math.pi * r * r * value, rel=1e-10)

    def test_scaling_law(self):
        # halving the threshold power by 10*alpha*log10(2) dB doubles the range
        shifted = rf.ChannelParams(
            p_ref_dbm=PARAMS_44.p_ref_dbm,
            alpha=PARAMS_44.alpha,
            sigma_db=PARAMS_44.sigma_db,
            rss_threshold_dbm=PARAMS_44.rss_threshold_dbm
            - 10.0 * PARAMS_44.alpha * math.log10(2.0),
        )
        assert rf.pseudo_range(shifted) == pytest.approx(
            2.0 * rf.pseudo_range(PARAMS_44), rel=1e-12
        )
        assert rf.generic_s(shifted) == pytest.approx(
            4.0 * rf.generic_s(PARAMS_44), rel=1e-5
        )


def _chord_area(a, b, d):
    """Intersection area of two disks by adaptive quadrature over chords parallel to the axis.

    The widths are differences of numbers up to max(a, b, d), so each is
    off by a few ulps of that, which caps the absolute accuracy; where the
    circles cross, at +-h, the width has a kink, which is a break.
    """
    def width(y):
        half_a, half_b = math.sqrt(a * a - y * y), math.sqrt(max(b * b - y * y, 0.0))
        return max(0.0, min(half_a, d + half_b) - max(-half_a, d - half_b))
    x = (d * d + a * a - b * b) / (2.0 * d)
    h = math.sqrt(max(a * a - x * x, 0.0))
    value, _ = integrate.quad(width, -min(a, b), min(a, b), epsabs=_chord_floor(a, b, d),
                              epsrel=1e-12, limit=200,
                              points=[-h, h] if h < min(a, b) else None)
    return value


def _chord_floor(a, b, d):
    """Absolute accuracy _chord_area can reach: 4 ulps of the widest width, over the chords."""
    return 4.0 * np.finfo(float).eps * max(a, b, d) * 2.0 * min(a, b)


# Rounding in the closed-form lens, from the conditioning of its terms in
# the two cosines. A cosine c = (d^2 + a^2 - b^2) / (2 d a) is formed in a
# handful of roundings, so it is off by about _LENS_ROUNDINGS eps
# (d^2 + a^2 + b^2) / (2 d a). An error e in c moves the angle arccos(c)
# by e / sin and the chord term d a sqrt((1 - c)(1 + c)) by d a |c| e / sin,
# where sin = sqrt(1 - c^2) goes to 0 as c nears +-1: there the lens is
# only good to (a^2 + d a) e_a / sin(alpha) + b^2 e_b / sin(beta). The three
# terms and their sum add a rounding each of their own size.
_LENS_ROUNDINGS = 8


def _lens_tolerance(a, b, d):
    """Absolute rounding error of the closed-form lens, by the bound above."""
    eps = _LENS_ROUNDINGS * np.finfo(float).eps
    cos_a = (d * d + a * a - b * b) / (2.0 * d * a)
    cos_b = (d * d + b * b - a * a) / (2.0 * d * b)
    sin_a = math.sqrt((1.0 - cos_a) * (1.0 + cos_a))
    sin_b = math.sqrt((1.0 - cos_b) * (1.0 + cos_b))
    spread = d * d + a * a + b * b
    angle_a = spread / (2.0 * d * a) / sin_a  # per eps of error in the cosine
    angle_b = spread / (2.0 * d * b) / sin_b
    terms = a * a * math.acos(cos_a) + b * b * math.acos(cos_b) + d * a * sin_a
    return eps * ((a * a + d * a) * angle_a + b * b * angle_b + terms)


def _lens_out_of_place(a, b, d):
    """The lens area as one expression per term, with numpy's temporaries: _lens's oracle."""
    a2, b2 = a * a, b * b
    with np.errstate(divide="ignore", invalid="ignore"):
        cos_a = np.clip((d * d + a2 - b2) / (2.0 * d * a), -1.0, 1.0)
        cos_b = np.clip((d * d + b2 - a2) / (2.0 * d * b), -1.0, 1.0)
    lens = (a2 * np.arccos(cos_a) + b2 * np.arccos(cos_b)
            - d * a * np.sqrt((1.0 - cos_a) * (1.0 + cos_a)))
    at_zero = d == 0.0
    if np.any(at_zero):
        small = np.minimum(a, b)
        lens = np.where(at_zero, math.pi * small * small, lens)
    return lens


def _lens_batch(seed, nodes=40, columns=60):
    """Radii a (columns,), b (nodes, columns) and distances d (columns,), laid out as _lens_rule
    lays them out, with each column nested, disjoint, near-tangent, coincident or crossing."""
    rng = np.random.default_rng(seed)
    u = lambda lo, hi: rng.uniform(lo, hi, (nodes, 1))
    a = rng.uniform(0.1, 5.0, columns)
    d = np.empty(columns)
    b = np.empty((nodes, columns))
    for j in range(columns):
        kind = j % 7
        if kind == 0:  # a inside b
            d[j] = a[j] * rng.uniform(0.0, 1.0)
            b[:, j:j + 1] = a[j] + d[j] + u(1e-3, 3.0)
        elif kind == 1:  # b inside a
            d[j] = a[j] * rng.uniform(0.0, 0.9)
            b[:, j:j + 1] = (a[j] - d[j]) * u(0.01, 1.0)
        elif kind == 2:  # disjoint
            d[j] = a[j] + rng.uniform(0.5, 5.0)
            b[:, j:j + 1] = (d[j] - a[j]) * u(0.01, 0.999)
        elif kind == 3:  # touching from outside, within 1e-12 relative
            d[j] = a[j] + rng.uniform(0.5, 5.0)
            b[:, j:j + 1] = (d[j] - a[j]) * (1.0 + u(-1e-12, 1e-12))
        elif kind == 4:  # a touching the inside of b, within 1e-12 relative
            d[j] = a[j] * rng.uniform(0.1, 2.0)
            b[:, j:j + 1] = (a[j] + d[j]) * (1.0 + u(-1e-12, 1e-12))
        elif kind == 5:  # d = 0, some rows with equal radii
            d[j] = 0.0
            b[:, j:j + 1] = u(0.1, 5.0)
            b[:3, j] = a[j]
        else:  # crossing
            d[j] = a[j] * rng.uniform(0.5, 1.5)
            b[:, j:j + 1] = abs(d[j] - a[j]) + u(0.0, 1.0) * (d[j] + a[j] - abs(d[j] - a[j]))
    return a, b, d


class TestLens:
    """The closed-form disk intersection area that the lens rule integrates."""

    def test_in_place_passes_keep_the_bits_of_the_formula(self):
        a, b, d = _lens_batch(34)
        copies = a.copy(), b.copy(), d.copy()
        lens = rf.connectivity._lens(a, b, d)
        assert lens.shape == b.shape
        assert lens.tobytes() == _lens_out_of_place(a, b, d).tobytes()
        for arg, copy in zip((a, b, d), copies):
            assert arg.tobytes() == copy.tobytes()
        # the other layouts TestLens calls: 2-D rows with a d column, one
        # distance for all, and 0-d radii with a float distance
        for args in ((a[:6, None], b[:6], d[:6, None]), (a, b[:8], 2.5),
                     (np.array(1.0), np.array(3.0), 2.9), (np.array(2.0), np.array(2.0), 0.0)):
            assert (np.asarray(rf.connectivity._lens(*args)).tobytes()
                    == np.asarray(_lens_out_of_place(*args)).tobytes())

    @pytest.mark.parametrize("a, b, d", [(1.0, 1.0, 0.7), (2.0, 1.0, 2.5), (1.0, 3.0, 2.9)],
                             ids=["equal", "wider-first", "wider-second"])
    def test_matches_chord_quadrature(self, a, b, d):
        lens = float(rf.connectivity._lens(np.array(a), np.array(b), d))
        assert lens == pytest.approx(_chord_area(a, b, d), rel=1e-10)

    def test_equal_radii_give_unit_disk_f(self):
        d = np.linspace(0.0, 20.0, 41)
        lens = [float(rf.connectivity._lens(np.array(10.0), np.array(10.0), float(x)))
                for x in d]
        assert lens == pytest.approx(rf.unit_disk_f(10.0, d), rel=1e-12, abs=1e-12)

    def test_symmetric_in_the_radii(self):
        rng = np.random.default_rng(26)
        a, b = rng.uniform(0.1, 5.0, 1000), rng.uniform(0.1, 5.0, 1000)
        lens = rf.connectivity._lens
        assert lens(a, b, 3.0) == pytest.approx(lens(b, a, 3.0), rel=1e-12, abs=1e-12)

    def test_disjoint_and_nested_disks(self):
        a, b = np.array([1.0, 1.0, 4.0, 1.0]), np.array([1.0, 1.5, 1.0, 5.0])
        lens = rf.connectivity._lens(a, b, 2.5)
        assert np.array_equal(lens[:2], [0.0, 0.0])
        assert lens[2:] == pytest.approx([math.pi, math.pi], rel=1e-15)
        assert np.array_equal(rf.connectivity._lens(a, b, 0.0), math.pi * np.minimum(a, b) ** 2)

    # a cosine within 1e-12 of 1 (the disks nearly touch from outside) or of
    # -1 (the first or the second disk nearly lies inside the other)
    @pytest.mark.parametrize("a, b, d, cosine", [
        (1.0, 1.0, 2.0 - 1e-12, 1.0), (1.0, 2.0, 3.0 - 1e-12, 1.0),
        (1.0, 3.0, 2.0 + 5e-13, -1.0), (3.0, 1.0, 2.0 + 5e-13, 1.0)],
        ids=["tangent-equal", "tangent-unequal", "nested-first", "nested-second"])
    def test_near_tangent_and_near_nested_disks(self, a, b, d, cosine):
        cos_a = (d * d + a * a - b * b) / (2.0 * d * a)
        assert 0.0 < cosine * (cosine - cos_a) <= 1e-12
        lens = float(rf.connectivity._lens(np.array(a), np.array(b), d))
        oracle = _chord_area(a, b, d)
        tolerance = _lens_tolerance(a, b, d) + _chord_floor(a, b, d) + 1e-12 * oracle
        assert abs(lens - oracle) <= tolerance

    def test_zero_distance_rows_in_a_batch(self):
        rng = np.random.default_rng(28)
        a, b = rng.uniform(0.1, 5.0, (6, 1)), rng.uniform(0.1, 5.0, (6, 50))
        b[0, :2] = a[0, 0]  # equal radii at d = 0, where a cosine is 0/0
        d = np.array([0.0, 2.0, 0.0, 0.5, 7.0, 0.0])[:, None]
        lens = rf.connectivity._lens(a, b, d)
        zero = d[:, 0] == 0.0
        small = np.minimum(a, b)[zero]
        assert np.array_equal(lens[zero], math.pi * small * small)
        for i in np.flatnonzero(~zero):
            assert np.array_equal(lens[i], rf.connectivity._lens(a[i], b[i], float(d[i, 0])))


class TestGenericF:
    def test_noise_free_equals_lens_area(self):
        r = rf.pseudo_range(PARAMS_DISK)
        for d in (0.0, r / 2, r, 1.5 * r):
            assert rf.generic_f(PARAMS_DISK, d) == rf.unit_disk_f(r, d)
        assert rf.generic_f(PARAMS_DISK, 2.5 * r) == 0.0

    def test_overlap_at_zero_is_below_mass(self):
        f0 = rf.generic_f(PARAMS_44, 0.0)
        assert f0 < rf.generic_s(PARAMS_44)

    @pytest.mark.parametrize("params", [PARAMS_44, PARAMS_FIELD, PARAMS_SHARP, PARAMS_WIDE,
                                        PARAMS_WIDER],
                             ids=["p44", "field", "sharp", "wide", "wider"])
    def test_coincident_nodes_match_closed_form(self, params):
        # f(0) = 2 pi r^2 int e^(2t) Q(t/beta)^2 dt = pi r^2 e^(2 beta^2) erfc(beta)
        r, beta = rf.pseudo_range(params), params.sigma_r * LN10
        exact = math.pi * r * r * math.exp(2.0 * beta * beta) * math.erfc(beta)
        assert rf.generic_f(params, 0.0) == pytest.approx(exact, rel=1e-9)

    def test_nonincreasing(self, model44):
        values = model44.knots_f
        assert np.all(np.diff(values) < 0)

    def test_far_separation_is_negligible(self):
        params = PARAMS_44
        r = rf.pseudo_range(params)
        # both link factors are under 1e-6 at the crossover point
        z6 = -float(special.ndtri(1e-6))
        d_far = 2.0 * r * 10.0 ** (z6 * params.sigma_db / (10.0 * params.alpha))
        s = rf.generic_s(params)
        value = rf.generic_f(params, d_far, quad_tol=1e-3)
        assert value < 1e-3 * s
        # Monte Carlo integration oracle over the union bounding box
        rng = np.random.default_rng(21)
        r_max = rf.threshold_distance(params) * 2.0
        half_x = d_far / 2.0 + r_max
        n = 10**7
        x = rng.uniform(-half_x, half_x, n)
        y = rng.uniform(-r_max, r_max, n)
        da = np.hypot(x + d_far / 2.0, y)
        db = np.hypot(x - d_far / 2.0, y)
        g = lambda u: rf.link_probability(params, np.maximum(u, 1e-12))
        vals = g(da) * g(db)
        area = 4.0 * half_x * r_max
        mc = area * vals.mean()
        se = area * vals.std() / math.sqrt(n)
        assert abs(value - mc) <= 3.0 * se + 1e-6 * s

    @pytest.mark.parametrize("d", [-1.0, math.nan, [30.0, -1.0]])
    def test_rejects_negative_distance(self, d):
        with pytest.raises(ValueError, match="d must be nonnegative and finite, got (-1.0|nan)$"):
            rf.generic_f(PARAMS_44, d)

    # every link radius is at most r e^(9k) on the rule's domain, so disks
    # farther apart than twice that never meet; d * d used to overflow here
    @pytest.mark.parametrize("far", [1e155, 1e200, 1e307, 1.7e308])
    def test_disks_beyond_reach_give_zero(self, far):
        assert rf.generic_f(PARAMS_44, far) == 0.0
        knots_d = np.linspace(0.0, rf.threshold_distance(PARAMS_44), 4)
        mixed = rf.generic_f(PARAMS_44, np.array([knots_d[0], far, knots_d[1], far, knots_d[3]]))
        assert np.array_equal(mixed[[1, 3]], [0.0, 0.0])
        alone = [rf.generic_f(PARAMS_44, d) for d in knots_d[[0, 1, 3]]]
        assert mixed[[0, 2, 4]].tobytes() == np.array(alone).tobytes()

    def test_unreachable_tolerance_raises(self):
        with pytest.raises(rf.NumericError):
            rf.generic_f(PARAMS_44, 30.0, quad_tol=1e-15)

    def test_rounding_floor_is_reachable(self):
        floor = rf.connectivity.QUAD_TOL_FLOOR
        value = rf.generic_f(PARAMS_44, 30.0, quad_tol=floor)
        assert value == pytest.approx(_adaptive_f(PARAMS_44, 30.0), rel=1e-10)

    @pytest.mark.parametrize("quad_tol", [math.inf, math.nan, 0.0, -1e-6])
    @pytest.mark.parametrize("params", [PARAMS_44, PARAMS_DISK], ids=["p44", "disk"])
    def test_rejects_tolerance_not_positive_and_finite(self, params, quad_tol):
        with pytest.raises(ValueError, match="quad_tol must be positive and finite"):
            rf.generic_f(params, 30.0, quad_tol=quad_tol)

    def test_levels_that_never_agree_raise(self, monkeypatch):
        # levels 1 and 2 only; they differ by 7.9e-8 relative here (f = 177.07),
        # and the message quotes that relative gap, not the absolute 1.4e-5
        monkeypatch.setattr(rf.connectivity, "_MAX_PANELS", 2)
        with pytest.raises(rf.NumericError, match="did not converge") as raised:
            rf.generic_f(PARAMS_SHARP, 7.0, quad_tol=1e-10)
        gap = re.search(r"\(last relative change (\S+) at 2 panels per interval\)$",
                        str(raised.value))
        assert gap is not None, str(raised.value)
        assert 1e-10 < float(gap.group(1)) < 1e-6


class TestThresholdDistance:
    def test_matches_tail_inverse(self):
        r = rf.pseudo_range(PARAMS_44)
        z = -float(special.ndtri(1e-3))
        expected = r * 10.0 ** (z * PARAMS_44.sigma_db / (10.0 * PARAMS_44.alpha))
        assert rf.threshold_distance(PARAMS_44) == pytest.approx(expected, rel=1e-10)

    def test_brackets_the_cutoff(self):
        d_th = rf.threshold_distance(PARAMS_44)
        assert rf.link_probability(PARAMS_44, d_th) <= 1e-3
        assert rf.link_probability(PARAMS_44, 0.999 * d_th) > 1e-3

    # the cutoffs written into the committed benchmark reference tables
    @pytest.mark.parametrize("params, d_th", [
        (PARAMS_44, 74.52006595742904),
        (PARAMS_FIELD, 19.44719568944847),
        (PARAMS_SHARP, 10.017804638574134),
    ], ids=["p44", "field", "sharp"])
    def test_bit_for_bit(self, params, d_th):
        assert rf.threshold_distance(params) == d_th

    def test_noise_free_cutoff_is_pseudo_range(self):
        assert rf.threshold_distance(PARAMS_DISK) == pytest.approx(
            rf.pseudo_range(PARAMS_DISK), rel=1e-12
        )

    def test_equals_a_bisection_on_scipy_erfc(self):
        # the bisection of threshold_distance, with the link law in scipy's erfc
        # in place of the package's math.erfc kernel: same cutoff, to the bit
        def scipy_cutoff(params):
            r = rf.pseudo_range(params)
            scale = 10.0 * params.alpha / params.sigma_db

            def link(d):
                x = scale * np.log10(np.maximum(np.asarray(d), 1e-300) / r)
                return float(0.5 * special.erfc(x / math.sqrt(2.0)))

            lo, hi = r, 100.0 * r
            assert link(hi) <= 1e-3
            for _ in range(200):
                mid = 0.5 * (lo + hi)
                if link(mid) <= 1e-3:
                    hi = mid
                else:
                    lo = mid
                if hi - lo <= 1e-15 * hi:
                    break
            return hi

        rng = np.random.default_rng(30)
        for _ in range(300):
            alpha, sigma_r = rng.uniform(1.0, 6.0), rng.uniform(0.005, 0.647)
            p_ref = rng.uniform(-80.0, -20.0)
            params = rf.ChannelParams(p_ref_dbm=p_ref, alpha=alpha, sigma_db=10.0 * alpha * sigma_r,
                                      rss_threshold_dbm=p_ref - rng.uniform(5.0, 90.0),
                                      d0=rng.uniform(0.1, 10.0))
            assert rf.threshold_distance(params) == scipy_cutoff(params), params


def _adaptive_f(params, d, quad_tol=1e-10):
    """Nested adaptive quadrature of f(d), an oracle independent of the lens rule.

    It integrates the product of the two link probabilities over the plane:
    scipy's adaptive quad in radius (split where a link transition circle
    touches the pair axis) around a 10-point Gauss-Legendre angle rule over
    [0, pi] with edges at the transition crossings; the angle panels double
    from 16 until two results agree within quad_tol relative.
    """
    r = rf.pseudo_range(params)
    halfwidth = 6.0 * params.sigma_db / (10.0 * params.alpha)
    r_edges = (r * 10.0 ** -halfwidth, r, r * 10.0 ** halfwidth)
    # the oracle's own outer radius: where the link probability falls to 1e-9
    r_max = r * 10.0 ** (-special.ndtri(1e-9) * params.sigma_db / (10.0 * params.alpha))
    nodes, weights = np.polynomial.legendre.leggauss(10)
    nodes, weights = 0.5 * (nodes + 1.0), 0.5 * weights

    def g(u):
        return rf.link_probability(params, np.maximum(u, 1e-300))

    def angular(rho, n_uniform):
        base = rho * rho + d * d / 4.0
        edges = [np.linspace(0.0, math.pi, n_uniform + 1)]
        for r_t in r_edges:
            c = (r_t * r_t - base) / (rho * d) if d > 0.0 and rho > 0.0 else 2.0
            if -1.0 < c < 1.0:
                edges.append([math.acos(c), math.pi - math.acos(c)])
        edges = np.unique(np.concatenate(edges))
        widths = np.diff(edges)[:, None]
        cross = rho * d * np.cos(edges[:-1, None] + widths * nodes)
        ra = np.sqrt(np.maximum(base + cross, 0.0))
        rb = np.sqrt(np.maximum(base - cross, 0.0))
        return float(np.sum(g(ra) * g(rb) * widths * weights))

    r_outer = d / 2.0 + r_max
    breaks = sorted({x for r_t in (*r_edges, r_max) for x in (abs(r_t - d / 2.0), r_t + d / 2.0)
                     if 0.0 < x < r_outer})

    def radial(n_uniform):
        value, _, _, *message = integrate.quad(
            lambda rho: 2.0 * rho * angular(rho, n_uniform), 0.0, r_outer,
            points=breaks, epsabs=0.0, epsrel=0.5 * quad_tol, limit=300, full_output=True)
        assert not message, message
        return value

    n_uniform = 16
    previous = radial(n_uniform)
    while True:
        n_uniform *= 2
        current = radial(n_uniform)
        if abs(current - previous) <= quad_tol * abs(current):
            return current
        assert n_uniform < 8192, "oracle did not converge"
        previous = current


REF_DIR = Path(__file__).resolve().parents[1] / "benchmarks" / "ref"


@pytest.fixture(scope="module")
def model_wide():
    return rf.build_fd_model(PARAMS_WIDE)


class TestTableAccuracy:
    """The default 64-knot, 1e-6 tables against references and an adaptive oracle."""

    @pytest.mark.parametrize("fixture, name", [
        ("model44", "p44"), ("model_field", "field"), ("model_sharp", "sharp"),
    ])
    def test_within_quad_tol_of_reference_table(self, request, fixture, name):
        model = request.getfixturevalue(fixture)
        ref = rf.load_fd_model(REF_DIR / f"fd_{name}_64_1e-06.txt")
        assert model.params == ref.params
        np.testing.assert_array_equal(model.knots_d, ref.knots_d)
        gap = np.abs(model.knots_f - ref.knots_f) / ref.knots_f
        assert gap.max() <= 1e-6
        assert model.s_mass == pytest.approx(ref.s_mass, rel=1e-6)

    @pytest.mark.parametrize("fixture, params, knots", [
        ("model44", PARAMS_44, (0, 20, 63)),
        ("model_field", PARAMS_FIELD, (0, 16, 40)),
        # the reference table is 6e-7 off the oracle at sharp knot 10
        ("model_sharp", PARAMS_SHARP, (0, 10, 40)),
        # 2.3e-9 off at knot 63, the widest gap of the four channels
        ("model_wide", PARAMS_WIDE, (0, 27, 63)),
    ])
    def test_knots_match_adaptive_oracle(self, request, fixture, params, knots):
        model = request.getfixturevalue(fixture)
        for k in knots:
            oracle = _adaptive_f(params, float(model.knots_d[k]))
            assert model.knots_f[k] == pytest.approx(oracle, rel=1e-8), k

    def test_wide_channel_meets_quad_tol_at_d_th(self):
        d_th = rf.threshold_distance(PARAMS_WIDE)
        assert rf.generic_f(PARAMS_WIDE, d_th) == pytest.approx(
            rf.generic_f(PARAMS_WIDE, d_th, quad_tol=1e-10), rel=1e-8)


class TestZDomain:
    """The lens rule's z_a draw and z_b band end at +-9 with nothing left beyond."""

    @pytest.mark.parametrize("params", [PARAMS_44, PARAMS_FIELD, PARAMS_SHARP, PARAMS_WIDE,
                                        PARAMS_WIDER],
                             ids=["p44", "field", "sharp", "wide", "wider"])
    def test_widening_the_domain_leaves_f(self, monkeypatch, params):
        # the closed-form z_b tail runs to infinity either way, and the z_a
        # intervals and band intervals inside [-9, 9] stay as they are, so the
        # two sums differ by the z_a rows and band beyond +-9 and by rounding
        conn = rf.connectivity
        knots = np.linspace(0.0, rf.threshold_distance(params), 5)
        narrow = conn._lens_rule(params, knots, 8)
        monkeypatch.setattr(conn, "_Z_BREAKS", np.concatenate([[-12.0], conn._Z_BREAKS, [12.0]]))
        wide = conn._lens_rule(params, knots, 8)
        assert wide == pytest.approx(narrow, rel=1e-14, abs=0.0)

    def test_accepted_channels_weigh_inside_the_domain(self):
        # E[pi rho^2] weighs z by phi(z) e^(2kz), which peaks at z = 2k;
        # threshold_distance accepts sigma_r up to 0.6472 (the link probability
        # at 100 r is Q(2 / sigma_r)), so the peak lies at z < 3, six standard
        # deviations inside the domain
        def channel(sigma_r):
            return rf.ChannelParams(p_ref_dbm=-37.47, alpha=2.0, sigma_db=20.0 * sigma_r,
                                    rss_threshold_dbm=-55.0)
        rf.threshold_distance(channel(0.647))
        with pytest.raises(rf.ModelConstructionError):
            rf.threshold_distance(channel(0.648))
        assert 2.0 * 0.648 * LN10 < 3.0


def _full_plane_lens_rule(params, d, n):
    """_lens_rule over the whole (z_a, z_b) plane, with both closed-form z_b tails: its oracle.

    The same z_a grid and band panels, but each row's band starts at z_lo,
    not at max(z_lo, z_a), and below the band the lens is pi rho_b^2 where b
    is nested in a, which weighs S Q(2k - z_lo). It computes every crossing
    pair of disks once in each order, and the sum is not doubled.
    """
    conn = rf.connectivity
    r, k = rf.pseudo_range(params), params.sigma_r * LN10
    steps, weights = conn._panel_steps(n)
    with np.errstate(divide="ignore"):
        z = np.clip(np.log(np.stack([d / 2.0, d], axis=1) / r) / k,
                    conn._Z_BREAKS[0], conn._Z_BREAKS[-1])
    edges = np.sort(np.concatenate(
        [np.broadcast_to(conn._Z_BREAKS, (d.size, conn._Z_BREAKS.size)), z], axis=1), axis=1)
    lo, width = edges[:, :-1, None], np.diff(edges)[:, :, None]
    shape = (d.size, (edges.shape[1] - 1) * steps.size)
    z_a = (lo + width * steps).reshape(shape)
    w_a = (width * weights).reshape(shape) * conn._normal_pdf(z_a)
    rows = np.flatnonzero(w_a)
    d_rows = np.repeat(d, z_a.shape[1])[rows]
    rho_rows = r * np.exp(k * z_a.ravel()[rows])
    inner = np.zeros(w_a.size)
    for start in range(0, rows.size, conn._BLOCK_ROWS):
        rho = rho_rows[start:start + conn._BLOCK_ROWS]
        d_row = d_rows[start:start + conn._BLOCK_ROWS]
        z_lo, z_hi = conn._band(params, rho, d_row)
        band_lo = np.maximum(z_lo[:, None], conn._Z_BREAKS[:-1])
        band_width = np.minimum(z_hi[:, None], conn._Z_BREAKS[1:]) - band_lo
        cells = np.flatnonzero(band_width > 0.0)
        owner = cells // (conn._Z_BREAKS.size - 1)
        band_lo, band_width = band_lo.ravel()[cells], band_width.ravel()[cells]
        z_b = band_lo + band_width * steps[:, None]
        w_b = band_width * weights[:, None] * conn._normal_pdf(z_b)
        sums = conn._column_sums(w_b * conn._lens(rho[owner], r * np.exp(k * z_b), d_row[owner]))
        tails = math.pi * rho * rho * conn._normal_tail(z_hi)
        nested = rho > d_row
        tails[nested] += rf.generic_s(params) * conn._normal_tail(2.0 * k - z_lo[nested])
        inner[rows[start:start + conn._BLOCK_ROWS]] = tails + np.bincount(owner, sums, rho.size)
    return (w_a * inner.reshape(w_a.shape)).sum(axis=1)


class TestHalfPlaneRule:
    """The lens rule integrates z_b >= z_a and doubles; the full-plane rule is its oracle."""

    # largest relative gap of a default table's knots to the full-plane
    # rule's: p44 3.9e-10, field 1.2e-9, sharp 2e-14, wide 1.7e-9
    @pytest.mark.parametrize("fixture, params", [
        ("model44", PARAMS_44), ("model_field", PARAMS_FIELD), ("model_sharp", PARAMS_SHARP),
        ("model_wide", PARAMS_WIDE)], ids=["p44", "field", "sharp", "wide"])
    def test_knots_match_the_full_plane_rule(self, request, monkeypatch, fixture, params):
        model = request.getfixturevalue(fixture)
        monkeypatch.setattr(rf.connectivity, "_lens_rule", _full_plane_lens_rule)
        oracle = rf.build_fd_model(params)
        assert model.knots_f == pytest.approx(oracle.knots_f, rel=1e-8, abs=0.0)

    @pytest.mark.parametrize("params", [PARAMS_44, PARAMS_FIELD, PARAMS_SHARP, PARAMS_WIDE,
                                        PARAMS_WIDER],
                             ids=["p44", "field", "sharp", "wide", "wider"])
    def test_one_level_matches_the_full_plane_rule(self, params):
        # at 16 panels per interval both rules have converged to within
        # 1e-14 relative (7.6e-15 on wider), so they differ by rounding
        knots = np.linspace(0.0, rf.threshold_distance(params), 9)
        half = rf.connectivity._lens_rule(params, knots, 16)
        assert half == pytest.approx(_full_plane_lens_rule(params, knots, 16), rel=1e-13, abs=0.0)


def _tails_reference(params, rho, d, panels):
    """Sum and absolute sum of phi(z) _lens(rho, r e^(k z), d) over the z > z_a outside the band.

    z_a = ln(rho / r) / k. Composite 20-point Gauss-Legendre rules, with
    the given number of panels each, on the 40-wide interval above z_hi
    (the normal density is below 1e-300 beyond it) and, where the band
    starts above z_a, on [z_a, z_lo].
    """
    r, k = rf.pseudo_range(params), params.sigma_r * LN10
    nodes, weights = np.polynomial.legendre.leggauss(20)
    terms = []
    z_hi = math.log((rho + d) / r) / k
    spans = [(z_hi, z_hi + 40.0)]
    if rho != d:
        z_a, z_lo = math.log(rho / r) / k, math.log(abs(d - rho) / r) / k
        if z_lo > z_a:
            spans.append((z_a, z_lo))
    for start, stop in spans:
        edges = np.linspace(start, stop, panels + 1)[:, None]
        width = np.diff(edges, axis=0)
        z = edges[:-1] + width * 0.5 * (nodes + 1.0)
        lens = rf.connectivity._lens(np.array(rho), r * np.exp(k * z), d)
        terms.append((np.abs(width) * 0.5 * weights * np.exp(-0.5 * z * z)
                      / math.sqrt(2.0 * math.pi) * lens).ravel())
    terms = np.concatenate(terms)
    return terms.sum(), np.abs(terms).sum()


class TestBandRule:
    """The z_b rule on z_b >= z_a: a closed-form tail above the band, panels inside it."""

    # rows as (z_a, z_lo) of the radius rho_a = r e^(k z_a) and the band's
    # lower end r e^(k z_lo) = |d - rho_a|, so that every channel gets a band
    # near the middle of the normal law; d = 0 is its own case. Nested and
    # equal rows have z_lo < z_a, so the half-plane has no z_b below the
    # band; the disjoint row's [z_a, z_lo] is there and weighs 0
    @pytest.mark.parametrize("params", [PARAMS_44, PARAMS_SHARP, PARAMS_WIDE],
                             ids=["p44", "sharp", "wide"])
    @pytest.mark.parametrize("case", ["nested", "disjoint", "equal", "coincident"])
    def test_tails_match_a_dense_quadrature(self, params, case):
        r, k = rf.pseudo_range(params), params.sigma_r * LN10
        rho = r * math.exp(k * {"nested": 1.0, "disjoint": -0.5, "equal": 0.2,
                                "coincident": 0.7}[case])
        d = {"nested": rho - r * math.exp(-0.5 * k), "disjoint": rho + r * math.exp(0.3 * k),
             "equal": rho, "coincident": 0.0}[case]
        rho_a, d_a = np.array([rho]), np.array([d])
        _, z_hi = rf.connectivity._band(params, rho_a, d_a)
        tails = rf.connectivity._lens_tails(rho_a, z_hi)
        coarse, _ = _tails_reference(params, rho, d, 32)
        fine, size = _tails_reference(params, rho, d, 64)
        # the reference's own convergence, plus 100 ulps of its term sum for
        # rounding: each term carries a few, and erfc's rounded argument x
        # costs the closed form about x^2 ulps, with x below 5 wherever Q is
        # not 0 here
        tolerance = abs(fine - coarse) + 100.0 * np.finfo(float).eps * size
        assert abs(tails[0] - fine) <= tolerance

    def test_legendre_literals_are_numpys_rule(self):
        # the stored nodes and weights are leggauss(10) mapped to [0, 1], to the bit
        nodes, weights = np.polynomial.legendre.leggauss(10)
        stored = rf.connectivity._gauss_legendre()
        assert stored[0].tobytes() == (0.5 * (nodes + 1.0)).tobytes()
        assert stored[1].tobytes() == (0.5 * weights).tobytes()

    def test_panel_steps_are_the_legendre_rule(self):
        # the stored rule keeps the bits of the 10-point Gauss-Legendre
        # rule mapped to [0, 1] and through the smoothstep
        nodes, weights = np.polynomial.legendre.leggauss(10)
        nodes, weights = 0.5 * (nodes + 1.0), 0.5 * weights
        for n in (1, 2, 4, 8, 16, 32, 64):
            t = ((np.arange(n)[:, None] + nodes) / n).ravel()
            steps, step_weights = rf.connectivity._panel_steps(n)
            assert steps.tobytes() == (t * t * (3.0 - 2.0 * t)).tobytes()
            assert step_weights.tobytes() == (
                6.0 * t * (1.0 - t) * np.tile(weights / n, n)).tobytes()

    def test_column_sums_do_not_depend_on_the_chunk(self):
        # a column is summed top to bottom alone, in a pair and among many
        rng = np.random.default_rng(29)
        w = rng.random((40, 9)) * 10.0 ** rng.uniform(-8.0, 8.0, (40, 9))
        folded = [functools.reduce(operator.add, w[:, j].tolist()) for j in range(9)]
        assert rf.connectivity._column_sums(w).tolist() == folded
        for j in range(9):
            assert rf.connectivity._column_sums(w[:, j:j + 1]).tolist() == [folded[j]]
            assert rf.connectivity._column_sums(w[:, j:j + 2]).tolist() == folded[j:j + 2]

    # _lens elements that a 64-knot, 1e-6 build evaluates, counted without
    # timing: the band rule on the half-plane z_b >= z_a reads 540 730 (p44)
    # and 662 500 (sharp); on the whole plane it read 789 820 and 1 137 000,
    # and the full-domain z_b rule before that, 10n nodes on all 8 z_b
    # intervals of every row, 2 000 000 and 1 540 000
    @pytest.mark.parametrize("params, budget", [(PARAMS_44, 600_000),
                                                (PARAMS_SHARP, 720_000)],
                             ids=["p44", "sharp"])
    def test_lens_points_of_a_build(self, monkeypatch, params, budget):
        lens, points = rf.connectivity._lens, []

        def counting_lens(a, b, d):
            out = lens(a, b, d)
            points.append(out.size)
            return out

        monkeypatch.setattr(rf.connectivity, "_lens", counting_lens)
        rf.build_fd_model(params, 64, 1e-6)
        assert 0 < sum(points) <= budget


class TestChunking:
    """The lens rule's block and chunk sizes set how much goes through numpy at once, never a
    knot's bits."""

    @pytest.mark.parametrize("name, size", [
        ("_CHUNK_POINTS", 1), ("_CHUNK_POINTS", 37), ("_CHUNK_POINTS", 1 << 20),
        ("_BLOCK_ROWS", 1), ("_BLOCK_ROWS", 7), ("_BLOCK_ROWS", 1 << 20)])
    @pytest.mark.parametrize("params, n_knots, quad_tol", [
        (PARAMS_44, 8, 1e-3), (PARAMS_SHARP, 8, 1e-3), (PARAMS_44, 64, 1e-6)],
        ids=["p44-8", "sharp-8", "p44-64"])
    def test_knots_do_not_depend_on_the_chunking(self, monkeypatch, params, n_knots, quad_tol,
                                                 name, size):
        # 1, and 37 from 2 panels an interval on, give chunks of one band
        # interval, which go through _column_sums' one-column path
        default = rf.build_fd_model(params, n_knots, quad_tol)
        monkeypatch.setattr(rf.connectivity, name, size)
        model = rf.build_fd_model(params, n_knots, quad_tol)
        assert model.knots_f.tobytes() == default.knots_f.tobytes()
        assert model.knots_d.tobytes() == default.knots_d.tobytes()


class TestBuildFdModel:
    @pytest.mark.parametrize("n_knots", [8.9, math.inf, 7])
    def test_n_knots_must_be_an_integer_of_at_least_8(self, n_knots):
        # 8.9 used to build 8 knots and inf to raise OverflowError
        with pytest.raises(ValueError, match=f"got {n_knots!r}$"):
            rf.build_fd_model(PARAMS_44, n_knots=n_knots)

    def test_knot_evaluation_is_exact(self, model44):
        for i in range(model44.n_knots):
            assert rf.eval_fd(model44, float(model44.knots_d[i])) == float(
                model44.knots_f[i]
            )

    def test_midpoint_accuracy(self, model44):
        mids = 0.5 * (model44.knots_d[:-1] + model44.knots_d[1:])
        worst = 0.0
        for d in mids:
            direct = rf.generic_f(PARAMS_44, float(d))
            interp = rf.eval_fd(model44, float(d))
            worst = max(worst, abs(interp - direct) / direct)
        assert worst <= 0.01

    def test_invariants(self, model44):
        assert model44.knots_d[0] == 0.0
        assert model44.knots_d[-1] == model44.d_th
        assert np.all(model44.slopes < 0)
        assert 0.0 < model44.knots_f[-1] < model44.knots_f[0] <= model44.s_mass
        # segment chaining is continuous
        intercepts = model44.knots_f[:-1] - model44.slopes * model44.knots_d[:-1]
        joins = model44.slopes[:-1] * model44.knots_d[1:-1] + intercepts[:-1]
        assert np.allclose(joins, model44.knots_f[1:-1], rtol=1e-9)

    def test_monotonicity_violation_raises(self):
        with pytest.raises(rf.ModelConstructionError):
            rf.FdModel(
                s_mass=10.0,
                d_th=3.0,
                knots_d=np.array([0.0, 1.0, 2.0, 3.0]),
                knots_f=np.array([9.0, 5.0, 6.0, 1.0]),
                params=PARAMS_44,
            )

    @pytest.mark.parametrize("name, value", [("s_mass", math.nan), ("d_th", math.inf),
                                             ("knots_f", math.nan)])
    def test_rejects_non_finite_values(self, model44, name, value):
        columns = {f: getattr(model44, f) for f in ("s_mass", "d_th", "knots_d", "knots_f")}
        if name == "knots_f":  # one knot value
            value = np.concatenate([model44.knots_f[:2], [value], model44.knots_f[3:]])
        columns[name] = value
        with pytest.raises(ValueError, match="every knot must be finite"):
            rf.FdModel(params=PARAMS_44, **columns)


class TestTabulationLoop:
    """build_fd_model tabulates every knot in one generic_f call, in the calling thread."""

    @pytest.mark.parametrize("params, n_knots, quad_tol", [
        (PARAMS_44, 8, 1e-3), (PARAMS_FIELD, 8, 1e-3), (PARAMS_SHARP, 8, 1e-3),
        (PARAMS_WIDE, 8, 1e-3), (PARAMS_WIDER, 8, 1e-3), (PARAMS_44, 64, 1e-6),
        (PARAMS_FIELD, 64, 1e-6), (PARAMS_SHARP, 64, 1e-6)],
        ids=["p44-8", "field-8", "sharp-8", "wide-8", "wider-8", "p44-64", "field-64",
             "sharp-64"])
    def test_bit_identical_to_a_serial_loop(self, params, n_knots, quad_tol):
        model = rf.build_fd_model(params, n_knots, quad_tol)
        knots_d = np.linspace(0.0, rf.threshold_distance(params), n_knots)
        serial = np.array([rf.generic_f(params, d, quad_tol) for d in knots_d])
        assert model.knots_f.tobytes() == serial.tobytes()
        assert model.knots_d.tobytes() == knots_d.tobytes()

    @pytest.fixture
    def recording_f(self, monkeypatch):
        """Install a generic_f that records what each call sees and returns 1/(1 + d)."""
        calls = []

        def fake_f(params, d, quad_tol):
            calls.append({"params": params, "d": np.array(d), "quad_tol": quad_tol,
                          "thread": (threading.get_ident(), threading.active_count()),
                          "divide": np.geterr()["divide"]})
            return 1.0 / (1.0 + d)

        monkeypatch.setattr(rf.connectivity, "generic_f", fake_f)
        return calls

    def test_one_call_with_the_knot_array(self, recording_f):
        model = rf.build_fd_model(PARAMS_44, 16, 1e-5)
        [call] = recording_f
        knots_d = np.linspace(0.0, rf.threshold_distance(PARAMS_44), 16)
        assert call["d"].tobytes() == knots_d.tobytes()
        assert (call["params"], call["quad_tol"]) == (PARAMS_44, 1e-5)
        assert np.array_equal(model.knots_f, 1.0 / (1.0 + knots_d))

    def test_knots_run_in_the_calling_thread(self, recording_f):
        before = threading.active_count()
        rf.build_fd_model(PARAMS_44, 16)
        assert [call["thread"] for call in recording_f] == [(threading.get_ident(), before)]
        assert threading.active_count() == before

    def test_callers_errstate_reaches_every_knot(self, recording_f):
        with np.errstate(divide="raise"):
            rf.build_fd_model(PARAMS_44, 16)
        assert [call["divide"] for call in recording_f] == ["raise"]

    @pytest.mark.parametrize("error", [rf.NumericError, KeyboardInterrupt])
    def test_generic_f_errors_propagate(self, monkeypatch, error):
        def failing_f(params, d, quad_tol):
            raise error("no knot converged")

        monkeypatch.setattr(rf.connectivity, "generic_f", failing_f)
        with pytest.raises(error, match="^no knot converged$"):
            rf.build_fd_model(PARAMS_44, 16)

    # at quad_tol 1e-11, sharp: levels 1 and 2 differ by 4.6e-8 relative at
    # knot 0 and 7.9e-8 at knots 1-7, so knot 0 fails; field: levels 2 and 4
    # differ by 3.1e-13 to 2.3e-12 at knots 0-3, 3.8e-11 at knot 4, 1.7e-12 at
    # knot 5 and 1.3e-11 at knots 6-7, so knots 4, 6 and 7 fail and knot 4 is
    # named
    @pytest.mark.parametrize("params, max_panels, lowest, converged", [
        (PARAMS_SHARP, 2, 0, ()), (PARAMS_FIELD, 4, 4, (0, 1, 2, 3, 5))],
        ids=["sharp", "field"])
    def test_lowest_unconverged_knot_raises(self, monkeypatch, params, max_panels, lowest,
                                            converged):
        monkeypatch.setattr(rf.connectivity, "_MAX_PANELS", max_panels)
        knots_d = np.linspace(0.0, rf.threshold_distance(params), 8)
        for k in converged:
            rf.generic_f(params, knots_d[k], quad_tol=1e-11)
        with pytest.raises(rf.NumericError, match="did not converge") as alone:
            rf.generic_f(params, knots_d[lowest], quad_tol=1e-11)
        with pytest.raises(rf.NumericError) as built:
            rf.build_fd_model(params, 8, 1e-11)
        assert str(built.value) == str(alone.value)
        assert f"at d={float(knots_d[lowest])!r} " in str(built.value)

    def test_tied_knot_values_raise(self, tied_generic_f):
        # quadrature noise could give two knots one value; FdModel rejects the table
        with pytest.raises(rf.ModelConstructionError,
                           match="^knot values must decrease strictly$"):
            rf.build_fd_model(PARAMS_44, 8)

    # ties at the first and the last pair of knots, where an off-by-one in the
    # check would miss one, and a rise
    @pytest.mark.parametrize("k, value", [(1, 1.0), (7, 1.0 / 7.0), (4, 0.5)],
                             ids=["tie-first", "tie-last", "rise"])
    def test_knot_values_that_do_not_decrease_raise(self, monkeypatch, k, value):
        values = np.array([1.0 / (1.0 + j) for j in range(8)])
        values[k] = value
        monkeypatch.setattr(rf.connectivity, "generic_f", lambda params, d, quad_tol: values)
        with pytest.raises(rf.ModelConstructionError,
                           match="^knot values must decrease strictly$"):
            rf.build_fd_model(PARAMS_44, 8)


class TestInvertFd:
    def test_clamps(self, model44):
        assert rf.invert_fd(model44, float(model44.knots_f[0])) == 0.0
        assert rf.invert_fd(model44, model44.s_mass * 2.0) == 0.0
        assert rf.invert_fd(model44, float(model44.knots_f[-1])) == model44.d_th
        assert rf.invert_fd(model44, 0.0) == model44.d_th

    def test_exact_at_interior_knots(self, model44):
        for i in range(1, model44.n_knots - 1):
            assert rf.invert_fd(model44, float(model44.knots_f[i])) == float(
                model44.knots_d[i]
            )

    def test_segment_midpoint(self, model44):
        i = 20
        value = 0.5 * (model44.knots_f[i] + model44.knots_f[i + 1])
        expected = 0.5 * (model44.knots_d[i] + model44.knots_d[i + 1])
        assert rf.invert_fd(model44, float(value)) == pytest.approx(expected, rel=1e-12)

    @settings(max_examples=50, deadline=None)
    @given(frac=st.floats(min_value=0.0, max_value=1.0))
    def test_round_trip(self, model44, frac):
        d = frac * model44.d_th
        assert rf.invert_fd(model44, rf.eval_fd(model44, d)) == pytest.approx(
            d, abs=1e-9 * model44.d_th
        )

    def test_rejects_nan(self, model44):
        with pytest.raises(ValueError):
            rf.invert_fd(model44, math.nan)


class TestEstimateDistanceConn:
    """The connectivity range estimate, fdtable.invert_counts."""

    def test_all_zero_counts(self, model44):
        assert invert_counts(model44, 0, 0, 0) == 0.0

    def test_full_overlap_ratio_clamps_to_zero(self, model44):
        # ratio 1 scales the mass above f(0), so the inverse clamps at 0
        assert model44.knots_f[0] < model44.s_mass
        assert invert_counts(model44, 10, 0, 0) == 0.0

    def test_tiny_ratio_clamps_to_cutoff(self, model44):
        assert invert_counts(model44, 1, 500, 500) == model44.d_th

    @settings(max_examples=30, deadline=None)
    @given(
        m=st.integers(min_value=0, max_value=50),
        p=st.integers(min_value=0, max_value=50),
        q=st.integers(min_value=0, max_value=50),
        c=st.integers(min_value=1, max_value=9),
    )
    def test_scale_invariance(self, model44, m, p, q, c):
        base = invert_counts(model44, m, p, q)
        scaled = invert_counts(model44, c * m, c * p, c * q)
        assert scaled == pytest.approx(base, abs=1e-9 * model44.d_th)

    def test_mean_matches_true_distance(self, model44):
        d = model44.d_th / 2.0
        intensity = 30.0 / model44.s_mass
        m, p, q = _poisson_triples(model44, intensity, d, 10**4, seed=31)
        estimates = invert_counts(model44, m, p, q)
        assert estimates.mean() == pytest.approx(d, rel=0.03)


class TestConnErrorSigma:
    def test_shrinks_with_intensity(self, model44):
        d = model44.d_th / 2.0
        lam = 20.0 / model44.s_mass
        assert rf.conn_error_sigma(model44, 100.0 * lam, d) < 0.2 * rf.conn_error_sigma(
            model44, lam, d
        )

    def test_inverse_sqrt_intensity(self, model44):
        d = model44.d_th / 2.0
        lam = 20.0 / model44.s_mass
        ratio = rf.conn_error_sigma(model44, lam, d) / rf.conn_error_sigma(
            model44, 2.0 * lam, d
        )
        assert ratio == pytest.approx(math.sqrt(2.0), rel=1e-12)

    def test_matches_monte_carlo_spread(self, model44):
        d = model44.d_th / 2.0
        intensity = 30.0 / model44.s_mass
        m, p, q = _poisson_triples(model44, intensity, d, 10**4, seed=32)
        estimates = invert_counts(model44, m, p, q)
        predicted = rf.conn_error_sigma(model44, intensity, d)
        assert (estimates - d).std() == pytest.approx(predicted, rel=0.10)

    def test_equals_connectivity_only_bound(self, model44):
        # sigma_c^2 is the CRLB of the counts alone: the Schur complement of
        # the information matrix with the RSS term taken out of i_dd
        lam = 20.0 / model44.s_mass
        kappa = rf.rss_fisher_scale(PARAMS_44)
        for d in np.linspace(0.1, 0.9, 9) * model44.d_th:
            info = rf.fim(model44, lam, float(d))
            bound = 1.0 / (info.i_dd - kappa / d**2 - info.i_dl**2 / info.i_ll)
            assert rf.conn_error_sigma(model44, lam, float(d)) ** 2 == pytest.approx(
                bound, rel=1e-12
            )

    def test_domain_errors(self, model44):
        with pytest.raises(ValueError):
            rf.conn_error_sigma(model44, 0.0, 1.0)
        with pytest.raises(ValueError):
            rf.conn_error_sigma(model44, 0.01, 0.0)
        with pytest.raises(ValueError):
            rf.conn_error_sigma(model44, 0.01, model44.d_th * 1.01)


class TestOverlapRatioStatistics:
    def test_mean_and_variance(self, model44):
        d = model44.d_th / 2.0
        intensity = 20.0 / model44.s_mass
        m, p, q = _poisson_triples(model44, intensity, d, 10**4, seed=33)
        denom = 2.0 * m + p + q
        keep = denom > 0
        rho = 2.0 * m[keep] / denom[keep]
        f_true = rf.eval_fd(model44, d)
        s = model44.s_mass
        assert rho.mean() == pytest.approx(f_true / s, rel=0.02)
        # delta method for 2M/(2M+P+Q), M ~ Poi(lambda f), P, Q ~ Poi(lambda (S - f))
        predicted_var = f_true * (s - f_true) * (2.0 * s - f_true) / (
            2.0 * intensity * s**4
        )
        assert rho.var() == pytest.approx(predicted_var, rel=0.10)


class TestModelSerialization:
    def test_round_trip(self, model44, tmp_path):
        path = tmp_path / "model.fd"
        rf.save_fd_model(model44, path)
        loaded = rf.load_fd_model(path)
        assert loaded.params == model44.params
        assert loaded.s_mass == model44.s_mass
        assert loaded.d_th == model44.d_th
        assert np.array_equal(loaded.knots_d, model44.knots_d)
        assert np.array_equal(loaded.knots_f, model44.knots_f)
        # canonical form is stable
        second = tmp_path / "model2.fd"
        rf.save_fd_model(loaded, second)
        assert path.read_bytes() == second.read_bytes()

    def test_rejects_bad_header(self, tmp_path):
        path = tmp_path / "bad.fd"
        path.write_text("something else\n")
        with pytest.raises(rf.ConfigurationError):
            rf.load_fd_model(path)

    def test_rejects_truncated_knots(self, model44, tmp_path):
        path = tmp_path / "model.fd"
        rf.save_fd_model(model44, path)
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:-5]) + "\n")
        with pytest.raises(rf.ConfigurationError):
            rf.load_fd_model(path)

    def test_malformed_line_reports_position(self, model44, tmp_path):
        path = tmp_path / "model.fd"
        rf.save_fd_model(model44, path)
        lines = path.read_text().splitlines()
        lines[12] = "not, a, number, row"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(rf.ConfigurationError, match=":13"):
            rf.load_fd_model(path)

    @pytest.mark.parametrize("damage", ["knot", "s_mass", "d_th"])
    def test_rejects_non_finite_values(self, model44, tmp_path, damage):
        path = tmp_path / "model.fd"
        save_damaged_table(model44, path, damage)
        with pytest.raises(rf.ConfigurationError, match="inconsistent model data: .* finite"):
            rf.load_fd_model(path)


_POSITIVE = st.floats(min_value=1e-3, max_value=1e3)


@st.composite
def _channels(draw):
    p_ref = draw(st.floats(min_value=-100.0, max_value=0.0))
    return rf.ChannelParams(
        p_ref_dbm=p_ref,
        alpha=draw(st.floats(min_value=0.5, max_value=8.0)),
        # sigma_r = sigma_db / (10 alpha) is 0 or at least 1e-100
        sigma_db=draw(st.just(0.0) | st.floats(min_value=1e-98, max_value=12.0)),
        rss_threshold_dbm=p_ref - draw(st.floats(min_value=0.1, max_value=100.0)),
        d0=draw(st.floats(min_value=0.1, max_value=10.0)),
    )


@st.composite
def _fd_models(draw):
    n = draw(st.integers(min_value=2, max_value=12))
    steps = draw(st.lists(_POSITIVE, min_size=n - 1, max_size=n - 1))
    drops = draw(st.lists(_POSITIVE, min_size=n - 1, max_size=n - 1))
    knots_d = np.concatenate([[0.0], np.cumsum(steps)])
    knots_f = draw(_POSITIVE) + np.concatenate([np.cumsum(drops[::-1])[::-1], [0.0]])
    return rf.FdModel(
        s_mass=float(knots_f[0]) * draw(st.floats(min_value=1.0, max_value=10.0)),
        d_th=float(knots_d[-1]),
        knots_d=knots_d,
        knots_f=knots_f,
        params=draw(_channels()),
    )


# p44's sigma_r, 4 / 40 = 2.5 / 25 = 0.1, at the pseudo range 15.85 m for p44's 36.58 m
PARAMS_44_RESCALED = rf.ChannelParams(p_ref_dbm=-40.0, alpha=2.5, sigma_db=2.5,
                                      rss_threshold_dbm=-70.0)


def _in_units_of_r(model):
    """d_th / r, S / r^2, knots_d / r and knots_f / r^2 of a table, r its pseudo range."""
    r = rf.pseudo_range(model.params)
    return model.d_th / r, model.s_mass / (r * r), model.knots_d / r, model.knots_f / (r * r)


class TestSigmaRInvariance:
    """A link exists with probability Q(log10(d / r) / sigma_r), so a table is r^2 F(d / r;
    sigma_r): channels of one sigma_r give one table in units of r."""

    def test_p44_at_another_pseudo_range(self, model44):
        d_th, s, knots_d, knots_f = _in_units_of_r(rf.build_fd_model(PARAMS_44_RESCALED))
        d_th44, s44, knots_d44, knots_f44 = _in_units_of_r(model44)
        assert d_th == d_th44
        assert s == pytest.approx(s44, rel=1e-13, abs=0.0)
        assert knots_d == pytest.approx(knots_d44, rel=1e-15, abs=0.0)
        assert knots_f == pytest.approx(knots_f44, rel=1e-13, abs=0.0)

    # threshold_distance's bisection stops within 1e-15 relative, so for a
    # drawn r the cutoff in units of r may move by an ulp or two
    @settings(max_examples=25, deadline=None)
    @given(r=st.floats(min_value=1.5, max_value=1e4),
           alpha=st.floats(min_value=1.0, max_value=8.0))
    def test_drawn_pseudo_range_and_exponent(self, model44, r, alpha):
        params = rf.ChannelParams(p_ref_dbm=-40.0, alpha=alpha, sigma_db=alpha,
                                  rss_threshold_dbm=-40.0 - 10.0 * alpha * math.log10(r))
        assume(params.sigma_r == PARAMS_44.sigma_r)
        d_th, s, knots_d, knots_f = _in_units_of_r(rf.build_fd_model(params))
        d_th44, s44, knots_d44, knots_f44 = _in_units_of_r(model44)
        assert d_th == pytest.approx(d_th44, rel=1e-15, abs=0.0)
        assert s == pytest.approx(s44, rel=1e-13, abs=0.0)
        assert knots_d == pytest.approx(knots_d44, rel=1e-14, abs=0.0)
        assert knots_f == pytest.approx(knots_f44, rel=1e-13, abs=0.0)

    # at one mu and d / d_th, an error over r and a bound over r^2 depend on sigma_r alone
    @pytest.mark.parametrize("mu", [10.0, 20.0])
    def test_exact_errors_and_bound_in_units_of_r(self, model44, mu):
        rescaled = rf.build_fd_model(PARAMS_44_RESCALED)
        fracs = np.array([0.1, 0.5, 0.9])
        errors, bounds = [], []
        for model in (model44, rescaled):
            r, lam = rf.pseudo_range(model.params), rf.mu_to_lambda(mu, model.s_mass)
            d = fracs * model.d_th
            errors.append([np.array(rf.expected_errors(model, lam, float(x))) / r for x in d])
            bounds.append(rf.crlb_distance(model, lam, d) / (r * r))
        assert np.array(errors[1]) == pytest.approx(np.array(errors[0]), rel=1e-12, abs=0.0)
        assert bounds[1] == pytest.approx(bounds[0], rel=1e-12, abs=0.0)


class TestModelRoundTrip:
    @settings(max_examples=60, deadline=None)
    @given(model=_fd_models())
    def test_save_load_is_exact(self, model):
        with tempfile.TemporaryDirectory() as folder:
            path = Path(folder) / "model.fd"
            rf.save_fd_model(model, path)
            loaded = rf.load_fd_model(path)
        assert loaded.params == model.params
        assert (loaded.s_mass, loaded.d_th) == (model.s_mass, model.d_th)
        assert np.array_equal(loaded.knots_d, model.knots_d)
        assert np.array_equal(loaded.knots_f, model.knots_f)


class TestArrayForms:
    """The array forms keep the scalar conventions element by element."""

    def _distances(self, model):
        mids = 0.5 * (model.knots_d[:-1] + model.knots_d[1:])
        return np.concatenate([model.knots_d, mids, [1e-9 * model.d_th]])

    def test_eval_fd_and_slope(self, model44):
        d = self._distances(model44)
        assert list(rf.eval_fd(model44, d)) == [rf.eval_fd(model44, float(x)) for x in d]
        assert list(rf.fd_slope(model44, d)) == [rf.fd_slope(model44, float(x)) for x in d]
        # exact at knots, left segment at interior knots
        n = model44.n_knots
        assert np.array_equal(rf.eval_fd(model44, model44.knots_d), model44.knots_f)
        assert np.array_equal(rf.fd_slope(model44, model44.knots_d[1:]),
                              model44.slopes[np.arange(n - 1)])

    def test_invert_fd(self, model44):
        values = np.concatenate([
            model44.knots_f, 0.5 * (model44.knots_f[:-1] + model44.knots_f[1:]),
            [0.0, 2.0 * model44.s_mass],
        ])
        got = rf.invert_fd(model44, values)
        assert list(got) == [rf.invert_fd(model44, float(v)) for v in values]
        assert np.array_equal(got[:model44.n_knots], model44.knots_d)
        with pytest.raises(ValueError):
            rf.invert_fd(model44, np.array([1.0, math.nan]))

    def test_conn_error_sigma(self, model44):
        d = self._distances(model44)[1:]
        lam = np.linspace(0.001, 0.01, d.size)
        got = rf.conn_error_sigma(model44, lam, d)
        assert list(got) == [
            rf.conn_error_sigma(model44, float(a), float(x)) for a, x in zip(lam, d)
        ]
        with pytest.raises(ValueError):
            rf.conn_error_sigma(model44, lam, np.append(d[1:], 0.0))

    def test_invert_counts(self, model44):
        m, p, q = np.array([0, 5, 0, 3]), np.array([0, 2, 4, 9]), np.array([0, 1, 3, 0])
        got = invert_counts(model44, m, p, q)
        assert list(got) == [invert_counts(model44, *(int(v) for v in c)) for c in zip(m, p, q)]
        assert got[0] == 0.0 and got[2] == model44.d_th

    def test_out_of_range_rejected(self, model44):
        for fn in (rf.eval_fd, rf.fd_slope):
            with pytest.raises(ValueError):
                fn(model44, np.array([1.0, -0.5]))
            with pytest.raises(ValueError):
                fn(model44, np.array([model44.d_th * 1.01]))


class TestEstimateIntensity:
    """The moment estimate (2M+P+Q)/(2S) that estimate_pairs defaults to."""

    def test_moment_identity(self, model44):
        est = rf.estimate_pairs(model44, [math.nan], [6], [4], [2])
        assert est.intensity[0] == (12 + 4 + 2) / (2.0 * model44.s_mass)

    def test_zero_counts_give_zero(self, model44):
        est = rf.estimate_pairs(model44, [math.nan], [0], [0], [0])
        assert est.intensity[0] == 0.0


class TestGenericFDerivative:
    def test_matches_segment_slopes(self, model44):
        i = 30
        mid = 0.5 * (model44.knots_d[i] + model44.knots_d[i + 1])
        step = rf.threshold_distance(PARAMS_44) / 1e4
        numeric = (rf.generic_f(PARAMS_44, mid + step)
                   - rf.generic_f(PARAMS_44, mid - step)) / (2.0 * step)
        assert numeric == pytest.approx(float(model44.slopes[i]), rel=0.05)
