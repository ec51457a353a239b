import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, special

import rangefuse as rf
from rangefuse.connectivity import invert_counts
from conftest import PARAMS_44, PARAMS_DISK, PARAMS_FIELD, PARAMS_SHARP, save_damaged_table

LN10 = math.log(10.0)


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


class TestGenericF:
    def test_noise_free_equals_lens_area(self):
        r = rf.pseudo_range(PARAMS_DISK)
        for d in (0.0, r / 2, r, 1.5 * r):
            assert rf.generic_f(PARAMS_DISK, d) == rf.unit_disk_f(r, d)
        assert rf.generic_f(PARAMS_DISK, 2.5 * r) == 0.0

    def test_overlap_at_zero_is_below_mass(self):
        f0 = rf.generic_f(PARAMS_44, 0.0)
        assert f0 < rf.generic_s(PARAMS_44)

    @pytest.mark.parametrize("params", [PARAMS_44, PARAMS_FIELD, PARAMS_SHARP],
                             ids=["p44", "field", "sharp"])
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

    def test_rejects_negative_distance(self):
        with pytest.raises(ValueError):
            rf.generic_f(PARAMS_44, -1.0)

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
        # levels (2, 1) and (4, 2) only; they differ by about 4e-7 relative here
        monkeypatch.setattr(rf.connectivity, "_MAX_HALF_PANELS", 4)
        with pytest.raises(rf.NumericError, match="did not converge"):
            rf.generic_f(PARAMS_SHARP, 7.0, quad_tol=1e-10)

    @pytest.mark.parametrize("params", [PARAMS_44, PARAMS_FIELD, PARAMS_SHARP],
                             ids=["p44", "field", "sharp"])
    def test_starting_angle_rule_is_converged(self, params):
        # the premise of starting the doubling at 2 angle panels: with edges at
        # the transition crossings, 2 panels already match 64 (worst 4.1e-10,
        # field), so refinement only has the radial rule left to converge
        knots = np.linspace(0.0, rf.threshold_distance(params), 64)
        for d in knots[::4]:
            rule = rf.connectivity._panel_rule_f(params, float(d))
            assert rule(2, 1) == pytest.approx(rule(64, 1), rel=1e-9, abs=0.0), d


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


def _adaptive_f(params, d, quad_tol=1e-10):
    """Nested adaptive quadrature of f(d), an oracle independent of the panel rule.

    scipy's adaptive quad in radius (split where a link transition circle
    touches the pair axis) around a 10-point Gauss-Legendre angle rule over
    [0, pi] with edges at the transition crossings; the angle panels double
    from 16 until two results agree within quad_tol relative.
    """
    r = rf.pseudo_range(params)
    halfwidth = 6.0 * params.sigma_db / (10.0 * params.alpha)
    r_edges = (r * 10.0 ** -halfwidth, r, r * 10.0 ** halfwidth)
    r_max = rf.connectivity.truncation_radius(params)
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
def model_sharp():
    return rf.build_fd_model(PARAMS_SHARP)


class TestPanelRuleAccuracy:
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
    ])
    def test_knots_match_adaptive_oracle(self, request, fixture, params, knots):
        model = request.getfixturevalue(fixture)
        for k in knots:
            oracle = _adaptive_f(params, float(model.knots_d[k]))
            assert model.knots_f[k] == pytest.approx(oracle, rel=1e-8), k


class TestBuildFdModel:
    def test_rejects_few_knots(self):
        with pytest.raises(ValueError):
            rf.build_fd_model(PARAMS_44, n_knots=7)

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
    """The connectivity range estimate, connectivity.invert_counts."""

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
        sigma_db=draw(st.floats(min_value=0.0, max_value=12.0)),
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
