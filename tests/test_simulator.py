import math

import numpy as np
import pytest
from scipy import stats

import rangefuse as rf
from conftest import PARAMS_44, PARAMS_DISK

DISK_R = rf.pseudo_range(PARAMS_DISK)


class TestMuToLambda:
    def test_definition(self):
        assert rf.mu_to_lambda(20.0, 100.0) == 0.2

    def test_round_trip(self):
        s = 4674.0
        assert rf.mu_to_lambda(20.0, s) * s == pytest.approx(20.0, rel=1e-15)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            rf.mu_to_lambda(0.0, 10.0)
        with pytest.raises(ValueError):
            rf.mu_to_lambda(5.0, 0.0)
        with pytest.raises(ValueError):
            rf.mu_to_lambda(math.inf, 10.0)


class TestDeployPoisson:
    def test_vanishing_intensity_gives_empty_field(self):
        dep = rf.deploy_poisson(1.0, 1e-12, np.random.default_rng(1))
        assert dep.nodes.shape == (0, 2)

    def test_mean_count(self):
        side, lam = 10.0, 0.25
        rng = np.random.default_rng(2)
        counts = [rf.deploy_poisson(side, lam, rng).nodes.shape[0] for _ in range(10**4)]
        assert np.mean(counts) == pytest.approx(lam * side * side, rel=0.02)

    def test_positions_uniform(self):
        side = 10.0
        dep = rf.deploy_poisson(side, 250.0, np.random.default_rng(3))
        edges = np.linspace(0.0, side, 11)
        counts, _, _ = np.histogram2d(dep.nodes[:, 0], dep.nodes[:, 1], bins=(edges, edges))
        _, p_value = stats.chisquare(counts.ravel())
        assert p_value > 0.01

    def test_seed_reproducible(self):
        a = rf.deploy_poisson(5.0, 1.0, np.random.default_rng(42))
        b = rf.deploy_poisson(5.0, 1.0, np.random.default_rng(42))
        assert np.array_equal(a.nodes, b.nodes)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            rf.deploy_poisson(0.0, 1.0, np.random.default_rng(1))
        with pytest.raises(ValueError):
            rf.deploy_poisson(1.0, 0.0, np.random.default_rng(1))


class TestLinks:
    def test_step_links_classify_geometrically(self):
        # unit-step channel: in-range nodes link, others do not, whatever the draws
        a, b = (21.0, 24.0), (27.0, 24.0)
        near_both = (24.0, 24.0 + math.sqrt(9.9**2 - 9.0))
        far_both = (24.0, 24.0 + math.sqrt(10.1**2 - 9.0))
        only_a = (21.0 - 9.9, 24.0)
        only_b = (27.0 + 9.9, 24.0)
        xy = np.array([near_both, far_both, only_a, only_b])
        z = np.random.default_rng(4).standard_normal((2, len(xy)))
        assert rf.simulator._links(PARAMS_DISK, xy, a, z[0]).tolist() == [True, False, True, False]
        assert rf.simulator._links(PARAMS_DISK, xy, b, z[1]).tolist() == [True, False, False, True]

    def test_margin_violation_raises(self):
        # the pair sits at the center, so both endpoints are within the cutoff of an edge
        side = 1.5 * rf.threshold_distance(PARAMS_DISK)
        with pytest.raises(rf.ConfigurationError):
            rf.simulator._draw_probe(PARAMS_DISK, side, 0.01, 1.0, 1, np.random.default_rng(5))


def _counts_by_sets(xy, a, b, reff_a, reff_b):
    near_a = set()
    near_b = set()
    for i in range(len(xy)):
        if math.dist(xy[i], a) <= reff_a[i]:
            near_a.add(i)
        if math.dist(xy[i], b) <= reff_b[i]:
            near_b.add(i)
    return (
        len(near_a & near_b),
        len(near_a - near_b),
        len(near_b - near_a),
    )


class TestExperimentConfig:
    def test_validation(self):
        good = dict(mu=20.0, distances=(5.0,), trials=1, seed=0)
        rf.ExperimentConfig(**good)
        for bad in (
            dict(mu=0.0),
            dict(mu=math.inf),
            dict(trials=0),
            dict(seed=-1),
            dict(margin=0.5),
            dict(margin=math.inf),
            dict(distances=()),
            dict(distances=(0.0,)),
        ):
            kwargs = dict(good)
            kwargs.update(bad)
            with pytest.raises(ValueError):
                rf.ExperimentConfig(**kwargs)

    def test_probe_beyond_cutoff_rejected(self, model44):
        cfg = rf.ExperimentConfig(mu=20.0, distances=(model44.d_th * 1.01,), trials=1, seed=0)
        with pytest.raises(rf.ConfigurationError):
            rf.run_experiment(cfg, model44)


class TestRunExperiment:
    def test_noise_free_rss_is_exact(self):
        cfg = rf.ExperimentConfig(mu=20.0, distances=(3.0, DISK_R / 2.0), trials=1, seed=0)
        report = rf.run_experiment(cfg, rf.build_fd_model(PARAMS_DISK))
        for row in report.rows:
            assert row.rmse_rss <= 1e-9
            assert row.sqrt_crlb == 0.0

    def test_reproducible_bit_for_bit(self, model44):
        cfg = rf.ExperimentConfig(mu=20.0, distances=(10.0, 40.0), trials=5, seed=12345)
        one = rf.run_experiment(cfg, model44)
        two = rf.run_experiment(cfg, model44)
        assert one == two
        assert one.to_csv_text() == two.to_csv_text()

    def test_rss_error_law_in_pipeline(self, big_report):
        s = PARAMS_44.sigma_r * math.log(10.0)
        expected = math.sqrt(math.exp(2 * s * s) - 2 * math.exp(s * s / 2) + 1)
        for row in big_report.rows:
            assert row.rmse_rss / row.d_true == pytest.approx(expected, rel=0.05)

    def test_rss_error_grows_with_distance(self, big_report):
        d = [row.d_true for row in big_report.rows]
        rmse = [row.rmse_rss for row in big_report.rows]
        corr, _ = stats.spearmanr(d, rmse)
        assert corr > 0.95

    def test_estimators_cross_over(self, big_report):
        first, last = big_report.rows[0], big_report.rows[-1]
        assert first.rmse_conn > first.rmse_rss
        assert last.rmse_conn < last.rmse_rss

    def test_denser_networks_tighten_connectivity(self, model44):
        distances = tuple(f * model44.d_th for f in (0.4, 0.55, 0.7))
        reports = {}
        for mu in (10.0, 40.0):
            cfg = rf.ExperimentConfig(mu=mu, distances=distances, trials=1500, seed=77)
            reports[mu] = rf.run_experiment(cfg, model44)
        for sparse, dense in zip(reports[10.0].rows, reports[40.0].rows):
            assert dense.rmse_conn < sparse.rmse_conn


class TestRmseReport:
    def test_csv_shape(self, tmp_path):
        cfg = rf.ExperimentConfig(mu=15.0, distances=(2.0, 4.0, 6.0), trials=2, seed=9)
        report = rf.run_experiment(cfg, rf.build_fd_model(PARAMS_DISK))
        path = tmp_path / "report.csv"
        report.write_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0] == "d_true,rmse_rss,rmse_conn,rmse_fused,sqrt_crlb,trials"
        assert len(lines) == 1 + len(cfg.distances)
        json_path = tmp_path / "report.json"
        report.write_json(json_path)
        import json

        payload = json.loads(json_path.read_text())
        assert payload["columns"] == list(rf.simulator.CSV_COLUMNS)
        assert len(payload["rows"]) == 3


# the simulator's stream layout: trials drawn per block of a probe's stream
BLOCK_TRIALS = 16


def _probe_stream(cfg, model, i_d):
    """The probe's endpoints and a replay of its block stream, one trial at a time.

    Yields each trial's node count, node positions, shadowing draws (row
    0 for endpoint a, row 1 for b) and RSS reading.
    """
    d, side = cfg.distances[i_d], (2.0 * cfg.margin + 1.0) * model.d_th
    intensity = rf.mu_to_lambda(cfg.mu, model.s_mass)
    a = ((side - d) / 2.0, side / 2.0)
    b = ((side + d) / 2.0, side / 2.0)
    rng = np.random.default_rng((cfg.seed, i_d))

    def trials():
        for start in range(0, cfg.trials, BLOCK_TRIALS):
            k = min(BLOCK_TRIALS, cfg.trials - start)
            n = rng.poisson(intensity * side * side, k)
            xy = rng.random((int(n.sum()), 2)) * side
            z = rng.standard_normal((2, xy.shape[0]))
            obs = rf.sample_rss(model.params, np.full(k, d), rng)
            ends = np.cumsum(n)
            for t in range(k):
                nodes = slice(ends[t] - n[t], ends[t])
                yield int(n[t]), xy[nodes], z[:, nodes], float(obs[t])

    return side, intensity, a, b, trials()


def _per_trial_oracle(cfg, model):
    """A plain per-trial loop over the simulator's block streams.

    Counts each trial by set arithmetic on its own nodes and link radii
    r exp(sigma_r ln10 z), and estimates it on its own, with sigma_c
    plugged in at the clamped connectivity estimate and then at the
    clamped first fused estimate.
    """
    params, d_th = model.params, model.d_th
    r, spread = rf.pseudo_range(params), params.sigma_r * math.log(10.0)
    rows = []
    for i_d, d in enumerate(cfg.distances):
        _, intensity, a, b, trials = _probe_stream(cfg, model, i_d)
        sq_rss = sq_conn = sq_fused = 0.0
        for _, xy, z, obs in trials:
            m, p, q = _counts_by_sets(xy, a, b, *(r * np.exp(spread * z)))
            d_rss = rf.estimate_distance_rss(params, obs)
            d_conn = rf.connectivity.invert_counts(model, m, p, q)
            d_fused = d_conn
            for _ in range(2):
                plug = min(max(d_fused, 1e-9 * d_th), d_th)
                sigma_c = rf.conn_error_sigma(model, intensity, plug)
                d_fused = float(
                    rf.fusion.fuse_arrays(d_rss, d_conn, params.sigma_r, sigma_c, d_th)[0]
                )
            sq_rss += (d_rss - d) ** 2
            sq_conn += (d_conn - d) ** 2
            sq_fused += (d_fused - d) ** 2
        rows.append(
            [math.sqrt(sq / cfg.trials) for sq in (sq_rss, sq_conn, sq_fused)]
        )
    return rows


def _spy_estimation(monkeypatch):
    """Record every estimate_pairs call run_experiment makes, with its result."""
    calls = []
    real = rf.simulator.estimate_pairs

    def spy(*args, **kwargs):
        est = real(*args, **kwargs)
        calls.append((args, kwargs, est))
        return est

    monkeypatch.setattr(rf.simulator, "estimate_pairs", spy)
    return calls


class TestBatchedEstimation:
    """run_experiment's block draws and batched estimation against a per-trial loop."""

    def test_matches_per_trial_loop(self, model44):
        self._check_against_oracle(model44, trials=50)

    @pytest.mark.parametrize("trials", [1, 17])
    def test_trials_off_the_block_size(self, model44, trials):
        self._check_against_oracle(model44, trials)

    @staticmethod
    def _check_against_oracle(model44, trials):
        cfg = rf.ExperimentConfig(
            mu=20.0, trials=trials, seed=2024,
            distances=tuple(f * model44.d_th for f in (0.2, 0.55, 0.9)),
        )
        report = rf.run_experiment(cfg, model44)
        oracle = _per_trial_oracle(cfg, model44)
        for row, expected, d in zip(report.rows, oracle, cfg.distances):
            assert (row.d_true, row.trials) == (d, cfg.trials)
            got = [row.rmse_rss, row.rmse_conn, row.rmse_fused]
            np.testing.assert_allclose(got, expected, rtol=1e-13, atol=0.0)

    def test_block_counts_match_set_arithmetic(self, model44):
        cfg = rf.ExperimentConfig(mu=20.0, trials=BLOCK_TRIALS, seed=606,
                                  distances=(0.4 * model44.d_th,))
        side, intensity, a, b, trials = _probe_stream(cfg, model44, 0)
        got, _ = rf.simulator._draw_probe(PARAMS_44, side, intensity, cfg.distances[0],
                                          cfg.trials, np.random.default_rng((cfg.seed, 0)))
        r = rf.pseudo_range(PARAMS_44)
        spread = PARAMS_44.sigma_r * math.log(10.0)
        expected = [_counts_by_sets(xy, a, b, *(r * np.exp(spread * z)))
                    for _, xy, z, _ in trials]
        assert [tuple(c) for c in got.T] == expected
        assert got.sum() > 0

    def test_block_count_means(self, model44):
        cfg = rf.ExperimentConfig(mu=20.0, trials=10**4, seed=99,
                                  distances=(0.5 * model44.d_th,))
        side, intensity, _, _, _ = _probe_stream(cfg, model44, 0)
        counts, _ = rf.simulator._draw_probe(PARAMS_44, side, intensity, cfg.distances[0],
                                             cfg.trials, np.random.default_rng((cfg.seed, 0)))
        mean_m, mean_p, mean_q = counts.mean(axis=1)
        f_true = rf.generic_f(PARAMS_44, cfg.distances[0])
        exclusive = intensity * (rf.generic_s(PARAMS_44) - f_true)
        assert mean_m == pytest.approx(intensity * f_true, rel=0.02)
        assert mean_p == pytest.approx(exclusive, rel=0.02)
        assert mean_q == pytest.approx(exclusive, rel=0.02)
        # the total neighborhood does not depend on the separation
        assert mean_m + mean_p == pytest.approx(cfg.mu, rel=0.02)

    def test_empty_trials_fuse_with_supplied_intensity(self, model44, monkeypatch):
        # about 0.9 nodes per trial, so many trials deploy none
        cfg = rf.ExperimentConfig(
            mu=0.05, trials=33, seed=31,
            distances=(0.3 * model44.d_th, 0.7 * model44.d_th),
        )
        calls = _spy_estimation(monkeypatch)
        rf.run_experiment(cfg, model44)
        (args, _, est), = calls  # one batch for the whole run
        m, p, q = args[2:5]
        empty = np.array([n == 0 for i_d in range(len(cfg.distances))
                          for n, _, _, _ in _probe_stream(cfg, model44, i_d)[4]])
        assert empty.sum() >= 10
        assert (m[empty] == 0).all() and (p[empty] == 0).all() and (q[empty] == 0).all()
        assert (est.intensity == rf.mu_to_lambda(cfg.mu, model44.s_mass)).all()
        assert set(est.status[empty]) <= {"interior", "boundary_clamped"}


class TestExpectedErrors:
    def test_rss_leg_matches_lognormal_law(self, model44):
        lam = rf.mu_to_lambda(20.0, model44.s_mass)
        d = 0.5 * model44.d_th
        exact = rf.expected_errors(model44, lam, d)
        s = PARAMS_44.sigma_r * math.log(10.0)
        rmse = d * math.sqrt(math.exp(2 * s * s) - 2 * math.exp(s * s / 2) + 1)
        assert exact.rmse_rss == pytest.approx(rmse, rel=1e-12)
        assert exact.bias_rss == pytest.approx(d * math.expm1(s * s / 2), rel=1e-12)

    def test_rejects_bad_point(self, model44):
        for d, lam in ((0.0, 0.01), (1.01 * model44.d_th, 0.01), (10.0, 0.0),
                       (10.0, -0.01), (10.0, math.inf)):
            with pytest.raises(ValueError):
                rf.expected_errors(model44, lam, d)

    def test_seeded_run_matches_exact_law(self, model44, monkeypatch):
        # each Monte Carlo RMSE and mean error within 4 of its standard errors
        cfg = rf.ExperimentConfig(
            mu=20.0, trials=400, seed=4242,
            distances=tuple(f * model44.d_th for f in (0.2, 0.5, 0.8)),
        )
        calls = _spy_estimation(monkeypatch)
        report = rf.run_experiment(cfg, model44)
        (args, _, est), = calls
        lam = rf.mu_to_lambda(cfg.mu, model44.s_mass)
        estimates = np.stack([args[1], est.d_conn, est.d_fused]).reshape(3, -1, cfg.trials)
        for i_d, (row, d) in enumerate(zip(report.rows, cfg.distances)):
            exact = rf.expected_errors(model44, lam, d)
            err = estimates[:, i_d] - d
            rmse = np.sqrt(np.mean(err * err, axis=1))
            assert list(rmse) == [row.rmse_rss, row.rmse_conn, row.rmse_fused]
            se_rmse = np.std(err * err, axis=1) / (2.0 * rmse * math.sqrt(cfg.trials))
            se_bias = np.std(err, axis=1) / math.sqrt(cfg.trials)
            exact_rmse = [exact.rmse_rss, exact.rmse_conn, exact.rmse_fused]
            exact_bias = [exact.bias_rss, exact.bias_conn, exact.bias_fused]
            assert (np.abs(rmse - exact_rmse) <= 4.0 * se_rmse).all()
            assert (np.abs(err.mean(axis=1) - exact_bias) <= 4.0 * se_bias).all()
