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
        a = rf.deploy_poisson(5.0, 1.0, 42)
        b = rf.deploy_poisson(5.0, 1.0, 42)
        assert a.seed == b.seed == 42
        assert np.array_equal(a.nodes, b.nodes)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            rf.deploy_poisson(0.0, 1.0, 1)
        with pytest.raises(ValueError):
            rf.deploy_poisson(1.0, 0.0, 1)


class TestRealizeNeighbors:
    def test_step_links_classify_geometrically(self):
        # unit-step channel: in-range nodes are neighbors, others are not
        side = 48.0
        a, b = (21.0, 24.0), (27.0, 24.0)
        near_both = (24.0, 24.0 + math.sqrt(9.9**2 - 9.0))
        far_both = (24.0, 24.0 + math.sqrt(10.1**2 - 9.0))
        only_a = (21.0 - 9.9, 24.0)
        only_b = (27.0 + 9.9, 24.0)
        nodes = np.array([near_both, far_both, only_a, only_b])
        dep = rf.Deployment(side=side, intensity=0.01, nodes=nodes)
        counts = rf.realize_neighbors(dep, PARAMS_DISK, a, b, np.random.default_rng(4))
        assert (counts.m, counts.p, counts.q) == (1, 1, 1)

    def test_margin_violation_raises(self):
        dep = rf.Deployment(side=30.0, intensity=0.01, nodes=np.array([[15.0, 15.0]]))
        cutoff = rf.threshold_distance(PARAMS_DISK)
        with pytest.raises(rf.ConfigurationError):
            rf.realize_neighbors(
                dep, PARAMS_DISK, (cutoff * 0.5, 15.0), (15.0, 15.0),
                np.random.default_rng(5),
            )

    def test_count_expectations(self, model44):
        mu = 20.0
        lam = rf.mu_to_lambda(mu, model44.s_mass)
        d = 0.5 * model44.d_th
        side = 4.0 * model44.d_th
        a = ((side - d) / 2.0, side / 2.0)
        b = ((side + d) / 2.0, side / 2.0)
        trials = 10**4
        totals = np.zeros(3)
        for t in range(trials):
            rng = np.random.default_rng((99, t))
            dep = rf.deploy_poisson(side, lam, rng)
            counts = rf.realize_neighbors(dep, PARAMS_44, a, b, rng)
            totals += (counts.m, counts.p, counts.q)
        mean_m, mean_p, mean_q = totals / trials
        f_true = rf.generic_f(PARAMS_44, d)
        s_true = rf.generic_s(PARAMS_44)
        assert mean_m == pytest.approx(lam * f_true, rel=0.02)
        assert mean_p == pytest.approx(lam * (s_true - f_true), rel=0.02)
        assert mean_q == pytest.approx(lam * (s_true - f_true), rel=0.02)
        # total neighborhood is separation independent
        assert mean_m + mean_p == pytest.approx(mu, rel=0.02)


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


class TestCountNeighbors:
    """realize_neighbors against set arithmetic on the same link radii."""

    def test_against_set_arithmetic(self):
        rng = np.random.default_rng(11)
        side = 2.0 * rf.threshold_distance(PARAMS_44) + 20.0
        a, b = (side / 2.0 - 10.0, side / 2.0), (side / 2.0 + 10.0, side / 2.0)
        r = rf.pseudo_range(PARAMS_44)
        spread = PARAMS_44.sigma_r * math.log(10.0)
        for seed in range(40):
            n = int(rng.integers(0, 200))
            xy = rng.random((n, 2)) * side
            dep = rf.Deployment(side=side, intensity=0.01, nodes=xy)
            got = rf.realize_neighbors(dep, PARAMS_44, a, b, np.random.default_rng(seed))
            # the same stream: one radius draw per node for a, then for b
            draws = np.random.default_rng(seed)
            reff_a = r * np.exp(spread * draws.standard_normal(n))
            reff_b = r * np.exp(spread * draws.standard_normal(n))
            expected = _counts_by_sets(xy, a, b, reff_a, reff_b)
            assert (got.m, got.p, got.q) == expected

    def test_empty_deployment(self):
        dep = rf.Deployment(side=200.0, intensity=0.01, nodes=np.zeros((0, 2)))
        counts = rf.realize_neighbors(
            dep, PARAMS_44, (95.0, 100.0), (105.0, 100.0), np.random.default_rng(1)
        )
        assert (counts.m, counts.p, counts.q) == (0, 0, 0)


class TestExperimentConfig:
    def test_validation(self):
        good = dict(channel=PARAMS_44, mu=20.0, distances=(5.0,), trials=1, seed=0)
        rf.ExperimentConfig(**good)
        for bad in (
            dict(mu=0.0),
            dict(trials=0),
            dict(seed=-1),
            dict(margin=0.5),
            dict(distances=()),
            dict(distances=(0.0,)),
        ):
            kwargs = dict(good)
            kwargs.update(bad)
            with pytest.raises(ValueError):
                rf.ExperimentConfig(**kwargs)

    def test_probe_beyond_cutoff_rejected(self, model44):
        cfg = rf.ExperimentConfig(
            channel=PARAMS_44, mu=20.0, distances=(model44.d_th * 1.01,),
            trials=1, seed=0,
        )
        with pytest.raises(rf.ConfigurationError):
            rf.run_experiment(cfg, model=model44)

    def test_model_channel_mismatch_rejected(self, model44):
        cfg = rf.ExperimentConfig(
            channel=PARAMS_DISK, mu=20.0, distances=(5.0,), trials=1, seed=0
        )
        with pytest.raises(rf.ConfigurationError):
            rf.run_experiment(cfg, model=model44)


class TestRunExperiment:
    def test_noise_free_rss_is_exact(self):
        cfg = rf.ExperimentConfig(
            channel=PARAMS_DISK, mu=20.0, distances=(3.0, DISK_R / 2.0), trials=1, seed=0
        )
        report = rf.run_experiment(cfg)
        for row in report.rows:
            assert row.rmse_rss <= 1e-9
            assert row.sqrt_crlb == 0.0

    def test_reproducible_bit_for_bit(self, model44):
        cfg = rf.ExperimentConfig(
            channel=PARAMS_44, mu=20.0, distances=(10.0, 40.0), trials=5, seed=12345
        )
        one = rf.run_experiment(cfg, model=model44)
        two = rf.run_experiment(cfg, model=model44)
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
            cfg = rf.ExperimentConfig(
                channel=PARAMS_44, mu=mu, distances=distances, trials=1500, seed=77
            )
            reports[mu] = rf.run_experiment(cfg, model=model44)
        for sparse, dense in zip(reports[10.0].rows, reports[40.0].rows):
            assert dense.rmse_conn < sparse.rmse_conn


class TestRmseReport:
    def test_csv_shape(self, tmp_path):
        cfg = rf.ExperimentConfig(
            channel=PARAMS_DISK, mu=15.0, distances=(2.0, 4.0, 6.0), trials=2, seed=9
        )
        report = rf.run_experiment(cfg)
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
