"""End-to-end acceptance gate.

Each test prints one PASS/FAIL line (run with -s to see them on success;
pytest shows captured output on failure). The heavyweight shared run is
the session-scoped big_report fixture: 5000 trials at 8 probe distances
spanning [0.1, 1.0] of the distance cutoff.
"""

import functools
import math

import numpy as np
import pytest

import rangefuse as rf
from conftest import PARAMS_44, PARAMS_SHARP, penalty

LN10 = math.log(10.0)


def _criterion(num, ok, detail):
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num} failed: {detail}"


def _experiment(params, mu, fracs, trials, seed, model=None):
    if model is None:
        model = rf.build_fd_model(params)
    distances = tuple(float(f) * model.d_th for f in fracs)
    cfg = rf.ExperimentConfig(mu=mu, distances=distances, trials=trials, seed=seed)
    return model, rf.run_experiment(cfg, model)


def test_criterion_1_fusion_dominance(big_report):
    worst = max(
        row.rmse_fused / min(row.rmse_rss, row.rmse_conn) for row in big_report.rows
    )
    _criterion(
        1,
        worst <= 1.05,
        f"fused RMSE <= 1.05 * min(single-source RMSE) at 8 probes, 5000 "
        f"trials each; worst ratio {worst:.4f}",
    )


def test_criterion_2_rss_error_law():
    s = PARAMS_44.sigma_r * LN10
    expected = math.sqrt(math.exp(2 * s * s) - 2 * math.exp(s * s / 2) + 1)
    d_th = rf.threshold_distance(PARAMS_44)
    worst = 0.0
    rng = np.random.default_rng(1002)
    for frac in np.linspace(0.1, 1.0, 8):
        d = float(frac) * d_th
        est = rf.estimate_distance_rss(
            PARAMS_44, rf.sample_rss(PARAMS_44, np.full(10**5, d), rng)
        )
        ratio = math.sqrt(np.mean((est - d) ** 2)) / d
        worst = max(worst, abs(ratio - expected) / expected)
    ok = worst <= 0.03 and abs(expected - 0.241114286343301) < 1e-12
    _criterion(
        2,
        ok,
        f"RSS RMSE/d constant {expected:.4f} reproduced within 3% at 1e5 "
        f"trials per probe; worst deviation {worst:.3%}",
    )


def test_criterion_3_crlb_self_consistency(model44):
    lam = rf.mu_to_lambda(20.0, model44.s_mass)
    worst = 0.0
    # the grid ends at d_th: fim and the bound share the domain (0, d_th]
    for d in np.linspace(0.03, 1.0, 20) * model44.d_th:
        info = rf.fim(model44, lam, float(d))
        schur = 1.0 / (info.i_dd - info.i_dl**2 / info.i_ll)
        closed = rf.crlb_distance(model44, lam, float(d))
        worst = max(worst, abs(closed - schur) / schur)
    _criterion(
        3,
        worst <= 1e-9,
        f"closed-form bound equals the Schur complement of the information "
        f"matrix at 20 distances; worst relative gap {worst:.2e}",
    )


def test_criterion_4_crlb_proximity(big_report, model44):
    lo, hi = 0.3 * model44.d_th, 0.8 * model44.d_th
    rows = [r for r in big_report.rows if lo <= r.d_true <= hi]
    assert len(rows) >= 3
    ratios = [r.rmse_fused / r.sqrt_crlb for r in rows]
    ok = all(0.8 <= ratio <= 1.25 for ratio in ratios)
    _criterion(
        4,
        ok,
        f"fused RMSE within [0.8, 1.25] of the bound on the interior probes; "
        f"ratios {[round(r, 3) for r in ratios]}",
    )


def test_criterion_5_quadrature_correctness():
    r = rf.pseudo_range(PARAMS_SHARP)
    worst_quad = 0.0
    worst_mc = 0.0
    rng = np.random.default_rng(1005)
    for d in (0.0, r / 2.0, r, 1.5 * r):
        disk = rf.unit_disk_f(r, d)
        smooth = rf.generic_f(PARAMS_SHARP, d, quad_tol=1e-3)
        worst_quad = max(worst_quad, abs(smooth - disk) / disk)
        # Monte Carlo area oracle inside the tight lens bounding box
        half_w = r - d / 2.0
        half_h = math.sqrt(r * r - d * d / 4.0)
        x = rng.uniform(-half_w, half_w, 10**6)
        y = rng.uniform(-half_h, half_h, 10**6)
        inside = (
            np.hypot(x + d / 2.0, y) <= r
        ) & (np.hypot(x - d / 2.0, y) <= r)
        mc = 4.0 * half_w * half_h * inside.mean()
        worst_mc = max(worst_mc, abs(mc - disk) / disk)
    ok = worst_quad <= 0.005 and worst_mc <= 0.005
    _criterion(
        5,
        ok,
        f"near-step overlap integral within 0.5% of the lens area (worst "
        f"{worst_quad:.2%}) and lens area within 0.5% of a 1e6-sample Monte "
        f"Carlo oracle (worst {worst_mc:.2%})",
    )


def test_criterion_6_poisson_statistics(model44):
    mu = 20.0
    lam = rf.mu_to_lambda(mu, model44.s_mass)
    d = 0.5 * model44.d_th
    side = 4.0 * model44.d_th
    trials = 10**4
    # the simulator's own draw path: one probe's block stream
    counts, _ = rf.simulator._draw_probe(PARAMS_44, side, lam, d, trials,
                                         np.random.default_rng((1006, 0)))
    mean_m, mean_p, mean_q = counts.mean(axis=1)
    f_true = rf.generic_f(PARAMS_44, d)
    s_true = rf.generic_s(PARAMS_44)
    dev_counts = max(
        abs(mean_m - lam * f_true) / (lam * f_true),
        abs(mean_p - lam * (s_true - f_true)) / (lam * (s_true - f_true)),
        abs(mean_q - lam * (s_true - f_true)) / (lam * (s_true - f_true)),
    )

    rng = np.random.default_rng(10062)
    f_model = rf.eval_fd(model44, d)
    m = rng.poisson(lam * f_model, trials)
    p = rng.poisson(lam * (model44.s_mass - f_model), trials)
    q = rng.poisson(lam * (model44.s_mass - f_model), trials)
    estimates = rf.connectivity.invert_counts(model44, m, p, q)
    spread = float((estimates - d).std())
    predicted = rf.conn_error_sigma(model44, lam, d)
    dev_sigma = abs(spread - predicted) / predicted
    ok = dev_counts <= 0.02 and dev_sigma <= 0.10
    _criterion(
        6,
        ok,
        f"neighbor-count means within 2% over 1e4 field realizations (worst "
        f"{dev_counts:.2%}); connectivity error spread within 10% of the "
        f"normal model ({dev_sigma:.2%})",
    )


def test_criterion_7_trend_replication(model44):
    mu, trials, seed = 20.0, 2500, 1007
    # noise sweep at matched absolute distances inside every cutoff
    sigma_grid = (4.0, 6.0, 8.0)
    abs_fracs = (0.35, 0.5, 0.65, 0.8)
    distances = tuple(f * model44.d_th for f in abs_fracs)
    rss_curves, conn_curves, exact_curves = [], [], []
    for sigma in sigma_grid:
        params = rf.ChannelParams(
            p_ref_dbm=-37.47, alpha=4.0, sigma_db=sigma, rss_threshold_dbm=-100.0
        )
        model = model44 if sigma == 4.0 else rf.build_fd_model(params)
        cfg = rf.ExperimentConfig(mu=mu, distances=distances, trials=trials, seed=seed)
        report = rf.run_experiment(cfg, model)
        rss_curves.append([row.rmse_rss for row in report.rows])
        conn_curves.append([row.rmse_conn for row in report.rows])
        lam = rf.mu_to_lambda(mu, model.s_mass)
        exact_curves.append(
            [rf.expected_errors(model, lam, d).rmse_conn for d in distances])
    rss_monotone = all(
        rss_curves[k][i] < rss_curves[k + 1][i]
        for k in range(len(sigma_grid) - 1)
        for i in range(len(distances))
    )
    # at fixed mu and absolute distance the connectivity error itself grows
    # with shadowing, so the RMSE must follow the ratio of the exact
    # connectivity RMSE, which, unlike the linearized sigma_c, sees the
    # clamp at d_th and the estimator's bias
    conn_dev = [
        [
            abs(
                (conn_curves[k][i] / conn_curves[0][i])
                / (exact_curves[k][i] / exact_curves[0][i])
                - 1.0
            )
            for i in range(len(distances))
        ]
        for k in (1, 2)
    ]
    conn_shift = max(max(row) for row in conn_dev)

    # path-loss sweep at matched fractions of each cutoff
    frac_grid = (0.3, 0.5, 0.7)
    curves = {}
    for alpha in (3.0, 6.0):
        params = rf.ChannelParams(
            p_ref_dbm=-37.47, alpha=alpha, sigma_db=4.0, rss_threshold_dbm=-100.0
        )
        _, report = _experiment(params, mu, frac_grid, trials, seed)
        curves[alpha] = report.rows
    alpha_down = all(
        getattr(curves[6.0][i], col) < getattr(curves[3.0][i], col)
        for i in range(len(frac_grid))
        for col in ("rmse_rss", "rmse_conn", "rmse_fused", "sqrt_crlb")
    )
    ok = rss_monotone and conn_shift < 0.15 and alpha_down
    _criterion(
        7,
        ok,
        f"raising shadowing 4->8 dB raises RSS RMSE at every probe "
        f"(monotone={rss_monotone}) while the connectivity RMSE ratio to "
        f"4 dB tracks the exact connectivity RMSE ratio within {conn_shift:.1%} "
        f"(< 15%; per probe at 6 and 8 dB "
        f"{[[f'{v:.1%}' for v in row] for row in conn_dev]}); raising the "
        f"path loss exponent 3->6 lowers every curve at matched cutoff "
        f"fractions ({alpha_down})",
    )


def test_criterion_8_dataset_workflow(model_field, tmp_path):
    from conftest import PARAMS_FIELD

    rng = np.random.default_rng(1008)
    dep = rf.deploy_poisson(3.0 * model_field.d_th, 16.0 / model_field.s_mass, rng)
    ms = rf.synthesize_measurements(dep, PARAMS_FIELD, rng)
    coords = dict(zip(ms.ids.tolist(), ms.xy.tolist()))
    cutoff = model_field.d_th
    pairs = [
        (i, j)
        for (i, j) in sorted(ms.rss)
        if all(
            cutoff <= c <= 2.0 * cutoff
            for nid in (i, j)
            for c in coords[nid]
        )
    ][:10]
    assert pairs, "fixture produced no interior linked pairs"

    direct = rf.evaluate_pairs(ms, pairs, model_field)

    path = tmp_path / "fixture.txt"
    rf.save_measurements(ms, path)
    loaded = rf.load_measurements(path)
    via_file = rf.evaluate_pairs(loaded, pairs, model_field)

    ok = loaded == ms and via_file == direct
    _criterion(
        8,
        ok,
        f"file-based evaluation of {len(pairs)} synthesized pairs is "
        f"bit-identical to in-memory evaluation (published 44-node dataset "
        f"not obtainable here; workflow gate only)",
    )


def test_criterion_9_solver_correctness():
    rng = np.random.default_rng(1009)
    n_grid = 10**6
    inputs = []
    for _ in range(1000):
        d_th = float(rng.uniform(20.0, 100.0))
        inputs.append((
            float(d_th * 10.0 ** rng.uniform(-1.3, 0.25)),
            float(rng.uniform(0.0, d_th)),
            float(rng.uniform(0.05, 0.35)),
            float(d_th * rng.uniform(0.03, 0.4)),
            d_th,
        ))
    x1, x2, sigma_r, sigma_c, d_th = np.array(inputs).T
    d_hat, _ = rf.fusion.fuse_arrays(x1, x2, sigma_r, sigma_c, d_th)
    worst_gap = 0.0
    for k, args in enumerate(inputs):
        # independent dense-grid maximization of the joint likelihood
        best_pen, best_d = math.inf, None
        for chunk in np.array_split(np.arange(1, n_grid + 1), 5):
            d = chunk * (args[4] / n_grid)
            pen = penalty(*args[:4], d)
            i = int(np.argmin(pen))
            if pen[i] < best_pen:
                best_pen, best_d = float(pen[i]), float(d[i])
        worst_gap = max(worst_gap, abs(d_hat[k] - best_d) / best_d)

    worst_grad = 0.0
    for _ in range(200):
        d_th = float(rng.uniform(20.0, 100.0))
        x1 = float(rng.uniform(1.0, d_th))
        x2 = float(rng.uniform(0.0, d_th))
        sigma_r = float(rng.uniform(0.05, 0.35))
        sigma_c = float(d_th * rng.uniform(0.05, 0.4))
        d = float(rng.uniform(0.1 * d_th, d_th))
        h = 1e-6 * d
        pen = functools.partial(penalty, x1, x2, sigma_r, sigma_c)
        numeric = -(pen(d + h) - pen(d - h)) / (2.0 * h)
        analytic = rf.fusion.stationarity(
            math.log(x1), x2, 1.0 / (sigma_r * LN10) ** 2, 1.0 / sigma_c**2, d) / d
        if abs(analytic) < 1e-3 * (1.0 + abs(pen(d))) / d:
            continue
        worst_grad = max(worst_grad, abs(numeric - analytic) / abs(analytic))
    ok = worst_gap <= 1e-4 and worst_grad <= 1e-6
    _criterion(
        9,
        ok,
        f"solver matches a 1e6-point grid oracle on 1000 randomized inputs "
        f"(worst relative gap {worst_gap:.2e}) and the stationarity function "
        f"matches finite differences (worst {worst_grad:.2e})",
    )
