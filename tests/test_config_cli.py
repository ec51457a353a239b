import json

import numpy as np
import pytest

import rangefuse as rf
from rangefuse import config
from rangefuse.cli import main
from conftest import PARAMS_44, PARAMS_FIELD

CFG_44 = """\
[channel]
p_ref_dbm = -37.47
d0_m = 1.0
alpha = 4.0
sigma_db = 4.0
rss_threshold_dbm = -100.0

[experiment]
mu = 20
distances = 10, 25
trials = 4
seed = 11
"""


@pytest.fixture
def cfg_path(tmp_path):
    path = tmp_path / "cfg.ini"
    path.write_text(CFG_44)
    return path


class TestConfigFiles:
    def test_channel_mapping_keys(self):
        mapping = config.channel_to_mapping(PARAMS_44)
        assert sorted(mapping) == sorted(config.CHANNEL_KEYS)
        assert config.channel_from_mapping(mapping) == PARAMS_44

    def test_load(self, cfg_path):
        channel, experiment = config.load_config(cfg_path)
        assert channel == PARAMS_44
        assert experiment["mu"] == 20.0
        assert experiment["distances"] == (10.0, 25.0)
        assert experiment["trials"] == 4
        assert experiment["seed"] == 11

    def test_write_round_trip(self, tmp_path):
        path = tmp_path / "out.ini"
        config.write_config(path, PARAMS_FIELD, {"mu": 15, "distances": "3, 6"})
        channel, experiment = config.load_config(path)
        assert channel == PARAMS_FIELD
        assert experiment["mu"] == 15.0

    def test_missing_key_rejected(self, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_text("[channel]\np_ref_dbm = -37.47\n")
        with pytest.raises(rf.ConfigurationError):
            config.load_config(path)

    def test_unknown_experiment_key_rejected(self, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_text(CFG_44 + "typo_key = 3\n")
        with pytest.raises(rf.ConfigurationError):
            config.load_config(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(rf.ConfigurationError):
            config.load_config(tmp_path / "nothing.ini")


class TestFdTableCommand:
    def test_writes_deterministic_file(self, cfg_path, tmp_path, capsys):
        out1 = tmp_path / "m1.fd"
        out2 = tmp_path / "m2.fd"
        assert main(["fd-table", "--config", str(cfg_path), "--n-knots", "8",
                     "--quad-tol", "1e-4", "--output", str(out1)]) == 0
        first = capsys.readouterr().out
        assert "s_mass = " in first and "d_th = " in first
        assert main(["fd-table", "--config", str(cfg_path), "--n-knots", "8",
                     "--quad-tol", "1e-4", "--output", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        model = rf.load_fd_model(out1)
        assert model.n_knots == 8

    def test_noise_free_mass_is_disk_area(self, tmp_path, capsys):
        out = tmp_path / "disk.fd"
        assert main(["fd-table", "--p-ref-dbm", "-37.47", "--alpha", "4",
                     "--sigma-db", "0", "--rss-threshold-dbm", "-77.47",
                     "--output", str(out)]) == 0
        text = capsys.readouterr().out
        s_mass = float(text.splitlines()[0].split("=")[1])
        import math

        assert s_mass == pytest.approx(math.pi * 100.0, rel=0.005)

    def test_too_few_knots_is_usage_error(self, cfg_path, tmp_path):
        code = main(["fd-table", "--config", str(cfg_path), "--n-knots", "4",
                     "--output", str(tmp_path / "x.fd")])
        assert code == 2


class TestSimulateCommand:
    def test_noise_free_run_zeroes_rss_column(self, tmp_path):
        out = tmp_path / "rep.csv"
        code = main([
            "simulate", "--p-ref-dbm", "-37.47", "--alpha", "4",
            "--sigma-db", "0", "--rss-threshold-dbm", "-77.47",
            "--mu", "15", "--distances", "2,5", "--trials", "1", "--seed", "1",
            "--n-knots", "16", "--quad-tol", "1e-4", "--output", str(out),
        ])
        assert code == 0
        rows = out.read_text().splitlines()[1:]
        for row in rows:
            assert float(row.split(",")[1]) <= 1e-9

    def test_seeded_runs_are_byte_identical(self, cfg_path, tmp_path):
        fd = tmp_path / "m.fd"
        assert main(["fd-table", "--config", str(cfg_path), "--output", str(fd),
                     "--n-knots", "16", "--quad-tol", "1e-4"]) == 0
        out1, out2 = tmp_path / "r1.csv", tmp_path / "r2.csv"
        args = ["simulate", "--config", str(cfg_path), "--fd-table", str(fd),
                "--n-knots", "16", "--quad-tol", "1e-4", "--json",
                str(tmp_path / "r.json")]
        assert main(args + ["--output", str(out1)]) == 0
        assert main(args + ["--output", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        payload = json.loads((tmp_path / "r.json").read_text())
        assert len(payload["rows"]) == 2

    def test_probe_beyond_cutoff_is_config_error(self, cfg_path, tmp_path):
        code = main(["simulate", "--config", str(cfg_path),
                     "--distances", "1000", "--n-knots", "16",
                     "--quad-tol", "1e-4", "--output", str(tmp_path / "x.csv")])
        assert code == 2

    def test_missing_experiment_settings(self, tmp_path):
        code = main(["simulate", "--p-ref-dbm", "-37.47", "--alpha", "4",
                     "--sigma-db", "4", "--rss-threshold-dbm", "-100",
                     "--output", str(tmp_path / "x.csv")])
        assert code == 2

    def test_model_cache_reused(self, cfg_path, tmp_path):
        cache = tmp_path / "cache"
        args = ["simulate", "--config", str(cfg_path), "--trials", "2",
                "--n-knots", "16", "--quad-tol", "1e-4",
                "--cache-dir", str(cache)]
        assert main(args + ["--output", str(tmp_path / "a.csv")]) == 0
        cached = list(cache.glob("fd_*.txt"))
        assert len(cached) == 1
        stamp = cached[0].stat().st_mtime_ns
        assert main(args + ["--output", str(tmp_path / "b.csv")]) == 0
        assert cached[0].stat().st_mtime_ns == stamp
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


class TestCrlbCommand:
    def test_curve_columns(self, cfg_path, tmp_path):
        out = tmp_path / "crlb.csv"
        code = main(["crlb", "--config", str(cfg_path), "--mu", "20",
                     "--n-knots", "16", "--quad-tol", "1e-4",
                     "--distances", "10,30,60", "--output", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "d,crlb_variance,sqrt_crlb"
        assert len(lines) == 4
        for line in lines[1:]:
            d, var, sd = (float(v) for v in line.split(","))
            assert sd == pytest.approx(var**0.5, rel=1e-12)

    def test_requires_density(self, cfg_path, tmp_path):
        code = main(["crlb", "--config", str(cfg_path), "--n-knots", "16",
                     "--quad-tol", "1e-4", "--output", str(tmp_path / "x.csv")])
        assert code == 2


class TestEstimateCommand:
    def test_zero_counts_print_zero_conn(self, cfg_path, capsys):
        code = main(["estimate", "--config", str(cfg_path), "--n-knots", "16",
                     "--quad-tol", "1e-4", "--rss", "-80",
                     "--m", "0", "--p", "0", "--q", "0"])
        assert code == 0
        out = capsys.readouterr().out
        assert "d_conn = 0.0" in out
        assert "status = " in out

    def test_below_threshold_warns_and_continues(self, cfg_path, capsys):
        code = main(["estimate", "--config", str(cfg_path), "--n-knots", "16",
                     "--quad-tol", "1e-4", "--rss", "-140",
                     "--m", "5", "--p", "8", "--q", "7"])
        assert code == 0
        captured = capsys.readouterr()
        assert "below the link threshold" in captured.err
        assert "connectivity_only" in captured.out

    def test_matches_grid_oracle(self, cfg_path, capsys, model44):
        code = main(["estimate", "--config", str(cfg_path), "--rss", "-85",
                     "--m", "6", "--p", "9", "--q", "11"])
        assert code == 0
        out = dict(
            line.split(" = ") for line in capsys.readouterr().out.splitlines()
        )
        counts = rf.NeighborCounts(6, 9, 11)
        lam = rf.estimate_intensity(counts, model44.s_mass)
        x1 = rf.estimate_distance_rss(PARAMS_44, -85.0)
        x2 = rf.estimate_distance_conn(model44, counts)
        sigma_c = rf.conn_error_sigma(model44, lam, min(max(x2, 1e-9 * model44.d_th), model44.d_th))
        inp = rf.FusionInput(x1, x2, PARAMS_44.sigma_r, sigma_c, model44.d_th)
        n = 10**6
        grid = np.linspace(model44.d_th / n, model44.d_th, n)
        oracle = grid[int(np.argmax(rf.log_likelihood(inp, grid)))]
        assert float(out["d_fused"]) == pytest.approx(oracle, abs=1e-3 * model44.d_th)

    def test_negative_counts_usage_error(self, cfg_path):
        code = main(["estimate", "--config", str(cfg_path), "--rss", "-80",
                     "--m", "-1", "--p", "0", "--q", "0"])
        assert code == 2


class TestDatasetCommand:
    def test_error_table(self, tmp_path):
        meas = tmp_path / "meas.txt"
        meas.write_text(
            "# nodes\n1, 0.0, 0.0\n2, 3.0, 4.0\n3, 1.0, 1.0\n4, 2.5, 2.0\n"
            "# rss\n1, 2, -48.0\n1, 3, -42.0\n2, 3, -47.0\n2, 4, -45.0\n1, 4, -46.0\n"
        )
        out = tmp_path / "errors.csv"
        code = main(["dataset", "--p-ref-dbm", "-37.47", "--alpha", "2.3",
                     "--sigma-db", "3.92", "--rss-threshold-dbm", "-55",
                     "--n-knots", "16", "--quad-tol", "1e-4",
                     "--input", str(meas), "--pairs", "1-2,3-4",
                     "--output", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "pair,d_true,err_rss,err_conn,err_fused"
        assert lines[1].startswith("1-2,5.0,")
        assert lines[2].startswith("3-4,")
        assert lines[2].endswith("nan,nan,nan")

    def test_bad_pair_token(self, tmp_path):
        meas = tmp_path / "meas.txt"
        meas.write_text("# nodes\n1, 0, 0\n2, 1, 1\n# rss\n1, 2, -40\n")
        code = main(["dataset", "--p-ref-dbm", "-37.47", "--alpha", "2.3",
                     "--sigma-db", "3.92", "--rss-threshold-dbm", "-55",
                     "--input", str(meas), "--pairs", "oops",
                     "--output", str(tmp_path / "x.csv")])
        assert code == 2


class TestUsageErrors:
    def test_unknown_subcommand_exits_two(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["frobnicate"])
        assert excinfo.value.code == 2

    def test_missing_channel_is_config_error(self, tmp_path):
        code = main(["fd-table", "--output", str(tmp_path / "x.fd")])
        assert code == 2

    def test_missing_fd_table_is_config_error(self, cfg_path, tmp_path, capsys):
        code = main(["simulate", "--config", str(cfg_path),
                     "--fd-table", str(tmp_path / "absent.fd"),
                     "--output", str(tmp_path / "x.csv")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not (tmp_path / "x.csv").exists()

    def test_output_in_missing_directory_is_file_error(self, cfg_path, tmp_path, capsys):
        code = main(["fd-table", "--config", str(cfg_path), "--n-knots", "8",
                     "--quad-tol", "1e-4",
                     "--output", str(tmp_path / "absent" / "x.fd")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
