import dataclasses
import json
import math
import os
import re
import stat
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rangefuse as rf
from rangefuse import cli, config
from rangefuse.cli import main
from conftest import PARAMS_44, PARAMS_FIELD, penalty, save_damaged_table

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


_FINITE = st.floats(allow_nan=False, allow_infinity=False)
_POSITIVE = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)


@st.composite
def _channels(draw):
    """Any channel ChannelParams accepts: finite values, threshold below reference."""
    threshold, p_ref = sorted(draw(st.lists(_FINITE, min_size=2, max_size=2, unique=True)))
    return rf.ChannelParams(p_ref_dbm=p_ref, alpha=draw(_POSITIVE),
                            sigma_db=draw(st.floats(min_value=0.0, allow_infinity=False)),
                            rss_threshold_dbm=threshold, d0=draw(_POSITIVE))


# every experiment key with a value of the type load_config gives it
_EXPERIMENTS = st.fixed_dictionaries({}, optional={
    "mu": _FINITE, "distances": st.lists(_FINITE, min_size=1, max_size=5).map(tuple),
    "trials": st.integers(), "seed": st.integers(), "margin": _FINITE,
    "n_knots": st.integers(), "quad_tol": _FINITE,
})


@pytest.fixture
def cfg_path(tmp_path):
    path = tmp_path / "cfg.ini"
    path.write_text(CFG_44)
    return path


class TestConfigFiles:
    def test_channel_mapping_keys(self):
        mapping = config.channel_to_mapping(PARAMS_44)
        assert list(mapping) == list(config.CHANNEL_KEYS)
        assert config.channel_from_mapping(mapping) == PARAMS_44

    def test_load(self, tmp_path):
        # d0_m has a default, so a [channel] section may leave it out
        for text in (CFG_44, CFG_44.replace("d0_m = 1.0\n", "")):
            path = tmp_path / "cfg.ini"
            path.write_text(text)
            channel, experiment = config.load_config(path)
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

    @settings(max_examples=200, deadline=None)
    @given(params=_channels(), experiment=_EXPERIMENTS)
    def test_write_load_round_trip_bit_for_bit(self, params, experiment):
        with tempfile.TemporaryDirectory() as folder:
            path = Path(folder) / "cfg.ini"
            config.write_config(path, params, experiment)
            loaded = config.load_config(path)
        assert loaded == (params, experiment)
        # repr tells -0.0 from 0.0 and round-trips every finite double
        assert repr(loaded) == repr((params, experiment))

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

    def test_unknown_channel_key_rejected(self, tmp_path, capsys):
        # a misspelled d0_m must not load silently beside the real one
        path = tmp_path / "bad.ini"
        path.write_text("[channel]\np_ref_dbm = -37.47\nd0_m = 1.0\nd0 = 2.0\nalpha = 4.0\n"
                        "sigma_db = 4.0\nrss_threshold_dbm = -100.0\n")
        with pytest.raises(rf.ConfigurationError, match="unknown channel keys: d0$"):
            config.load_config(path)
        assert main(["crlb", "--config", str(path), "--mu", "20",
                     "--output", str(tmp_path / "out.csv")]) == 2
        assert capsys.readouterr().err == f"error: {path}: unknown channel keys: d0\n"

    def test_missing_file(self, tmp_path):
        with pytest.raises(rf.ConfigurationError):
            config.load_config(tmp_path / "nothing.ini")
        # a file that is not UTF-8 is named in the error too
        path = tmp_path / "latin1.ini"
        path.write_bytes(b"[channel]\nalpha\xff = 4\n")
        with pytest.raises(rf.ConfigurationError, match=f"^{re.escape(str(path))}: 'utf-8' codec"):
            config.load_config(path)

    def test_channel_flags_are_the_channel_fields(self):
        # a field without a flag would leave _resolve_channel short of a value
        names = [item.name for item in dataclasses.fields(rf.ChannelParams)]
        assert list(cli._CHANNEL_FLAGS) == names
        assert len(config.CHANNEL_KEYS) == len(names)


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

    def test_tolerance_below_rounding_floor_is_numeric_error(self, cfg_path, tmp_path,
                                                             capsys):
        out = tmp_path / "x.fd"
        code = main(["fd-table", "--config", str(cfg_path), "--quad-tol", "1e-15",
                     "--output", str(out)])
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "rounding floor" in err
        assert not out.exists()

    # an infinite tolerance would let any two refinement levels agree
    @pytest.mark.parametrize("quad_tol", ["inf", "nan", "0", "-1e-6"])
    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_tolerance_not_positive_and_finite_is_usage_error(self, tmp_path, capsys,
                                                              quad_tol, source):
        cfg, out = tmp_path / "cfg.ini", tmp_path / "x.fd"
        flags = [f"--quad-tol={quad_tol}"]
        if source == "config":
            cfg.write_text(CFG_44 + f"quad_tol = {quad_tol}\n")
            flags = []
        else:
            cfg.write_text(CFG_44)
        code = main(["fd-table", "--config", str(cfg), "--n-knots", "8", *flags,
                     "--output", str(out)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err == ("error: --quad-tol must be positive and finite, "
                                f"got {float(quad_tol)}\n")
        assert captured.out == ""
        assert not out.exists()


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

    def test_node_field_too_large_for_memory(self, tmp_path, capsys, model44):
        # 1.9e13 nodes: numpy refuses the 277 TiB request before touching memory
        table, out = tmp_path / "fd.txt", tmp_path / "x.csv"
        rf.save_fd_model(model44, table)
        code = main(["simulate", "--p-ref-dbm", "-37.47", "--alpha", "4",
                     "--sigma-db", "4", "--rss-threshold-dbm", "-100", "--mu", "1e12",
                     "--trials", "1", "--distances", "20", "--fd-table", str(table),
                     "--output", str(out)])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: out of memory") and err.count("\n") == 1
        assert not out.exists()

    def test_margin_one_probe_at_the_cutoff(self, tmp_path):
        # on this channel the endpoint's distance to the edge, (3 d_th - d_th) / 2,
        # rounds to one ulp below d_th
        channel = ["--p-ref-dbm", "-37.47", "--alpha", "4", "--sigma-db", "4",
                   "--rss-threshold-dbm", "-98.5"]
        table, out = tmp_path / "fd.txt", tmp_path / "r.csv"
        assert main(["fd-table", *channel, "--n-knots", "8", "--quad-tol", "1e-3",
                     "--output", str(table)]) == 0
        model = rf.load_fd_model(table)
        side = 3.0 * model.d_th
        assert (side - model.d_th) / 2.0 < model.d_th
        assert main(["simulate", *channel, "--fd-table", str(table), "--mu", "20",
                     "--trials", "20", "--distances", repr(model.d_th), "--margin", "1",
                     "--output", str(out)]) == 0
        (row,) = out.read_text().splitlines()[1:]
        d, *_, sqrt_crlb, _ = map(float, row.split(","))
        lam = 20.0 / model.s_mass
        assert (d, sqrt_crlb) == (model.d_th, math.sqrt(rf.crlb_distance(model, lam, d)))

    def test_missing_experiment_settings(self, tmp_path):
        code = main(["simulate", "--p-ref-dbm", "-37.47", "--alpha", "4",
                     "--sigma-db", "4", "--rss-threshold-dbm", "-100",
                     "--output", str(tmp_path / "x.csv")])
        assert code == 2

    def test_config_parsed_once(self, cfg_path, tmp_path, monkeypatch):
        calls = []

        def counting_load(path):
            calls.append(path)
            return config.load_config(path)

        monkeypatch.setattr("rangefuse.cli.load_config", counting_load)
        assert main(["simulate", "--config", str(cfg_path), "--n-knots", "8",
                     "--quad-tol", "1e-3", "--output", str(tmp_path / "r.csv")]) == 0
        assert calls == [str(cfg_path)]

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


    def test_experiment_table_settings(self, cfg_path, tmp_path):
        # n_knots and quad_tol in [experiment] still size the table
        cfg_path.write_text(CFG_44 + "n_knots = 8\nquad_tol = 1e-3\n")
        cache = tmp_path / "cache"
        assert main(["simulate", "--config", str(cfg_path), "--cache-dir", str(cache),
                     "--output", str(tmp_path / "r.csv")]) == 0
        (cached,) = cache.iterdir()
        # a literal: a changed key text would orphan every existing cache entry
        assert cached.name == "fd_c9d55cabb4578486.txt"
        assert rf.load_fd_model(cached).n_knots == 8


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

    def test_cutoff_is_the_last_distance(self, cfg_path, tmp_path, capsys, model44):
        table, out = tmp_path / "fd.txt", tmp_path / "crlb.csv"
        rf.save_fd_model(model44, table)
        argv = ["crlb", "--config", str(cfg_path), "--fd-table", str(table), "--mu", "20",
                "--output", str(out)]
        assert main(argv + ["--distances", repr(model44.d_th)]) == 0
        variance = float(out.read_text().splitlines()[1].split(",")[1])
        assert variance == rf.crlb_distance(model44, 20.0 / model44.s_mass, model44.d_th)
        out.unlink()
        beyond = math.nextafter(model44.d_th, math.inf)
        assert main(argv + ["--distances", repr(beyond)]) == 2
        assert capsys.readouterr().err == (
            f"error: distance {beyond!r} outside (0, {model44.d_th!r}]\n")
        assert not out.exists()

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
        lam = (2 * 6 + 9 + 11) / (2.0 * model44.s_mass)
        x1 = rf.estimate_distance_rss(PARAMS_44, -85.0)
        x2 = rf.connectivity.invert_counts(model44, 6, 9, 11)
        n = 10**6
        grid = np.linspace(model44.d_th / n, model44.d_th, n)
        # two passes: sigma_c at the connectivity estimate, then at the
        # first pass's estimate
        oracle = x2
        for _ in range(2):
            point = min(max(oracle, 1e-9 * model44.d_th), model44.d_th)
            sigma_c = rf.conn_error_sigma(model44, lam, point)
            oracle = grid[int(np.argmin(penalty(x1, x2, PARAMS_44.sigma_r, sigma_c, grid)))]
        assert float(out["d_fused"]) == pytest.approx(oracle, abs=1e-3 * model44.d_th)

    @pytest.mark.parametrize("name", ["m", "p", "q"])
    def test_negative_counts_usage_error(self, cfg_path, capsys, name):
        counts = ["--m", "0", "--p", "0", "--q", "0"]
        counts[counts.index(f"--{name}") + 1] = "-1"
        code = main(["estimate", "--config", str(cfg_path), "--rss", "-80", *counts])
        assert code == 2
        assert capsys.readouterr().err == f"error: {name} must be a nonnegative integer, got -1\n"

    @pytest.mark.parametrize("argv, warnings, status", [
        (["--rss", "-140", "--m", "0", "--p", "0", "--q", "0"],
         ["all-zero counts: no intensity estimate, connectivity unusable",
          "RSS below the link threshold: treated as uninformative"], "no_information"),
        (["--rss", "-85", "--m", "6", "--p", "9", "--q", "11", "--intensity", "0"],
         ["zero intensity supplied: connectivity unusable"], "rss_only"),
    ], ids=["all-zero-counts-below-threshold", "zero-intensity"])
    def test_warnings_without_connectivity(self, cfg_path, capsys, argv, warnings, status):
        code = main(["estimate", "--config", str(cfg_path), "--n-knots", "16",
                     "--quad-tol", "1e-4", *argv])
        assert code == 0
        captured = capsys.readouterr()
        assert captured.err == "".join(f"warning: {text}\n" for text in warnings)
        assert captured.out.endswith(f"sqrt_crlb = nan\nstatus = {status}\n")

    def test_bound_at_fused_estimate(self, cfg_path, tmp_path, capsys, model44):
        table = tmp_path / "fd.txt"
        rf.save_fd_model(model44, table)
        code = main(["estimate", "--config", str(cfg_path), "--fd-table", str(table),
                     "--rss", "-85", "--m", "6", "--p", "9", "--q", "11"])
        assert code == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        out = dict(line.split(" = ") for line in captured.out.splitlines())
        lam = (2 * 6 + 9 + 11) / (2.0 * model44.s_mass)
        bound = rf.crlb_distance(model44, lam, float(out["d_fused"]))
        assert out["sqrt_crlb"] == repr(math.sqrt(bound))

    def test_connectivity_only_bound_is_sigma_c(self, cfg_path, tmp_path, capsys, model44):
        # no usable RSS reading: the bound is that of the counts alone, sigma_c
        table = tmp_path / "fd.txt"
        rf.save_fd_model(model44, table)
        code = main(["estimate", "--config", str(cfg_path), "--fd-table", str(table),
                     "--rss", "-140", "--m", "5", "--p", "8", "--q", "7"])
        assert code == 0
        captured = capsys.readouterr()
        assert captured.err == "warning: RSS below the link threshold: treated as uninformative\n"
        out = dict(line.split(" = ") for line in captured.out.splitlines())
        assert out["status"] == "connectivity_only"
        lam = (2 * 5 + 8 + 7) / (2.0 * model44.s_mass)
        sigma_c = rf.conn_error_sigma(model44, lam, float(out["d_fused"]))
        assert out["sqrt_crlb"] == repr(sigma_c)
        assert sigma_c > math.sqrt(rf.crlb_distance(model44, lam, float(out["d_fused"])))


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
        assert lines[0] == "pair,d_true,err_rss,err_conn,err_fused,status,d_fused"
        assert lines[1].startswith("1-2,5.0,")
        _, d_true, _, _, err_fused, status, d_fused = lines[1].split(",")
        assert status == "interior"
        assert abs(float(d_fused) - float(d_true)) == float(err_fused)
        assert lines[2].startswith("3-4,")
        assert lines[2].endswith("nan,nan,nan,error,nan")

    @pytest.mark.parametrize("rss_rows, reading", [
        ("1, 2, 1.7e308\n", "1.7e+308"),
        ("1, 2, 1.7e308\n2, 1, 1.7e308\n", "1.7e+308"),
        ("1, 2, -1e308\n", "-1e+308"),
    ], ids=["one_direction", "both_directions", "infinite_range"])
    def test_reading_without_finite_range(self, tmp_path, capsys, rss_rows, reading):
        # 1.7e308 dBm is above the link threshold but maps to a range of 0;
        # -1e308 dBm maps to an infinite range
        meas = tmp_path / "meas.txt"
        meas.write_text("# nodes\n1, 0.0, 0.0\n2, 3.0, 4.0\n# rss\n" + rss_rows)
        out = tmp_path / "errors.csv"
        code = main(["dataset", "--p-ref-dbm", "-37.47", "--alpha", "2.3",
                     "--sigma-db", "3.92", "--rss-threshold-dbm", "-55",
                     "--n-knots", "16", "--quad-tol", "1e-4",
                     "--input", str(meas), "--pairs", "1-2", "--output", str(out)])
        assert code == 2
        assert capsys.readouterr().err == (
            f"error: pair (1, 2) has an RSS reading of {reading} dBm, "
            "which maps to no positive, finite distance\n")
        assert not out.exists()

    def test_bad_pair_token(self, tmp_path, capsys):
        meas = tmp_path / "meas.txt"
        meas.write_text("# nodes\n1, 0, 0\n2, 1, 1\n# rss\n1, 2, -40\n")
        for token in ("oops", "1-2-3", "1:2-3", "-5", "1:", "--5-3", "1-x"):
            code = main(["dataset", "--p-ref-dbm", "-37.47", "--alpha", "2.3",
                         "--sigma-db", "3.92", "--rss-threshold-dbm", "-55",
                         "--input", str(meas), f"--pairs={token}",
                         "--output", str(tmp_path / "x.csv")])
            assert code == 2
            assert capsys.readouterr().err == (
                f"error: bad pair {token!r}; expected 'id-id' or 'id:id' tokens\n")

    @pytest.mark.parametrize("token, pair", [("-5-3", "-5-3"), ("-5:3", "-5-3"),
                                             ("3--5", "3--5"), ("3:-5", "3--5")])
    def test_negative_ids(self, tmp_path, token, pair):
        meas = tmp_path / "meas.txt"
        meas.write_text("# nodes\n-5, 0.0, 0.0\n3, 3.0, 4.0\n-7, 1.0, 1.0\n"
                        "# rss\n-5, 3, -48.0\n3, -7, -47.0\n-5, -7, -42.0\n")
        out = tmp_path / "errors.csv"
        code = main(["dataset", "--p-ref-dbm", "-37.47", "--alpha", "2.3",
                     "--sigma-db", "3.92", "--rss-threshold-dbm", "-55",
                     "--n-knots", "16", "--quad-tol", "1e-4",
                     "--input", str(meas), f"--pairs={token}, -7:-5",
                     "--output", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[1].startswith(f"{pair},5.0,")
        assert lines[2].startswith("-7--5,")
        assert "nan" not in out.read_text()


class TestParser:
    def test_built_once_with_fresh_defaults(self, cfg_path, tmp_path, capsys):
        cli.build_parser.cache_clear()
        table = tmp_path / "m.fd"
        assert main(["fd-table", "--config", str(cfg_path), "--n-knots", "8",
                     "--quad-tol", "1e-3", "--output", str(table)]) == 0
        assert main(["simulate", "--config", str(cfg_path), "--fd-table", str(table),
                     "--mu", "15", "--distances", "5", "--output", str(tmp_path / "r.csv")]) == 0
        assert cli.build_parser.cache_info().misses == 1
        # crlb has its own --mu and --distances, unset here: no density, so a usage error
        capsys.readouterr()
        assert main(["crlb", "--config", str(cfg_path), "--fd-table", str(table),
                     "--output", str(tmp_path / "c.csv")]) == 2
        assert capsys.readouterr().err == "error: supply --mu or --intensity\n"
        # and the default distances, 19 of them
        assert main(["crlb", "--config", str(cfg_path), "--fd-table", str(table),
                     "--intensity", "0.01", "--output", str(tmp_path / "c.csv")]) == 0
        assert len((tmp_path / "c.csv").read_text().splitlines()) == 1 + 19
        assert cli.build_parser.cache_info().misses == 1

    def test_fd_table_help_describes_the_table_flags(self, capsys):
        with pytest.raises(SystemExit):
            main(["fd-table", "--help"])
        out = capsys.readouterr().out
        assert "table size for the f(d) model" in out
        assert "relative quadrature tolerance" in out
        with pytest.raises(SystemExit):
            main(["simulate", "--help"])
        out = " ".join(capsys.readouterr().out.split())
        for text in ("trials per distance (default 10000)", "seed (default 0)",
                     "multiples (default 1.5)", "reference distance, m (default 1.0)"):
            assert text in out


class TestDamagedTable:
    @pytest.mark.parametrize("damage", ["knot", "s_mass", "d_th"])
    @pytest.mark.parametrize("command", [
        ["estimate", "--rss", "-85", "--m", "6", "--p", "9", "--q", "11"],
        ["crlb", "--mu", "20", "--output", "OUT"],
    ], ids=["estimate", "crlb"])
    def test_non_finite_value_is_usage_error(self, cfg_path, tmp_path, capsys, model44,
                                             command, damage):
        table, out = tmp_path / "bad.fd", tmp_path / "out.csv"
        save_damaged_table(model44, table, damage)
        argv = [str(out) if token == "OUT" else token for token in command]
        code = main(argv + ["--config", str(cfg_path), "--fd-table", str(table)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err == (f"error: {table}: inconsistent model data: "
                                "s_mass, d_th and every knot must be finite\n")
        assert captured.out == ""
        assert not out.exists()

    @pytest.mark.parametrize("n_knots", ["inf", "nan", "64.7"])
    def test_n_knots_not_an_integer_is_usage_error(self, cfg_path, tmp_path, capsys, model44,
                                                   n_knots):
        table, out = tmp_path / "bad.fd", tmp_path / "out.csv"
        rf.save_fd_model(model44, table)
        lines = table.read_text().splitlines()
        k = next(k for k, line in enumerate(lines) if line.startswith("n_knots = "))
        lines[k] = f"n_knots = {n_knots}"
        table.write_text("\n".join(lines) + "\n")
        code = main(["crlb", "--mu", "20", "--config", str(cfg_path), "--fd-table", str(table),
                     "--output", str(out)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err == f"error: {table}:{k + 1}: malformed line 'n_knots = {n_knots}'\n"
        assert captured.out == ""
        assert not out.exists()

    def test_empty_knot_list_is_usage_error(self, cfg_path, tmp_path, capsys, model44):
        table, out = tmp_path / "bad.fd", tmp_path / "out.csv"
        rf.save_fd_model(model44, table)
        header = table.read_text().split("knots:")[0]
        table.write_text(header.replace(f"n_knots = {model44.n_knots}", "n_knots = 0")
                         + "knots:\n")
        code = main(["crlb", "--mu", "20", "--config", str(cfg_path), "--fd-table", str(table),
                     "--output", str(out)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.startswith(f"error: {table}: inconsistent model data: ")
        assert captured.err.count("\n") == 1
        assert captured.out == ""
        assert not out.exists()

    @pytest.mark.parametrize("extra, problem", [
        ("alpha = 2.3", "repeated header field 'alpha'"),
        ("bogus = 7", "unknown header field 'bogus'"),
    ], ids=["repeated", "unknown"])
    def test_header_field_repeated_or_unknown(self, cfg_path, tmp_path, capsys, model44,
                                              extra, problem):
        # a second alpha would silently change the channel of every estimate
        table, out = tmp_path / "bad.fd", tmp_path / "out.csv"
        rf.save_fd_model(model44, table)
        lines = table.read_text().splitlines()
        k = lines.index("alpha = 4.0") + 1
        lines.insert(k, extra)
        table.write_text("\n".join(lines) + "\n")
        with pytest.raises(rf.ConfigurationError):
            rf.load_fd_model(table)
        code = main(["crlb", "--mu", "20", "--config", str(cfg_path), "--fd-table", str(table),
                     "--output", str(out)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err == f"error: {table}:{k + 1}: {problem}\n"
        assert not out.exists()


class TestTableForAnotherChannel:
    """The library reads the channel from the table, so the CLI checks a loaded table's."""

    @pytest.mark.parametrize("command", [
        ["simulate"],
        ["dataset", "--input", "IN", "--pairs", "1-2"],
    ])
    def test_fd_table_is_usage_error(self, cfg_path, tmp_path, capsys, model_field, command):
        table, out = tmp_path / "field.fd", tmp_path / "out.csv"
        rf.save_fd_model(model_field, table)
        meas = tmp_path / "meas.txt"
        meas.write_text("# nodes\n1, 0, 0\n2, 3, 4\n3, 1, 1\n# rss\n1, 2, -60\n1, 3, -50\n")
        argv = [str(meas) if token == "IN" else token for token in command]
        code = main(argv + ["--config", str(cfg_path), "--fd-table", str(table),
                            "--output", str(out)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err == f"error: {table} was built for different channel parameters\n"
        assert captured.out == ""
        assert not out.exists()

    def test_cache_entry_is_usage_error(self, cfg_path, tmp_path, capsys, model_field):
        # a cache file under this channel's key whose content names another channel
        cache, out = tmp_path / "cache", tmp_path / "out.csv"
        cache.mkdir()
        entry = cache / f"fd_{cli._model_cache_key(PARAMS_44, 8, 1e-3)}.txt"
        rf.save_fd_model(model_field, entry)
        code = main(["simulate", "--config", str(cfg_path), "--n-knots", "8",
                     "--quad-tol", "1e-3", "--cache-dir", str(cache), "--output", str(out)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err == f"error: {entry} was built for different channel parameters\n"
        assert captured.out == ""
        assert not out.exists()


class TestUsageErrors:
    def test_unknown_subcommand_exits_two(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["frobnicate"])
        assert excinfo.value.code == 2

    def test_missing_channel_is_config_error(self, tmp_path):
        code = main(["fd-table", "--output", str(tmp_path / "x.fd")])
        assert code == 2

    def test_missing_fd_table_is_config_error(self, cfg_path, tmp_path, capsys):
        # absent, and present but not UTF-8
        (tmp_path / "latin1.fd").write_bytes(b"fdmodel v1\nalpha = 4\xff\n")
        for table in (tmp_path / "absent.fd", tmp_path / "latin1.fd"):
            code = main(["simulate", "--config", str(cfg_path), "--fd-table", str(table),
                         "--output", str(tmp_path / "x.csv")])
            assert code == 2
            err = capsys.readouterr().err
            assert err.startswith("error: ") and err.count("\n") == 1 and str(table) in err
            assert not (tmp_path / "x.csv").exists()

    @pytest.mark.skipif(not Path("/proc/self/mem").is_file(),
                        reason="needs /proc/self/mem, a regular file whose read fails")
    def test_unreadable_config_is_file_error(self, tmp_path, capsys):
        # its settings must not be dropped silently, flags or no flags
        code = main(["simulate", "--config", "/proc/self/mem", "--p-ref-dbm", "-37.47",
                     "--alpha", "4", "--sigma-db", "4", "--rss-threshold-dbm", "-100",
                     "--mu", "20", "--distances", "10", "--output", str(tmp_path / "x.csv")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and "/proc/self/mem" in err
        assert not (tmp_path / "x.csv").exists()

    def test_output_in_missing_directory_is_file_error(self, cfg_path, tmp_path, capsys):
        code = main(["fd-table", "--config", str(cfg_path), "--n-knots", "8",
                     "--quad-tol", "1e-4",
                     "--output", str(tmp_path / "absent" / "x.fd")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("command, named", [
        (["estimate", "--rss", "-85", "--m", "6", "--p", "9", "--q", "11",
          "--intensity", "-1"], "intensity"),
        (["estimate", "--rss", "-85", "--m", "6", "--p", "9", "--q", "11",
          "--intensity", "nan"], "intensity"),
        (["estimate", "--rss", "-85", "--m", "6", "--p", "9", "--q", "11",
          "--intensity", "inf"], "intensity"),
        (["dataset", "--input", "IN", "--pairs", "1-2", "--intensity", "-1", "--output", "OUT"],
         "intensity"),
        (["dataset", "--input", "IN", "--pairs", "1-2", "--intensity", "nan", "--output", "OUT"],
         "intensity"),
        (["crlb", "--intensity", "inf", "--output", "OUT"], "intensity"),
        (["crlb", "--mu", "inf", "--output", "OUT"], "mu"),
        (["simulate", "--margin", "inf", "--output", "OUT"], "margin"),
        # finite and positive, but sigma_c or 1/sigma_c^2 leaves the floats
        (["estimate", "--rss", "-85", "--m", "6", "--p", "9", "--q", "11",
          "--intensity", "1e308"], "intensity"),
        (["estimate", "--rss", "-85", "--m", "6", "--p", "9", "--q", "11",
          "--intensity", "1e-320"], "intensity"),
        (["dataset", "--input", "IN", "--pairs", "1-2", "--intensity", "1e308",
          "--output", "OUT"], "intensity"),
        (["dataset", "--input", "IN", "--pairs", "1-2", "--intensity", "1e-320",
          "--output", "OUT"], "intensity"),
        (["crlb", "--intensity", "1e308", "--output", "OUT"], "intensity"),
        (["crlb", "--intensity", "1e-320", "--output", "OUT"], "intensity"),
    ], ids=["estimate-negative", "estimate-nan", "estimate-inf", "dataset-negative",
            "dataset-nan", "crlb-intensity-inf", "crlb-mu-inf", "simulate-margin-inf",
            "estimate-1e308", "estimate-1e-320", "dataset-1e308", "dataset-1e-320",
            "crlb-1e308", "crlb-1e-320"])
    def test_bad_density_or_margin_is_usage_error(self, cfg_path, tmp_path, capsys,
                                                  command, named):
        meas = tmp_path / "meas.txt"
        meas.write_text("# nodes\n1, 0, 0\n2, 3, 4\n3, 1, 1\n# rss\n1, 2, -90\n1, 3, -80\n")
        out = tmp_path / "out.csv"
        paths = {"IN": str(meas), "OUT": str(out)}
        argv = [paths.get(token, token) for token in command]
        code = main(argv + ["--config", str(cfg_path), "--n-knots", "8", "--quad-tol", "1e-3"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert named in captured.err
        assert captured.out == ""
        assert not out.exists()


def _never(*args, **kwargs):
    pytest.fail("the command started its work before checking its output paths")


class TestOutputPrecheck:
    """An output in a missing directory fails before any work starts."""

    @pytest.mark.parametrize("flag", ["--output", "--json"])
    def test_simulate_fails_before_running(self, cfg_path, tmp_path, capsys, monkeypatch,
                                           flag):
        monkeypatch.setattr("rangefuse.cli.run_experiment", _never)
        monkeypatch.setattr("rangefuse.cli.build_fd_model", _never)
        paths = {"--output": tmp_path / "ok.csv", "--json": tmp_path / "ok.json"}
        paths[flag] = tmp_path / "absent" / "x"
        code = main(["simulate", "--config", str(cfg_path), "--trials", "2000",
                     "--output", str(paths["--output"]), "--json", str(paths["--json"])])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not any(path.exists() for path in paths.values())

    @pytest.mark.parametrize("command", [
        ["dataset", "--input", "IN", "--pairs", "1-2"],
        ["crlb", "--mu", "20"],
        ["fd-table"],
    ])
    def test_other_commands(self, cfg_path, tmp_path, capsys, monkeypatch, command):
        for name in ("build_fd_model", "load_measurements", "evaluate_pairs"):
            monkeypatch.setattr(f"rangefuse.cli.{name}", _never)
        meas = tmp_path / "meas.txt"
        meas.write_text("# nodes\n1, 0, 0\n2, 1, 1\n# rss\n1, 2, -40\n")
        argv = [str(meas) if token == "IN" else token for token in command]
        code = main(argv + ["--config", str(cfg_path),
                            "--output", str(tmp_path / "absent" / "x.csv")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1


    @pytest.mark.parametrize("command, flag", [
        (["simulate", "--trials", "2000", "--json", "JSON"], "--output"),
        (["simulate", "--trials", "2000", "--output", "OUT"], "--json"),
        (["fd-table"], "--output"),
    ], ids=["simulate-output", "simulate-json", "fd-table"])
    def test_output_that_is_a_directory(self, cfg_path, tmp_path, capsys, monkeypatch,
                                        command, flag):
        monkeypatch.setattr("rangefuse.cli.run_experiment", _never)
        monkeypatch.setattr("rangefuse.cli.build_fd_model", _never)
        folder = tmp_path / "taken"
        folder.mkdir()
        paths = {"OUT": str(tmp_path / "ok.csv"), "JSON": str(tmp_path / "ok.json")}
        argv = [paths.get(token, token) for token in command]
        code = main(argv + ["--config", str(cfg_path), flag, str(folder)])
        assert code == 2
        assert capsys.readouterr().err == f"error: cannot write {folder}: it is a directory\n"
        assert sorted(path.name for path in tmp_path.iterdir()) == ["cfg.ini", "taken"]
        assert list(folder.iterdir()) == []

    @pytest.mark.parametrize("json_path", ["r.csv", "./r.csv", "sub/../r.csv"])
    def test_output_and_json_naming_one_file(self, cfg_path, tmp_path, capsys, monkeypatch,
                                             json_path):
        monkeypatch.setattr("rangefuse.cli.run_experiment", _never)
        monkeypatch.setattr("rangefuse.cli.build_fd_model", _never)
        monkeypatch.chdir(tmp_path)
        (tmp_path / "sub").mkdir()
        code = main(["simulate", "--config", str(cfg_path), "--output", "r.csv",
                     "--json", json_path])
        assert code == 2
        assert capsys.readouterr().err == f"error: --output and --json both name {json_path}\n"
        assert sorted(path.name for path in tmp_path.iterdir()) == ["cfg.ini", "sub"]

    @pytest.mark.parametrize("command, reason", [
        (["dataset", "--pairs", "1-2", "--input", "meas.txt", "--output", "meas.txt"],
         "--input and --output both name meas.txt"),
        (["dataset", "--pairs", "1-2", "--input", "meas.txt", "--output", "link.txt"],
         "--input and --output both name link.txt"),
        (["simulate", "--fd-table", "table.txt", "--output", "table.txt"],
         "--fd-table and --output both name table.txt"),
        (["simulate", "--fd-table", "table.txt", "--output", "r.csv", "--json", "./table.txt"],
         "--fd-table and --json both name ./table.txt"),
        (["crlb", "--mu", "20", "--fd-table", "table.txt", "--output", "sub/../table.txt"],
         "--fd-table and --output both name sub/../table.txt"),
        (["fd-table", "--output", "cfg.ini"], "--config and --output both name cfg.ini"),
        (["simulate", "--output", "r.csv", "--json", "cfg.ini"],
         "--config and --json both name cfg.ini"),
    ], ids=["dataset-input", "dataset-input-symlink", "simulate-table", "simulate-json-table",
            "crlb-table", "fd-table-config", "simulate-json-config"])
    def test_output_naming_an_input(self, cfg_path, tmp_path, capsys, monkeypatch, model44,
                                    command, reason):
        for name in ("build_fd_model", "load_fd_model", "load_measurements", "run_experiment"):
            monkeypatch.setattr(f"rangefuse.cli.{name}", _never)
        monkeypatch.chdir(tmp_path)
        (tmp_path / "sub").mkdir()
        (tmp_path / "meas.txt").write_text("# nodes\n1, 0, 0\n2, 1, 1\n# rss\n1, 2, -40\n")
        (tmp_path / "link.txt").symlink_to("meas.txt")
        rf.save_fd_model(model44, tmp_path / "table.txt")
        files = ("cfg.ini", "meas.txt", "table.txt")
        before = [(tmp_path / name).read_bytes() for name in files]
        code = main(command + ["--config", "cfg.ini"])
        assert code == 2
        assert capsys.readouterr().err == f"error: {reason}\n"
        assert [(tmp_path / name).read_bytes() for name in files] == before
        assert sorted(path.name for path in tmp_path.iterdir()) == sorted(
            ["link.txt", "sub", *files])

    @pytest.mark.parametrize("flag", ["--input", "--config"])
    def test_input_that_is_a_symlink_loop(self, cfg_path, tmp_path, capsys, monkeypatch, flag):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "loop.txt").symlink_to("loop.txt")
        (tmp_path / "meas.txt").write_text("# nodes\n1, 0, 0\n2, 1, 1\n# rss\n1, 2, -40\n")
        paths = {"--input": "meas.txt", "--config": str(cfg_path), flag: "loop.txt"}
        code = main(["dataset", "--pairs", "1-2", "--input", paths["--input"],
                     "--config", paths["--config"], "--output", "r.csv"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and "loop.txt" in err
        assert not (tmp_path / "r.csv").exists()


class TestModelCacheAtomic:
    def test_failed_save_leaves_no_cache_file(self, cfg_path, tmp_path, monkeypatch):
        write_text = Path.write_text

        def write_half(path, text, *args, **kwargs):
            write_text(path, text[:len(text) // 2], *args, **kwargs)
            raise OSError("disk full")

        # the save of the table breaks halfway through its one write
        monkeypatch.setattr(Path, "write_text", write_half)
        cache = tmp_path / "cache"
        code = main(["simulate", "--config", str(cfg_path), "--trials", "2",
                     "--n-knots", "8", "--quad-tol", "1e-3", "--cache-dir", str(cache),
                     "--output", str(tmp_path / "a.csv")])
        assert code == 2
        assert list(cache.iterdir()) == []

    def test_cache_file_is_a_complete_model(self, cfg_path, tmp_path):
        cache = tmp_path / "cache"
        assert main(["crlb", "--config", str(cfg_path), "--mu", "20", "--n-knots", "8",
                     "--quad-tol", "1e-3", "--cache-dir", str(cache),
                     "--output", str(tmp_path / "c.csv")]) == 0
        (cached,) = cache.iterdir()
        assert cached.name.startswith("fd_") and cached.suffix == ".txt"
        assert rf.load_fd_model(cached).n_knots == 8


class TestEstimateExtremeReading:
    def test_subnormal_rss_estimate(self, cfg_path, capsys):
        # 12900 dBm maps to the smallest subnormal distance, 5e-324 m
        code = main(["estimate", "--config", str(cfg_path), "--n-knots", "16",
                     "--quad-tol", "1e-4", "--rss", "12900",
                     "--m", "5", "--p", "8", "--q", "7"])
        assert code == 0
        out = dict(line.split(" = ") for line in capsys.readouterr().out.splitlines())
        assert float(out["d_rss"]) == 5e-324
        assert 0.0 < float(out["d_fused"]) <= rf.threshold_distance(PARAMS_44)

    @pytest.mark.parametrize("argv, reading", [
        (["--rss", "13000", "--m", "5", "--p", "8", "--q", "7"], "13000.0"),
        (["--rss", "13000", "--m", "0", "--p", "0", "--q", "0"], "13000.0"),
        (["--rss=-1e308", "--m", "5", "--p", "8", "--q", "7"], "-1e+308"),
    ], ids=["zero-range", "zero-range-zero-counts", "infinite-range"])
    def test_reading_without_finite_range(self, cfg_path, capsys, argv, reading):
        code = main(["estimate", "--config", str(cfg_path), "--n-knots", "16",
                     "--quad-tol", "1e-4", *argv])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.err == (f"error: the pair has an RSS reading of {reading} dBm, "
                                "which maps to no positive, finite distance\n")
        assert captured.out == ""


def _half_write(monkeypatch):
    """Make every Path.write_text write half its text, then fail like a full disk."""
    original = Path.write_text

    def half_write(self, text, *args, **kwargs):
        original(self, text[: len(text) // 2], *args, **kwargs)
        raise OSError("disk full")

    monkeypatch.setattr(Path, "write_text", half_write)


class TestAtomicOutput:
    @pytest.mark.parametrize("existing", [True, False])
    def test_failure_leaves_target_unchanged_or_absent(self, tmp_path, existing):
        target = tmp_path / "out.txt"
        if existing:
            target.write_text("old\n")
        with pytest.raises(OSError, match="disk full"):
            with config.atomic_output(target) as partial:
                partial.write_text("half a")
                raise OSError("disk full")
        assert list(tmp_path.iterdir()) == ([target] if existing else [])
        if existing:
            assert target.read_text() == "old\n"

    @pytest.mark.parametrize("existing", [True, False])
    def test_success_gives_the_mode_open_gives(self, tmp_path, existing):
        # open() keeps an existing file's permission bits; a new file gets
        # 0o666 less the umask
        target = tmp_path / "out.txt"
        if existing:
            target.write_text("old\n")
            target.chmod(0o604)
        previous = os.umask(0o027)
        try:
            with config.atomic_output(target) as partial:
                partial.write_text("new\n")
        finally:
            os.umask(previous)
        assert target.read_text() == "new\n"
        assert stat.S_IMODE(target.stat().st_mode) == (0o604 if existing else 0o640)
        assert list(tmp_path.iterdir()) == [target]

    def test_writers_keep_an_existing_files_mode(self, cfg_path, tmp_path, model44):
        table, curve = tmp_path / "table.txt", tmp_path / "curve.csv"
        for path in (table, curve):
            path.write_text("old\n")
            path.chmod(0o600)
        previous = os.umask(0o022)
        try:
            rf.save_fd_model(model44, table)
            code = main(["crlb", "--config", str(cfg_path), "--mu", "20",
                         "--fd-table", str(table), "--output", str(curve)])
        finally:
            os.umask(previous)
        assert code == 0
        assert rf.load_fd_model(table).s_mass == model44.s_mass
        assert curve.read_text().startswith("d,crlb_variance,sqrt_crlb\n")
        assert [stat.S_IMODE(path.stat().st_mode) for path in (table, curve)] == [0o600] * 2

    def test_library_writers_leave_no_torn_file(self, tmp_path, monkeypatch):
        model = rf.build_fd_model(rf.ChannelParams(
            p_ref_dbm=-37.47, alpha=4.0, sigma_db=0.0, rss_threshold_dbm=-77.47), n_knots=8)
        row = rf.RmseRow(d_true=1.0, rmse_rss=0.1, rmse_conn=0.2, rmse_fused=0.1,
                         sqrt_crlb=0.1, trials=3)
        report = rf.RmseReport(rows=(row,))
        meas = rf.MeasurementSet(ids=[1, 2], xy=[[0.0, 0.0], [3.0, 4.0]], links=[[1, 2]],
                                 link_rss=[-48.0])
        writers = {
            "model.fd": lambda path: rf.save_fd_model(model, path),
            "report.csv": report.write_csv,
            "report.json": report.write_json,
            "meas.txt": lambda path: rf.save_measurements(meas, path),
        }
        for name in writers:
            (tmp_path / name).write_text("old\n")
        _half_write(monkeypatch)
        for name, write in writers.items():
            with pytest.raises(OSError, match="disk full"):
                write(tmp_path / name)
        monkeypatch.undo()
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(writers)
        for name in writers:
            assert (tmp_path / name).read_text() == "old\n"

    @pytest.mark.parametrize("command", [
        ["crlb", "--mu", "20"],
        ["dataset", "--input", "IN", "--pairs", "1-2"],
        ["fd-table"],
    ])
    def test_cli_outputs_leave_no_torn_file(self, cfg_path, tmp_path, monkeypatch, capsys,
                                            command):
        meas = tmp_path / "meas.txt"
        meas.write_text("# nodes\n1, 0, 0\n2, 1, 1\n# rss\n1, 2, -40\n")
        out = tmp_path / "out" / "x.csv"
        out.parent.mkdir()
        _half_write(monkeypatch)
        argv = [str(meas) if token == "IN" else token for token in command]
        code = main(argv + ["--config", str(cfg_path), "--n-knots", "8",
                            "--quad-tol", "1e-3", "--output", str(out)])
        assert code == 2
        assert capsys.readouterr().err == "error: disk full\n"
        assert list(out.parent.iterdir()) == []
