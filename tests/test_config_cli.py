import argparse
import configparser
import contextlib
import dataclasses
import errno
import inspect
import io
import json
import math
import os
import re
import stat
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import rangefuse as rf
from rangefuse import cli, config
from rangefuse.cli import main
from rangefuse.pipeline import estimate_readings, sqrt_bounds
from conftest import PARAMS_44, PARAMS_DISK, PARAMS_FIELD, penalty, save_damaged_table

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
    """Any channel ChannelParams accepts: finite values, threshold below reference,
    pseudo range within 1e-140 to 1e140 m (here 1e-139 to 1e139 m, clear of rounding),
    sigma_r = sigma_db / (10 alpha) 0 or at least 1e-100 (here 2e-100)."""
    threshold, p_ref = sorted(draw(st.lists(_FINITE, min_size=2, max_size=2, unique=True)))
    assume(math.isfinite(p_ref - threshold))
    d0 = draw(st.floats(min_value=1e-139, max_value=1e138))
    # the smallest alpha that keeps the pseudo range within 1e139 m
    least_alpha = (p_ref - threshold) / (10.0 * (139.0 - math.log10(d0)))
    alpha = draw(st.floats(min_value=least_alpha, exclude_min=True, allow_infinity=False))
    # where 10 alpha overflows, sigma_r is 0 for every sigma_db
    noisy = st.floats(min_value=2e-99 * alpha, allow_infinity=False)
    sigma_db = draw(st.just(0.0) | noisy) if math.isfinite(10.0 * alpha) else 0.0
    return rf.ChannelParams(p_ref_dbm=p_ref, alpha=alpha, sigma_db=sigma_db,
                            rss_threshold_dbm=threshold, d0=d0)


# every experiment key with a value of the type load_config gives it
_EXPERIMENTS = st.fixed_dictionaries({}, optional={
    "mu": _FINITE, "distances": st.lists(_FINITE, min_size=1, max_size=5).map(tuple),
    "trials": st.integers(), "seed": st.integers(), "margin": _FINITE,
    "n_knots": st.integers(), "quad_tol": _FINITE,
})


def _write_config(path, params, experiment):
    """Write an INI file that load_config should read back as (params, experiment)."""
    parser = configparser.ConfigParser()
    parser["channel"] = config.channel_to_mapping(params)
    if experiment:
        parser["experiment"] = {
            key: ", ".join(map(repr, value)) if isinstance(value, tuple) else str(value)
            for key, value in experiment.items()
        }
    with open(path, "w") as handle:
        parser.write(handle)


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
        _write_config(path, PARAMS_FIELD, {"mu": 15, "distances": "3, 6"})
        channel, experiment = config.load_config(path)
        assert channel == PARAMS_FIELD
        assert experiment["mu"] == 15.0

    @settings(max_examples=200, deadline=None)
    @given(params=_channels(), experiment=_EXPERIMENTS)
    def test_write_load_round_trip_bit_for_bit(self, params, experiment):
        with tempfile.TemporaryDirectory() as folder:
            path = Path(folder) / "cfg.ini"
            _write_config(path, params, experiment)
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
        # a field without a flag could be set from no command line;
        # _resolve_settings overlays the flags by name, so their order only
        # sets the order --help lists them in
        names = [item.name for item in dataclasses.fields(rf.ChannelParams)]
        assert list(cli._CHANNEL_FLAGS) == names
        assert len(config.CHANNEL_KEYS) == len(names)

    @pytest.mark.parametrize("text, reason", [
        # a % is a plain character, not interpolation syntax
        (CFG_44.replace("alpha = 4.0", "alpha = 4%"), "channel key alpha is not a number: '4%'"),
        (CFG_44.replace("mu = 20", "mu = 20%"), "bad experiment value mu='20%'"),
        (CFG_44.replace("alpha = 4.0", "alpha = %(x)s"),
         "channel key alpha is not a number: '%(x)s'"),
        # syntax errors name the line
        ("alpha = 4.0\n" + CFG_44, ":1: text before any [section] header"),
        (CFG_44.replace("d0_m = 1.0", "junk"), ":3: not a [section] header or a key = value line"),
        (CFG_44.replace("d0_m = 1.0", "alpha = 5.0"),
         ":4: option 'alpha' in section 'channel' already exists"),
        (CFG_44 + "[channel]\n", ":13: section 'channel' already exists"),
    ], ids=["percent-channel", "percent-experiment", "interpolation", "no-header", "junk-line",
            "repeated-key", "repeated-section"])
    def test_bad_config_is_one_error_line(self, tmp_path, capsys, text, reason):
        path = tmp_path / "bad.ini"
        path.write_text(text)
        out = tmp_path / "out.csv"
        assert main(["crlb", "--config", str(path), "--mu", "20", "--output", str(out)]) == 2
        separator = "" if reason.startswith(":") else ": "
        assert capsys.readouterr().err == f"error: {path}{separator}{reason}\n"
        assert not out.exists()

    @pytest.mark.parametrize("flags", [[], ["--rss-threshold-dbm=-100"]],
                             ids=["no-flag", "flag-for-the-missing-key"])
    def test_incomplete_channel_section(self, tmp_path, capsys, flags):
        # a [channel] section must be whole: a flag replaces one of its keys
        # but does not fill a key it lacks
        path = tmp_path / "part.ini"
        path.write_text(CFG_44.replace("rss_threshold_dbm = -100.0\n", ""))
        out = tmp_path / "out.csv"
        assert main(["crlb", "--config", str(path), *flags, "--mu", "20",
                     "--output", str(out)]) == 2
        assert capsys.readouterr() == (
            "", f"error: {path}: channel section is missing keys: rss_threshold_dbm\n")
        assert not out.exists()

    def test_zero_alpha_is_one_error_line(self, tmp_path, capsys):
        path = tmp_path / "bad.ini"
        path.write_text(CFG_44.replace("alpha = 4.0", "alpha = 0"))
        out = tmp_path / "out.csv"
        assert main(["crlb", "--config", str(path), "--mu", "20", "--output", str(out)]) == 2
        assert capsys.readouterr() == (
            "", f"error: {path}: invalid channel parameters: alpha must be > 0, got 0.0\n")
        assert not out.exists()


class TestByteOrderMark:
    """Every input file loads the same with a leading UTF-8 byte-order mark as without."""

    @staticmethod
    def _load_both(tmp_path, text, load):
        plain, marked = tmp_path / "plain", tmp_path / "marked"
        plain.write_text(text)
        marked.write_bytes(b"\xef\xbb\xbf" + text.encode())
        return load(plain), load(marked)

    def test_config(self, tmp_path):
        plain, marked = self._load_both(tmp_path, CFG_44, config.load_config)
        assert repr(marked) == repr(plain)

    def test_measurements(self, tmp_path):
        text = "# nodes\n1, 0.0, 0.0\n2, 3.0, 4.0\n# rss\n1, 2, -48.0\n"
        plain, marked = self._load_both(tmp_path, text, rf.load_measurements)
        for item in dataclasses.fields(rf.MeasurementSet):
            np.testing.assert_array_equal(getattr(marked, item.name), getattr(plain, item.name))

    def test_fd_table(self, tmp_path, model44):
        rf.save_fd_model(model44, tmp_path / "table")
        plain, marked = self._load_both(tmp_path, (tmp_path / "table").read_text(),
                                        rf.load_fd_model)
        assert marked.params == plain.params
        assert (marked.s_mass, marked.d_th) == (plain.s_mass, plain.d_th)
        np.testing.assert_array_equal(marked.knots_d, plain.knots_d)
        np.testing.assert_array_equal(marked.knots_f, plain.knots_f)


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

    # the p44 channel with one value at a scale where its f(d) table would
    # overflow or underflow
    @pytest.mark.parametrize("flag", ["--alpha=1e-3", "--d0=1e154", "--d0=1e-160"])
    def test_channel_at_extreme_scale_is_usage_error(self, cfg_path, tmp_path, capsys, flag):
        out = tmp_path / "x.fd"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["fd-table", "--config", str(cfg_path), flag, "--n-knots", "8",
                         "--quad-tol", "1e-3", "--output", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: the pseudo range, 10^") and err.count("\n") == 1
        assert caught == []
        assert not out.exists()

    @pytest.mark.parametrize("d0", [1e-100, 1e100])
    def test_channel_at_large_scale_tabulates(self, cfg_path, tmp_path, d0):
        out = tmp_path / "x.fd"
        assert main(["fd-table", "--config", str(cfg_path), f"--d0={d0!r}", "--n-knots", "8",
                     "--quad-tol", "1e-3", "--output", str(out)]) == 0
        # f scales with the square of the channel's length scale
        unit = rf.build_fd_model(PARAMS_44, 8, 1e-3)
        assert np.allclose(rf.load_fd_model(out).knots_f / d0**2, unit.knots_f,
                           rtol=1e-14, atol=0.0)

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

    def test_tied_knot_values_are_numeric_error(self, cfg_path, tmp_path, capsys,
                                                tied_generic_f):
        out = tmp_path / "x.fd"
        code = main(["fd-table", "--config", str(cfg_path), "--n-knots", "8",
                     "--output", str(out)])
        assert code == 3
        assert capsys.readouterr().err == (
            "error: numeric failure: knot values must decrease strictly\n")
        assert not out.exists()

    # an infinite tolerance would let any two refinement levels agree
    @pytest.mark.parametrize("quad_tol", ["inf", "nan", "0", "-1e-6"])
    @pytest.mark.parametrize("source", ["flag", "config", "flag-split"])
    def test_tolerance_not_positive_and_finite_is_usage_error(self, tmp_path, capsys,
                                                              quad_tol, source):
        cfg, out = tmp_path / "cfg.ini", tmp_path / "x.fd"
        flags = [f"--quad-tol={quad_tol}"] if source == "flag" else ["--quad-tol", quad_tol]
        if source == "config":
            cfg.write_text(CFG_44 + f"quad_tol = {quad_tol}\n")
            flags = []
        else:
            cfg.write_text(CFG_44)
        code = main(["fd-table", "--config", str(cfg), "--n-knots", "8", *flags,
                     "--output", str(out)])
        captured = capsys.readouterr()
        source = f"{cfg}: [experiment] quad_tol" if source == "config" else "--quad-tol"
        assert code == 2
        assert captured.err == (f"error: {source} must be positive and finite, "
                                f"got {float(quad_tol)}\n")
        assert captured.out == ""
        assert not out.exists()

    # the error names what gave the value: the flag, or the config file and its key
    @pytest.mark.parametrize("source", ["flag", "config"])
    @pytest.mark.parametrize("command", ["fd-table", "crlb"])
    def test_too_few_knots_names_their_source(self, tmp_path, capsys, model44, source,
                                              command):
        cfg, table, out = tmp_path / "cfg.ini", tmp_path / "fd.txt", tmp_path / "x.out"
        cfg.write_text(CFG_44 + ("n_knots = 4\n" if source == "config" else ""))
        rf.save_fd_model(model44, table)
        flags = ["--n-knots", "4"] if source == "flag" else []
        if command == "crlb":
            flags += ["--fd-table", str(table)]
        code = main([command, "--config", str(cfg), *flags, "--output", str(out)])
        source = f"{cfg}: [experiment] n_knots" if source == "config" else "--n-knots"
        assert code == 2
        assert capsys.readouterr() == ("", f"error: {source} must be >= 8, got 4\n")
        assert not out.exists()

    def test_flag_beats_a_bad_config_value(self, tmp_path):
        cfg, out = tmp_path / "cfg.ini", tmp_path / "x.fd"
        cfg.write_text(CFG_44 + "n_knots = 4\nquad_tol = 0\n")
        assert main(["fd-table", "--config", str(cfg), "--n-knots", "8", "--quad-tol", "1e-3",
                     "--output", str(out)]) == 0
        assert rf.load_fd_model(out).n_knots == 8


class TestSimulateCommand:
    def test_empty_distance_list(self, cfg_path, tmp_path, capsys):
        out = tmp_path / "rep.csv"
        assert main(["simulate", "--config", str(cfg_path), "--distances", ",",
                     "--output", str(out)]) == 2
        assert capsys.readouterr() == ("", "error: empty distance list ','\n")
        assert not out.exists()

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

    @pytest.mark.parametrize("flags", [["--mu", "1e300"], ["--margin", "1e10"],
                                       ["--mu", "1e300", "--margin", "1e10"]],
                             ids=["mu", "margin", "overflow"])
    def test_node_count_beyond_poisson_limit(self, tmp_path, capsys, model44, flags):
        # numpy's Poisson draw takes means up to about 9.22e18; past that, and
        # where the count overflows to inf, the run stops before any draw
        table, out, report = tmp_path / "fd.txt", tmp_path / "x.csv", tmp_path / "x.json"
        rf.save_fd_model(model44, table)
        code = main(["simulate", "--mu", "20", "--trials", "1", "--distances", "20", *flags,
                     "--fd-table", str(table), "--output", str(out), "--json", str(report)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == "" and captured.err.count("\n") == 1
        assert captured.err.startswith("error: mu ")
        assert " and margin " in captured.err and " nodes per trial, beyond the " in captured.err
        assert not out.exists() and not report.exists()

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

    def test_experiment_table_settings(self, cfg_path, tmp_path, monkeypatch):
        # n_knots and quad_tol in [experiment] still size the table
        cfg_path.write_text(CFG_44 + "n_knots = 8\nquad_tol = 1e-3\n")
        built = _record_builds(monkeypatch)
        assert main(["simulate", "--config", str(cfg_path),
                     "--output", str(tmp_path / "r.csv")]) == 0
        ((call, model),) = built
        assert call == (PARAMS_44, 8, 1e-3)
        assert model.n_knots == 8


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
            f"error: d must lie in (0, d_th={model44.d_th!r}], got {beyond!r}\n")
        assert not out.exists()

    def test_intensity_beats_the_files_mu(self, cfg_path, tmp_path, model44):
        table, out = tmp_path / "fd.txt", tmp_path / "crlb.csv"
        rf.save_fd_model(model44, table)
        assert main(["crlb", "--config", str(cfg_path), "--fd-table", str(table),
                     "--intensity", "0.01", "--output", str(out)]) == 0
        variance = float(out.read_text().splitlines()[1].split(",")[1])
        assert variance == rf.crlb_distance(model44, 0.01, 10.0)

    def test_noise_free_channel_gives_simulates_zero_bound(self, tmp_path, capsys):
        # an exact reading carries unbounded information: both commands give 0
        curve, report = tmp_path / "crlb.csv", tmp_path / "rep.csv"
        channel = ["--p-ref-dbm", "-37.47", "--alpha", "4", "--sigma-db", "0",
                   "--rss-threshold-dbm", "-77.47", "--n-knots", "16", "--quad-tol", "1e-4",
                   "--mu", "20", "--distances", "2,5,9.5"]
        assert main(["crlb", *channel, "--output", str(curve)]) == 0
        assert main(["simulate", *channel, "--trials", "2", "--output", str(report)]) == 0
        assert capsys.readouterr() == ("", "")
        bounds = [line.split(",")[2] for line in curve.read_text().splitlines()[1:]]
        assert bounds == ["0.0"] * 3
        assert [line.split(",")[4] for line in report.read_text().splitlines()[1:]] == bounds

    def test_requires_density(self, tmp_path):
        path = tmp_path / "cfg.ini"
        path.write_text(CFG_44.replace("mu = 20\n", ""))
        code = main(["crlb", "--config", str(path), "--n-knots", "16",
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
        x2 = rf.fdtable.invert_counts(model44, 6, 9, 11)
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

    def test_noise_free_channel_keeps_rss_without_a_bound(self, capsys):
        code = main(["estimate", "--p-ref-dbm", "-37.47", "--alpha", "4", "--sigma-db", "0",
                     "--rss-threshold-dbm", "-77.47", "--n-knots", "16", "--quad-tol", "1e-4",
                     "--rss", "-60", "--m", "4", "--p", "2", "--q", "2"])
        assert code == 0
        captured = capsys.readouterr()
        assert captured.err == "warning: noise-free channel: the RSS estimate is exact\n"
        assert captured.out.endswith("sqrt_crlb = nan\nstatus = rss_only\n")

    @pytest.mark.parametrize("rss", ["nan", "=-inf"])
    def test_non_finite_rss_usage_error(self, cfg_path, capsys, rss):
        flag = ["--rss", rss] if rss == "nan" else [f"--rss{rss}"]
        code = main(["estimate", "--config", str(cfg_path), "--n-knots", "16",
                     "--quad-tol", "1e-4", *flag, "--m", "3", "--p", "2", "--q", "2"])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: RSS observation must be finite, got {rss.lstrip('=')}\n"
        assert captured.out == ""

    @pytest.mark.parametrize("rss, counts, intensity", [
        (-85.0, (6, 9, 11), None),
        (-140.0, (5, 8, 7), None),
        (-140.0, (5, 0, 0), None),
        (-85.0, (0, 0, 0), None),
        (1000.0, (6, 9, 11), None),
        (-80.0, (0, 0, 0), 0.01),
        (-99.9, (0, 1, 0), 1e-300),
    ])
    def test_sqrt_crlb_is_the_pipelines_error_bar(self, cfg_path, tmp_path, capsys, model44,
                                                 rss, counts, intensity):
        table = tmp_path / "fd.txt"
        rf.save_fd_model(model44, table)
        argv = ["estimate", "--config", str(cfg_path), "--fd-table", str(table), f"--rss={rss!r}",
                *(f"--{name}={count}" for name, count in zip("mpq", counts))]
        assert main(argv + ([] if intensity is None else [f"--intensity={intensity!r}"])) == 0
        out = dict(line.split(" = ") for line in capsys.readouterr().out.splitlines())
        _, est = estimate_readings(model44, [rss], *([c] for c in counts), intensity)
        assert out["sqrt_crlb"] == repr(float(sqrt_bounds(model44, est)[0]))
        assert out["status"] == est.status[0]

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

    def test_self_pair_is_usage_error(self, tmp_path, capsys):
        meas = tmp_path / "meas.txt"
        meas.write_text("# nodes\n1, 0, 0\n2, 1, 1\n# rss\n1, 2, -40\n")
        out = tmp_path / "errors.csv"
        code = main(["dataset", "--p-ref-dbm", "-37.47", "--alpha", "2.3",
                     "--sigma-db", "3.92", "--rss-threshold-dbm", "-55",
                     "--n-knots", "16", "--quad-tol", "1e-4",
                     "--input", str(meas), "--pairs", "1-2,1-1", "--output", str(out)])
        assert code == 2
        assert capsys.readouterr().err == "error: pair (1, 1) names one node twice\n"
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

    @pytest.mark.parametrize("token", ["1_0-2", "\u0661-\u0662"], ids=["underscore", "arabic"])
    def test_pair_ids_are_ascii_digits(self, tmp_path, capsys, token):
        # the measurement file's reader takes neither form for an id
        meas = tmp_path / "meas.txt"
        meas.write_text("# nodes\n1, 0, 0\n2, 1, 1\n10, 2, 2\n# rss\n1, 2, -40\n10, 2, -40\n")
        out = tmp_path / "x.csv"
        code = main(["dataset", "--p-ref-dbm", "-37.47", "--alpha", "2.3",
                     "--sigma-db", "3.92", "--rss-threshold-dbm", "-55",
                     "--input", str(meas), f"--pairs={token}", "--output", str(out)])
        assert code == 2
        assert capsys.readouterr() == (
            "", f"error: bad pair {token!r}; expected 'id-id' or 'id:id' tokens\n")
        assert not out.exists()

    @pytest.mark.parametrize("token, pair", [("+1-2", "1-2"), ("1 - 2", "1-2"),
                                             ("-3-5", "-3-5"), ("-5:-3", "-5--3")])
    def test_signed_and_spaced_ids(self, tmp_path, token, pair):
        meas = tmp_path / "meas.txt"
        meas.write_text("# nodes\n1, 0.0, 0.0\n2, 3.0, 4.0\n-3, 1.0, 1.0\n5, 4.0, 5.0\n"
                        "-5, -2.0, -3.0\n# rss\n1, 2, -48.0\n-3, 5, -47.0\n-5, -3, -42.0\n")
        out = tmp_path / "errors.csv"
        code = main(["dataset", "--p-ref-dbm", "-37.47", "--alpha", "2.3",
                     "--sigma-db", "3.92", "--rss-threshold-dbm", "-55",
                     "--n-knots", "8", "--quad-tol", "1e-3",
                     "--input", str(meas), f"--pairs={token}", "--output", str(out)])
        assert code == 0
        assert out.read_text().splitlines()[1].startswith(f"{pair},5.0,")

    def test_no_pairs_requested(self, tmp_path, capsys):
        meas = tmp_path / "meas.txt"
        meas.write_text("# nodes\n1, 0, 0\n2, 1, 1\n# rss\n1, 2, -40\n")
        out = tmp_path / "x.csv"
        code = main(["dataset", "--p-ref-dbm", "-37.47", "--alpha", "2.3",
                     "--sigma-db", "3.92", "--rss-threshold-dbm", "-55",
                     "--input", str(meas), "--pairs", ",", "--output", str(out)])
        assert code == 2
        assert capsys.readouterr() == ("", "error: no pairs requested\n")
        assert not out.exists()

    def test_every_link_when_no_pairs_are_given(self, tmp_path, capsys, model_field):
        rng = np.random.default_rng(36)
        dep = rf.deploy_poisson(3.0 * model_field.d_th, 14.0 / model_field.s_mass, rng)
        ms = rf.synthesize_measurements(dep, PARAMS_FIELD, rng)
        meas, table = tmp_path / "meas.txt", tmp_path / "field.fd"
        rf.save_measurements(ms, meas)
        rf.save_fd_model(model_field, table)
        every = ",".join(f"{lo}-{hi}" for lo, hi in ms.links.tolist())
        written = []
        for pairs in ([], [f"--pairs={every}"]):
            out = tmp_path / f"errors{len(written)}.csv"
            assert main(["dataset", "--fd-table", str(table), "--input", str(meas), *pairs,
                         "--output", str(out)]) == 0
            assert capsys.readouterr() == ("", "")
            written.append(out.read_bytes())
        assert written[0] == written[1]
        assert len(written[0].splitlines()) == 1 + len(ms.links) > 20

    @pytest.mark.parametrize("token", ["9223372036854775808-1", "1:-9223372036854775809"])
    def test_pair_id_outside_int64(self, tmp_path, capsys, token):
        meas = tmp_path / "meas.txt"
        meas.write_text("# nodes\n1, 0, 0\n2, 1, 1\n# rss\n1, 2, -40\n")
        out = tmp_path / "x.csv"
        code = main(["dataset", "--p-ref-dbm", "-37.47", "--alpha", "2.3",
                     "--sigma-db", "3.92", "--rss-threshold-dbm", "-55",
                     "--n-knots", "8", "--quad-tol", "1e-3",
                     "--input", str(meas), f"--pairs={token}", "--output", str(out)])
        assert code == 2
        assert capsys.readouterr() == (
            "", "error: a pair references an id outside the int64 range\n")
        assert not out.exists()

    def test_ids_numbered_or_not_give_one_table(self, tmp_path, capsys, model_field):
        # ids 1..n take _rank_ids's offset path, and the same field relabelled
        # to ids with gaps, both signs and both int64 ends takes its search;
        # the relabelling keeps the ids' order, so only the pair column differs
        rng = np.random.default_rng(37)
        dep = rf.deploy_poisson(3.0 * model_field.d_th, 14.0 / model_field.s_mass, rng)
        ms = rf.synthesize_measurements(dep, PARAMS_FIELD, rng)
        n = ms.ids.size
        inner = np.cumsum(rng.integers(1, 40, n - 2)) - 10 * n
        labels = np.concatenate([[-2**63], inner, [2**63 - 1]])
        relabel = dict(zip(ms.ids.tolist(), labels.tolist()))
        relabelled = rf.MeasurementSet(labels, ms.xy, labels[ms.links - 1], ms.link_rss)
        assert n > 20 and (inner < 0).any() and (inner > 0).any()
        table = tmp_path / "field.fd"
        rf.save_fd_model(model_field, table)
        # every fifth link, both ways round, and random pairs, most of them unlinked
        picks = [*ms.links[::5].tolist(), *ms.links[::5, ::-1].tolist(),
                 *(pair for pair in (rng.integers(1, n + 1, 2).tolist() for _ in range(30))
                   if pair[0] != pair[1])]
        for listed in (False, True):
            results = []
            for field, label in ((ms, str), (relabelled, relabel.__getitem__)):
                meas, out = tmp_path / "meas.txt", tmp_path / "errors.csv"
                rf.save_measurements(field, meas)
                listing = ",".join(f"{label(i)}-{label(j)}" for i, j in picks)
                argv = ["dataset", "--fd-table", str(table), "--input", str(meas),
                        "--output", str(out)]
                assert main(argv + ([f"--pairs={listing}"] if listed else [])) == 0
                results.append((capsys.readouterr().err.count("\n"),
                                [row.split(",", 1) for row in out.read_text().splitlines()]))
            (warned, numbered), (warned_too, renamed) = results
            assert warned == warned_too and (warned > 0) == listed
            assert [rest for _, rest in numbered] == [rest for _, rest in renamed]
            assert [renamed_pair for renamed_pair, _ in renamed[1:]] == [
                "{}-{}".format(*map(relabel.__getitem__, map(int, pair.split("-"))))
                for pair, _ in numbered[1:]]
            assert len(numbered) == 1 + (len(picks) if listed else len(ms.links))

    def test_file_without_links_and_no_pairs(self, tmp_path, capsys):
        meas = tmp_path / "meas.txt"
        meas.write_text("# nodes\n1, 0, 0\n2, 1, 1\n# rss\n")
        out = tmp_path / "x.csv"
        code = main(["dataset", "--p-ref-dbm", "-37.47", "--alpha", "2.3",
                     "--sigma-db", "3.92", "--rss-threshold-dbm", "-55",
                     "--input", str(meas), "--output", str(out)])
        assert code == 2
        assert capsys.readouterr() == ("", f"error: no links in {meas}\n")
        assert not out.exists()

    def test_overflowing_coordinates_give_infinite_distance(self, tmp_path, capsys):
        # both coordinates are finite, but their difference is not
        meas = tmp_path / "meas.txt"
        meas.write_text("# nodes\n1, 1e308, 0\n2, -1e308, 0\n3, 0, 1\n"
                        "# rss\n1, 2, -60\n1, 3, -50\n")
        out = tmp_path / "errors.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["dataset", "--p-ref-dbm", "-37.47", "--alpha", "4",
                         "--sigma-db", "4", "--rss-threshold-dbm", "-100",
                         "--n-knots", "8", "--quad-tol", "1e-3",
                         "--input", str(meas), "--pairs", "1-2", "--output", str(out)])
        assert code == 0
        assert capsys.readouterr() == ("", "")
        _, d_true, *errors, _, _ = out.read_text().splitlines()[1].split(",")
        assert [d_true, *errors] == ["inf"] * 4

    @pytest.mark.parametrize("token, pair", [("-5-3", "-5-3"), ("-5:3", "-5-3"),
                                             ("3--5", "3--5"), ("3:-5", "3--5")])
    def test_negative_ids(self, tmp_path, token, pair):
        meas = tmp_path / "meas.txt"
        meas.write_text("# nodes\n-5, 0.0, 0.0\n3, 3.0, 4.0\n-7, 1.0, 1.0\n"
                        "# rss\n-5, 3, -48.0\n3, -7, -47.0\n-5, -7, -42.0\n")
        out = tmp_path / "errors.csv"
        # --pairs=value, and --pairs value as two tokens (argparse takes a
        # token with a space for a value by itself)
        for pairs in ([f"--pairs={token}, -7:-5"], ["--pairs", f"{token},-7:-5"]):
            code = main(["dataset", "--p-ref-dbm", "-37.47", "--alpha", "2.3",
                         "--sigma-db", "3.92", "--rss-threshold-dbm", "-55",
                         "--n-knots", "16", "--quad-tol", "1e-4",
                         "--input", str(meas), *pairs, "--output", str(out)])
            assert code == 0
            lines = out.read_text().splitlines()
            assert lines[1].startswith(f"{pair},5.0,")
            assert lines[2].startswith("-7--5,")
            assert "nan" not in out.read_text()


def _record_builds(monkeypatch) -> list:
    """Record each table the CLI builds, as (arguments, model), in the list returned.

    The arguments are build_fd_model's three, its defaults filled in.
    """
    built = []

    def build(*args, **kwargs):
        call = inspect.signature(rf.build_fd_model).bind(*args, **kwargs)
        call.apply_defaults()
        built.append((tuple(call.arguments.values()), rf.build_fd_model(*args, **kwargs)))
        return built[-1][1]

    monkeypatch.setattr("rangefuse.cli.build_fd_model", build)
    return built


# the [experiment] keys each command reads, and two values of each key, the
# config file's and a flag's, neither of them the default
_COMMAND_KEYS = {
    "simulate": ("mu", "distances", "trials", "seed", "margin", "n_knots", "quad_tol"),
    "crlb": ("mu", "distances", "n_knots", "quad_tol"),
    "fd-table": ("n_knots", "quad_tol"),
    "estimate": ("n_knots", "quad_tol"),
    "dataset": ("n_knots", "quad_tol"),
}
_FILE_AND_FLAG = {"mu": ("20", "15"), "distances": ("10, 25", "5"), "trials": ("4", "3"),
                  "seed": ("11", "12"), "margin": ("2", "3"), "n_knots": ("8", "9"),
                  "quad_tol": ("1e-3", "1e-9")}


class TestSettingsOverlay:
    # each channel flag with a value that differs from CFG_44's
    @pytest.mark.parametrize("name, value", [
        ("p_ref_dbm", -40.0), ("alpha", 3.5), ("sigma_db", 6.0), ("rss_threshold_dbm", -95.0),
        ("d0", 2.0),
    ])
    def test_channel_flag_replaces_one_key(self, cfg_path, tmp_path, name, value):
        out = tmp_path / "x.fd"
        assert main(["fd-table", "--config", str(cfg_path), f"--{name.replace('_', '-')}={value}",
                     "--n-knots", "8", "--quad-tol", "1e-3", "--output", str(out)]) == 0
        assert rf.load_fd_model(out).params == dataclasses.replace(PARAMS_44, **{name: value})

    @pytest.mark.parametrize("command, key", [(command, key)
                                              for command, keys in _COMMAND_KEYS.items()
                                              for key in keys])
    def test_flag_beats_config_file(self, tmp_path, monkeypatch, command, key):
        # the file holds the key under test; the command's other keys come as flags
        base = {"mu": "20", "distances": "10,25", "trials": "4", "seed": "11", "margin": "1.5",
                "n_knots": "8", "quad_tol": "1e-3"}
        file_value, flag_value = _FILE_AND_FLAG[key]
        cfg, meas = tmp_path / "cfg.ini", tmp_path / "meas.txt"
        cfg.write_text(CFG_44.partition("[experiment]")[0]
                       + f"[experiment]\n{key} = {file_value}\n")
        meas.write_text("# nodes\n1, 0, 0\n2, 3, 4\n3, 1, 1\n# rss\n1, 2, -60\n1, 3, -50\n")
        others = [f"--{k.replace('_', '-')}={base[k]}" for k in _COMMAND_KEYS[command] if k != key]
        built = _record_builds(monkeypatch)
        written = []
        for flags, value in (([], file_value), ([f"--{key.replace('_', '-')}={flag_value}"],
                                                flag_value)):
            run = tmp_path / f"run{len(written)}"
            run.mkdir()
            out = run / "out"
            extra = {"simulate": ["--output", str(out)],
                     "crlb": ["--output", str(out)],
                     "fd-table": ["--output", str(out)],
                     "estimate": ["--rss", "-60", "--m", "5", "--p", "8", "--q", "7"],
                     "dataset": ["--input", str(meas), "--pairs", "1-2",
                                 "--output", str(out)]}[command]
            assert main([command, "--config", str(cfg), *extra, *others, *flags]) == 0
            settings = {k: config._EXPERIMENT_TYPES[k](v) for k, v in {**base, key: value}.items()}
            written.append(self._check_used(command, run, settings, built.pop()))
            assert built == []
        assert written[0] != written[1]

    @staticmethod
    def _check_used(command, run, settings, build):
        """Check that the table build and what the command wrote in run used settings.

        build is the command's one build_fd_model call, as (arguments, model).
        Returns the arguments and the text written.
        """
        call, model = build
        assert call == (PARAMS_44, settings["n_knots"], settings["quad_tol"])
        text = (run / "out").read_text() if (run / "out").exists() else ""
        if command == "fd-table":
            assert rf.load_fd_model(run / "out").knots_f.tolist() == model.knots_f.tolist()
        if command == "simulate":
            experiment = rf.ExperimentConfig(**{k: settings[k] for k in
                                                ("mu", "distances", "trials", "seed", "margin")})
            assert text == rf.run_experiment(experiment, model).to_csv_text()
        if command == "crlb":
            rows = [[float(v) for v in line.split(",")] for line in text.splitlines()[1:]]
            distances = settings["distances"]
            assert [row[0] for row in rows] == list(distances)
            assert [row[1] for row in rows] == rf.crlb_distance(
                model, settings["mu"] / model.s_mass, distances).tolist()
        return call, text


class TestParser:
    def test_built_once_with_fresh_defaults(self, cfg_path, tmp_path, capsys):
        cli.build_parser.cache_clear()
        table = tmp_path / "m.fd"
        assert main(["fd-table", "--config", str(cfg_path), "--n-knots", "8",
                     "--quad-tol", "1e-3", "--output", str(table)]) == 0
        assert main(["simulate", "--config", str(cfg_path), "--fd-table", str(table),
                     "--mu", "15", "--distances", "5", "--output", str(tmp_path / "r.csv")]) == 0
        assert cli.build_parser.cache_info().misses == 1
        # crlb has its own --mu and --distances, unset here: it takes the file's
        # mu 20 and distances 10, 25, not the 15 and 5 simulate was given
        curve = tmp_path / "c.csv"
        assert main(["crlb", "--config", str(cfg_path), "--fd-table", str(table),
                     "--output", str(curve)]) == 0
        model = rf.load_fd_model(table)
        rows = [line.split(",") for line in curve.read_text().splitlines()[1:]]
        assert [float(row[0]) for row in rows] == [10.0, 25.0]
        assert float(rows[0][1]) == rf.crlb_distance(model, 20.0 / model.s_mass, 10.0)
        # and with no distances in the file, the default 19 of them
        bare = tmp_path / "bare.ini"
        bare.write_text(CFG_44.replace("distances = 10, 25\n", ""))
        assert main(["crlb", "--config", str(bare), "--fd-table", str(table),
                     "--intensity", "0.01", "--output", str(curve)]) == 0
        assert len(curve.read_text().splitlines()) == 1 + 19
        assert cli.build_parser.cache_info().misses == 1

    # argparse by itself reads only -12 and -1.5 as negative numbers
    @pytest.mark.parametrize("value", ["-1e2", "-1E+2", "-.5e1"])
    @pytest.mark.parametrize("flag", ["--p-ref-dbm", "--rss-threshold-dbm", "--rss"])
    def test_negative_value_as_its_own_token(self, capsys, flag, value):
        settings = {"--p-ref-dbm": "0", "--alpha": "4", "--sigma-db": "4",
                    "--rss-threshold-dbm": "-110", "--rss": "-80"}
        results = []
        for given in ([flag, value], [f"{flag}={value}"]):
            argv = ["estimate", *(f"{k}={v}" for k, v in settings.items() if k != flag),
                    *given, "--n-knots", "8", "--quad-tol", "1e-3",
                    "--m", "6", "--p", "9", "--q", "11"]
            results.append((main(argv), capsys.readouterr()))
        assert results[0] == results[1]
        assert results[0][0] == 0

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


def _damage_knots(model, damage, lines):
    """The lines of model's saved table, with one knot rule broken."""
    first = lines.index("knots:") + 1
    knots = [line.split(", ") for line in lines[first:]]
    if damage == "first-knot":
        knots[0][0] = "0.5"
    elif damage == "last-knot":
        knots[-1][0] = repr(0.999 * model.d_th)
    elif damage == "out-of-order":
        knots[2][0], knots[3][0] = knots[3][0], knots[2][0]
    elif damage == "negative-f-at-d_th":
        knots[-1][1] = "-1.0"
    else:
        knots[0][1] = repr(2.0 * model.s_mass)
    return lines[:first] + [", ".join(knot) for knot in knots]


class TestBrokenKnotRules:
    """A table that breaks one rule of FdModel is one error line naming the file."""

    @pytest.mark.parametrize("damage, reason", [
        ("missing-d_th", "missing header fields ['d_th']"),
        ("first-knot", "inconsistent model data: knots must start at distance 0, got 0.5"),
        ("last-knot", "inconsistent model data: last knot must sit at d_th"),
        ("out-of-order", "inconsistent model data: knot distances must increase strictly"),
        ("negative-f-at-d_th", "inconsistent model data: f(d_th) must stay positive"),
        ("f0-above-s", "inconsistent model data: f(0) cannot exceed the mass S"),
    ])
    def test_broken_table_is_one_error_line(self, cfg_path, tmp_path, capsys, model44,
                                            damage, reason):
        table = tmp_path / "bad.fd"
        rf.save_fd_model(model44, table)
        lines = table.read_text().splitlines()
        if damage == "missing-d_th":
            lines = [line for line in lines if not line.startswith("d_th = ")]
        else:
            lines = _damage_knots(model44, damage, lines)
        table.write_text("\n".join(lines) + "\n")
        code = main(["estimate", "--config", str(cfg_path), "--fd-table", str(table),
                     "--rss", "-85", "--m", "6", "--p", "9", "--q", "11"])
        assert code == 2
        assert capsys.readouterr() == ("", f"error: {table}: {reason}\n")

    def test_blank_line_among_the_knots_loads(self, tmp_path, model44):
        table = tmp_path / "blank.fd"
        rf.save_fd_model(model44, table)
        lines = table.read_text().splitlines()
        lines.insert(lines.index("knots:") + 4, "")
        table.write_text("\n".join(lines) + "\n")
        loaded = rf.load_fd_model(table)
        assert np.array_equal(loaded.knots_d, model44.knots_d)
        assert np.array_equal(loaded.knots_f, model44.knots_f)


class TestTableForAnotherChannel:
    """The library reads the channel from the table, so the CLI checks a loaded table's."""

    @pytest.mark.parametrize("command", [
        ["simulate"],
        ["dataset", "--input", "IN", "--pairs", "1-2"],
        ["crlb"],
        ["estimate", "--rss", "-60", "--m", "5", "--p", "8", "--q", "7"],
    ])
    def test_fd_table_is_usage_error(self, cfg_path, tmp_path, capsys, model_field, command):
        table, out = tmp_path / "field.fd", tmp_path / "out.csv"
        rf.save_fd_model(model_field, table)
        meas = tmp_path / "meas.txt"
        meas.write_text("# nodes\n1, 0, 0\n2, 3, 4\n3, 1, 1\n# rss\n1, 2, -60\n1, 3, -50\n")
        argv = [str(meas) if token == "IN" else token for token in command]
        code = main(argv + ["--config", str(cfg_path), "--fd-table", str(table),
                            *(["--output", str(out)] if command[0] != "estimate" else [])])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err == f"error: {table} was built for different channel parameters\n"
        assert captured.out == ""
        assert not out.exists()


class TestUsageErrors:
    def test_unknown_subcommand_exits_two(self, capsys):
        assert main(["frobnicate"]) == 2
        assert capsys.readouterr() == ("", "error: argument command: invalid choice: "
                                           "'frobnicate' (choose from 'fd-table', 'simulate', "
                                           "'crlb', 'estimate', 'dataset')\n")

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


# each command with every flag it requires; IN and OUT stand for a
# measurement file and an output path
_WHOLE_COMMANDS = {
    "fd-table": ["fd-table", "--output", "OUT"],
    "simulate": ["simulate", "--mu", "20", "--distances", "5", "--trials", "2",
                 "--output", "OUT"],
    "crlb": ["crlb", "--mu", "20", "--output", "OUT"],
    "estimate": ["estimate", "--rss", "-60", "--m", "5", "--p", "8", "--q", "7"],
    "dataset": ["dataset", "--input", "IN", "--pairs", "1-2", "--output", "OUT"],
}


def _drop_flag(argv, flag):
    k = argv.index(flag)
    return argv[:k] + argv[k + 2:]


# each malformed kind as a change of a whole command line
_MALFORMED = {
    "unknown-flag": lambda argv: [*argv, "--bogus", "1"],
    "missing-required-flag": lambda argv: _drop_flag(
        argv, {"estimate": "--rss", "dataset": "--input"}.get(argv[0], "--output")),
    "flag-without-value": lambda argv: [*argv, "--alpha"],
    "bad-int": lambda argv: [*argv, "--n-knots", "8.5"],
    "bad-float": lambda argv: [*argv, "--quad-tol", "tiny"],
}


class TestShadowingFloor:
    """sigma_r between 0 and 1e-100 is one error line; at the floor every command runs."""

    @staticmethod
    def _run(tmp_path, capsys, command, sigma_db):
        meas, out = tmp_path / "meas.txt", tmp_path / "out.csv"
        meas.write_text("# nodes\n1, 0, 0\n2, 3, 4\n3, 1, 1\n# rss\n1, 2, -60\n1, 3, -50\n")
        paths = {"IN": str(meas), "OUT": str(out)}
        argv = [paths.get(token, token) for token in _WHOLE_COMMANDS[command]]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main([*argv, "--p-ref-dbm", "-37.47", "--alpha", "4", "--sigma-db", sigma_db,
                         "--rss-threshold-dbm", "-100", "--n-knots", "8", "--quad-tol", "1e-3"])
        return code, capsys.readouterr(), out

    # sigma_r = sigma_db / 40: 2.5e-162, and 0 where 1e-322 / 40 rounds to 0
    @pytest.mark.parametrize("sigma_db, sigma_r", [("1e-160", "2.5e-162"), ("1e-322", "0.0")])
    @pytest.mark.parametrize("command", _WHOLE_COMMANDS)
    def test_below_the_floor_is_one_error_line(self, tmp_path, capsys, command, sigma_db,
                                               sigma_r):
        code, captured, out = self._run(tmp_path, capsys, command, sigma_db)
        assert code == 2
        assert captured == ("", "error: sigma_db must be 0 or give sigma_r = sigma_db / "
                                f"(10 alpha) >= 1e-100, got sigma_r = {sigma_r}\n")
        assert not out.exists()

    @pytest.mark.parametrize("command", _WHOLE_COMMANDS)
    def test_at_the_floor_runs_clean(self, tmp_path, capsys, command):
        code, captured, out = self._run(tmp_path, capsys, command, "4e-99")
        assert code == 0
        assert captured.err == ""
        assert out.exists() == (command != "estimate")


class TestOneErrorPath:
    """Every malformed command line is one error line from main, as every other error is."""

    @staticmethod
    def _run(tmp_path, capsys, argv):
        """main's exit code and output on argv, with IN and OUT filled in.

        Checks that OUT's directory is left empty.
        """
        meas, run = tmp_path / "meas.txt", tmp_path / "run"
        meas.write_text("# nodes\n1, 0, 0\n2, 3, 4\n3, 1, 1\n# rss\n1, 2, -60\n1, 3, -50\n")
        run.mkdir(exist_ok=True)
        paths = {"IN": str(meas), "OUT": str(run / "out.csv")}
        code = main([paths.get(token, token) for token in argv])
        assert list(run.iterdir()) == []
        return code, capsys.readouterr()

    @pytest.mark.parametrize("kind", _MALFORMED)
    @pytest.mark.parametrize("command", _WHOLE_COMMANDS)
    def test_malformed_command_line_is_one_error_line(self, cfg_path, tmp_path, capsys,
                                                      command, kind):
        whole = _WHOLE_COMMANDS[command] + ["--config", str(cfg_path)]
        code, captured = self._run(tmp_path, capsys, _MALFORMED[kind](whole))
        assert code == 2
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert "usage:" not in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("argv, message", [
        ([], "error: the following arguments are required: command\n"),
        (["simulate", "--seed", "1.5"], "error: argument --seed: invalid int value: '1.5'\n"),
        (["simulate", "--distances", "5,x"], "error: bad distance list '5,x'\n"),
    ], ids=["no-subcommand", "bad-seed", "bad-distances"])
    def test_parser_message_is_the_error_line(self, tmp_path, capsys, argv, message):
        assert self._run(tmp_path, capsys, argv) == (2, ("", message))

    @pytest.mark.parametrize("command", _WHOLE_COMMANDS)
    def test_help_prints_the_whole_help(self, capsys, command):
        (subcommands,) = (action for action in cli.build_parser()._actions
                          if isinstance(action, argparse._SubParsersAction))
        with pytest.raises(SystemExit) as excinfo:
            main([command, "--help"])
        assert excinfo.value.code == 0
        assert capsys.readouterr() == (subcommands.choices[command].format_help(), "")

    @pytest.mark.parametrize("value", ["-inf", "-nan", "-Infinity", "-1e2", "-80"])
    @pytest.mark.parametrize("flag", ["--rss", "--p-ref-dbm", "--intensity"])
    def test_negative_token_reads_as_its_equals_form(self, cfg_path, tmp_path, capsys,
                                                     flag, value):
        argv = ["estimate", "--config", str(cfg_path), "--n-knots", "8", "--quad-tol", "1e-3",
                *([] if flag == "--rss" else ["--rss=-60"]),
                "--m", "5", "--p", "8", "--q", "7"]
        spaced = self._run(tmp_path, capsys, [*argv, flag, value])
        assert spaced == self._run(tmp_path, capsys, [*argv, f"{flag}={value}"])
        assert "usage:" not in spaced[1].err
        assert spaced[1].err.count("\n") <= 1

    def test_negative_infinite_reading_names_the_reading(self, cfg_path, tmp_path, capsys):
        argv = ["estimate", "--config", str(cfg_path), "--rss", "-inf",
                "--m", "1", "--p", "1", "--q", "1"]
        assert self._run(tmp_path, capsys, argv) == (
            2, ("", "error: RSS observation must be finite, got -inf\n"))


# the channel flags of PARAMS_44, every one stated
_CHANNEL_44 = [f"{cli._flag(name)}={value!r}"
               for name, value in zip(cli._CHANNEL_FLAGS, dataclasses.astuple(PARAMS_44))]


class TestTableSuppliesTheChannel:
    """With --fd-table and no channel stated, a command takes the table's channel."""

    MISSING = "error: channel parameter p_ref_dbm missing: supply --p-ref-dbm or a config file\n"

    @staticmethod
    def _run(tmp_path, capsys, argv, model=PARAMS_44):
        """main's exit code and output on argv, and the bytes of each file it wrote.

        A run writes into a directory of its own. IN stands for a three-node
        measurement file, TABLE for the 8-knot table of model's channel, OUT
        and JSON for output paths.
        """
        meas, table = tmp_path / "meas.txt", tmp_path / "table.fd"
        meas.write_text("# nodes\n1, 0, 0\n2, 3, 4\n3, 1, 1\n# rss\n1, 2, -60\n1, 3, -50\n")
        rf.save_fd_model(rf.build_fd_model(model, 8, 1e-3), table)
        run = Path(tempfile.mkdtemp(dir=tmp_path))
        paths = {"IN": str(meas), "TABLE": str(table), "OUT": str(run / "out"),
                 "JSON": str(run / "out.json")}
        code = main([paths.get(token, token) for token in argv])
        return code, capsys.readouterr(), {path.name: path.read_bytes()
                                           for path in sorted(run.iterdir())}

    @pytest.mark.parametrize("experiment", [None, "[experiment]\nseed = 5\nmu = 20\n"],
                             ids=["flags", "experiment-config"])
    @pytest.mark.parametrize("command", ["simulate", "crlb", "estimate", "dataset"])
    def test_same_bytes_as_the_whole_channel(self, tmp_path, capsys, command, experiment):
        argv = [*_WHOLE_COMMANDS[command], "--fd-table", "TABLE",
                *(["--json", "JSON"] if command == "simulate" else [])]
        if experiment:
            cfg = tmp_path / "experiment.ini"
            cfg.write_text(experiment)
            argv += ["--config", str(cfg)]
        whole = self._run(tmp_path, capsys, argv + _CHANNEL_44)
        assert whole[0] == 0
        assert sorted(whole[2]) == {"simulate": ["out", "out.json"],
                                    "estimate": []}.get(command, ["out"])
        assert self._run(tmp_path, capsys, argv) == whole

    def test_noise_free_note_reads_the_tables_channel(self, tmp_path, capsys):
        argv = ["estimate", "--fd-table", "TABLE", "--rss", "-60", "--m", "4", "--p", "2",
                "--q", "2"]
        code, captured, _ = self._run(tmp_path, capsys, argv, PARAMS_DISK)
        assert code == 0
        assert captured.err == "warning: noise-free channel: the RSS estimate is exact\n"
        assert captured.out.endswith("sqrt_crlb = nan\nstatus = rss_only\n")

    @pytest.mark.parametrize("command", ["simulate", "crlb", "estimate", "dataset"])
    def test_partial_channel_is_one_error_line(self, tmp_path, capsys, command):
        argv = [*_WHOLE_COMMANDS[command], "--fd-table", "TABLE", "--alpha", "4"]
        assert self._run(tmp_path, capsys, argv) == (2, ("", self.MISSING), {})

    def test_fd_table_command_needs_a_channel(self, tmp_path, capsys):
        argv = _WHOLE_COMMANDS["fd-table"]
        assert self._run(tmp_path, capsys, argv) == (2, ("", self.MISSING), {})

    @pytest.mark.parametrize("stated", ["flag", "config"])
    @pytest.mark.parametrize("command", ["simulate", "crlb", "estimate", "dataset"])
    def test_knot_count_other_than_the_tables(self, tmp_path, capsys, command, stated):
        cfg = tmp_path / "knots.ini"
        cfg.write_text("[experiment]\nn_knots = 9\n")
        given = ["--n-knots", "9"] if stated == "flag" else ["--config", str(cfg)]
        argv = [*_WHOLE_COMMANDS[command], "--fd-table", "TABLE"]
        assert self._run(tmp_path, capsys, argv + given) == (
            2, ("", f"error: {tmp_path / 'table.fd'} has 8 knots, not the 9 stated\n"), {})
        # the table's own count, and no count at all (the default 64 is not checked)
        for agreed in (["--n-knots", "8"], []):
            assert self._run(tmp_path, capsys, argv + agreed)[0] == 0


def _never(*args, **kwargs):
    pytest.fail("the command started its work before checking its output paths")


class TestOutputPrecheck:
    """An output in a missing directory fails before any work starts."""

    @pytest.mark.parametrize("flag", ["--output", "--json"])
    def test_simulate_fails_before_running(self, cfg_path, tmp_path, capsys, monkeypatch,
                                           flag):
        monkeypatch.setattr("rangefuse.simulator.run_experiment", _never)
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
        for target in ("cli.build_fd_model", "dataset.load_measurements",
                       "dataset.evaluate_pairs"):
            monkeypatch.setattr(f"rangefuse.{target}", _never)
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
        monkeypatch.setattr("rangefuse.simulator.run_experiment", _never)
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
        monkeypatch.setattr("rangefuse.simulator.run_experiment", _never)
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
        for target in ("cli.build_fd_model", "cli.load_fd_model", "dataset.load_measurements",
                       "simulator.run_experiment"):
            monkeypatch.setattr(f"rangefuse.{target}", _never)
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

    @pytest.mark.parametrize("flag", ["--output", "--json"])
    def test_output_that_is_a_symlink_loop(self, cfg_path, tmp_path, capsys, monkeypatch,
                                           flag):
        # open("loop.csv", "w") fails with ELOOP; the link must not be replaced
        monkeypatch.setattr("rangefuse.simulator.run_experiment", _never)
        monkeypatch.setattr("rangefuse.cli.build_fd_model", _never)
        monkeypatch.chdir(tmp_path)
        (tmp_path / "loop.csv").symlink_to("loop.csv")
        paths = {"--output": "r.csv", "--json": "r.json", flag: "loop.csv"}
        code = main(["simulate", "--config", str(cfg_path), "--output", paths["--output"],
                     "--json", paths["--json"]])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and "loop.csv" in err
        assert os.readlink(tmp_path / "loop.csv") == "loop.csv"
        assert sorted(path.name for path in tmp_path.iterdir()) == ["cfg.ini", "loop.csv"]

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
        (["--rss", "-1e308", "--m", "5", "--p", "8", "--q", "7"], "-1e+308"),
    ], ids=["zero-range", "zero-range-zero-counts", "infinite-range", "infinite-range-split"])
    def test_reading_without_finite_range(self, cfg_path, capsys, argv, reading):
        code = main(["estimate", "--config", str(cfg_path), "--n-knots", "16",
                     "--quad-tol", "1e-4", *argv])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.err == (f"error: the pair has an RSS reading of {reading} dBm, "
                                "which maps to no positive, finite distance\n")
        assert captured.out == ""


def _half_write(monkeypatch, whole=0):
    """Make every Path.write_text after the first whole ones write half its text,
    then fail like a full disk."""
    original = Path.write_text
    calls = []

    def half_write(self, text, *args, **kwargs):
        calls.append(self)
        if len(calls) <= whole:
            return original(self, text, *args, **kwargs)
        original(self, text[: len(text) // 2], *args, **kwargs)
        raise OSError("disk full")

    monkeypatch.setattr(Path, "write_text", half_write)


class TestAtomicOutput:
    def test_longest_name_is_written(self, cfg_path, tmp_path):
        # 255 bytes, the most a name may have on common file systems
        target = tmp_path / ("x" * 251 + ".txt")
        config.write_atomic(target, "text\n")
        assert target.read_text() == "text\n"
        out = tmp_path / ("y" * 251 + ".csv")
        assert main(["crlb", "--config", str(cfg_path), "--mu", "20", "--distances", "10",
                     "--n-knots", "8", "--quad-tol", "1e-3", "--output", str(out)]) == 0
        assert out.read_text().startswith("d,crlb_variance,sqrt_crlb\n10.0,")
        assert sorted(tmp_path.iterdir()) == sorted([cfg_path, target, out])

    @pytest.mark.parametrize("existing", [True, False])
    def test_failure_leaves_target_unchanged_or_absent(self, tmp_path, monkeypatch,
                                                       existing):
        target = tmp_path / "out.txt"
        if existing:
            target.write_text("old\n")
        _half_write(monkeypatch)
        with pytest.raises(OSError, match="disk full"):
            config.write_atomic(target, "half a\nhalf b\n")
        monkeypatch.undo()
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
            config.write_atomic(target, "new\n")
        finally:
            os.umask(previous)
        assert target.read_text() == "new\n"
        assert stat.S_IMODE(target.stat().st_mode) == (0o604 if existing else 0o640)
        assert list(tmp_path.iterdir()) == [target]

    def test_symlinked_output_writes_through_the_link(self, cfg_path, tmp_path):
        # open() follows the link: it stays a link, and its target gets the
        # text and keeps its mode
        table, link = tmp_path / "table.txt", tmp_path / "link.csv"
        real = tmp_path / "data" / "real.csv"
        table.write_text(_TABLE_44_8)
        real.parent.mkdir()
        real.write_text("old\n")
        real.chmod(0o604)
        link.symlink_to(Path("data") / "real.csv")
        assert main(["crlb", "--config", str(cfg_path), "--mu", "20", "--distances", "10",
                     "--fd-table", str(table), "--output", str(link)]) == 0
        assert os.readlink(link) == str(Path("data") / "real.csv")
        assert real.read_text() == ("d,crlb_variance,sqrt_crlb\n"
                                    "10.0,5.231405799636792,2.287226661185286\n")
        assert stat.S_IMODE(real.stat().st_mode) == 0o604
        assert list(real.parent.iterdir()) == [real]

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
            "report.csv": lambda path: config.write_atomic(path, report.to_csv_text()),
            "report.json": lambda path: config.write_atomic(path, report.to_json_text()),
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

    def test_library_writer_fails_on_a_symlink_loop(self, tmp_path, model44):
        # as open() fails: the looping link stays and no file is left beside it
        loop = tmp_path / "loop.fd"
        loop.symlink_to("loop.fd")
        with pytest.raises(OSError) as caught:
            rf.save_fd_model(model44, loop)
        assert caught.value.errno == errno.ELOOP
        assert os.readlink(loop) == "loop.fd"
        assert list(tmp_path.iterdir()) == [loop]

    @pytest.mark.parametrize("command, whole", [
        (["crlb", "--mu", "20"], 0),
        (["dataset", "--input", "IN", "--pairs", "1-2"], 0),
        (["fd-table"], 0),
        # the CSV report is written whole, then the JSON report's write fails
        (["simulate", "--json", "JSON"], 1),
    ])
    def test_cli_outputs_leave_no_torn_file(self, cfg_path, tmp_path, monkeypatch, capsys,
                                            command, whole):
        meas = tmp_path / "meas.txt"
        meas.write_text("# nodes\n1, 0, 0\n2, 1, 1\n# rss\n1, 2, -40\n")
        out = tmp_path / "out" / "x.csv"
        out.parent.mkdir()
        _half_write(monkeypatch, whole)
        paths = {"IN": str(meas), "JSON": str(out.with_suffix(".json"))}
        argv = [paths.get(token, token) for token in command]
        code = main(argv + ["--config", str(cfg_path), "--n-knots", "8",
                            "--quad-tol", "1e-3", "--output", str(out)])
        assert code == 2
        assert capsys.readouterr().err == "error: disk full\n"
        assert list(out.parent.iterdir()) == [out][:whole]
        if whole:  # the config file's two distances, after the header
            assert len(out.read_text().splitlines()) == 3


# an 8-knot table of the PARAMS_44 channel, written out so that the outputs
# pinned below depend on no quadrature
_TABLE_44_8 = """\
fdmodel v1
p_ref_dbm = -37.47
alpha = 4.0
sigma_db = 4.0
rss_threshold_dbm = -100.0
d0_m = 1.0
s_mass = 4674.1384697057365
d_th = 74.52006595742904
n_knots = 8
knots:
0.0, 3480.834428147445
10.645723708204148, 3274.49568322298
21.291447416408296, 2763.231262318726
31.937171124612444, 2129.625235524916
42.58289483281659, 1491.0041890358266
53.22861854102074, 914.3076418048887
63.87434224922489, 461.7706621135753
74.52006595742904, 182.73567845024354
"""
_FLAGS_44 = ["--p-ref-dbm=-37.47", "--alpha=4.0", "--sigma-db=4.0",
             "--rss-threshold-dbm=-100.0"]
_REPORT = rf.RmseReport(rows=(
    rf.RmseRow(d_true=10.0, rmse_rss=2.5, rmse_conn=3.0, rmse_fused=1.75, sqrt_crlb=1.5,
               trials=4),
    rf.RmseRow(d_true=0.1, rmse_rss=1e-17, rmse_conn=math.nan, rmse_fused=2.0 / 3.0,
               sqrt_crlb=1e300, trials=1),
))


def _write_crlb(path, table):
    assert main(["crlb", *_FLAGS_44, "--fd-table", str(table), "--mu", "20",
                 "--distances", "10,40", "--output", str(path)]) == 0


def _write_dataset(path, table):
    # both directions of -5, 3 are averaged; 7 and 11 share no reading
    meas = path.with_name("meas.txt")
    meas.write_text("# nodes\n-5, 0, 0\n3, 30, 40\n7, 20, 10\n9, 10, 30\n11, 60, 80\n"
                    "13, -20, 0\n# rss\n-5, 3, -95.5\n3, -5, -96.5\n-5, 7, -88\n7, 3, -90\n"
                    "9, -5, -89\n3, 9, -87\n3, 11, -92\n-5, 13, -84\n")
    assert main(["dataset", *_FLAGS_44, "--fd-table", str(table), "--input", str(meas),
                 "--pairs=-5-3, 7:11", "--output", str(path)]) == 0


def _write_simulate(path, table):
    assert main(["simulate", *_FLAGS_44, "--fd-table", str(table), "--mu", "20",
                 "--distances", "10,40", "--seed", "1", "--trials", "17",
                 "--output", str(path)]) == 0


def _write_estimate(path, table):
    # the estimate's stdout, an interior fusion of one reading and the counts
    with contextlib.redirect_stdout(io.StringIO()) as out:
        assert main(["estimate", *_FLAGS_44, "--fd-table", str(table), "--rss", "-80",
                     "--m", "6", "--p", "9", "--q", "11"]) == 0
    path.write_text(out.getvalue())


# each writer, called with its output path and the table's path, and the
# whole text it writes
_PINNED = {
    "report.csv": (
        lambda path, table: config.write_atomic(path, _REPORT.to_csv_text()),
        "d_true,rmse_rss,rmse_conn,rmse_fused,sqrt_crlb,trials\n"
        "10.0,2.5,3.0,1.75,1.5,4\n"
        "0.1,1e-17,nan,0.6666666666666666,1e+300,1\n",
    ),
    "report.json": (
        lambda path, table: config.write_atomic(path, _REPORT.to_json_text()),
        '{\n  "columns": [\n    "d_true",\n    "rmse_rss",\n    "rmse_conn",\n'
        '    "rmse_fused",\n    "sqrt_crlb",\n    "trials"\n  ],\n  "rows": [\n'
        '    {\n      "d_true": 10.0,\n      "rmse_rss": 2.5,\n      "rmse_conn": 3.0,\n'
        '      "rmse_fused": 1.75,\n      "sqrt_crlb": 1.5,\n      "trials": 4\n    },\n'
        '    {\n      "d_true": 0.1,\n      "rmse_rss": 1e-17,\n      "rmse_conn": NaN,\n'
        '      "rmse_fused": 0.6666666666666666,\n      "sqrt_crlb": 1e+300,\n'
        '      "trials": 1\n    }\n  ]\n}\n',
    ),
    "dataset.csv": (
        _write_dataset,
        "pair,d_true,err_rss,err_conn,err_fused,status,d_fused\n"
        "-5-3,50.0,20.943051744737335,36.0559468101559,22.41655473107272,interior,"
        "27.58344526892728\n"
        "7-11,80.62257748298549,nan,nan,nan,error,nan\n",
    ),
    "crlb.csv": (
        _write_crlb,
        "d,crlb_variance,sqrt_crlb\n"
        "10.0,5.231405799636792,2.287226661185286\n"
        "40.0,34.11343123462968,5.840670443932758\n",
    ),
    "simulate.csv": (
        _write_simulate,
        "d_true,rmse_rss,rmse_conn,rmse_fused,sqrt_crlb,trials\n"
        "10.0,2.1228243601524777,8.432808379839608,2.2521495548465937,2.287226661185286,17\n"
        "40.0,10.384081985154241,5.253459021300881,4.550812712288088,5.840670443932758,17\n",
    ),
    "estimate.txt": (
        _write_estimate,
        "d_rss = 11.567779454822\nd_conn = 38.21876309622185\n"
        "d_fused = 14.147935522671247\nsqrt_crlb = 3.0776267114409075\nstatus = interior\n",
    ),
    "fd_model.txt": (
        lambda path, table: rf.save_fd_model(rf.load_fd_model(table), path),
        _TABLE_44_8,
    ),
    "measurements.txt": (
        lambda path, table: rf.save_measurements(rf.MeasurementSet(
            ids=[7, -5, 3], xy=[[1.5, 0.0], [0.0, 0.0], [30.0, 40.0]],
            links=[[3, -5], [7, -5]], link_rss=[-85.25, -60.0]), path),
        "# nodes\n7, 1.5, 0.0\n-5, 0.0, 0.0\n3, 30.0, 40.0\n"
        "# rss\n-5, 3, -85.25\n-5, 7, -60.0\n",
    ),
}


class TestOutputBytes:
    @pytest.mark.parametrize("name", list(_PINNED))
    def test_whole_output(self, tmp_path, capsys, name):
        write, expected = _PINNED[name]
        table = tmp_path / "table.txt"
        table.write_text(_TABLE_44_8)
        write(tmp_path / name, table)
        assert (tmp_path / name).read_bytes() == expected.encode()
