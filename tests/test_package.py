import dataclasses
import inspect
import os
import subprocess
import sys
from pathlib import Path

import rangefuse as rf


class TestPublicNames:
    """rangefuse.__all__ is the package's public surface; keep it exact."""

    def test_sorted_without_duplicates(self):
        assert rf.__all__ == sorted(rf.__all__)
        assert len(set(rf.__all__)) == len(rf.__all__)

    def test_every_name_resolves(self):
        assert [name for name in rf.__all__ if not hasattr(rf, name)] == []

    def test_star_import(self):
        namespace = {}
        exec("from rangefuse import *", namespace)
        assert set(rf.__all__) <= set(namespace)


class TestOneChannelSource:
    """An f(d) table carries its channel, so no entry point takes a second one."""

    def test_no_callable_takes_a_channel_and_a_model(self):
        both = []
        for name in rf.__all__:
            obj = getattr(rf, name)
            try:
                parameters = set(inspect.signature(obj).parameters) if callable(obj) else set()
            except ValueError:  # builtin signatures, e.g. of exception classes
                continue
            if "model" in parameters and parameters & {"params", "channel"}:
                both.append(name)
        assert both == []

    def test_configs_and_sets_hold_no_channel(self):
        for cls in (rf.ExperimentConfig, rf.MeasurementSet):
            assert "channel" not in {f.name for f in dataclasses.fields(cls)}


def _run_python(code: str, *args: str) -> str:
    """stdout of code run in a fresh interpreter that imports this package."""
    env = {**os.environ, "PYTHONPATH": str(Path(rf.__file__).resolve().parents[1])}
    result = subprocess.run([sys.executable, "-c", code, *args], env=env,
                            capture_output=True, text=True, check=True)
    return result.stdout.strip()


def test_import_leaves_scipy_unloaded():
    # scipy.special alone is most of a cold start; only f(d) tabulation and
    # the exact-law enumeration load it, inside the functions that need it
    code = ("import sys, rangefuse, rangefuse.cli; "
            "print(sorted(name for name in sys.modules if name.split('.')[0] == 'scipy'))")
    assert _run_python(code) == "[]"


_COMMANDS_CODE = """
import contextlib, io, sys
from rangefuse.cli import main
table, meas, out = sys.argv[1:]
channel = ["--p-ref-dbm", "-37.47", "--alpha", "4", "--sigma-db", "4",
           "--rss-threshold-dbm", "-100"]
given = ["--fd-table", table, *channel]
codes = []
with contextlib.redirect_stdout(io.StringIO()):
    for argv in (
        ["simulate", "--mu", "10", "--trials", "2", "--distances", "20", "--output", out],
        ["dataset", "--input", meas, "--pairs", "1-2", "--output", out],
        ["estimate", "--rss", "-80", "--m", "3", "--p", "2", "--q", "2"],
        ["crlb", "--mu", "10", "--output", out],
    ):
        codes.append(main([argv[0], *given, *argv[1:]]))
    given_table = "scipy" in sys.modules
    codes.append(main(["fd-table", *channel, "--n-knots", "8", "--quad-tol", "1e-3",
                       "--output", out]))
print(codes, given_table, "scipy.special" in sys.modules)
"""


def test_commands_given_a_table_leave_scipy_unloaded(tmp_path, model44):
    table, meas = tmp_path / "fd.txt", tmp_path / "meas.txt"
    rf.save_fd_model(model44, table)
    meas.write_text("# nodes\n1, 0, 0\n2, 3, 4\n3, 1, 1\n# rss\n1, 2, -60\n1, 3, -50\n")
    out = _run_python(_COMMANDS_CODE, str(table), str(meas), str(tmp_path / "out"))
    # tabulation does load scipy.special, so the check above is not vacuous
    assert out == "[0, 0, 0, 0, 0] False True"
