import ast
import dataclasses
import inspect
import os
import re
import subprocess
import sys
import tomllib
from pathlib import Path

import pytest

import rangefuse as rf
from rangefuse import cli, config


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

    def test_dir_lists_every_name(self):
        assert set(rf.__all__) <= set(dir(rf))
        # also before any name has been looked up, as in a fresh interpreter
        code = "import rangefuse as rf; print(set(rf.__all__) <= set(dir(rf)))"
        assert _run_python(code) == "True"

    def test_unknown_name_raises(self):
        with pytest.raises(AttributeError, match="'no_such_name'"):
            rf.no_such_name

    def test_submodules_resolve_on_first_use(self):
        # a fresh interpreter, so no earlier import has bound them
        code = ("import sys, rangefuse as rf; rf.fusion.fuse_arrays; rf.simulator._draw_probe\n"
                "names = [p.stem for p in __import__('pathlib').Path(rf.__file__).parent.glob('*.py')]\n"
                "print([n for n in names if n != '__init__'"
                " and getattr(rf, n) is not sys.modules['rangefuse.' + n]])")
        assert _run_python(code) == "[]"

    def test_each_name_is_its_home_modules(self):
        # the root hands out the object its defining module holds
        for name in rf.__all__:
            obj = getattr(rf, name)
            assert obj.__module__.startswith("rangefuse.")
            assert obj is getattr(sys.modules[obj.__module__], name)

    def test_moved_names_stay_in_the_simulator(self):
        from rangefuse.simulator import ExperimentConfig, mu_to_lambda
        assert ExperimentConfig is rf.ExperimentConfig and mu_to_lambda is rf.mu_to_lambda


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


def _run_fresh(*argv: str) -> subprocess.CompletedProcess:
    """The outcome of a fresh interpreter that imports this package, run with argv."""
    env = {**os.environ, "PYTHONPATH": str(Path(rf.__file__).resolve().parents[1])}
    return subprocess.run([sys.executable, *argv], env=env, capture_output=True, text=True)


def _run_python(code: str, *args: str) -> str:
    """stdout of code run in a fresh interpreter that imports this package."""
    result = _run_fresh("-c", code, *args)
    result.check_returncode()
    return result.stdout.strip()


class TestModuleEntryPoint:
    """python -m rangefuse.cli runs the program the rangefuse command runs."""

    def test_help_exits_zero(self, monkeypatch):
        monkeypatch.setenv("COLUMNS", "100")  # the same width here and in the fresh run
        result = _run_fresh("-m", "rangefuse.cli", "--help")
        assert (result.returncode, result.stderr) == (0, "")
        assert result.stdout == cli.build_parser().format_help()

    def test_usage_error_is_one_line(self):
        result = _run_fresh("-m", "rangefuse.cli", "crlb", "--mu", "20")
        assert (result.returncode, result.stdout) == (2, "")
        assert result.stderr == "error: the following arguments are required: --output\n"


def test_import_leaves_scipy_unloaded():
    # scipy.special alone would be most of a cold start; the package needs
    # numpy and the standard library only (test_scipy_import_sites)
    code = ("import sys, rangefuse, rangefuse.cli; "
            "print(sorted(name for name in sys.modules if name.split('.')[0] == 'scipy'))")
    assert _run_python(code) == "[]"


def test_common_neighbor_rule_leaves_scipy_unloaded():
    # generic_f integrates closed-form lens areas and takes its tail
    # probabilities from the standard library's math.erfc
    code = ("import sys, rangefuse as rf; "
            "rf.generic_f(rf.ChannelParams(-37.47, 4.0, 4.0, -100.0), 30.0); "
            "print(sorted(name for name in sys.modules if name.split('.')[0] == 'scipy'))")
    assert _run_python(code) == "[]"


def _scipy_import_scopes(node, scope=()):
    """The enclosing def and class names of each import of scipy under node."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.Import):
            names = [alias.name for alias in child.names]
        else:
            names = [child.module or ""] if isinstance(child, ast.ImportFrom) else []
        if any(name.split(".")[0] == "scipy" for name in names):
            yield scope
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield from _scipy_import_scopes(child, (*scope, child.name))
        else:
            yield from _scipy_import_scopes(child, scope)


def test_scipy_import_sites():
    # the package imports scipy nowhere, not even inside a function
    sites = {".".join((path.stem, *scope))
             for path in Path(rf.__file__).parent.glob("*.py")
             for scope in _scipy_import_scopes(ast.parse(path.read_text()))}
    assert sites == set()


def test_runtime_dependencies_are_numpy_only():
    # scipy serves the tests' oracles only, so it sits in the test extra
    project = tomllib.loads((Path(__file__).resolve().parents[1] / "pyproject.toml")
                            .read_text())["project"]
    assert [re.match(r"[A-Za-z0-9_.-]+", dep)[0] for dep in project["dependencies"]] == ["numpy"]
    assert any(dep.startswith("scipy") for dep in project["optional-dependencies"]["test"])


def test_commands_read_experiment_settings_from_the_overlay():
    # cli._resolve_settings overlays each flag on the config key of its name;
    # a command that read args.mu itself would skip the config file
    tree = ast.parse(Path(cli.__file__).read_text())
    reads = {node.attr for node in ast.walk(tree)
             if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
             and node.value.id == "args" and node.attr in config._EXPERIMENT_TYPES}
    assert reads == set()



def test_commands_leave_readings_and_error_bars_to_the_pipeline():
    # pipeline owns the link-threshold rule for a reading, the range check
    # and the error-bar ladder; a command that re-derived them could drift
    nodes = list(ast.walk(ast.parse(Path(cli.__file__).read_text())))
    attributes = {node.attr for node in nodes if isinstance(node, ast.Attribute)}
    names = {node.id for node in nodes if isinstance(node, ast.Name)}
    modules = set()  # each module imported, and each name imported from a module
    for node in nodes:
        if isinstance(node, ast.ImportFrom):
            modules |= {node.module or "", *(f"{node.module or ''}.{a.name}" for a in node.names)}
        elif isinstance(node, ast.Import):
            modules |= {alias.name for alias in node.names}
    assert "rss_threshold_dbm" not in attributes
    helpers = {"clamp_to_cutoff", "checked_ranges"}
    assert helpers & (attributes | names | {m.rsplit(".", 1)[-1] for m in modules}) == set()
    assert {"fusion", ".fusion", "rangefuse.fusion"} & modules == set()


def test_count_law_is_read_not_restated():
    # fdtable.count_law forms the counts' means and slopes from f and S; the
    # bound and the exact law read them there, and S only to turn mu into an
    # intensity
    for module in (rf.crlb, rf.simulator):
        nodes = list(ast.walk(ast.parse(Path(module.__file__).read_text())))
        called = {node.func.attr if isinstance(node.func, ast.Attribute) else node.func.id
                  for node in nodes if isinstance(node, ast.Call)
                  and isinstance(node.func, (ast.Attribute, ast.Name))}
        assert called & {"eval_fd", "fd_slope"} == set(), module.__name__
        to_lambda = {id(arg) for node in nodes if isinstance(node, ast.Call)
                     and isinstance(node.func, ast.Name) and node.func.id == "mu_to_lambda"
                     for arg in node.args}
        stray = [node.lineno for node in nodes if isinstance(node, ast.Attribute)
                 and node.attr == "s_mass" and id(node) not in to_lambda]
        assert stray == [], module.__name__


_COMMANDS_CODE = """
import contextlib, io, sys
import rangefuse as rf
from rangefuse.cli import main
table, meas, out = sys.argv[1:]
channel = ["--p-ref-dbm", "-37.47", "--alpha", "4", "--sigma-db", "4",
           "--rss-threshold-dbm", "-100"]
codes = []
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    codes.append(main(["fd-table", *channel, "--n-knots", "8", "--quad-tol", "1e-3",
                       "--output", out]))
    # each command given the table, then building its own
    for given in (["--fd-table", table], ["--n-knots", "8", "--quad-tol", "1e-3"]):
        for argv in (
            ["simulate", "--mu", "10", "--trials", "2", "--distances", "20", "--output", out],
            ["dataset", "--input", meas, "--pairs", "1-2", "--output", out],
            ["estimate", "--rss", "-80", "--m", "3", "--p", "2", "--q", "2"],
            ["crlb", "--mu", "10", "--output", out],
        ):
            codes.append(main([argv[0], *given, *channel, *argv[1:]]))
model = rf.load_fd_model(table)
rf.expected_errors(model, 10.0 / model.s_mass, 20.0)
print(codes, sorted(name for name in sys.modules if name.split(".")[0] == "scipy"))
import scipy.special
print("scipy.special" in sys.modules)
"""


def test_commands_leave_scipy_unloaded(tmp_path, model44):
    table, meas = tmp_path / "fd.txt", tmp_path / "meas.txt"
    rf.save_fd_model(model44, table)
    meas.write_text("# nodes\n1, 0, 0\n2, 3, 4\n3, 1, 1\n# rss\n1, 2, -60\n1, 3, -50\n")
    out = _run_python(_COMMANDS_CODE, str(table), str(meas), str(tmp_path / "out"))
    # the last line, a control import in the same process, shows that the
    # check can see scipy
    assert out.splitlines() == ["[0, 0, 0, 0, 0, 0, 0, 0, 0] []", "True"]


_LOADED = ('print(*sorted(name for name in sys.modules '
           'if name.startswith(("rangefuse.", "numpy.polynomial"))))')


def test_bare_import_loads_no_module():
    loaded = _run_python("import sys, rangefuse\n" + _LOADED).split()
    assert [name for name in loaded if name.startswith("rangefuse.")] == []


def test_table_load_loads_only_what_it_reads(tmp_path, model44):
    # no quadrature (connectivity) and no configparser, which only --config needs
    table = tmp_path / "fd.txt"
    rf.save_fd_model(model44, table)
    code = ("import sys, rangefuse\nrangefuse.load_fd_model(sys.argv[1])\n" + _LOADED
            + "\nprint('configparser' in sys.modules)")
    assert _run_python(code, str(table)).split() == [
        "rangefuse.channel", "rangefuse.config", "rangefuse.errors", "rangefuse.fdtable",
        "False"]


_COMMAND_CODE = """
import contextlib, io, sys
from rangefuse.cli import main
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    code = main(sys.argv[1:])
print(code, *sorted(name.removeprefix("rangefuse.") for name in sys.modules
                   if name.startswith("rangefuse.")
                   or name in ("configparser", "json", "numpy.polynomial")))
"""


# a command given --fd-table loads no quadrature (connectivity), and a table
# build no numpy.polynomial; the last two cases show that the check sees the
# standard library's json and configparser
@pytest.mark.parametrize("argv, runs, unloaded", [
    (["fd-table", "--n-knots", "8", "--quad-tol", "1e-3", "--output", "OUT"], "connectivity",
     {"dataset", "simulator", "pipeline", "fusion", "crlb", "configparser", "json",
      "numpy.polynomial"}),
    (["estimate", "--fd-table", "TABLE", "--rss", "-80", "--m", "3", "--p", "2", "--q", "2"],
     "pipeline", {"dataset", "simulator", "connectivity", "configparser", "json"}),
    (["crlb", "--fd-table", "TABLE", "--mu", "10", "--output", "OUT"], "crlb",
     {"dataset", "simulator", "connectivity", "configparser", "json"}),
    (["dataset", "--fd-table", "TABLE", "--input", "MEAS", "--pairs", "1-2", "--output", "OUT"],
     "dataset", {"simulator", "connectivity", "configparser", "json"}),
    (["simulate", "--fd-table", "TABLE", "--mu", "10", "--trials", "2", "--distances", "20",
      "--output", "OUT"], "simulator", {"dataset", "connectivity", "configparser", "json"}),
    (["simulate", "--fd-table", "TABLE", "--mu", "10", "--trials", "2", "--distances", "20",
      "--output", "OUT", "--json", "JSON"], "json", {"dataset", "connectivity", "configparser"}),
    (["crlb", "--fd-table", "TABLE", "--config", "CONFIG", "--output", "OUT"], "configparser",
     {"dataset", "simulator", "connectivity", "json"}),
], ids=["fd-table", "estimate", "crlb", "dataset", "simulate", "simulate-json", "crlb-config"])
def test_a_command_loads_only_what_it_runs(tmp_path, model44, argv, runs, unloaded):
    paths = {"TABLE": tmp_path / "fd.txt", "MEAS": tmp_path / "meas.txt", "OUT": tmp_path / "out",
             "JSON": tmp_path / "out.json", "CONFIG": tmp_path / "cfg.ini"}
    rf.save_fd_model(model44, paths["TABLE"])
    paths["MEAS"].write_text("# nodes\n1, 0, 0\n2, 3, 4\n3, 1, 1\n# rss\n1, 2, -60\n")
    paths["CONFIG"].write_text("[experiment]\nmu = 10\n")
    channel = ["--p-ref-dbm", "-37.47", "--alpha", "4", "--sigma-db", "4",
               "--rss-threshold-dbm", "-100"]
    code, *loaded = _run_python(_COMMAND_CODE, argv[0], *channel,
                                *(str(paths.get(token, token)) for token in argv[1:])).split()
    # the module the command runs is loaded, so the check can see modules
    assert code == "0" and runs in loaded
    assert unloaded & set(loaded) == set()
