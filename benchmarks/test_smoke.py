"""Smoke test of the benchmark itself; it is not part of the tier-1 suite.

    python3 -m pytest benchmarks -q

Runs each workload once at the tiny size, untraced and traced, and checks
that every metric BENCHMARK.json declares and every figure README.md
names is emitted with its unit, that a corrupted output file counts as a
failed operation, and that the benchmark refuses to run without the
package.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import run as bench  # noqa: E402

MANIFEST = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in MANIFEST["workloads"]]
END_TO_END = {m["name"]: m["unit"] for m in MANIFEST["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in MANIFEST["per_layer"]}
# figures printed beside the contract's metrics
EXTRA = {
    "simulate": {"trials_per_s": "1/s", "rmse_over_crlb": "ratio"},
    "dataset": {"pairs_per_s": "1/s", "err_fused_median_m": "m"},
    "fd-table": {"knots_per_s": "1/s"},
}
TABULATION = ("connectivity.build_fd_model.smooth_s",
              "connectivity.build_fd_model.sharp_s",
              "connectivity.generic_f.calls",
              "connectivity.generic_f.us",
              "connectivity.generic_s.s")


def _run(workload, trace):
    argv = ["--workload", workload, "--seed", "7", "--seconds", "0",
            "--trace", str(trace), "--size", "tiny"]
    return bench.run(bench.parse_args(argv))


def _units(result):
    return {name: metric["unit"] for name, metric in result["metrics"].items()}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics(workload):
    out = _run(workload, 0)
    result = out["result"]
    assert result["correct"], out["problems"]
    assert result["attempted"] >= 1 and result["failed"] == 0
    assert _units(result) == END_TO_END
    assert all(metric["value"] > 0 for metric in result["metrics"].values())
    expected = {**END_TO_END, **EXTRA[workload], "failed_share": "ratio",
                "raw_setup_s": "s", "raw_wall_s": "s"}
    assert {name: out["figures"][name][1] for name in expected} == expected
    assert out["figures"]["failed_share"][0] == 0.0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_per_layer_metrics(workload):
    out = _run(workload, 1)
    result = out["result"]
    assert result["correct"], out["problems"]
    assert _units(result) == PER_LAYER
    assert result["metrics"]["trace.overhead_s"]["value"] > 0.0
    tabulation = [result["metrics"][name]["value"] for name in TABULATION]
    if workload == "fd-table":
        assert all(value > 0 for value in tabulation)
    else:
        assert tabulation == [0.0] * len(TABULATION)
    assert (ROOT / ".bench_work" / workload / "spans.csv").is_file()


@pytest.mark.parametrize("workload", WORKLOADS)
def test_corrupted_output_counts_as_failed(workload, monkeypatch):
    bench.import_package()
    from rangefuse import cli

    real_main = cli.main

    def truncating_main(argv):
        code = real_main(argv)
        output = Path(argv[argv.index("--output") + 1])
        text = output.read_text()
        output.write_text(text[: len(text) // 2])
        return code

    monkeypatch.setattr(cli, "main", truncating_main)
    out = _run(workload, 0)
    assert out["figures"]["failed_share"][0] == 1.0
    assert out["result"]["failed"] == out["result"]["attempted"]
    assert not out["result"]["correct"]


def test_last_line_is_the_result():
    done = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", "simulate",
         "--seed", "3", "--seconds", "0", "--trace", "0", "--size", "tiny"],
        capture_output=True, text=True, timeout=180, cwd=ROOT, check=True,
    )
    result = json.loads(done.stdout.splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] is True


def test_refuses_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", "simulate",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=180, cwd=tmp_path,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
