"""The benchmark's three workloads: their inputs, command lines and output checks.

Each workload turns the benchmark seed into inputs, lists the
``rangefuse`` command lines that make up one run, and checks every file a
run writes. The package is imported by the caller (``run.py``) from the
checkout's ``src`` directory before anything here touches it.
"""

from __future__ import annotations

import csv
import math
import statistics
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
REF_DIR = BENCH_DIR / "ref"

# Channels as (p_ref_dbm, alpha, sigma_db, rss_threshold_dbm); the names
# match the test suite's PARAMS_44, PARAMS_FIELD and PARAMS_SHARP.
CHANNELS = {
    "p44": (-37.47, 4.0, 4.0, -100.0),
    "field": (-37.47, 2.3, 3.92, -55.0),
    "sharp": (-37.47, 4.0, 0.01, -77.47),
}

# Run sizes. "full" is what the benchmark measures; "tiny" only exercises
# every code path quickly, for the smoke test.
SIZES = {
    "full": {
        "trials": 100,
        "field_nodes": 1000,
        "field_pairs": 9000,
        "n_knots": 64,
        "quad_tol": 1e-6,
        "setup_repeats": 5,
    },
    "tiny": {
        "trials": 5,
        "field_nodes": 60,
        "field_pairs": 300,
        "n_knots": 8,
        "quad_tol": 1e-3,
        "setup_repeats": 1,
    },
}

MU = 20.0
N_PROBES = 8
INTERIOR = (0.3, 0.8)
FIELD_DEGREE = 20.0
BATCH_PAIRS = 1000
SIM_COLUMNS = ("d_true", "rmse_rss", "rmse_conn", "rmse_fused", "sqrt_crlb", "trials")
DATASET_COLUMNS = ("pair", "d_true", "err_rss", "err_conn", "err_fused")


def channel_flags(name: str) -> list:
    p_ref, alpha, sigma, threshold = CHANNELS[name]
    return [
        f"--p-ref-dbm={p_ref!r}",
        f"--alpha={alpha!r}",
        f"--sigma-db={sigma!r}",
        f"--rss-threshold-dbm={threshold!r}",
    ]


def ref_table(channel: str, n_knots: int = 64, quad_tol: float = 1e-6) -> Path:
    """Stored f(d) table built by the seed code with the same settings."""
    return REF_DIR / f"fd_{channel}_{n_knots}_{quad_tol:g}.txt"


@dataclass
class Call:
    """One ``rangefuse`` command line of a run and the file it writes."""

    label: str
    argv: list
    output: Path


def _finite(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"not finite: {text!r}")
    return value


def _read_rows(path: Path, columns) -> list:
    with open(path, newline="") as handle:
        reader = csv.DictReader(handle)
        missing = [c for c in columns if c not in (reader.fieldnames or ())]
        if missing:
            raise ValueError(f"{path.name}: missing columns {missing}")
        return list(reader)


class Workload:
    """Base: subclasses fill in ``calls``, ``work_units`` and ``sizes``."""

    name = ""
    rate_name = ""
    table = None  # f(d) table the set-up time includes loading
    input_lines = 0  # lines of the measurement file, where there is one

    def __init__(self, work_dir: Path, seed: int, size: str):
        self.size = SIZES[size]
        self.calls: list = []
        self.work_units = 0
        self.sizes: dict = {}

    def check(self, call: Call) -> None:
        """Raise when the file the call wrote is wrong."""
        raise NotImplementedError

    def quality(self) -> dict:
        """Accuracy figures of the last run's outputs as ``{name: (value, unit)}``."""
        return {}


class Simulate(Workload):
    """``rangefuse simulate`` on the paper channel, 8 probes, prebuilt table."""

    name = "simulate"
    rate_name = "trials_per_s"

    def __init__(self, work_dir, seed, size):
        super().__init__(work_dir, seed, size)
        import numpy as np
        import rangefuse

        self.table = ref_table("p44")
        self.d_th = rangefuse.load_fd_model(self.table).d_th
        # the probes of the test suite's big_report: 0.1 ... 1.0 d_th
        self.distances = [float(f) * self.d_th for f in np.linspace(0.1, 1.0, N_PROBES)]
        self.trials = self.size["trials"]
        output = work_dir / "simulate.csv"
        argv = ["simulate", *channel_flags("p44"),
                "--mu", repr(MU),
                "--trials", str(self.trials),
                "--seed", str(seed),
                "--distances", ",".join(repr(d) for d in self.distances),
                "--fd-table", str(self.table),
                "--output", str(output)]
        self.calls = [Call("simulate", argv, output)]
        self.work_units = len(self.distances) * self.trials
        self.sizes = {"probes": len(self.distances), "trials": self.trials, "mu": MU}

    def check(self, call):
        rows = _read_rows(call.output, SIM_COLUMNS)
        if len(rows) != len(self.distances):
            raise ValueError(f"{len(rows)} rows, expected {len(self.distances)}")
        for row, d in zip(rows, self.distances):
            values = {c: _finite(row[c]) for c in SIM_COLUMNS}
            if not math.isclose(values["d_true"], d, rel_tol=1e-9):
                raise ValueError(f"probe {values['d_true']!r}, expected {d!r}")
            if values["trials"] != self.trials:
                raise ValueError(f"trials {row['trials']}, expected {self.trials}")
            if any(v <= 0.0 for v in values.values()):
                raise ValueError(f"non-positive value in row {row}")
            if values["rmse_fused"] > max(values["rmse_rss"], values["rmse_conn"]):
                raise ValueError(f"fused RMSE above both sources at d={d!r}")

    def quality(self):
        lo, hi = (f * self.d_th for f in INTERIOR)
        ratios = [
            float(row["rmse_fused"]) / float(row["sqrt_crlb"])
            for row in _read_rows(self.calls[0].output, SIM_COLUMNS)
            if lo <= float(row["d_true"]) <= hi
        ]
        return {"rmse_over_crlb": (max(ratios), "ratio")}


class Dataset(Workload):
    """``rangefuse dataset`` on a fixed number of linked pairs of a synthesized field.

    The pairs go out in batches of ``BATCH_PAIRS``, one call each, so that
    each call is short enough for the calibration next to it to track the
    machine's speed (see ``calibrate.py``).
    """

    name = "dataset"
    rate_name = "pairs_per_s"

    def __init__(self, work_dir, seed, size):
        super().__init__(work_dir, seed, size)
        self.table = ref_table("field")
        field = work_dir / "field.txt"
        pairs_file = work_dir / "pairs.txt"
        # The field is drawn in a child process so that its arrays do not
        # count toward this process's peak memory.
        subprocess.run(
            [sys.executable, str(BENCH_DIR / "gen_field.py"),
             "--seed", str(seed), "--nodes", str(self.size["field_nodes"]),
             "--degree", repr(FIELD_DEGREE),
             "--pair-count", str(self.size["field_pairs"]), "--table", str(self.table),
             "--field", str(field), "--pairs", str(pairs_file)],
            check=True, timeout=120,
        )
        self.pairs = pairs_file.read_text().split()
        self.batches = {}
        for start in range(0, len(self.pairs), BATCH_PAIRS):
            label = f"batch{start // BATCH_PAIRS}"
            self.batches[label] = self.pairs[start:start + BATCH_PAIRS]
            output = work_dir / f"dataset_{label}.csv"
            argv = ["dataset", *channel_flags("field"),
                    "--input", str(field),
                    "--pairs", ",".join(self.batches[label]),
                    "--fd-table", str(self.table),
                    "--output", str(output)]
            self.calls.append(Call(label, argv, output))
        self.work_units = len(self.pairs)
        with open(field) as handle:
            self.input_lines = sum(1 for _ in handle)
        self.sizes = {
            "nodes": self.size["field_nodes"],
            "mean_degree": FIELD_DEGREE,
            "pairs": len(self.pairs),
            "calls": len(self.calls),
            "input_lines": self.input_lines,
        }

    def check(self, call):
        rows = _read_rows(call.output, DATASET_COLUMNS)
        pairs = self.batches[call.label]
        if [row["pair"] for row in rows] != pairs:
            raise ValueError(f"{len(rows)} rows do not match the {len(pairs)} pairs")
        # The CSV has no status column: a pair that failed to evaluate shows
        # up as 'nan' errors, which _finite rejects.
        for row in rows:
            for column in DATASET_COLUMNS[1:]:
                if _finite(row[column]) < 0.0:
                    raise ValueError(f"negative {column} for pair {row['pair']}")

    def quality(self):
        errors = [float(row["err_fused"]) for call in self.calls
                  for row in _read_rows(call.output, DATASET_COLUMNS)]
        return {"err_fused_median_m": (statistics.median(errors), "m")}


class FdTable(Workload):
    """``rangefuse fd-table`` for the smooth paper channel, then the near-step one.

    The inputs are fixed channels, so the seed does not change them.
    """

    name = "fd-table"
    rate_name = "knots_per_s"

    def __init__(self, work_dir, seed, size):
        super().__init__(work_dir, seed, size)
        self.n_knots = self.size["n_knots"]
        self.quad_tol = self.size["quad_tol"]
        self.refs = {}
        for label, channel in (("smooth", "p44"), ("sharp", "sharp")):
            output = work_dir / f"fd_{channel}.txt"
            argv = ["fd-table", *channel_flags(channel),
                    "--n-knots", str(self.n_knots),
                    "--quad-tol", repr(self.quad_tol),
                    "--output", str(output)]
            self.calls.append(Call(label, argv, output))
            self.refs[label] = ref_table(channel, self.n_knots, self.quad_tol)
        self.work_units = self.n_knots * len(self.calls)
        self.sizes = {"n_knots": self.n_knots, "quad_tol": self.quad_tol,
                      "channels": ["p44", "sharp"]}
        self.worst = 0.0

    def check(self, call):
        import numpy as np
        from rangefuse import load_fd_model

        model = load_fd_model(call.output)
        ref = load_fd_model(self.refs[call.label])
        if model.params != ref.params:
            raise ValueError(f"table built for {model.params}, expected {ref.params}")
        if model.n_knots != ref.n_knots:
            raise ValueError(f"{model.n_knots} knots, expected {ref.n_knots}")
        if np.any(np.diff(model.knots_f) >= 0.0):
            raise ValueError("knot values do not decrease strictly")
        tol = self.quad_tol
        gap_d = np.max(np.abs(model.knots_d - ref.knots_d)) / ref.d_th
        gap_f = np.max(np.abs(model.knots_f - ref.knots_f) / np.abs(ref.knots_f))
        gap_s = abs(model.s_mass - ref.s_mass) / ref.s_mass
        worst = float(max(gap_d, gap_f, gap_s))
        self.worst = max(self.worst, worst)
        if not worst <= tol:
            raise ValueError(f"table differs from the reference by {worst:.3g} > {tol:g}")

    def quality(self):
        return {"fd_worst_rel_gap": (self.worst, "ratio")}


WORKLOADS = {cls.name: cls for cls in (Simulate, Dataset, FdTable)}
