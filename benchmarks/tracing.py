"""Per-layer tracing of rangefuse, done from outside the package.

While a ``Tracer`` is installed, each public function in ``TARGETS`` is
replaced, under the module attribute its caller looks up, by a wrapper
that records one span: layer name, start, end, parent span and run id.
Spans stay in memory until ``write_spans``. A function missing from the
package is skipped, so its metrics read zero instead of failing.

Each run carries a scale that the caller sets after the run with
``scale_run``; ``SpanSummary`` multiplies the run's span durations by it,
so that per-layer times are in the same reference seconds as ``wall_s``.

``_kernels.count_neighbors`` is not wrapped: it is counted inside
``simulator.realize_neighbors``. Config parsing and CSV writing are not
wrapped either: they are ``cli.main`` self time.
"""

from __future__ import annotations

import csv
import functools
import importlib
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

# (module whose global is patched, attribute, layer name)
TARGETS = (
    ("rangefuse.cli", "load_fd_model", "connectivity.load_fd_model"),
    ("rangefuse.cli", "build_fd_model", "connectivity.build_fd_model"),
    ("rangefuse.cli", "run_experiment", "simulator.run_experiment"),
    ("rangefuse.cli", "load_measurements", "dataset.load_measurements"),
    ("rangefuse.cli", "evaluate_pairs", "dataset.evaluate_pairs"),
    ("rangefuse.cli", "estimate_pair", "pipeline.estimate_pair"),
    ("rangefuse.simulator", "build_fd_model", "connectivity.build_fd_model"),
    ("rangefuse.simulator", "deploy_poisson", "simulator.deploy_poisson"),
    ("rangefuse.simulator", "realize_neighbors", "simulator.realize_neighbors"),
    ("rangefuse.simulator", "sample_rss", "channel.sample_rss"),
    ("rangefuse.simulator", "estimate_distance_rss", "channel.estimate_distance_rss"),
    ("rangefuse.simulator", "estimate_distance_conn", "connectivity.estimate_distance_conn"),
    ("rangefuse.simulator", "conn_error_sigma", "connectivity.conn_error_sigma"),
    ("rangefuse.simulator", "crlb_distance", "crlb.crlb_distance"),
    ("rangefuse.simulator", "fuse_mle", "fusion.fuse_mle"),
    ("rangefuse.dataset", "build_fd_model", "connectivity.build_fd_model"),
    ("rangefuse.dataset", "neighbor_counts_for_pair", "dataset.neighbor_counts_for_pair"),
    ("rangefuse.dataset", "estimate_pair", "pipeline.estimate_pair"),
    ("rangefuse.pipeline", "estimate_distance_rss", "channel.estimate_distance_rss"),
    ("rangefuse.pipeline", "estimate_distance_conn", "connectivity.estimate_distance_conn"),
    ("rangefuse.pipeline", "conn_error_sigma", "connectivity.conn_error_sigma"),
    ("rangefuse.pipeline", "crlb_distance", "crlb.crlb_distance"),
    ("rangefuse.pipeline", "fuse_mle", "fusion.fuse_mle"),
    ("rangefuse.connectivity", "generic_f", "connectivity.generic_f"),
    ("rangefuse.connectivity", "generic_s", "connectivity.generic_s"),
)

ROOT_SPAN = "cli.main"
FUSION_STATUSES = ("newton_converged", "fallback_grid", "boundary_clamped")
PIPELINE_STATUSES = FUSION_STATUSES + ("rss_only", "connectivity_only", "no_information")
TABULATION = ("connectivity.build_fd_model", "connectivity.generic_f",
              "connectivity.generic_s")


def _count_status(prefix):
    def hook(counts, result):
        counts[f"{prefix}.{getattr(result, 'status', None)}"] += 1
    return hook


def _count_nodes(counts, result):
    counts["simulator.nodes"] += len(getattr(result, "nodes", ()))


RESULT_HOOKS = {
    "fusion.fuse_mle": _count_status("fusion.status"),
    "pipeline.estimate_pair": _count_status("pipeline.status"),
    "simulator.deploy_poisson": _count_nodes,
}


class Tracer:
    """Span recorder; one run id per ``cli.main`` call, labelled by the caller."""

    def __init__(self):
        self.names: list = []
        self.starts: list = []
        self.ends: list = []
        self.parents: list = []
        self.runs: list = []
        self.run_labels: list = []
        self.run_scales: list = []
        self.counts: Counter = Counter()
        self._stack: list = []

    def _open(self, name: str) -> int:
        index = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.runs.append(len(self.run_labels) - 1)
        self.ends.append(0.0)
        self._stack.append(index)
        self.starts.append(time.perf_counter())
        return index

    def _close(self, index: int) -> None:
        self.ends[index] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def run(self, label: str):
        """Span one ``cli.main`` call as the root of a new run."""
        self.run_labels.append(label)
        self.run_scales.append(1.0)
        index = self._open(ROOT_SPAN)
        try:
            yield
        finally:
            self._close(index)

    def scale_run(self, factor: float) -> None:
        """Set the scale of the latest run's span durations."""
        self.run_scales[-1] = factor

    def _wrap(self, layer: str, fn):
        hook = RESULT_HOOKS.get(layer)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self._open(layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(index)
            if hook is not None:
                hook(self.counts, result)
            return result

        return traced

    @contextmanager
    def installed(self):
        """Patch every target for the duration of the block, then restore it."""
        saved = []
        try:
            for module_name, attr, layer in TARGETS:
                module = importlib.import_module(module_name)
                fn = getattr(module, attr, None)
                if fn is None:
                    continue
                saved.append((module, attr, fn))
                setattr(module, attr, self._wrap(layer, fn))
            yield self
        finally:
            for module, attr, fn in reversed(saved):
                setattr(module, attr, fn)

    def write_spans(self, path) -> None:
        with open(path, "w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(("span", "name", "start_s", "end_s", "parent", "run", "label",
                             "scale"))
            origin = self.starts[0] if self.starts else 0.0
            for i, name in enumerate(self.names):
                run = self.runs[i]
                writer.writerow((i, name, f"{self.starts[i] - origin:.9f}",
                                 f"{self.ends[i] - origin:.9f}", self.parents[i], run,
                                 self.run_labels[run], f"{self.run_scales[run]:.6f}"))


def span_cost_s(calls: int = 20000) -> float:
    """Seconds one traced call adds to a bare one, timed on a no-op function."""

    def noop():
        return None

    tracer = Tracer()
    wrapped = tracer._wrap("noop", noop)
    with tracer.run("span_cost"):
        start = time.perf_counter()
        for _ in range(calls):
            noop()
        bare = time.perf_counter() - start
        start = time.perf_counter()
        for _ in range(calls):
            wrapped()
        traced = time.perf_counter() - start
    return (traced - bare) / calls


class SpanSummary:
    """Scaled durations, self times and per-run groupings of a tracer's spans."""

    def __init__(self, tracer: Tracer):
        n = len(tracer.names)
        self.spans = n
        self.duration = [(tracer.ends[i] - tracer.starts[i]) * tracer.run_scales[tracer.runs[i]]
                         for i in range(n)]
        child = [0.0] * n
        for i, parent in enumerate(tracer.parents):
            if parent >= 0:
                child[parent] += self.duration[i]
        self.self_time = [self.duration[i] - child[i] for i in range(n)]
        self.by_name = defaultdict(list)
        for i, name in enumerate(tracer.names):
            self.by_name[name].append(i)
        self.runs = tracer.runs
        self.run_labels = tracer.run_labels
        self.counts = tracer.counts

    def total(self, name: str, label: str | None = None) -> float:
        return sum(self.duration[i] for i in self.by_name[name]
                   if label is None or self.run_labels[self.runs[i]] == label)

    def self_total(self, name: str) -> float:
        return sum(self.self_time[i] for i in self.by_name[name])

    def calls(self, name: str) -> int:
        return len(self.by_name[name])

    def mean(self, name: str) -> float:
        calls = self.calls(name)
        return self.total(name) / calls if calls else 0.0


def layer_metrics(summary: SpanSummary, reps: int, overhead_s: float,
                  input_lines: int) -> dict:
    """Per-layer metrics of ``reps`` traced runs, as ``{name: (value, unit)}``.

    Calls and statuses are per run; ``us`` is microseconds per call;
    ``share`` is the layer's inclusive time over the traced ``cli.main``
    time, and ``self_share`` its time outside traced children.
    ``overhead_s`` is the caller's measure of what tracing adds to a run.
    """
    wall = summary.total(ROOT_SPAN)
    out = {}

    def share(value):
        return value / wall if wall > 0.0 else 0.0

    def layer(name, fields):
        if "calls" in fields:
            out[f"{name}.calls"] = (summary.calls(name) / reps, "count")
        if "us" in fields:
            out[f"{name}.us"] = (summary.mean(name) * 1e6, "us")
        if "share" in fields:
            out[f"{name}.share"] = (share(summary.total(name)), "ratio")

    layer("fusion.fuse_mle", ("calls", "us", "share"))
    for status in FUSION_STATUSES:
        out[f"fusion.status.{status}"] = (summary.counts[f"fusion.status.{status}"] / reps,
                                          "count")
    layer("simulator.deploy_poisson", ("calls", "us", "share"))
    layer("simulator.realize_neighbors", ("calls", "us", "share"))
    deploys = summary.calls("simulator.deploy_poisson")
    out["simulator.nodes_per_trial"] = (
        summary.counts["simulator.nodes"] / deploys if deploys else 0.0, "count")
    out["simulator.run_experiment.self_share"] = (
        share(summary.self_total("simulator.run_experiment")), "ratio")
    for name in ("channel.sample_rss", "channel.estimate_distance_rss",
                 "connectivity.estimate_distance_conn", "connectivity.conn_error_sigma"):
        layer(name, ("us", "share"))
    layer("crlb.crlb_distance", ("calls", "us"))
    layer("dataset.neighbor_counts_for_pair", ("calls", "us", "share"))
    load_s = summary.mean("dataset.load_measurements")
    out["dataset.load_measurements.s"] = (load_s, "s")
    out["dataset.load_measurements.lines_per_s"] = (
        input_lines / load_s if load_s > 0.0 else 0.0, "1/s")
    out["dataset.evaluate_pairs.self_share"] = (
        share(summary.self_total("dataset.evaluate_pairs")), "ratio")
    layer("pipeline.estimate_pair", ("calls", "us", "share"))
    for status in PIPELINE_STATUSES:
        out[f"pipeline.status.{status}"] = (
            summary.counts[f"pipeline.status.{status}"] / reps, "count")
    for label in ("smooth", "sharp"):
        out[f"connectivity.build_fd_model.{label}_s"] = (
            summary.total("connectivity.build_fd_model", label) / reps, "s")
    layer("connectivity.generic_f", ("calls", "us"))
    out["connectivity.generic_s.s"] = (summary.total("connectivity.generic_s") / reps, "s")
    out["connectivity.load_fd_model.s"] = (summary.mean("connectivity.load_fd_model"), "s")
    out["cli.main.self_s"] = (summary.self_total(ROOT_SPAN) / reps, "s")
    out["trace.overhead_s"] = (overhead_s, "s")
    return out
