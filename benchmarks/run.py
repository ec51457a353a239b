"""Benchmark of the rangefuse command line on three seeded workloads.

    python3 benchmarks/run.py --workload simulate --seed 1 --seconds 20 --trace 0

Workloads are ``simulate``, ``dataset`` and ``fd-table``; README.md says
why each exists. A run first times set-up in fresh interpreters, then
calls ``rangefuse.cli.main`` on the workload's command lines again and
again for ``--seconds`` seconds and checks every output. Times are
reported in reference seconds (see ``calibrate.py``), raw seconds beside
them. With ``--trace 1`` it makes each call twice back to back, once
untraced and once traced, and reports per-layer metrics instead of
end-to-end ones.

Standard output holds one ``metric <name> = <value> <unit>`` line per
figure, a ``provenance`` JSON line, and as its last line one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
Without an importable ``src/rangefuse`` in the checkout the run exits
with code 2 and prints no result. Scratch files go to ``.bench_work/``.
"""

import os

# One thread per process: pin the BLAS pools before numpy is imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import importlib.util  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".bench_work"

sys.path.insert(0, str(BENCH_DIR))

from calibrate import kernel_seconds, to_reference  # noqa: E402
from tracing import TABULATION, SpanSummary, Tracer, layer_metrics, span_cost_s  # noqa: E402
from workloads import SIZES, WORKLOADS  # noqa: E402

# The metrics of the final JSON line; BENCHMARK.json declares the same names.
END_TO_END = ("setup_s", "wall_s", "throughput_per_s", "peak_rss_mb")

_SETUP_CODE = """\
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import rangefuse
if len(sys.argv) > 3:
    rangefuse.load_fd_model(sys.argv[3])
elapsed = time.perf_counter() - t0
sys.path.insert(0, sys.argv[2])
from calibrate import kernel_seconds
print(elapsed, kernel_seconds())
"""


class SetupError(Exception):
    """The checkout holds no importable rangefuse package."""


def import_package():
    package = SRC / "rangefuse"
    if not (package / "__init__.py").is_file():
        raise SetupError(f"no rangefuse package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    try:
        import rangefuse
        import rangefuse.cli  # noqa: F401
    except ImportError as exc:
        raise SetupError(f"cannot import rangefuse: {exc}") from exc
    if Path(rangefuse.__file__).resolve().parent != package.resolve():
        raise SetupError(f"rangefuse was imported from {rangefuse.__file__}, not {package}")
    return rangefuse


def measure_setup(table, repeats: int) -> tuple:
    """Time, in fresh interpreters, to import rangefuse and load ``table``.

    Returns the medians in reference seconds and in seconds.
    """
    argv = [sys.executable, "-c", _SETUP_CODE, str(SRC), str(BENCH_DIR)]
    if table is not None:
        argv.append(str(table))
    reference, raw = [], []
    for _ in range(repeats):
        done = subprocess.run(argv, capture_output=True, text=True, check=True,
                              timeout=120, cwd=ROOT)
        elapsed, kernel_s = map(float, done.stdout.split()[-2:])
        reference.append(to_reference(elapsed, kernel_s))
        raw.append(elapsed)
    return statistics.median(reference), statistics.median(raw)


def span_cost_reference_s(repeats: int = 5) -> float:
    """Median cost of one traced call in reference seconds."""
    costs = []
    for _ in range(repeats):
        before = kernel_seconds()
        cost = span_cost_s()
        costs.append(to_reference(cost, 0.5 * (before + kernel_seconds())))
    return statistics.median(costs)


class Runner:
    """Runs a workload's calls, checks them and counts attempts and failures."""

    def __init__(self, workload):
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.problems: list = []
        self._first_outputs: dict = {}

    def _call(self, call, tracer):
        from rangefuse import cli

        call.output.unlink(missing_ok=True)
        stdout = io.StringIO()
        error = None
        kernel_before = kernel_seconds()
        start = time.perf_counter()
        scope = tracer.run(call.label) if tracer else contextlib.nullcontext()
        try:
            with scope, contextlib.redirect_stdout(stdout):
                code = cli.main(call.argv)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # a crash is a failed operation, not the end of the run
            code, error = None, f"{type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - start
        kernel_s = 0.5 * (kernel_before + kernel_seconds())
        scaled = to_reference(elapsed, kernel_s)
        if tracer:
            tracer.scale_run(scaled / elapsed)
        return elapsed, scaled, code, stdout.getvalue(), error

    def _attempt(self, index, call, tracer) -> tuple:
        """One checked call; returns its time in seconds and in reference seconds."""
        elapsed, scaled, code, stdout, problem = self._call(call, tracer)
        self.attempted += 1
        if problem is None and code != 0:
            problem = f"exit code {code}"
        if problem is None:
            try:
                self.workload.check(call)
            except Exception as exc:  # any broken output counts as a failure
                problem = f"check failed: {type(exc).__name__}: {exc}"
        if problem is None:
            outputs = (call.output.read_bytes(), stdout)
            if outputs != self._first_outputs.setdefault(index, outputs):
                kind = "traced" if tracer else "untraced"
                problem = f"{kind} output differs from the first run's"
        if problem is not None:
            self.failed += 1
            self.problems.append(f"{call.label}: {problem}")
        return elapsed, scaled

    def rep(self) -> tuple:
        """One run of every call.

        Returns the time spent inside ``cli.main`` in seconds and in
        reference seconds.
        """
        times = [self._attempt(i, call, None) for i, call in enumerate(self.workload.calls)]
        return sum(t[0] for t in times), sum(t[1] for t in times)

    def paired_rep(self, tracer, number: int) -> tuple:
        """One run in which each call is made untraced and traced, back to back.

        The tracer is installed for the traced call only. Which of the two
        goes first alternates from call to call and from run to run, so that
        neither always meets a warmer machine. Returns the run's untraced
        and traced times in reference seconds.
        """
        untraced = traced = 0.0
        for index, call in enumerate(self.workload.calls):
            for with_trace in ((index + number) % 2 == 1, (index + number) % 2 == 0):
                if with_trace:
                    with tracer.installed():
                        traced += self._attempt(index, call, tracer)[1]
                else:
                    untraced += self._attempt(index, call, None)[1]
        return untraced, traced

    def repeat(self, seconds: float, rep) -> list:
        """Call ``rep(number)`` while another call fits in ``seconds``; at least once.

        Returns what the calls returned.
        """
        samples = []
        start = time.perf_counter()
        while True:
            began = time.perf_counter()
            samples.append(rep(len(samples)))
            now = time.perf_counter()
            if now + (now - began) > start + seconds:
                return samples


def git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() or None


def provenance(rangefuse, workload, args, samples) -> dict:
    import numpy
    import scipy

    return {
        "rangefuse": rangefuse.__version__,
        "commit": git_commit(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "workload": workload.name,
        "seed": args.seed,
        "size": args.size,
        "sizes": workload.sizes,
        "seconds": args.seconds,
        "trace": args.trace,
        **samples,
    }


def run(args) -> dict:
    """Measure one workload; returns every figure and the contract's result."""
    rangefuse = import_package()
    work_dir = WORK_ROOT / args.workload
    work_dir.mkdir(parents=True, exist_ok=True)
    workload = WORKLOADS[args.workload](work_dir, args.seed, args.size)
    runner = Runner(workload)
    figures = {}
    if not args.trace:
        setup_s, raw_setup_s = measure_setup(workload.table,
                                             SIZES[args.size]["setup_repeats"])
        walls, scaled = zip(*runner.repeat(args.seconds, lambda _: runner.rep()))
        wall = statistics.median(scaled)
        rate = workload.work_units / wall
        figures["setup_s"] = (setup_s, "s")
        figures["wall_s"] = (wall, "s")
        figures["throughput_per_s"] = (rate, "1/s")
        figures[workload.rate_name] = (rate, "1/s")
        figures["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6, "MB")
        figures["raw_setup_s"] = (raw_setup_s, "s")
        figures["raw_wall_s"] = (statistics.median(walls), "s")
        samples = {"wall_samples_s": walls, "reference_samples_s": scaled}
        names = END_TO_END
    else:
        tracer = Tracer()
        untraced, traced = zip(*runner.repeat(
            args.seconds, lambda number: runner.paired_rep(tracer, number)))
        summary = SpanSummary(tracer)
        # The wall-time difference between the paired calls is far below the
        # machine's noise, so the overhead is what the spans cost directly.
        overhead = summary.spans / len(traced) * span_cost_reference_s()
        figures.update(layer_metrics(summary, len(traced), overhead, workload.input_lines))
        if workload.table is not None:
            for name in TABULATION:
                if summary.calls(name):
                    runner.problems.append(f"{name} ran although a table was supplied")
        tracer.write_spans(work_dir / "spans.csv")
        samples = {"reference_samples_s": untraced, "traced_reference_samples_s": traced}
        names = tuple(figures)
    if not runner.failed:
        figures.update(workload.quality())
    figures["failed_share"] = (runner.failed / runner.attempted, "ratio")
    result = {
        "correct": not runner.problems,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": figures[name][0], "unit": figures[name][1]}
                    for name in names},
    }
    return {"figures": figures, "problems": runner.problems,
            "provenance": provenance(rangefuse, workload, args, samples), "result": result}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="how long the timed runs last")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1 reports per-layer metrics from a traced run")
    parser.add_argument("--size", choices=sorted(SIZES), default="full",
                        help="'tiny' only exercises the code paths (smoke test)")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if args.seconds < 0:
        parser.error("--seconds must be nonnegative")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        out = run(args)
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for problem in out["problems"]:
        print(f"problem: {problem}", file=sys.stderr)
    for name, (value, unit) in out["figures"].items():
        print(f"metric {name} = {value!r} {unit}")
    print("provenance " + json.dumps(out["provenance"], sort_keys=True))
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
