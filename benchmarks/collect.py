"""Run the benchmark over many seeds and summarise it as a BENCH_<n>.json file.

    python3 benchmarks/collect.py --seeds 10 --out benchmarks/BENCH_1.json

Runs ``run.py`` once per seed and workload, one after another, with the
``run_seconds`` of BENCHMARK.json, then one traced run per workload with
seed 1. For every figure it prints and stores the median, the quartiles
and the spread, which is the distance between the quartiles over the
median (as ``statistics.quantiles(values, n=4)`` gives them). A spread
above a third of the metric's bound is flagged.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def run_once(workload, seed, seconds, trace) -> dict:
    argv = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(argv, capture_output=True, text=True, timeout=900, cwd=ROOT)
    if done.returncode != 0:
        raise RuntimeError(f"{' '.join(argv)} exited with {done.returncode}:\n{done.stderr}")
    lines = done.stdout.splitlines()
    figures = {}
    provenance = None
    for line in lines[:-1]:
        if line.startswith("metric "):
            name, _, rest = line[len("metric "):].partition(" = ")
            value, unit = rest.rsplit(" ", 1)
            figures[name] = {"value": float(value), "unit": unit}
        elif line.startswith("provenance "):
            provenance = json.loads(line[len("provenance "):])
    return {"result": json.loads(lines[-1]), "figures": figures,
            "provenance": provenance, "stderr": done.stderr}


def stats(values) -> dict:
    """Median, quartiles and spread; ``values`` stay in seed order."""
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0, "values": values}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=10, help="seeds 1..N per workload")
    parser.add_argument("--out", default=None, help="write the summary JSON here")
    args = parser.parse_args()

    manifest = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = manifest["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in manifest["end_to_end"]}
    workloads = [w["name"] for w in manifest["workloads"]]
    seeds = range(1, args.seeds + 1)

    summary = {"run_seconds": seconds, "seeds": list(seeds), "workloads": {}}
    all_ok = True
    for workload in workloads:
        runs = [run_once(workload, seed, seconds, 0) for seed in seeds]
        entry = {"correct": all(r["result"]["correct"] for r in runs),
                 "attempted": sum(r["result"]["attempted"] for r in runs),
                 "failed": sum(r["result"]["failed"] for r in runs),
                 "end_to_end": {}, "figures": {}}
        all_ok &= entry["correct"]
        for name in runs[0]["figures"]:
            figure = stats([r["figures"][name]["value"] for r in runs])
            figure["unit"] = runs[0]["figures"][name]["unit"]
            if name in bounds:
                figure["bound"] = bounds[name]
                entry["end_to_end"][name] = figure
                flag = "" if figure["spread"] <= bounds[name] / 3 else "  <-- above bound/3"
            else:
                entry["figures"][name] = figure
                flag = ""
            print(f"{workload:9s} {name:22s} median {figure['median']:.6g} {figure['unit']:6s}"
                  f" spread {figure['spread']:.4f}{flag}", flush=True)
        traced = run_once(workload, seeds[0], seconds, 1)
        entry["traced_correct"] = traced["result"]["correct"]
        all_ok &= entry["traced_correct"]
        entry["per_layer"] = traced["figures"]
        entry["provenance"] = runs[0]["provenance"]
        for r in runs:
            if r["stderr"]:
                print(r["stderr"], file=sys.stderr)
        summary["workloads"][workload] = entry
        print(f"{workload:9s} correct={entry['correct']} attempted={entry['attempted']} "
              f"failed={entry['failed']}", flush=True)
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1, sort_keys=True) + "\n")
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
