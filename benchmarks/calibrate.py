"""Calibration kernel that converts measured times to reference seconds.

On a shared machine the CPU speed drifts, by a third within seconds and by
a fifth between runs minutes apart. The drift is machine-wide, so it slows
this fixed kernel about as much as the workload. Every time the benchmark
reports is therefore scaled by ``REFERENCE_S / kernel time``, with the
kernel timed right next to the measured work. The result is in "reference
seconds": the time at a speed where the kernel takes ``REFERENCE_S``.

The kernel mixes interpreter work (integer arithmetic, dict stores) with
small numpy calls, as the workloads do. It does not use rangefuse.
"""

import time

import numpy as np

# About the kernel's median time on the 2-core x86 machine that measured
# BENCH_1.json, so reference seconds stay close to seconds there.
REFERENCE_S = 0.018


def _kernel() -> float:
    total = 0
    table = {}
    for i in range(60000):
        total += i * i
        table[i & 1023] = total
    rng = np.random.default_rng(0)
    acc = 0.0
    for _ in range(1500):
        acc += float(np.sum(np.sqrt(rng.random(64))))
    return acc + len(table)


def kernel_seconds() -> float:
    """Wall time of one kernel run."""
    start = time.perf_counter()
    _kernel()
    return time.perf_counter() - start


def to_reference(seconds: float, kernel_s: float) -> float:
    """Scale a measured time by the speed the kernel saw next to it."""
    return seconds * REFERENCE_S / kernel_s
