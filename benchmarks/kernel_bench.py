"""Benchmark the sampling kernel: numba JIT path versus the pure-numpy fallback.

Before timing, the numpy kernel is checked against an independent reference (a
per-run bincount of searchsorted over `uniform_stream`'s uniforms) and, when numba
is importable, against the numba kernel; the script exits 1 on any difference.
Both backends draw the identical counts, so the numbers are a straight
apples-to-apples throughput comparison of the hot loop that dominates the Monte
Carlo experiments.

    PYTHONPATH=src python3 benchmarks/kernel_bench.py [--runs N] [--m M] [--repeat K]
"""

import argparse
import sys
import time

import numpy as np

from nlaphase.kernels import NUMBA_AVAILABLE, categorical_counts, derive_key, uniform_stream

PROBS = np.array([0.0376, 0.0376, 0.4624, 0.4624, 0.0])  # five-outcome working point


def reference_counts(key, run0, runs, m, probs):
    # the float categorization of each draw, counted per run
    cdf = np.cumsum(probs[:-1])
    cat = np.searchsorted(cdf, uniform_stream(key, run0 * m, runs * m), side="right")
    return np.array([np.bincount(row, minlength=probs.size) for row in cat.reshape(runs, m)])


def check(key, m, runs=200, run0=3):
    want = reference_counts(key, run0, runs, m, PROBS)
    backends = ["numpy"] + (["numba"] if NUMBA_AVAILABLE else [])
    for backend in backends:
        # the first numba call also compiles it, outside the timed region
        got = categorical_counts(key, run0, runs, m, PROBS, backend=backend)
        if not np.array_equal(got, want):
            sys.exit(f"{backend} kernel disagrees with the uniform_stream reference; benchmark aborted")
    print(f"reference check: OK ({', '.join(backends)}; {runs} runs compared)")
    return backends


def best_time(backend, key, runs, m, repeat):
    best = float("inf")
    for _ in range(repeat):
        start = time.perf_counter()
        categorical_counts(key, 0, runs, m, PROBS, backend=backend)
        best = min(best, time.perf_counter() - start)
    return best


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=20_000, help="experiments per timing")
    parser.add_argument("--m", type=int, default=1000, help="trials per experiment")
    parser.add_argument("--repeat", type=int, default=3, help="repetitions, best-of")
    args = parser.parse_args()

    key = derive_key(12345, 0)
    trials = args.runs * args.m
    backends = check(key, args.m)
    if not NUMBA_AVAILABLE:
        print("numba not importable; timing the numpy fallback only")

    print(f"workload: {args.runs} runs x {args.m} trials = {trials:.2e} categorical draws\n")
    times = {}
    for backend in backends:
        t = best_time(backend, key, args.runs, args.m, args.repeat)
        times[backend] = t
        print(f"{backend:>6}: {t:8.3f} s   ({trials / t / 1e6:8.1f} M trials/s)")
    if len(times) == 2:
        print(f"\nspeedup numba over numpy: {times['numpy'] / times['numba']:.1f}x")


if __name__ == "__main__":
    main()
