"""Benchmark the sampling kernel behind every Monte Carlo experiment.

Before timing, the kernel is checked against an independent reference (a per-run
bincount of searchsorted over `uniform_stream`'s uniforms); the script exits 1 on
any difference.

    PYTHONPATH=src python3 benchmarks/kernel_bench.py [--runs N] [--m M] [--repeat K]
"""

import argparse
import sys
import time

import numpy as np

from nlaphase.kernels import categorical_counts, derive_key, uniform_stream

PROBS = np.array([0.0376, 0.0376, 0.4624, 0.4624, 0.0])  # five-outcome working point


def reference_counts(key, run0, runs, m, probs):
    # the float categorization of each draw, counted per run
    cdf = np.cumsum(probs[:-1])
    cat = np.searchsorted(cdf, uniform_stream(key, run0 * m, runs * m), side="right")
    return np.array([np.bincount(row, minlength=probs.size) for row in cat.reshape(runs, m)])


def check(key, m, runs=200, run0=3):
    got = categorical_counts(key, run0, runs, m, PROBS)
    if not np.array_equal(got, reference_counts(key, run0, runs, m, PROBS)):
        sys.exit("kernel disagrees with the uniform_stream reference; benchmark aborted")
    print(f"reference check: OK ({runs} runs compared)")


def best_time(key, runs, m, repeat):
    best = float("inf")
    for _ in range(repeat):
        start = time.perf_counter()
        categorical_counts(key, 0, runs, m, PROBS)
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
    check(key, args.m)
    print(f"workload: {args.runs} runs x {args.m} trials = {trials:.2e} categorical draws\n")
    t = best_time(key, args.runs, args.m, args.repeat)
    print(f"kernel: {t:8.3f} s   ({trials / t / 1e6:8.1f} M trials/s)")


if __name__ == "__main__":
    main()
