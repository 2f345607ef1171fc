"""Counter-based sampling kernel.

Reproducibility contract
------------------------
All randomness flows through a stateless splitmix64 generator evaluated in counter
mode: the uniform used by trial t of run i on a stream with key K is

    u(K, i, t) = mix64(K + (i*m + t + 1) * GOLDEN) >> 11  scaled to [0, 1)

so every trial is a pure function of (key, run index, trial index).  Runs can be
evaluated in any order, split across any number of workers, or recomputed one at a
time and the drawn counts never change.  Stream keys are derived from a 64-bit
seed with the same mixer, `derive_key(seed, stream_index)`.

A trial falls in category j when exactly j of the cdf entries c satisfy u >= c.
The kernel compares the raw 64-bit hash z instead of the float u, and lands every
draw in the same category: u = (z >> 11) * 2**-53 is exact, so u >= c holds
exactly when the integer z >> 11 is at least ceil(c * 2**53), that is when
z >= ceil(c * 2**53) << 11.  When ceil(c * 2**53) >= 2**53 (c >= 1, including a
cdf entry that rounding puts above 1) no draw passes.  The cdf is nondecreasing,
so the count of category j in a run is #(u >= c_{j-1}) - #(u >= c_j).  Each run's
passing draws are counted as a matrix-vector product of a 1.0/0.0 mask with ones,
in float32 (float64 for runs of 2**24 trials or more): every partial sum is an
integer no larger than m, so the count is exact in any summation order.
`benchmarks/kernel_bench.py` and the tests check the kernel against a per-run
bincount of searchsorted over `uniform_stream`'s float uniforms.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["categorical_counts", "derive_key", "uniform_stream"]

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB

# uint64 copies for the array pipelines
_U_GOLDEN = np.uint64(_GOLDEN)
_U_MIX1 = np.uint64(_MIX1)
_U_MIX2 = np.uint64(_MIX2)
_R30 = np.uint64(30)
_R27 = np.uint64(27)
_R31 = np.uint64(31)
_R11 = np.uint64(11)
_U_ONE = np.uint64(1)
_INV53 = 1.0 / 9007199254740992.0  # 2**-53
_TWO53 = 9007199254740992.0  # 2**53

# the kernel hashes about this many trials per chunk, so that its buffers
# (three uint64 and one float mask per trial) stay in a core's L2 cache
_BLOCK_TRIALS = 1 << 16

# row counts below this are summed in float32: every partial sum of 1.0/0.0 mask
# entries is an integer no larger than the count, which float32 holds exactly
_FLOAT32_EXACT = 1 << 24


def _mix64(z: int) -> int:
    # scalar reference implementation on masked python ints (no numpy overflow warnings)
    z = (z ^ (z >> 30)) * _MIX1 & _MASK64
    z = (z ^ (z >> 27)) * _MIX2 & _MASK64
    return z ^ (z >> 31)


def derive_key(seed: int, stream_index: int) -> int:
    """Derive the 64-bit key of an independent stream from a master seed."""
    if not 0 <= seed < 1 << 64:
        raise ValueError(f"seed must be a 64-bit unsigned integer, got {seed}")
    if stream_index < 0:
        raise ValueError(f"stream_index must be >= 0, got {stream_index}")
    return _mix64((seed + (stream_index + 1) * _GOLDEN) & _MASK64)


# kept only for perfbench/child.py's environment stamp, which reads both names;
# there is one kernel, in numpy
NUMBA_AVAILABLE = False


def active_backend() -> str:
    return "numpy"


def _thresholds(cdf):
    # the hash threshold of each cdf entry c (module docstring): u >= c exactly
    # when z >= threshold; None when no draw passes
    out = []
    for c in cdf.tolist():
        level = math.ceil(c * _TWO53)
        out.append(None if level >= 1 << 53 else np.uint64(level << 11))
    return out


def _counts(key, cdf, m, run0, runs, out):
    thresholds = _thresholds(cdf)
    chunk = max(1, _BLOCK_TRIALS // m)
    size = min(chunk, runs) * m
    # trial i of a chunk whose first counter is c0 hashes key + (c0 + i + 1) * GOLDEN:
    # step holds (i + 1) * GOLDEN, and each chunk adds key + c0 * GOLDEN, all mod 2**64
    step = np.arange(1, size + 1, dtype=np.uint64)
    np.multiply(step, _U_GOLDEN, out=step)
    z = np.empty(size, dtype=np.uint64)
    tmp = np.empty(size, dtype=np.uint64)
    # 1.0 where a draw passes a threshold; a product with ones counts each row
    dtype = np.float32 if m < _FLOAT32_EXACT else np.float64
    mask = np.empty(size, dtype=dtype)
    ones = np.ones(m, dtype=dtype)
    for lo in range(0, runs, chunk):
        hi = min(runs, lo + chunk)
        rows = hi - lo
        n = rows * m
        zz, tt, mm = z[:n], tmp[:n], mask[:n]
        np.add(step[:n], np.uint64((key + (run0 + lo) * m * _GOLDEN) & _MASK64), out=zz)
        np.right_shift(zz, _R30, out=tt)
        np.bitwise_xor(zz, tt, out=zz)
        np.multiply(zz, _U_MIX1, out=zz)
        np.right_shift(zz, _R27, out=tt)
        np.bitwise_xor(zz, tt, out=zz)
        np.multiply(zz, _U_MIX2, out=zz)
        np.right_shift(zz, _R31, out=tt)
        np.bitwise_xor(zz, tt, out=zz)
        passed = {}  # threshold -> per-row count of draws at or above it
        above = m  # draws at or above the previous cdf entry: all of them before the first
        for j, t in enumerate(thresholds):
            if t is None:
                now = 0
            elif t in passed:
                now = passed[t]
            else:
                np.greater_equal(zz, t, out=mm)
                now = passed[t] = (mm.reshape(rows, m) @ ones).astype(np.int64)
            out[lo:hi, j] = above - now
            above = now
        out[lo:hi, -1] = above


def uniform_stream(key: int, start: int, count: int) -> np.ndarray:
    """The raw [0, 1) uniforms of a stream at counters start..start+count-1."""
    counters = np.arange(start, start + count, dtype=np.uint64)
    z = np.uint64(key) + (counters + _U_ONE) * _U_GOLDEN
    z = (z ^ (z >> _R30)) * _U_MIX1
    z = (z ^ (z >> _R27)) * _U_MIX2
    z = z ^ (z >> _R31)
    return (z >> _R11) * _INV53


def categorical_counts(key: int, run0: int, runs: int, m: int, probs: np.ndarray) -> np.ndarray:
    """Outcome counts of `runs` experiments of m categorical trials each.

    Row i holds the counts of run index run0 + i; the probability vector must be
    finite, nonnegative and sum to 1 within 1e-9.
    """
    probs = np.asarray(probs, dtype=np.float64)
    if probs.ndim != 1 or probs.size < 1:
        raise ValueError("probs must be a nonempty 1-d array")
    if not np.all(np.isfinite(probs) & (probs >= 0.0)):
        raise ValueError("probabilities must be finite and nonnegative")
    if abs(float(probs.sum()) - 1.0) > 1e-9:
        raise ValueError(f"probabilities must sum to 1, got {float(probs.sum())!r}")
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    if runs < 0 or run0 < 0:
        raise ValueError("runs and run0 must be nonnegative")

    out = np.zeros((runs, probs.size), dtype=np.int64)
    if runs == 0:
        return out
    _counts(key, np.cumsum(probs[:-1]), m, run0, runs, out)
    return out
