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

The count matrix holds each count in the narrowest signed integer type whose
maximum is at least m (int8, int16, int32, else int64), chosen from m alone: every
count lies in [0, m], so any sum or difference of one row's counts lies in
[-m, m] and fits the type too.  `np.sum` promotes small integer types to the
default integer, so a row or column total does not wrap either.

The kernel draws a call's runs in chunks of about 2**16 trials on every CPU the
process may use (`os.sched_getaffinity`): the calling thread and one thread per
further CPU each take the next undrawn chunk until none is left, and numpy
releases the GIL inside each step.  A chunk's counts depend only on its runs, so
the bytes never depend on how many CPUs there are or which thread drew which
chunk; `taskset -c 0` runs the kernel on one thread, and a call of one chunk
starts no thread.

Each worker needs two uint64 buffers per trial of a chunk, z and tmp, beside one
read-only table of 4096 counter steps (32 KiB) that every call shares.  A chunk's
counters are laid out in lines of 4096 trials: one broadcast add of the table to
the per-line bases gives every counter, and the compare mask is written into tmp,
which the hash is done with by then.

The tests and the `kernel` case of `benchmarks/bench.py` check the kernel against
a per-run bincount of searchsorted over `uniform_stream`'s float uniforms.
"""

from __future__ import annotations

import math
import os
import threading

import numpy as np

from .errors import as_int, as_seed

__all__ = ["categorical_counts", "derive_key"]

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
# (two uint64 per trial, beside the 32 KiB line table) stay in a core's L2 cache
_BLOCK_TRIALS = 1 << 16

# a chunk's counters are hashed in lines of _LINE trials: trial j of a line whose
# first counter is c hashes key + (c + j + 1) * GOLDEN, the line's base
# key + c * GOLDEN plus _LINE_STEPS[j] = (j + 1) * GOLDEN, all mod 2**64
_LINE = 1 << 12
_LINE_STEPS = np.arange(1, _LINE + 1, dtype=np.uint64) * _U_GOLDEN
_LINE_STEPS.flags.writeable = False
_U_LINE_GOLDEN = np.uint64(_LINE * _GOLDEN & _MASK64)

# row counts below this are summed in float32: every partial sum of 1.0/0.0 mask
# entries is an integer no larger than the count, which float32 holds exactly
_FLOAT32_EXACT = 1 << 24


def _mix64(z: int) -> int:
    # scalar reference implementation on masked python ints (no numpy overflow warnings)
    z = (z ^ (z >> 30)) * _MIX1 & _MASK64
    z = (z ^ (z >> 27)) * _MIX2 & _MASK64
    return z ^ (z >> 31)


def derive_key(seed: int, stream_index: int) -> int:
    """Derive the 64-bit key of an independent stream from a master seed.

    seed is a seed by `errors.as_seed`, stream_index an integer >= 0 by `errors.as_int`.
    """
    seed, stream_index = as_seed("seed", seed), as_int("stream_index", stream_index, minimum=0)
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


def _workers() -> int:
    # the CPUs this process may run on: `taskset -c 0` gives one
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _count_dtype(m):
    # the narrowest signed integer type that holds every count of a run of m trials
    for dtype in (np.int8, np.int16, np.int32):
        if m <= np.iinfo(dtype).max:
            return dtype
    return np.int64


def _counts(key, cdf, m, run0, runs, out):
    thresholds = _thresholds(cdf)
    chunk = max(1, _BLOCK_TRIALS // m)
    chunks = -(-runs // chunk)
    size = min(chunk, runs) * m
    dtype = np.float32 if m < _FLOAT32_EXACT else np.float64

    def scratch():
        # a worker's z and tmp come before any other array whose size scales with
        # the chunk, so a size numpy refuses fails before anything large is written;
        # the compare mask is tmp's buffer, viewed as float
        tmp = np.empty(size, dtype=np.uint64)
        return np.empty(size, dtype=np.uint64), tmp, tmp.view(dtype)

    mine = scratch()
    # 1.0 where a draw passes a threshold; a product with ones counts each row
    ones = np.ones(m, dtype=dtype)
    ones.flags.writeable = False
    claim, lock, errors = iter(range(chunks)), threading.Lock(), []

    def draw(z, tmp, mask):
        # each thread takes the next unclaimed chunk until none is left, and
        # writes only that chunk's rows of out
        while not errors:
            with lock:
                index = next(claim, None)
            if index is None:
                return
            lo = index * chunk
            hi = min(runs, lo + chunk)
            rows = hi - lo
            n = rows * m
            zz, tt, mm = z[:n], tmp[:n], mask[:n]
            # line l of the chunk starts at counter (run0 + lo) * m + l * _LINE
            full, rest = divmod(n, _LINE)
            base = np.arange(full + (rest > 0), dtype=np.uint64)
            np.multiply(base, _U_LINE_GOLDEN, out=base)
            np.add(base, np.uint64((key + (run0 + lo) * m * _GOLDEN) & _MASK64), out=base)
            np.add(base[:full, None], _LINE_STEPS, out=zz[: full * _LINE].reshape(full, _LINE))
            if rest:
                np.add(_LINE_STEPS[:rest], base[full], out=zz[full * _LINE :])
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
                out[lo:hi, j] = above - now  # exact in out's type: a count is at most m
                above = now
            out[lo:hi, -1] = above

    def work(buffers=None):
        try:
            draw(*(buffers or scratch()))
        except BaseException as exc:  # re-raised in the calling thread
            errors.append(exc)

    # the calling thread is one of the workers; one chunk starts no thread
    threads = []
    try:
        for _ in range(min(_workers(), chunks) - 1):
            thread = threading.Thread(target=work)
            thread.start()
            threads.append(thread)
        work(mine)
    finally:
        for thread in threads:
            thread.join()
    if errors:
        raise errors[0]


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

    Row i of the matrix, which is column-major so that each category's counts
    are contiguous, holds the counts of run index run0 + i.  Its type is the
    narrowest signed integer type whose maximum is at least m (int8, int16,
    int32, else int64; module docstring), also when runs is 0.  The
    probability vector must be finite, nonnegative and sum to 1 within 1e-9.
    key is a seed by `errors.as_seed`, as `derive_key` gives one, and m >= 1,
    runs >= 0 and run0 >= 0 are integers by `errors.as_int`.
    """
    probs = np.asarray(probs, dtype=np.float64)
    if probs.ndim != 1 or probs.size < 1:
        raise ValueError("probs must be a nonempty 1-d array")
    if not np.all(np.isfinite(probs) & (probs >= 0.0)):
        raise ValueError("probabilities must be finite and nonnegative")
    if abs(float(probs.sum()) - 1.0) > 1e-9:
        raise ValueError(f"probabilities must sum to 1, got {float(probs.sum())!r}")
    key, m = as_seed("key", key), as_int("m", m, minimum=1)
    runs, run0 = as_int("runs", runs, minimum=0), as_int("run0", run0, minimum=0)

    out = np.zeros((runs, probs.size), dtype=_count_dtype(m), order="F")
    if runs == 0:
        return out
    _counts(key, np.cumsum(probs[:-1]), m, run0, runs, out)
    return out
