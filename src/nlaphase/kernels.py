"""Counter-based sampling kernels with a numba fast path and a pure-numpy fallback.

Reproducibility contract
------------------------
All randomness flows through a stateless splitmix64 generator evaluated in counter
mode: the uniform used by trial t of run i on a stream with key K is

    u(K, i, t) = mix64(K + (i*m + t + 1) * GOLDEN) >> 11  scaled to [0, 1)

so every trial is a pure function of (key, run index, trial index).  Runs can be
evaluated in any order, split across any number of workers, or recomputed one at a
time and the drawn counts never change.  Stream keys are derived from a 64-bit
seed with the same mixer, `derive_key(seed, stream_index)`.

Both backends evaluate the identical integer pipeline and the identical float64
categorization, so their outputs are bit-for-bit equal; the numba path is simply
faster.  Select with the environment variable NLAPHASE_BACKEND=numba|numpy
(default: numba when importable, else numpy).  `benchmarks/kernel_bench.py`
compares the two.
"""

from __future__ import annotations

import os
import warnings

import numpy as np

try:
    from numba import njit

    NUMBA_AVAILABLE = True
except ImportError:  # pragma: no cover - exercised only without numba installed
    NUMBA_AVAILABLE = False

    def njit(*args, **kwargs):
        def wrap(f):
            return f

        return wrap(args[0]) if args and callable(args[0]) else wrap


__all__ = [
    "NUMBA_AVAILABLE",
    "active_backend",
    "categorical_counts",
    "derive_key",
    "uniform_stream",
]

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB

# uint64 copies for the array/jit pipelines
_U_GOLDEN = np.uint64(_GOLDEN)
_U_MIX1 = np.uint64(_MIX1)
_U_MIX2 = np.uint64(_MIX2)
_R30 = np.uint64(30)
_R27 = np.uint64(27)
_R31 = np.uint64(31)
_R11 = np.uint64(11)
_U_ONE = np.uint64(1)
_INV53 = 1.0 / 9007199254740992.0  # 2**-53


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


def active_backend() -> str:
    """Backend selected by NLAPHASE_BACKEND, falling back to numba when available."""
    choice = os.environ.get("NLAPHASE_BACKEND", "").strip().lower()
    if choice in ("numba", "numpy"):
        if choice == "numba" and not NUMBA_AVAILABLE:
            warnings.warn("NLAPHASE_BACKEND=numba requested but numba is not importable; using numpy")
            return "numpy"
        return choice
    if choice:
        raise ValueError(f"NLAPHASE_BACKEND must be 'numba' or 'numpy', got {choice!r}")
    return "numba" if NUMBA_AVAILABLE else "numpy"


@njit(cache=True)
def _counts_numba(key, cdf, m, run0, runs, out):  # pragma: no cover - compiled
    nb = cdf.shape[0]
    for i in range(runs):
        base = (np.uint64(run0) + np.uint64(i)) * np.uint64(m)
        for t in range(m):
            z = key + (base + np.uint64(t) + _U_ONE) * _U_GOLDEN
            z = (z ^ (z >> _R30)) * _U_MIX1
            z = (z ^ (z >> _R27)) * _U_MIX2
            z = z ^ (z >> _R31)
            u = (z >> _R11) * _INV53
            cat = 0
            for j in range(nb):
                if u >= cdf[j]:
                    cat = j + 1
                else:
                    break
            out[i, cat] += 1


def _uniform_block(key: np.uint64, counters: np.ndarray) -> np.ndarray:
    z = key + (counters + _U_ONE) * _U_GOLDEN
    z = (z ^ (z >> _R30)) * _U_MIX1
    z = (z ^ (z >> _R27)) * _U_MIX2
    z = z ^ (z >> _R31)
    return (z >> _R11) * _INV53


def _counts_numpy(key, cdf, m, run0, runs, out):
    k = out.shape[1]
    chunk = max(1, (1 << 21) // max(m, 1))  # ~2M trials per block keeps memory modest
    for lo in range(0, runs, chunk):
        hi = min(runs, lo + chunk)
        counters = np.arange((run0 + lo) * m, (run0 + hi) * m, dtype=np.uint64)
        u = _uniform_block(key, counters)
        cat = np.searchsorted(cdf, u, side="right").astype(np.int64)
        rows = np.repeat(np.arange(hi - lo, dtype=np.int64), m)
        out[lo:hi] += np.bincount(rows * k + cat, minlength=(hi - lo) * k).reshape(hi - lo, k)


def uniform_stream(key: int, start: int, count: int) -> np.ndarray:
    """The raw [0, 1) uniforms of a stream at counters start..start+count-1."""
    counters = np.arange(start, start + count, dtype=np.uint64)
    return _uniform_block(np.uint64(key), counters)


def categorical_counts(
    key: int,
    run0: int,
    runs: int,
    m: int,
    probs: np.ndarray,
    backend: str | None = None,
) -> np.ndarray:
    """Outcome counts of `runs` experiments of m categorical trials each.

    Row i holds the counts of run index run0 + i; the probability vector must be
    finite, nonnegative and sum to 1 within 1e-9.  Output is identical for both
    backends.
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
    cdf = np.cumsum(probs[:-1])
    backend = backend or active_backend()
    if backend == "numba":
        _counts_numba(np.uint64(key), cdf, m, run0, runs, out)
    elif backend == "numpy":
        _counts_numpy(np.uint64(key), cdf, m, run0, runs, out)
    else:
        raise ValueError(f"unknown backend {backend!r}")
    return out
