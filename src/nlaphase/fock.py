"""Truncated Fock-basis states: coherent amplitudes, inner products, phase derivatives.

Every state in this package lives on the photon-number grid 0..N for an explicit
cutoff N.  Operations on vectors with different cutoffs raise rather than pad, so
truncation mistakes surface immediately.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass

import numpy as np
from scipy.special import gammainc

from .errors import DimensionMismatchError

__all__ = [
    "CoherentParams",
    "FockVector",
    "choose_cutoff",
    "coherent_state",
    "inner_product",
    "phase_derivative",
]

# choose_cutoff scans levels in chunks that double from _FIRST_CHUNK up to _MAX_CHUNK,
# so its memory stays bounded.  No cutoff goes above _MAX_LEVEL (g*r of about 4000):
# coherent_state fills 16 bytes per level in a Python loop, and apply_branch builds a
# few more arrays of that size, so 2**24 levels already mean 256 MiB per array; a
# larger cutoff is refused at once instead of failing in an allocation or not finishing
_FIRST_CHUNK = 64
_MAX_CHUNK = 1 << 16
_MAX_LEVEL = 1 << 24
_MAX_AMPLITUDE = math.sqrt(_MAX_LEVEL)
# Poisson mass that a chosen cutoff may leave beyond its last level
_TAIL_TOL = 1e-12
# (key, amplitudes) of the state coherent_state built last; never leaves this module
_last_amplitudes: tuple[tuple[str, ...], np.ndarray] = ((), np.zeros(0, dtype=np.complex128))


@dataclass(frozen=True)
class CoherentParams:
    """Amplitude r >= 0 and phase theta (radians) of a coherent state r*e^{i*theta}."""

    r: float
    theta: float = 0.0

    def __post_init__(self):
        if not (math.isfinite(self.r) and self.r >= 0.0):
            raise ValueError(f"coherent amplitude r must be finite and >= 0, got {self.r}")
        if not math.isfinite(self.theta):
            raise ValueError(f"coherent phase theta must be finite, got {self.theta}")


@dataclass(frozen=True, eq=False)
class FockVector:
    """Complex amplitudes c_0..c_N over photon numbers; the cutoff N is the length - 1.

    The amplitudes are copied into a read-only array on construction, so the
    caller's array stays writable and its later writes do not reach the vector;
    instances can be shared freely between threads.
    """

    amplitudes: np.ndarray

    def __post_init__(self):
        amps = np.array(self.amplitudes, dtype=np.complex128)
        if amps.ndim != 1 or amps.size < 1:
            raise ValueError(f"amplitudes must be a nonempty 1-d array, got shape {amps.shape}")
        if not np.all(np.isfinite(amps.view(np.float64))):
            raise ValueError("amplitudes must be finite")
        amps.setflags(write=False)
        object.__setattr__(self, "amplitudes", amps)

    @property
    def cutoff(self) -> int:
        return self.amplitudes.shape[0] - 1

    @property
    def norm_sq(self) -> float:
        return float(np.vdot(self.amplitudes, self.amplitudes).real)

    def photon_numbers(self) -> np.ndarray:
        return np.arange(self.cutoff + 1)


def _vacuum_amplitude(r: float) -> float:
    # e^{-r^2/2}, the first amplitude of a coherent state; raises when it is not a
    # normal double (r above about 37.64), including where r**2 overflows
    try:
        vacuum = math.exp(-0.5 * r**2)
    except OverflowError:
        vacuum = 0.0
    if vacuum < sys.float_info.min:
        raise ValueError(
            f"coherent amplitude r = {r:.6g} is too large: the vacuum amplitude "
            f"exp(-r^2/2) = {vacuum:.3g} is not a normal double"
        )
    return vacuum


def choose_cutoff(params: CoherentParams, nla_n0: int, gain: float) -> int:
    """Smallest cutoff N >= nla_n0 + 1 whose truncated Poisson tail is below 1e-12.

    The amplified amplitude gain*r bounds the photon distribution of the input and
    of both amplifier branches, so a single cutoff chosen against the Poisson tail
    of mean mu = (gain*r)^2 serves every vector in one calculation.

    The scan evaluates the tail on chunks of consecutive levels and returns the
    first one below 1e-12, the same level a one-by-one scan finds.  It starts
    at int(mu) - 1: every level N skipped there has N + 1 <= mu - 1, below the
    Poisson median (which is >= mu - ln 2), so its tail is >= 1/2.  Raises
    ValueError for an nla_n0 that is not an int >= 1 (bools included), when the
    cutoff would exceed 2**24, the largest state this package builds (g*r of
    about 4000), and, before any scan, for an r that `coherent_state` refuses,
    since no vector can be built on the cutoff of such an r.

    Every check runs on each call; the scan itself is a pure function of its
    start level and mu, so `_scan_cutoff` keeps the results of recent scans and
    a repeated (start, mu) returns the int a first scan computes.  At large r the
    start int(mu) - 1 does not depend on nla_n0, so one scan serves every n0.
    """
    if not (math.isfinite(gain) and gain >= 1.0):
        raise ValueError(f"gain must be finite and >= 1, got {gain}")
    if not (isinstance(nla_n0, int) and not isinstance(nla_n0, bool) and nla_n0 >= 1):
        raise ValueError(f"nla_n0 must be an integer >= 1, got {nla_n0!r}")
    amplitude = gain * params.r
    if not amplitude < _MAX_AMPLITUDE:
        raise ValueError(f"amplified amplitude {amplitude:.6g} needs a cutoff above 2**24")
    _vacuum_amplitude(params.r)
    mu = amplitude**2
    return _scan_cutoff(max(nla_n0 + 1, int(mu) - 1), mu)


@functools.lru_cache(maxsize=256)
def _scan_cutoff(start: int, mu: float) -> int:
    # the first level n >= start whose Poisson(mu) tail beyond n is below _TAIL_TOL
    n = start
    chunk = _FIRST_CHUNK
    while n < _MAX_LEVEL:
        levels = np.arange(n, min(n + chunk, _MAX_LEVEL))
        # regularized lower incomplete gamma P(N+1, mu) equals the Poisson tail beyond N
        below = gammainc(levels + 1, mu) < _TAIL_TOL
        if below.any():
            return n + int(below.argmax())
        n += levels.size
        chunk = min(2 * chunk, _MAX_CHUNK)
    raise ValueError(f"no cutoff up to 2**24 bounds the Poisson tail of mean {mu:.6g}")


def coherent_state(params: CoherentParams, cutoff: int) -> FockVector:
    """Coherent-state amplitudes e^{-r^2/2} * alpha^n / sqrt(n!) on the 0..cutoff grid.

    Uses the running recurrence c_{n+1} = c_n * alpha / sqrt(n+1) so large cutoffs
    never touch a factorial.  The recurrence starts at c_0 = e^{-r^2/2}, so r must
    keep that a normal double (r below about 37.64); a larger r raises ValueError,
    since a subnormal c_0 loses precision and a zero one loses every amplitude.

    The longest amplitude array built for the most recent state (one state, 16
    bytes per level) is kept, keyed by the bits of c_0 and alpha, the only inputs
    of the recurrence; `float.hex` tells -0.0 from 0.0 where `==` would not.  A
    call for the same state returns a prefix of it, and a call for a longer
    cutoff extends it from its last amplitude.  Each c_n depends only on c_{n-1},
    alpha and n, and the extension runs the same operations in the same order, so
    every amplitude is the double a call on an empty cache computes.
    """
    global _last_amplitudes
    if cutoff < 0:
        raise ValueError(f"cutoff must be >= 0, got {cutoff}")
    vacuum = _vacuum_amplitude(params.r)
    alpha = params.r * np.exp(1j * params.theta)
    key = (vacuum.hex(), alpha.real.hex(), alpha.imag.hex())
    last_key, amps = _last_amplitudes
    if last_key != key:
        amps = np.array([vacuum], dtype=np.complex128)
    if amps.size <= cutoff:
        built = amps.size
        amps = np.concatenate([amps, np.zeros(cutoff + 1 - built, dtype=np.complex128)])
        for n in range(built - 1, cutoff):
            amps[n + 1] = amps[n] * alpha / math.sqrt(n + 1)
    # replaced whole, never written in place, so a concurrent call never sees a
    # half-built array
    _last_amplitudes = (key, amps)
    return FockVector(amps[: cutoff + 1])


def inner_product(a: FockVector, b: FockVector) -> complex:
    """Hermitian inner product sum_n conj(a_n) * b_n; cutoffs must agree."""
    if a.cutoff != b.cutoff:
        raise DimensionMismatchError(f"cutoff mismatch: {a.cutoff} vs {b.cutoff}")
    return complex(np.vdot(a.amplitudes, b.amplitudes))


def phase_derivative(v: FockVector) -> FockVector:
    """Derivative with respect to the phase: multiplies the n-th amplitude by i*n.

    Valid for any vector whose phase dependence enters only through e^{i*n*theta}
    factors (true for coherent states and both amplifier branches).  The result is
    generally unnormalized.
    """
    n = np.arange(v.cutoff + 1)
    return FockVector(1j * n * v.amplitudes)
