"""Truncated Fock-basis states: coherent amplitudes, inner products, phase derivatives.

Every state in this package lives on the photon-number grid 0..N for an explicit
cutoff N.  Operations on vectors with different cutoffs raise rather than pad, so
truncation mistakes surface immediately.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import gammainc

from .errors import DimensionMismatchError

__all__ = [
    "CoherentParams",
    "FockVector",
    "Tolerance",
    "choose_cutoff",
    "coherent_state",
    "inner_product",
    "phase_derivative",
]

# choose_cutoff scans levels in chunks that double from _FIRST_CHUNK up to _MAX_CHUNK,
# so its memory stays bounded; float64 holds every integer level up to _MAX_LEVEL
_FIRST_CHUNK = 64
_MAX_CHUNK = 1 << 16
_MAX_LEVEL = 1 << 53
_MAX_AMPLITUDE = math.sqrt(_MAX_LEVEL)


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


@dataclass(frozen=True)
class Tolerance:
    """Numerical tolerances: tail_tol bounds truncated Poisson mass, norm_tol bounds
    acceptable deviation of squared norms from 1."""

    tail_tol: float = 1e-12
    norm_tol: float = 1e-10

    def __post_init__(self):
        for name in ("tail_tol", "norm_tol"):
            v = getattr(self, name)
            if not (0.0 < v < 1e-3):
                raise ValueError(f"{name} must lie in (0, 1e-3), got {v}")


@dataclass(frozen=True, eq=False)
class FockVector:
    """Complex amplitudes c_0..c_N over photon numbers, with the cutoff N explicit.

    The amplitude array is made read-only on construction; instances can be shared
    freely between threads.
    """

    amplitudes: np.ndarray
    cutoff: int = field(default=-1)

    def __post_init__(self):
        amps = np.asarray(self.amplitudes, dtype=np.complex128)
        object.__setattr__(self, "amplitudes", amps)
        if self.cutoff < 0:
            object.__setattr__(self, "cutoff", amps.shape[0] - 1)
        if amps.ndim != 1 or amps.shape[0] != self.cutoff + 1:
            raise ValueError(
                f"amplitude array of length {amps.shape[0]} does not match cutoff {self.cutoff}"
            )
        if not np.all(np.isfinite(amps.view(np.float64))):
            raise ValueError("amplitudes must be finite")
        amps.setflags(write=False)

    @property
    def norm_sq(self) -> float:
        return float(np.vdot(self.amplitudes, self.amplitudes).real)

    def photon_numbers(self) -> np.ndarray:
        return np.arange(self.cutoff + 1)


def choose_cutoff(params: CoherentParams, nla_n0: int, gain: float, tol: Tolerance | None = None) -> int:
    """Smallest cutoff N >= nla_n0 + 1 whose truncated Poisson tail is below tail_tol.

    The amplified amplitude gain*r bounds the photon distribution of the input and
    of both amplifier branches, so a single cutoff chosen against the Poisson tail
    of mean mu = (gain*r)^2 serves every vector in one calculation.

    The scan evaluates the tail on chunks of consecutive levels and returns the
    first one below tail_tol, the same level a one-by-one scan finds.  It starts
    at int(mu) - 1: every level N skipped there has N + 1 <= mu - 1, below the
    Poisson median (which is >= mu - ln 2), so its tail is >= 1/2 and above any
    tail_tol that Tolerance admits.  Raises ValueError when the cutoff would
    exceed 2**53, beyond which float64 no longer tells levels apart.
    """
    tol = tol or Tolerance()
    if not (math.isfinite(gain) and gain >= 1.0):
        raise ValueError(f"gain must be finite and >= 1, got {gain}")
    if nla_n0 < 1:
        raise ValueError(f"nla_n0 must be >= 1, got {nla_n0}")
    amplitude = gain * params.r
    if not amplitude < _MAX_AMPLITUDE:
        raise ValueError(f"amplified amplitude {amplitude:.6g} needs a cutoff above 2**53")
    mu = amplitude**2
    n = max(nla_n0 + 1, int(mu) - 1)
    chunk = _FIRST_CHUNK
    while n < _MAX_LEVEL:
        levels = np.arange(n, min(n + chunk, _MAX_LEVEL))
        # regularized lower incomplete gamma P(N+1, mu) equals the Poisson tail beyond N
        below = gammainc(levels + 1, mu) < tol.tail_tol
        if below.any():
            return n + int(below.argmax())
        n += levels.size
        chunk = min(2 * chunk, _MAX_CHUNK)
    raise ValueError(f"no cutoff up to 2**53 bounds the Poisson tail of mean {mu:.6g}")


def coherent_state(params: CoherentParams, cutoff: int) -> FockVector:
    """Coherent-state amplitudes e^{-r^2/2} * alpha^n / sqrt(n!) on the 0..cutoff grid.

    Uses the running recurrence c_{n+1} = c_n * alpha / sqrt(n+1) so large cutoffs
    never touch a factorial.
    """
    if cutoff < 0:
        raise ValueError(f"cutoff must be >= 0, got {cutoff}")
    alpha = params.r * np.exp(1j * params.theta)
    amps = np.zeros(cutoff + 1, dtype=np.complex128)
    amps[0] = math.exp(-0.5 * params.r**2)
    for n in range(cutoff):
        amps[n + 1] = amps[n] * alpha / math.sqrt(n + 1)
    return FockVector(amps, cutoff)


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
    return FockVector(1j * n * v.amplitudes, v.cutoff)
