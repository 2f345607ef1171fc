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

from .errors import DimensionMismatchError, as_float, as_int

__all__ = [
    "CoherentParams",
    "FockVector",
    "choose_cutoff",
    "coherent_state",
    "inner_product",
    "phase_derivative",
]

# Poisson pmf runs (the cutoff scan and the heralding tails) grow in chunks that double
# from _FIRST_CHUNK up to _MAX_CHUNK, so a run stops soon after its terms die out.  No
# cutoff goes above _MAX_LEVEL (g*r of about 4000): coherent_state fills 16 bytes per
# level in a Python loop, and apply_branch builds a few more arrays of that size, so
# 2**24 levels already mean 256 MiB per array; a larger cutoff is refused at once
# instead of failing in an allocation or not finishing
_FIRST_CHUNK = 64
_MAX_CHUNK = 1 << 16
_MAX_LEVEL = 1 << 24
_MAX_AMPLITUDE = math.sqrt(_MAX_LEVEL)
# Poisson mass that a chosen cutoff may leave beyond its last level
_TAIL_TOL = 1e-12
# A pmf run ends once all its later terms together are below this share of its first
# term: under one rounding of _TAIL_TOL for a cutoff scan, whose first term is at most
# 1, and of any sum that starts with that term
_RUN_END = 2.0**-100
# Loader's stirlerr(n) = ln n! - (n + 1/2) ln n + n - ln sqrt(2 pi) for n = 1..15 (index 0
# unused), from a 50-digit evaluation; above 15 the Stirling series below is exact to
# about 1e-16
_STIRLERR = (
    0.0,
    0.08106146679532726,
    0.0413406959554093,
    0.02767792568499834,
    0.020790672103765093,
    0.016644691189821193,
    0.013876128823070748,
    0.01189670994589177,
    0.010411265261972096,
    0.009255462182712733,
    0.00833056343336287,
    0.007573675487951841,
    0.00694284010720953,
    0.006408994188004207,
    0.0059513701127588475,
    0.005554733551962801,
)
# The Fock path works on a state's first k * _BLOCK levels, the fewest that hold all
# its nonzero amplitudes (see `_branch_cutoff`)
_BLOCK = 64


@dataclass(frozen=True)
class CoherentParams:
    """Amplitude r >= 0 and phase theta (radians) of a coherent state r*e^{i*theta}.

    Both are finite floats by `errors.as_float`.
    """

    r: float
    theta: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "r", as_float("r", self.r, minimum=0))
        object.__setattr__(self, "theta", as_float("theta", self.theta))


@dataclass(frozen=True, eq=False)
class FockVector:
    """Complex amplitudes c_0..c_N over photon numbers; the cutoff N is the length - 1.

    The constructor copies the array it is given into a read-only one, so the
    caller's array stays writable and its later writes do not reach the vector.
    The vectors the package returns (`coherent_state`, `phase_derivative`,
    `apply_branch`) are not copies: each holds the array the package built for
    it, or a prefix view of a state's run that `coherent_state` keeps (at most
    two states, up to 91 KiB each), marked read-only and never written again.
    Either way the amplitudes are read-only, and instances can be shared freely
    between threads.
    """

    amplitudes: np.ndarray

    def __post_init__(self):
        object.__setattr__(
            self, "amplitudes", _frozen_amplitudes(np.array(self.amplitudes, dtype=np.complex128))
        )

    @classmethod
    def _wrap(cls, amps: np.ndarray) -> FockVector:
        # package-internal hand-off of a complex128 array the package has just built
        # and will never write again: the constructor's checks, without the copy
        vector = object.__new__(cls)
        object.__setattr__(vector, "amplitudes", _frozen_amplitudes(amps))
        return vector

    @property
    def cutoff(self) -> int:
        return self.amplitudes.shape[0] - 1

    @property
    def norm_sq(self) -> float:
        return float(np.vdot(self.amplitudes, self.amplitudes).real)


def _frozen_amplitudes(amps: np.ndarray) -> np.ndarray:
    # checks a complex128 array as FockVector amplitudes and marks it read-only; the
    # extremes of its real and imaginary parts are finite exactly when every part is
    # (a NaN propagates through both), found without a temporary array
    if amps.ndim != 1 or amps.size < 1:
        raise ValueError(f"amplitudes must be a nonempty 1-d array, got shape {amps.shape}")
    parts = amps.view(np.float64)
    if not (math.isfinite(parts.min()) and math.isfinite(parts.max())):
        raise ValueError("amplitudes must be finite")
    amps.setflags(write=False)
    return amps


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
    of mean mu = (gain*r)^2 serves every vector in one calculation.  The cutoff is
    a truncation bound, not the length of the work: the branch states carry the
    input's photon distribution, whose amplitudes are 0.0 from some level on (at
    r = 16, g = 8 from 1544, against a cutoff of 17292), and `branch_breakdown`
    works only on the levels below that, padded to a multiple of 64
    (`_branch_cutoff`).

    The scan builds the Poisson pmf once, from one term in Loader's saddle-point
    form upward by the ratio recurrence, takes every tail as a reverse cumulative
    sum and returns the first level whose tail is below 1e-12.  It starts
    at int(mu) - 1: every level N skipped there has N + 1 <= mu - 1, below the
    Poisson median (which is >= mu - ln 2), so its tail is >= 1/2.  Raises
    ValueError for a gain that is not a finite number >= 1 (`errors.as_float`),
    for an nla_n0 that is not an integer >= 1 (`errors.as_int`),
    when the cutoff would exceed 2**24, the largest state this package builds
    (g*r of about 4000), and, before any scan, for an r that `coherent_state`
    refuses, since no vector can be built on the cutoff of such an r.

    Every check runs on each call; the scan itself is a pure function of its
    start level and mu, so `_scan_cutoff` keeps the results of recent scans and
    a repeated (start, mu) returns the int a first scan computes.  At large r the
    start int(mu) - 1 does not depend on nla_n0, so one scan serves every n0.
    """
    gain = as_float("gain", gain, minimum=1)
    nla_n0 = as_int("nla_n0", nla_n0, minimum=1)
    amplitude = gain * params.r
    if not amplitude < _MAX_AMPLITUDE:
        raise ValueError(f"amplified amplitude {amplitude:.6g} needs a cutoff above 2**24")
    _vacuum_amplitude(params.r)
    mu = amplitude**2
    return _scan_cutoff(max(nla_n0 + 1, int(mu) - 1), mu)


@functools.lru_cache(maxsize=256)
def _scan_cutoff(start: int, mu: float) -> int:
    # the first level n >= start whose Poisson(mu) tail beyond n is below _TAIL_TOL
    below = _upper_tails(start, mu)[: max(_MAX_LEVEL - start, 0)] < _TAIL_TOL
    if below.any():
        return start + int(below.argmax())
    raise ValueError(f"no cutoff up to 2**24 bounds the Poisson tail of mean {mu:.6g}")


def _stirlerr(n: int) -> float:
    # ln n! - ln(sqrt(2 pi n) (n/e)^n), for n >= 1
    if n < len(_STIRLERR):
        return _STIRLERR[n]
    nn = float(n) * n
    return (1 / 12 - (1 / 360 - (1 / 1260 - (1 / 1680 - 1 / 1188 / nn) / nn) / nn) / nn) / n


def _bd0(x: int, mu: float) -> float:
    # x ln(x/mu) + mu - x, the deviance term of Loader's form, for x >= 1 and mu > 0.
    # Where |v| < 1/2, v = (x - mu)/(x + mu), it is the series
    # (x - mu) v + 2x sum_j v^(2j+1)/(2j+1), whose terms cancel by at most v^2/3 and
    # which fsum adds with one rounding.  The closed form would cancel by up to 1/v
    # there and lose ulps of x: Loader's switch at |v| = 0.1 leaves tails near 1e-214
    # at mu ~ 2e4 off by 3.5e-12.
    if abs(x - mu) < 0.5 * (x + mu):
        v = (x - mu) / (x + mu)
        terms = [(x - mu) * v]
        term = 2.0 * x * v
        j = 1
        while True:
            term *= v * v
            terms.append(term / (2 * j + 1))
            if abs(terms[-1]) <= 2.0**-60 * terms[0]:
                return math.fsum(terms)
            j += 1
    return x * math.log(x / mu) + mu - x


def _log_pmf(n: int, mu: float) -> float:
    # ln P[N = n] for N ~ Poisson(mu), 0 <= mu < inf, in Loader's saddle-point form
    # -stirlerr(n) - bd0(n, mu) - ln sqrt(2 pi n) (C. Loader, "Fast and Accurate
    # Computation of Binomial Probabilities", 2000).  Its absolute error stays a few ulps
    # of its own size at any mu, where ln n! - mu + n ln mu loses ulps of ln n!.
    if mu == 0.0:
        return 0.0 if n == 0 else -math.inf
    if n == 0:
        return -mu
    return -_stirlerr(n) - _bd0(n, mu) - 0.5 * math.log(2.0 * math.pi * n)


def _pmf_run(n: int, mu: float, step: int) -> np.ndarray:
    # The Poisson(mu) pmf at n, n + step, n + 2 step, ... in units of the pmf at n, by the
    # ratio recurrence P(k + 1) = P(k) mu/(k + 1).  step is 1 or -1, and the run starts at
    # or beyond the mode on that side (n + 1 > mu going up, n < mu going down), so every
    # ratio is below 1 and falls from one level to the next.  Term j carries at most 3j
    # roundings.  The run ends at level 0, or once the geometric bound on all later
    # terms, last term * ratio/(1 - ratio), is below _RUN_END.
    runs = [np.ones(1)]
    size = _FIRST_CHUNK
    while step > 0 or n > 0:
        if step > 0:
            ratios = mu / np.arange(n + 1, n + 1 + size, dtype=np.float64)
        else:
            ratios = np.arange(n, max(n - size, 0), -1, dtype=np.float64) / mu
        runs.append(runs[-1][-1] * np.cumprod(ratios))
        n += step * ratios.size
        last = ratios[-1]
        if runs[-1][-1] * last < _RUN_END * (1.0 - last):
            break
        size = min(2 * size, _MAX_CHUNK)
    return np.concatenate(runs)


def _upper_tails(start: int, mu: float) -> np.ndarray:
    # P[N > n] for n = start, start + 1, ... while the tail lasts, N ~ Poisson(mu), mu finite
    # and start + 2 > mu: the reverse cumulative sums of one pmf run from start + 1 upward
    run = _pmf_run(start + 1, mu, 1)
    return math.exp(_log_pmf(start + 1, mu)) * np.cumsum(run[::-1])[::-1]


def _poisson_tails(n: int, mu: float) -> tuple[float, float]:
    # (P[N <= n], P[N > n]) for N ~ Poisson(mu), n >= 0 and mu >= 0, inf included; the side
    # away from the mode is summed from its nearest term, the other is its complement
    if mu == math.inf:
        return 0.0, 1.0
    if n < mu:
        below = math.exp(_log_pmf(n, mu) + math.log(_pmf_run(n, mu, -1).sum()))
        return below, 1.0 - below
    above = float(_upper_tails(n, mu)[0])
    return 1.0 - above, above


def coherent_state(params: CoherentParams, cutoff: int) -> FockVector:
    """Coherent-state amplitudes e^{-r^2/2} * alpha^n / sqrt(n!) on the 0..cutoff grid.

    Uses the running recurrence c_{n+1} = c_n * alpha / sqrt(n+1) so large cutoffs
    never touch a factorial.  The recurrence starts at c_0 = e^{-r^2/2}, so r must
    keep that a normal double (r below about 37.64); a larger r raises ValueError,
    since a subnormal c_0 loses precision and a zero one loses every amplitude.
    The cutoff is an integer >= 0 by `errors.as_int`.

    Far enough above the mean photon number r^2 the recurrence underflows: from
    the first level where it gives 0.0 (both parts +-0.0) every later amplitude
    is 0.0 too, at r = 16 and theta = 0 from level 1544 on.  The vector still
    holds every level up to the cutoff, and those zeros keep the signs the
    recurrence gives them.

    The levels below that first 0.0, padded to a multiple of 64, are the state's
    run (`_run`).  The runs of the two most recent states are kept read-only, 16
    bytes per level: at most 5824 levels (91 KiB) each, near r = 37.64, and 1600
    at r = 16.  A cutoff inside the run gets a read-only prefix view of it, not a
    copy.  A longer cutoff gets a new array, not kept: the run followed by the
    recurrence continued from its last amplitude.  Each c_n depends only on
    c_{n-1}, alpha and n, so every amplitude is the double the recurrence from
    c_0 gives.
    """
    cutoff = as_int("cutoff", cutoff, minimum=0)
    run, alpha = _state_run(params)
    if cutoff < run.size:
        return FockVector._wrap(run[: cutoff + 1])
    tail = np.fromiter(_recurrence(run[-1], alpha, run.size), np.complex128, cutoff + 1 - run.size)
    return FockVector._wrap(np.concatenate([run, tail]))


def _branch_cutoff(params: CoherentParams, cutoff: int, n0: int) -> int:
    """The cutoff to build the branch states of `params` on, for a cutoff from
    `choose_cutoff` (at least n0 + 1): the last level of the state's run, at most
    the cutoff, and at least n0 for the arm weights.

    The run holds the levels below the first one whose amplitude is 0.0, rounded
    up to a multiple of 64.  It is the one `coherent_state` keeps and views, so
    the amplitudes are built only up to it, not to the cutoff.

    Every array the Fock path derives from the state (branch states, phase
    derivatives) is 0.0 from the same level on.  A computation on the first L
    levels, L the run's size or any longer length, gives the doubles it gives on
    all cutoff + 1 of them:
    - elementwise operations give the same doubles on a prefix;
    - the only reductions are the inner products (`np.vdot`, OpenBLAS `zdotc`).
      The levels past L add products of +-0.0, which leave every nonzero
      partial sum as it is;
    - the dot kernel sums unrolled blocks of a few levels (a divisor of 64)
      into separate lanes, and the leftover levels one by one.  At any such L,
      as at the full length, the nonzero levels lie in whole blocks (the count
      is a multiple of 64, or the whole vector), each in the same block and
      lane, so each lane adds the same terms in the same order.
    """
    return max(n0, min(_state_run(params)[0].size - 1, cutoff))


def _state_run(params: CoherentParams) -> tuple[np.ndarray, np.complex128]:
    # the run of `params`' state and its alpha = r e^{i theta}; the run is keyed by the
    # bits of c_0 and alpha, the only inputs of the recurrence: `float.hex` tells -0.0
    # from 0.0 where `==` would not
    vacuum = _vacuum_amplitude(params.r)
    alpha = params.r * np.exp(1j * params.theta)
    return _run(vacuum.hex(), alpha.real.hex(), alpha.imag.hex()), alpha


@functools.lru_cache(maxsize=2)
def _run(vacuum: str, real: str, imag: str) -> np.ndarray:
    # The amplitudes c_0, c_1, ... of the state whose c_0 and alpha have these bits,
    # read-only: the fewest whole blocks of _BLOCK levels that hold every level below
    # the first 0.0.  Two runs are kept, for the theta = 0 and theta_true states of one
    # simulate point
    alpha = np.complex128(complex(float.fromhex(real), float.fromhex(imag)))
    levels = [np.complex128(float.fromhex(vacuum))]
    for c in _recurrence(levels[0], alpha, 1):
        if c == 0 and len(levels) % _BLOCK == 0:
            break
        levels.append(c)
    run = np.array(levels, dtype=np.complex128)
    run.setflags(write=False)
    return run


def _recurrence(c: np.complex128, alpha: np.complex128, n: int):
    # c_n, c_{n+1}, ... from c = c_{n-1}, by c_k = c_{k-1} * alpha / sqrt(k)
    while True:
        c = c * alpha / math.sqrt(n)
        yield c
        n += 1


def inner_product(a: FockVector, b: FockVector) -> complex:
    """Hermitian inner product sum_n conj(a_n) * b_n; cutoffs must agree."""
    if a.cutoff != b.cutoff:
        raise DimensionMismatchError(f"cutoff mismatch: {a.cutoff} vs {b.cutoff}")
    return complex(np.vdot(a.amplitudes, b.amplitudes))


def phase_derivative(v: FockVector) -> FockVector:
    """Derivative with respect to the phase: multiplies the n-th amplitude by i*n.

    Valid for any vector whose phase dependence enters only through e^{i*n*theta}
    factors (true for coherent states and both amplifier branches).  The result is
    generally unnormalized: one new array, marked read-only.

    The factors `1j * np.arange(N + 1)` of the most recent length N + 1 are kept
    read-only (`_phase_factors`, 16 bytes per level), so a run of calls on one
    length builds them once; each amplitude is the double
    `1j * np.arange(N + 1) * amplitudes` gives.
    """
    return FockVector._wrap(np.multiply(_phase_factors(v.cutoff + 1), v.amplitudes))


@functools.lru_cache(maxsize=1)
def _phase_factors(size: int) -> np.ndarray:
    # 1j * n for n = 0..size - 1, read-only; each element is the same double at any size
    factors = 1j * np.arange(size)
    factors.setflags(write=False)
    return factors
