"""The probabilistic amplifier as a two-outcome measurement (success / failure).

The device is diagonal in the Fock basis: the success arm weights level n by
g^(n-n0) up to the working cutoff n0 and passes higher levels untouched; the
failure arm is fixed by completeness, E_f = sqrt(1 - E_s^2).  Both heralding
probabilities have closed forms that are independent of the input phase.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateBranchError, DimensionMismatchError
from .fock import CoherentParams, FockVector, coherent_state, phase_derivative

__all__ = [
    "NlaParams",
    "DiagonalOperator",
    "BranchOutcome",
    "success_operator",
    "failure_operator",
    "success_probability",
    "failure_probability",
    "apply_branch",
    "branch_derivative",
]


@dataclass(frozen=True)
class NlaParams:
    """Amplifier gain g >= 1 and maximum faithfully amplified photon number n0 >= 1.

    g = 1 is the identity device: success is certain and leaves the state alone.
    """

    gain: float
    n0: int

    def __post_init__(self):
        if not (math.isfinite(self.gain) and self.gain >= 1.0):
            raise ValueError(f"gain must be finite and >= 1, got {self.gain}")
        if not (isinstance(self.n0, int) and self.n0 >= 1):
            raise ValueError(f"n0 must be an integer >= 1, got {self.n0}")


@dataclass(frozen=True, eq=False)
class DiagonalOperator:
    """Fock-diagonal measurement operator with per-level weights in [0, 1]."""

    weights: np.ndarray
    cutoff: int

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=np.float64)
        object.__setattr__(self, "weights", w)
        if w.shape != (self.cutoff + 1,):
            raise ValueError("weight array length does not match cutoff")
        if np.any(w < 0.0) or np.any(w > 1.0):
            raise ValueError("diagonal weights must lie in [0, 1]")
        w.setflags(write=False)

    def apply(self, v: FockVector) -> FockVector:
        if v.cutoff != self.cutoff:
            raise DimensionMismatchError(f"cutoff mismatch: {self.cutoff} vs {v.cutoff}")
        return FockVector(self.weights * v.amplitudes, self.cutoff)


@dataclass(frozen=True)
class BranchOutcome:
    """One heralded arm: label, heralding probability, and the normalized state."""

    label: str
    probability: float
    state: FockVector


def _level_weights(params: NlaParams, cutoff: int, branch: str) -> np.ndarray:
    if cutoff < params.n0:
        raise ValueError(f"cutoff {cutoff} must be >= n0 = {params.n0}")
    n = np.arange(cutoff + 1, dtype=np.float64)
    # g^(n-n0) with the exponent clamped at 0: levels above n0 take weight 1/0
    # anyway, and the clamp keeps g^positive from ever overflowing
    ratio = np.power(params.gain, np.minimum(n - params.n0, 0.0))
    if branch == "success":
        return np.where(n <= params.n0, ratio, 1.0)
    return np.where(n <= params.n0, np.sqrt(np.maximum(0.0, 1.0 - ratio**2)), 0.0)


def success_operator(params: NlaParams, cutoff: int) -> DiagonalOperator:
    """Success-arm weights: g^(n-n0) for n <= n0, then 1."""
    return DiagonalOperator(_level_weights(params, cutoff, "success"), cutoff)


def failure_operator(params: NlaParams, cutoff: int) -> DiagonalOperator:
    """Failure-arm weights sqrt(1 - g^(2(n-n0))) for n <= n0, then 0."""
    return DiagonalOperator(_level_weights(params, cutoff, "failure"), cutoff)


def _head_sums(r: float, params: NlaParams) -> tuple[float, float, float]:
    """Sums over n <= n0 of t_n g^{2(n-n0)}, t_n and t_n (1 - g^{2(n-n0)}), t_n = r^{2n}/n!."""
    if not (math.isfinite(r) and r >= 0.0):
        raise ValueError(f"r must be finite and >= 0, got {r}")
    g2 = params.gain**2
    term = 1.0  # r^{2n}/n! running term
    gfac = g2 ** (-params.n0)  # g^{2(n-n0)} running factor
    head = 0.0
    plain = 0.0
    fail = 0.0
    for n in range(params.n0 + 1):
        head += term * gfac
        plain += term
        fail += term * (1.0 - gfac)
        term *= r * r / (n + 1)
        gfac *= g2
    return head, plain, fail


def success_probability(r: float, params: NlaParams) -> float:
    """Heralding probability of the success arm for input amplitude r.

    p_s = e^{-r^2} * sum_{n<=n0} g^{2(n-n0)} r^{2n}/n!  +  P[Poisson(r^2) > n0].
    The infinite tail is evaluated through the complement of the finite Poisson
    sum, so no truncation error enters.
    """
    head, plain, _ = _head_sums(r, params)
    w = math.exp(-r * r)
    return w * head + (1.0 - w * plain)


def failure_probability(r: float, params: NlaParams) -> float:
    """Heralding probability of the failure arm; p_s + p_f = 1 by completeness."""
    return math.exp(-r * r) * _head_sums(r, params)[2]


def apply_branch(input: CoherentParams, params: NlaParams, branch: str, cutoff: int) -> BranchOutcome:
    """Project a coherent input onto one heralded arm and renormalize.

    Renormalization divides by the square root of the closed-form probability, not
    the numerically computed norm; with a cutoff from choose_cutoff the two agree
    to within the truncation tolerance.
    """
    if branch not in ("success", "failure"):
        raise ValueError(f"branch must be 'success' or 'failure', got {branch!r}")
    if branch == "success":
        p = success_probability(input.r, params)
        op = success_operator(params, cutoff)
    else:
        p = failure_probability(input.r, params)
        op = failure_operator(params, cutoff)
        if p <= 0.0:
            raise DegenerateBranchError(
                f"failure branch has zero probability at gain {params.gain}"
            )
    projected = op.apply(coherent_state(input, cutoff))
    state = FockVector(projected.amplitudes / math.sqrt(p), cutoff)
    return BranchOutcome(branch, p, state)


def branch_derivative(outcome: BranchOutcome) -> FockVector:
    """Phase derivative of a heralded branch state (unnormalized)."""
    return phase_derivative(outcome.state)
