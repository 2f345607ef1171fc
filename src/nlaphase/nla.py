"""The probabilistic amplifier as a two-outcome measurement (success / failure).

The device is diagonal in the Fock basis: the success arm weights level n by
g^(n-n0) up to the working cutoff n0 and passes higher levels untouched; the
failure arm is fixed by completeness, E_f = sqrt(1 - E_s^2).  Both heralding
probabilities have closed forms that are independent of the input phase.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np
from scipy.special import gammainc, gammaincc

from .errors import DegenerateBranchError
from .fock import CoherentParams, FockVector, coherent_state

__all__ = [
    "NlaParams",
    "success_operator",
    "failure_operator",
    "success_probability",
    "failure_probability",
    "apply_branch",
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


def success_operator(params: NlaParams, cutoff: int) -> np.ndarray:
    """Success-arm level weights on 0..cutoff: g^(n-n0) for n <= n0, then 1."""
    return _level_weights(params, cutoff, "success")


def failure_operator(params: NlaParams, cutoff: int) -> np.ndarray:
    """Failure-arm level weights on 0..cutoff: sqrt(1 - g^(2(n-n0))) for n <= n0, then 0."""
    return _level_weights(params, cutoff, "failure")


def _branch_probabilities(r: float, params: NlaParams) -> tuple[float, float]:
    """(p_s, p_f) for input amplitude r; see success_probability for the formula.

    Sums the terms t_n = r^{2n}/n! in a loop and scales the sums by e^{-r^2}.
    Where e^{-r^2} or the starting factor g^{-2 n0} is not a normal double, or
    the result is not finite, that loses the head sums, and
    `_scaled_branch_probabilities` computes both values instead.
    """
    if not (math.isfinite(r) and r >= 0.0):
        raise ValueError(f"r must be finite and >= 0, got {r}")
    w = math.exp(-r * r)
    g2 = params.gain**2
    gfac = g2 ** (-params.n0)  # g^{2(n-n0)} running factor
    p_s = p_f = math.nan
    if w >= sys.float_info.min and gfac >= sys.float_info.min:
        term = 1.0  # r^{2n}/n! running term
        head = 0.0
        plain = 0.0
        fail = 0.0
        for n in range(params.n0 + 1):
            head += term * gfac
            plain += term
            fail += term * (1.0 - gfac)
            term *= r * r / (n + 1)
            gfac *= g2
        p_s, p_f = w * head + (1.0 - w * plain), w * fail
    if not (math.isfinite(p_s) and math.isfinite(p_f)):
        p_s, p_f = _scaled_branch_probabilities(r * r, params)
    # rounding can leave a value an ulp outside [0, 1]: where n0 is far above r^2,
    # e^{-r^2} * sum t_n rounds above 1
    return min(max(p_s, 0.0), 1.0), min(max(p_f, 0.0), 1.0)


def _scaled_branch_probabilities(mu: float, params: NlaParams) -> tuple[float, float]:
    # The head sums over n <= n0 of P(n) g^{2(n-n0)} and P(n) (1 - g^{2(n-n0)}), P the
    # Poisson(mu) law, as P[N <= n0] times the weighted mean of the terms
    # u_n = P(n)/P(k), where k is the largest term's level; u_n <= 1 comes from
    # products of the ratios mu/n, so nothing overflows.  The tail P[N > n0] is
    # gammainc.  Where P[N <= n0] is below the smallest normal double, so is p_f,
    # and p_f is returned as 0.0.
    n0 = params.n0
    below = gammaincc(n0 + 1, mu)
    above = gammainc(n0 + 1, mu)
    if below < sys.float_info.min:
        return float(above), 0.0
    k = n0 if mu >= n0 else int(mu)
    u = np.concatenate(
        [
            np.cumprod(np.arange(k, 0, -1) / mu)[::-1],
            [1.0],
            np.cumprod(mu / np.arange(k + 1, n0 + 1)),
        ]
    )
    exponent = 2.0 * (np.arange(n0 + 1) - n0)
    ratio = np.power(params.gain, exponent)
    fail = -np.expm1(exponent * math.log(params.gain))
    scale = below / u.sum()
    return float(above + scale * (u @ ratio)), float(scale * (u @ fail))


def success_probability(r: float, params: NlaParams) -> float:
    """Heralding probability of the success arm for input amplitude r.

    p_s = e^{-r^2} * sum_{n<=n0} g^{2(n-n0)} r^{2n}/n!  +  P[Poisson(r^2) > n0].
    The infinite tail is evaluated through the complement of the finite Poisson
    sum, so no truncation error enters.  Where e^{-r^2} or g^{-2 n0} is not a
    normal double, the head is the Poisson mass P[N <= n0] times a weighted mean
    of scaled terms and the tail is gammainc(n0 + 1, r^2).  Both probabilities
    are clamped to [0, 1], and p_f is 0.0 where P[N <= n0] is below the
    smallest normal double.
    """
    return _branch_probabilities(r, params)[0]


def failure_probability(r: float, params: NlaParams) -> float:
    """Heralding probability of the failure arm; p_s + p_f = 1 by completeness."""
    return _branch_probabilities(r, params)[1]


def apply_branch(input: CoherentParams, params: NlaParams, branch: str, cutoff: int) -> FockVector:
    """Project a coherent input onto one heralded arm and return the normalized state.

    Renormalization divides by the square root of the closed-form probability
    (success_probability or failure_probability), not the numerically computed
    norm; with a cutoff from choose_cutoff the two agree to within the truncation
    tolerance.
    """
    if branch not in ("success", "failure"):
        raise ValueError(f"branch must be 'success' or 'failure', got {branch!r}")
    if branch == "success":
        p = success_probability(input.r, params)
    else:
        p = failure_probability(input.r, params)
        if p <= 0.0:
            raise DegenerateBranchError(
                f"failure branch has zero probability at gain {params.gain}"
            )
    # the state before the weights: coherent_state refuses an r it cannot represent
    # before anything of the cutoff's size is allocated
    alpha = coherent_state(input, cutoff)
    weights = _level_weights(params, cutoff, branch)
    return FockVector(weights * alpha.amplitudes / math.sqrt(p))
