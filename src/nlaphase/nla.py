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

from .errors import as_float, as_int
from .fock import CoherentParams, FockVector, _poisson_tails, coherent_state

__all__ = [
    "NlaParams",
    "arm_weights",
    "heralding_probabilities",
    "apply_branch",
]

# The running-term loop takes the tail as 1 - e^{-r^2} * sum, which carries an absolute
# error of a few ulps of 1.0 (2**-52 each).  Below p_s = 2**-16 that error can exceed
# about 1e-11 of p_s, so there `_scaled_branch_probabilities` computes both values.
_LOOP_MIN_P_S = 2.0**-16


@dataclass(frozen=True)
class NlaParams:
    """Amplifier gain g >= 1 and maximum faithfully amplified photon number n0 >= 1.

    g = 1 is the identity device: success is certain and leaves the state alone.
    gain is a finite float by `errors.as_float`, n0 an int by `errors.as_int`.
    """

    gain: float
    n0: int

    def __post_init__(self):
        object.__setattr__(self, "gain", as_float("gain", self.gain, minimum=1))
        object.__setattr__(self, "n0", as_int("n0", self.n0, minimum=1))


def arm_weights(params: NlaParams, cutoff: int) -> tuple[np.ndarray, np.ndarray]:
    """(w_s, w_f): the level weights of both arms on 0..cutoff, two new float64 arrays.

    w_s is g^(n-n0) for n <= n0, then 1; w_f is sqrt(1 - g^(2(n-n0))) for n <= n0,
    then 0, so w_s^2 + w_f^2 = 1 on every level.  Only the head 0..n0 is computed;
    the levels above it are filled with 1.0 and 0.0.  The cutoff is an integer
    >= n0 by `errors.as_int`.
    """
    head_s, head_f = _head_weights(params, cutoff)
    w_s = np.ones(cutoff + 1)
    w_f = np.zeros(cutoff + 1)
    w_s[: head_s.size] = head_s
    w_f[: head_f.size] = head_f
    return w_s, w_f


def _head_weights(params: NlaParams, cutoff: int) -> tuple[np.ndarray, np.ndarray]:
    # the weights of both arms on levels 0..n0, for an integer cutoff of at least n0
    cutoff = as_int("cutoff", cutoff, minimum=params.n0)
    n0 = params.n0
    # g^(n-n0) on the head: exponents <= 0, so g^positive never overflows
    ratio = np.power(params.gain, np.arange(n0 + 1, dtype=np.float64) - n0)
    return ratio, np.sqrt(np.maximum(0.0, 1.0 - ratio**2))


def heralding_probabilities(r: float, params: NlaParams) -> tuple[float, float]:
    """(p_s, p_f): the heralding probabilities of both arms for input amplitude r.

    p_s = e^{-r^2} * sum_{n<=n0} g^{2(n-n0)} r^{2n}/n!  +  P[Poisson(r^2) > n0] and
    p_s + p_f = 1 by completeness.  The infinite tail is evaluated through the
    complement of the finite Poisson sum, so no truncation error enters.  Where
    e^{-r^2} or the starting factor g^{-2 n0} is not a normal double, or the result
    is not finite, the running-term loop loses the head sums; where its p_s is below
    2**-16, the complement's rounding error is above about 1e-11 of p_s.  In both cases
    `_scaled_branch_probabilities` computes both values instead.  Both are clamped
    to [0, 1], and p_f is 0.0 where P[N <= n0] is below the smallest normal double.
    r is a finite float >= 0 by `errors.as_float`.
    """
    r = as_float("r", r, minimum=0)
    w = math.exp(-r * r)
    try:
        g2 = params.gain**2
    except OverflowError:  # g above about 1.3e154: g^{-2 n0} is 0.0, the scaled path runs
        g2 = math.inf
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
    if not (math.isfinite(p_s) and math.isfinite(p_f) and p_s >= _LOOP_MIN_P_S):
        p_s, p_f = _scaled_branch_probabilities(r * r, params)
    # rounding can leave a value an ulp outside [0, 1]: where n0 is far above r^2,
    # e^{-r^2} * sum t_n rounds above 1
    return min(max(p_s, 0.0), 1.0), min(max(p_f, 0.0), 1.0)


def _scaled_branch_probabilities(mu: float, params: NlaParams) -> tuple[float, float]:
    # The head sums over n <= n0 of P(n) g^{2(n-n0)} and P(n) (1 - g^{2(n-n0)}), P the
    # Poisson(mu) law, as P[N <= n0] times the weighted mean of the terms
    # u_n = P(n)/P(k), where k is the largest term's level; u_n <= 1 comes from
    # products of the ratios mu/n, so nothing overflows.  Both P[N <= n0] and the
    # tail P[N > n0] come from fock's Poisson tails.  Where P[N <= n0] is below the
    # smallest normal double, so is p_f, and p_f is returned as 0.0.
    n0 = params.n0
    below, above = _poisson_tails(n0, mu)
    if below < sys.float_info.min:
        return above, 0.0
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


def apply_branch(
    input: CoherentParams, params: NlaParams, cutoff: int
) -> tuple[FockVector, FockVector | None]:
    """Project a coherent input onto both heralded arms: (success state, failure state).

    Each state is normalized by the square root of its closed-form probability from
    heralding_probabilities, not by the numerically computed norm; with a cutoff
    from choose_cutoff the two agree to within the truncation tolerance.  The
    failure state is None where p_f is 0.0: at g = 1, or where failure is too rare
    for a double.  Raises ValueError where p_s is 0.0, which no state can be
    normalized by.
    """
    p_s, p_f = heralding_probabilities(input.r, params)
    if p_s == 0.0:
        raise ValueError(
            f"success probability underflows to 0.0 at r={input.r}, gain={params.gain}, "
            f"n0={params.n0}"
        )
    # the state before the weights: coherent_state refuses an r it cannot represent
    # before anything of the cutoff's size is allocated
    alpha = coherent_state(input, cutoff)
    head_s, head_f = _head_weights(params, cutoff)
    succ = _arm_state(head_s, 1.0, alpha.amplitudes, p_s)
    if p_f == 0.0:
        return succ, None
    return succ, _arm_state(head_f, 0.0, alpha.amplitudes, p_f)


def _arm_state(head: np.ndarray, tail: float, amps: np.ndarray, p: float) -> FockVector:
    # (w * amps) / sqrt(p) in one new array, w being `arm_weights`' head on levels
    # 0..n0 and its constant tail above them.  Each level is the same complex product
    # of the same two operands, and the quotient taken in place is the same ufunc on
    # the same operands, so every double is the one the whole-array expression gives
    state = np.empty_like(amps)
    n = head.size
    np.multiply(head, amps[:n], out=state[:n])
    np.multiply(tail, amps[n:], out=state[n:])
    state /= math.sqrt(p)
    return FockVector._wrap(state)
