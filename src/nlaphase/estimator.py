"""Optimal local observable, outcome probabilities, and the maximum-likelihood estimators.

The observable that attains the Cramer-Rao bound for a pure family near theta = 0
is rank two: it lives in span{|psi0>, |dpsi0>} and has eigenvalues +/- lambda with
lambda = 1/sqrt(J).  Measuring it yields three outcomes (+, -, null); with the
amplifier in front the heralding flag splits the informative outcomes into five.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateObservableError, NoDataError
from .fock import CoherentParams, FockVector, coherent_state, inner_product
from .fisher import qfi_pure
from .nla import NlaParams, arm_weights

__all__ = [
    "EstimatorObservable",
    "build_observable",
    "outcome_probabilities",
    "five_outcome_probs",
    "mle_direct",
    "mle_nla",
]


@dataclass(frozen=True)
class EstimatorObservable:
    """Spectral data of the optimal observable: eigenvalue magnitude lambda and the
    orthonormal eigenvectors of +lambda and -lambda."""

    lam: float
    c_plus: FockVector
    c_minus: FockVector


def build_observable(psi0: FockVector, dpsi0: FockVector) -> EstimatorObservable:
    """Diagonalize the rank-two optimal observable of the family (psi0, dpsi0).

    psi0 must be normalized with a purely imaginary overlap <psi0|dpsi0>.  The
    eigenvector phases are fixed so that <psi0|c+-> is real and positive, which
    makes the construction deterministic.
    """
    j = qfi_pure(psi0, dpsi0)  # raises ValueError unless the overlap is purely imaginary
    if j <= 0.0:
        raise DegenerateObservableError("family carries no phase information (J = 0)")
    overlap = inner_product(psi0, dpsi0)
    lam = 1.0 / math.sqrt(j)

    # orthonormal basis of span{psi0, dpsi0}
    w = dpsi0.amplitudes - overlap * psi0.amplitudes
    e2 = w / np.linalg.norm(w)

    # C = 2*lam^2*(|psi0><dpsi0| + |dpsi0><psi0|) restricted to span{e1, e2}
    a = np.array([1.0 + 0.0j, 0.0j])  # <e_i|psi0>
    b = np.array([overlap, np.vdot(e2, dpsi0.amplitudes)])  # <e_i|dpsi0>
    mat = 2.0 * lam**2 * (np.outer(a, b.conj()) + np.outer(b, a.conj()))
    vals, vecs = np.linalg.eigh(mat)  # ascending: vals[0] ~ -lam, vals[1] ~ +lam

    basis = np.vstack([psi0.amplitudes, e2])

    def eigenvector(col: int) -> FockVector:
        coeff = vecs[:, col]
        phase = coeff[0] / abs(coeff[0])  # <psi0|c> = coeff[0], rotate it to +real
        return FockVector((coeff / phase) @ basis)

    return EstimatorObservable(lam, eigenvector(1), eigenvector(0))


def outcome_probabilities(obs: EstimatorObservable, state: FockVector) -> np.ndarray:
    """Outcome vector [+, -, null]: p_+- = |<c_+-|state>|^2 and the null complement."""
    p_plus = abs(inner_product(obs.c_plus, state)) ** 2
    p_minus = abs(inner_product(obs.c_minus, state)) ** 2
    return np.array([p_plus, p_minus, max(0.0, 1.0 - p_plus - p_minus)])


def five_outcome_probs(
    input: CoherentParams,
    params: NlaParams,
    obs_s: EstimatorObservable,
    obs_f: EstimatorObservable | None,
) -> np.ndarray:
    """Outcome vector [s+, s-, f+, f-, null] of the heralded measurement on a coherent input.

    p_{s,+-} = |<c_{s,+-}| E_s |alpha>|^2 and likewise for the failure pair; the
    null outcome absorbs the remainder.  Pass obs_f = None when the failure branch
    is degenerate: f+- are then 0 and the failure mass p_f is counted as null.
    """
    cutoff = obs_s.c_plus.cutoff
    alpha = coherent_state(input, cutoff)
    w_s, w_f = arm_weights(params, cutoff)
    projected_s = FockVector(w_s * alpha.amplitudes)
    p_s_plus = abs(inner_product(obs_s.c_plus, projected_s)) ** 2
    p_s_minus = abs(inner_product(obs_s.c_minus, projected_s)) ** 2
    p_f_plus = p_f_minus = 0.0
    if obs_f is not None:
        projected_f = FockVector(w_f * alpha.amplitudes)
        p_f_plus = abs(inner_product(obs_f.c_plus, projected_f)) ** 2
        p_f_minus = abs(inner_product(obs_f.c_minus, projected_f)) ** 2
    p_null = max(0.0, 1.0 - p_s_plus - p_s_minus - p_f_plus - p_f_minus)
    return np.array([p_s_plus, p_s_minus, p_f_plus, p_f_minus, p_null])


def _has_data(counts: np.ndarray, failure_informative: bool = False) -> np.ndarray:
    """The no-data rule: True for each run (last axis: +, -, ... or s+, s-, f+, f-, null)
    with at least one informative count.  The failure pair is informative only when
    the failure branch carries phase information."""
    return counts[..., : 4 if failure_informative else 2].sum(axis=-1) >= 1


def _counts(counts) -> np.ndarray:
    counts = np.asarray(counts)
    if np.any(counts < 0):
        raise ValueError("counts must be nonnegative")
    return counts


def _float_if_scalar(theta: np.ndarray):
    return theta if theta.ndim else float(theta)


def _direct(n_plus: np.ndarray, n_minus: np.ndarray, lam: float) -> np.ndarray:
    # a zero total yields 0 in place of 0/0; callers select such entries away
    return lam * (n_plus - n_minus) / np.maximum(n_plus + n_minus, 1)


def mle_direct(n_plus, n_minus, lam: float):
    """Maximum-likelihood phase estimate lam * (n+ - n-) / (n+ + n-).

    n_plus and n_minus are counts or broadcastable arrays of per-run counts; the
    result is a float or an array of per-run estimates, each computed in the scalar
    formula's operation order.  Raises NoDataError if any run has n+ + n- = 0 and
    ValueError on a negative count; an empty array gives an empty result.
    """
    pairs = _counts(np.stack(np.broadcast_arrays(n_plus, n_minus), axis=-1))
    if not np.all(_has_data(pairs)):
        raise NoDataError("no informative counts")
    return _float_if_scalar(_direct(pairs[..., 0], pairs[..., 1], lam))


def mle_nla(counts, lambda_s: float, lambda_f: float | None):
    """Combine the per-branch estimates with inverse-variance weights.

    theta_hat = (n_s lam_f^2 theta_s + n_f lam_s^2 theta_f) / (n_s lam_f^2 + n_f lam_s^2),
    which reduces to the surviving branch when the other saw no counts.  With a
    degenerate failure branch (lambda_f = None) the failure counts are ignored.

    counts is one run's (s+, s-, f+, f-, null) row, giving a float, or an array
    of such rows, giving an array of per-run estimates.  Raises NoDataError if any
    run has no informative count (n_s = 0 with a degenerate failure branch, else
    n_s + n_f = 0) and ValueError on a negative count.
    """
    counts = _counts(counts)
    if counts.shape[-1:] != (5,):
        raise ValueError(f"count rows must hold 5 outcomes, got shape {counts.shape}")
    if not np.all(_has_data(counts, lambda_f is not None)):
        raise NoDataError("no informative counts")
    s_plus, s_minus, f_plus, f_minus = (counts[..., i] for i in range(4))
    theta_s = _direct(s_plus, s_minus, lambda_s)
    if lambda_f is None:
        return _float_if_scalar(theta_s)
    theta_f = _direct(f_plus, f_minus, lambda_f)
    n_s = s_plus + s_minus
    n_f = f_plus + f_minus
    w_s = n_s * lambda_f**2
    w_f = n_f * lambda_s**2
    combined = (w_s * theta_s + w_f * theta_f) / (w_s + w_f)
    return _float_if_scalar(np.where(n_f == 0, theta_s, np.where(n_s == 0, theta_f, combined)))
