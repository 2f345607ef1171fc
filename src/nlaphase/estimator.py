"""Optimal local observable, outcome probabilities, and the maximum-likelihood estimators.

The observable that attains the Cramer-Rao bound for a pure family near theta = 0
is rank two: it lives in span{|psi0>, |dpsi0>} and has eigenvalues +/- lambda with
lambda = 1/sqrt(J).  Measuring it yields three outcomes (+, -, null); with the
amplifier in front the heralding flag splits the informative outcomes into five.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .errors import DegenerateObservableError, NoDataError
from .fock import CoherentParams, FockVector, coherent_state, inner_product
from .fisher import qfi_pure
from .nla import NlaParams, failure_operator, success_operator

if TYPE_CHECKING:
    from .montecarlo import TrialCounts

__all__ = [
    "EstimatorObservable",
    "OutcomeProbs",
    "FiveOutcomeProbs",
    "build_observable",
    "outcome_probabilities",
    "five_outcome_probs",
    "combine_weight",
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


@dataclass(frozen=True)
class OutcomeProbs:
    """Three-outcome measurement distribution (+, -, null)."""

    p_plus: float
    p_minus: float
    p_null: float

    def as_array(self) -> np.ndarray:
        return np.array([self.p_plus, self.p_minus, self.p_null])


@dataclass(frozen=True)
class FiveOutcomeProbs:
    """Five-outcome distribution (s+, s-, f+, f-, null) of amplify-then-measure.

    When the failure branch carries no phase information (n0 = 1, or gain = 1 where
    it never fires) the failure pair collapses to a single aggregate outcome stored
    in p_f_plus, and failure_degenerate is set.
    """

    p_s_plus: float
    p_s_minus: float
    p_f_plus: float
    p_f_minus: float
    p_null: float
    failure_degenerate: bool = False

    def as_array(self) -> np.ndarray:
        return np.array([self.p_s_plus, self.p_s_minus, self.p_f_plus, self.p_f_minus, self.p_null])


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
        return FockVector((coeff / phase) @ basis, psi0.cutoff)

    return EstimatorObservable(lam, eigenvector(1), eigenvector(0))


def outcome_probabilities(obs: EstimatorObservable, state: FockVector) -> OutcomeProbs:
    """Outcome distribution p_+- = |<c_+-|state>|^2 with the null complement."""
    p_plus = abs(inner_product(obs.c_plus, state)) ** 2
    p_minus = abs(inner_product(obs.c_minus, state)) ** 2
    return OutcomeProbs(p_plus, p_minus, max(0.0, 1.0 - p_plus - p_minus))


def five_outcome_probs(
    input: CoherentParams,
    params: NlaParams,
    obs_s: EstimatorObservable,
    obs_f: EstimatorObservable | None,
) -> FiveOutcomeProbs:
    """Distribution of the heralded five-outcome measurement on a coherent input.

    p_{s,+-} = |<c_{s,+-}| E_s |alpha>|^2 and likewise for the failure pair; the
    null outcome absorbs the remainder.  Pass obs_f = None when the failure branch
    is degenerate; its two outcomes then merge into one of probability p_f.
    """
    cutoff = obs_s.c_plus.cutoff
    alpha = coherent_state(input, cutoff)
    projected_s = success_operator(params, cutoff).apply(alpha)
    projected_f = failure_operator(params, cutoff).apply(alpha)

    p_s_plus = abs(inner_product(obs_s.c_plus, projected_s)) ** 2
    p_s_minus = abs(inner_product(obs_s.c_minus, projected_s)) ** 2
    if obs_f is None:
        p_f_plus = projected_f.norm_sq
        p_f_minus = 0.0
        degenerate = True
    else:
        p_f_plus = abs(inner_product(obs_f.c_plus, projected_f)) ** 2
        p_f_minus = abs(inner_product(obs_f.c_minus, projected_f)) ** 2
        degenerate = False
    p_null = max(0.0, 1.0 - p_s_plus - p_s_minus - p_f_plus - p_f_minus)
    return FiveOutcomeProbs(p_s_plus, p_s_minus, p_f_plus, p_f_minus, p_null, degenerate)


def combine_weight(v_s: float, v_f: float) -> float:
    """Variance-minimizing weight beta = V_f / (V_s + V_f) on the success estimate."""
    if v_s < 0.0 or v_f < 0.0:
        raise ValueError("variances must be nonnegative")
    if v_s + v_f == 0.0:
        raise ValueError("variances must not both be zero")
    return v_f / (v_s + v_f)


def mle_direct(n_plus: int, n_minus: int, lam: float) -> float:
    """Maximum-likelihood phase estimate lam * (n+ - n-) / (n+ + n-)."""
    total = n_plus + n_minus
    if total < 1:
        raise NoDataError("no informative counts")
    return lam * (n_plus - n_minus) / total


def mle_nla(counts: "TrialCounts", lambda_s: float, lambda_f: float | None) -> float:
    """Combine the per-branch estimates with inverse-variance weights.

    theta_hat = (n_s lam_f^2 theta_s + n_f lam_s^2 theta_f) / (n_s lam_f^2 + n_f lam_s^2),
    which reduces to the surviving branch when the other saw no counts.  With a
    degenerate failure branch (lambda_f = None) the failure counts are ignored.
    """
    n_s = counts.n_s_plus + counts.n_s_minus
    n_f = counts.n_f_plus + counts.n_f_minus
    if lambda_f is None:
        if n_s < 1:
            raise NoDataError("no informative counts (degenerate failure branch)")
        return mle_direct(counts.n_s_plus, counts.n_s_minus, lambda_s)
    if n_s + n_f < 1:
        raise NoDataError("no informative counts")
    if n_f == 0:
        return mle_direct(counts.n_s_plus, counts.n_s_minus, lambda_s)
    if n_s == 0:
        return mle_direct(counts.n_f_plus, counts.n_f_minus, lambda_f)
    theta_s = mle_direct(counts.n_s_plus, counts.n_s_minus, lambda_s)
    theta_f = mle_direct(counts.n_f_plus, counts.n_f_minus, lambda_f)
    w_s = n_s * lambda_f**2
    w_f = n_f * lambda_s**2
    return (w_s * theta_s + w_f * theta_f) / (w_s + w_f)
