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

from .errors import DegenerateObservableError, NoDataError, as_positive
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

    p_{s,+-} = |<c_{s,+-}| E_s |alpha>|^2 (`outcome_probabilities` of the
    projected input) and likewise for the failure pair; the null outcome absorbs
    the remainder.  Pass obs_f = None when the failure branch is degenerate: f+-
    are then 0 and the failure mass p_f is counted as null.
    """
    cutoff = obs_s.c_plus.cutoff
    alpha = coherent_state(input, cutoff)
    w_s, w_f = arm_weights(params, cutoff)
    p_s_plus, p_s_minus = outcome_probabilities(obs_s, FockVector(w_s * alpha.amplitudes))[:2]
    p_f_plus = p_f_minus = 0.0
    if obs_f is not None:
        p_f_plus, p_f_minus = outcome_probabilities(obs_f, FockVector(w_f * alpha.amplitudes))[:2]
    p_null = max(0.0, 1.0 - p_s_plus - p_s_minus - p_f_plus - p_f_minus)
    return np.array([p_s_plus, p_s_minus, p_f_plus, p_f_minus, p_null])


def _has_data(counts: np.ndarray, failure_informative: bool = False) -> np.ndarray:
    """The no-data rule for nonnegative counts: True for each run (last axis: +, -, ...
    or s+, s-, f+, f-, null) with at least one informative count.  The failure pair is
    informative only when the failure branch carries phase information."""
    return np.any(counts[..., : 4 if failure_informative else 2], axis=-1)


_INT64_MAX = np.iinfo(np.int64).max


def _counts(name: str, counts) -> np.ndarray:
    # the one rule for estimator counts: an integer dtype, each count in [0, 2**63),
    # so no count is rounded or read from a truth value; `_by_blocks` converts them
    # to int64 a block at a time, so none is wrapped by unsigned or narrow arithmetic
    counts = np.asarray(counts)
    if counts.dtype.kind not in "iu":
        raise ValueError(f"{name} must be integer counts, got dtype {counts.dtype}")
    if counts.dtype.kind == "u" and counts.size and counts.max() > _INT64_MAX:
        raise ValueError(f"{name} must be at most 2**63 - 1, got {counts.max()}")
    if counts.size and counts.min() < 0:
        raise ValueError(f"{name} must be nonnegative")
    return counts


# runs per block of the estimators: each of a block's temporaries stays below
# glibc's 128 KiB mmap threshold, so it reuses heap pages instead of faulting in new ones
_BLOCK_RUNS = 1 << 13


def _by_blocks(estimate, columns, shape, *args):
    # estimate(*columns, *args) a block of runs at a time, on the block's counts
    # as int64; a float for one run
    columns = [c.reshape(-1) for c in columns]
    theta = np.empty(columns[0].size)
    for lo in range(0, theta.size, _BLOCK_RUNS):
        block = slice(lo, lo + _BLOCK_RUNS)
        counts = (c[block].astype(np.int64, copy=False) for c in columns)
        theta[block] = estimate(*counts, *args)
    theta = theta.reshape(shape)
    return theta if theta.ndim else float(theta)


def _with_data(informative: np.ndarray) -> np.ndarray:
    if informative.min() < 1:
        raise NoDataError("no informative counts")
    return informative


def _direct(n_plus, n_minus, lam: float, total=None) -> np.ndarray:
    # total is n+ + n-, which without it must be at least 1 in every run; a zero
    # total yields 0 in place of 0/0, which callers select away
    if total is None:
        total = _with_data(n_plus + n_minus)
    return lam * (n_plus - n_minus) / np.maximum(total, 1)


def mle_direct(n_plus, n_minus, lam: float):
    """Maximum-likelihood phase estimate lam * (n+ - n-) / (n+ + n-).

    n_plus and n_minus are counts or broadcastable arrays of per-run counts; the
    result is a float or an array of per-run estimates, each computed in the scalar
    formula's operation order, on the counts converted to int64 a block of runs
    at a time.  Raises NoDataError if any run has n+ + n- = 0 and ValueError
    unless the counts are integers in [0, 2**63) (`_counts`: a bool or float
    count raises) or unless lam is a finite positive number; an empty array
    gives an empty result.
    """
    pair = np.broadcast_arrays(_counts("n_plus", n_plus), _counts("n_minus", n_minus))
    return _by_blocks(_direct, pair, pair[0].shape, as_positive("lam", lam))


def mle_nla(counts, lambda_s: float, lambda_f: float | None):
    """Combine the per-branch estimates with inverse-variance weights.

    theta_hat = (n_s lam_f^2 theta_s + n_f lam_s^2 theta_f) / (n_s lam_f^2 + n_f lam_s^2),
    which reduces to the surviving branch when the other saw no counts.  With a
    degenerate failure branch (lambda_f = None) the failure counts are ignored.

    counts is one run's (s+, s-, f+, f-, null) row, giving a float, or an array
    of such rows, giving an array of per-run estimates; the counts are converted
    to int64 a block of runs at a time.  Raises NoDataError if any
    run has no informative count (n_s = 0 with a degenerate failure branch, else
    n_s + n_f = 0) and ValueError unless the counts are integers in [0, 2**63)
    (`_counts`) and each lambda is a finite positive number.
    """
    lambda_s = as_positive("lambda_s", lambda_s)
    lambda_f = None if lambda_f is None else as_positive("lambda_f", lambda_f)
    counts = _counts("counts", counts)
    if counts.shape[-1:] != (5,):
        raise ValueError(f"count rows must hold 5 outcomes, got shape {counts.shape}")

    def estimate(s_plus, s_minus, f_plus, f_minus):
        if lambda_f is None:
            return _direct(s_plus, s_minus, lambda_s)
        n_s, n_f = s_plus + s_minus, f_plus + f_minus
        _with_data(n_s + n_f)
        theta_s = _direct(s_plus, s_minus, lambda_s, n_s)
        theta_f = _direct(f_plus, f_minus, lambda_f, n_f)
        w_s = n_s * lambda_f**2
        w_f = n_f * lambda_s**2
        combined = (w_s * theta_s + w_f * theta_f) / (w_s + w_f)
        return np.where(n_f == 0, theta_s, np.where(n_s == 0, theta_f, combined))

    return _by_blocks(estimate, (counts[..., i] for i in range(4)), counts.shape[:-1])
