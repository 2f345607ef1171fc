"""Seeded finite-sample experiments: draw outcome counts, estimate, report precision.

Each experiment run draws one multinomial count vector (m trials over the outcome
distribution at theta_true), turns it into a phase estimate, and the ensemble of
runs yields the mean square error and the precision 1/(m * MSE).  Runs live on
independent counter-based sub-streams, so reports are bit-identical for a fixed
seed no matter how execution is ordered.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import kernels
from .errors import DegenerateObservableError
from .estimator import (
    _has_data,
    build_observable,
    five_outcome_probs,
    mle_direct,
    mle_nla,
    outcome_probabilities,
)
from .fock import CoherentParams, choose_cutoff, coherent_state, phase_derivative
from .nla import NlaParams, apply_branch

__all__ = [
    "SimConfig",
    "PrecisionReport",
    "simulate_direct",
    "simulate_nla",
    "precision_from_samples",
]

# stream indices hung off the experiment seed
_STREAM_DIRECT = 0
_STREAM_NLA = 1


@dataclass(frozen=True)
class SimConfig:
    """Complete, reproducible definition of one estimation experiment."""

    r: float = 0.25
    theta_true: float = 0.01
    gain: float = 2.0
    n0: int = 2
    m: int = 1000
    runs: int = 100_000
    seed: int = 0

    def __post_init__(self):
        # the amplitude, phase, gain and n0 checks of the parameter types
        CoherentParams(self.r, self.theta_true)
        NlaParams(self.gain, self.n0)
        if self.m < 1:
            raise ValueError(f"m must be >= 1, got {self.m}")
        if self.runs < 1:
            raise ValueError(f"runs must be >= 1, got {self.runs}")
        if not 0 <= self.seed < 1 << 64:
            raise ValueError(f"seed must be a 64-bit unsigned integer, got {self.seed}")


@dataclass(frozen=True)
class PrecisionReport:
    """MSE, precision 1/(m*MSE), its Monte Carlo standard error, and how many runs
    actually contributed an estimate."""

    mse: float
    precision: float
    stderr_precision: float
    runs_used: int


def precision_from_samples(estimates, theta_true: float, m: int) -> PrecisionReport:
    """Precision report from a batch of estimates against the true phase.

    MSE is the plain mean of squared errors (bias included); the standard error of
    the precision follows from the sample variance of the squared errors through
    the delta method.  A zero MSE yields the infinite-precision sentinel.
    """
    est = np.asarray(estimates, dtype=np.float64)
    if est.size < 1:
        raise ValueError("need at least one estimate")
    sq = (est - theta_true) ** 2
    mse = float(np.mean(sq))
    if mse == 0.0:
        return PrecisionReport(0.0, math.inf, math.nan, est.size)
    precision = 1.0 / (m * mse)
    if est.size > 1:
        se_mse = float(np.std(sq, ddof=1)) / math.sqrt(est.size)
        stderr = precision * se_mse / mse
    else:
        stderr = math.nan
    return PrecisionReport(mse, precision, stderr, est.size)


def _direct_setup(config: SimConfig):
    """Observable and outcome distribution of the plain (no amplifier) experiment."""
    cutoff = choose_cutoff(CoherentParams(config.r, 0.0), 1, 1.0)
    psi0 = coherent_state(CoherentParams(config.r, 0.0), cutoff)
    obs = build_observable(psi0, phase_derivative(psi0))
    probed = coherent_state(CoherentParams(config.r, config.theta_true), cutoff)
    return obs, outcome_probabilities(obs, probed)


def simulate_direct(config: SimConfig) -> PrecisionReport:
    """Monte Carlo precision of the plain three-outcome experiment at theta_true."""
    obs, probs = _direct_setup(config)
    key = kernels.derive_key(config.seed, _STREAM_DIRECT)
    counts = kernels.categorical_counts(key, 0, config.runs, config.m, probs)
    counts = counts[_has_data(counts)]  # dropped runs show in runs_used
    estimates = mle_direct(counts[:, 0], counts[:, 1], obs.lam)
    return precision_from_samples(estimates, config.theta_true, config.m)


def _nla_setup(config: SimConfig):
    """Branch observables and the five-outcome distribution of the heralded experiment."""
    params = NlaParams(config.gain, config.n0)
    input0 = CoherentParams(config.r, 0.0)
    cutoff = choose_cutoff(input0, params.n0, params.gain)

    succ, fail = apply_branch(input0, params, cutoff)
    obs_s = build_observable(succ, phase_derivative(succ))

    obs_f = None
    if fail is not None:
        try:
            obs_f = build_observable(fail, phase_derivative(fail))
        except DegenerateObservableError:
            obs_f = None  # n0 = 1: a vacuum failure state holds no phase

    probed = CoherentParams(config.r, config.theta_true)
    return obs_s, obs_f, five_outcome_probs(probed, params, obs_s, obs_f)


def simulate_nla(config: SimConfig) -> PrecisionReport:
    """Monte Carlo precision of the heralded five-outcome experiment at theta_true."""
    obs_s, obs_f, probs = _nla_setup(config)
    lam_f = None if obs_f is None else obs_f.lam
    key = kernels.derive_key(config.seed, _STREAM_NLA)
    counts = kernels.categorical_counts(key, 0, config.runs, config.m, probs)
    counts = counts[_has_data(counts, lam_f is not None)]  # dropped runs show in runs_used
    return precision_from_samples(mle_nla(counts, obs_s.lam, lam_f), config.theta_true, config.m)
