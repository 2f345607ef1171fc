"""Phase estimation of coherent states with a probabilistic noiseless linear amplifier.

Numerical workbench covering the heralded amplifier as a two-outcome measurement,
branch quantum Fisher information, the optimal local observable and its
maximum-likelihood estimators, seeded Monte Carlo precision experiments, and the
abstention cost model.
"""

__version__ = "0.2.0"

from . import errors
from .cost import (
    CostParams,
    StrategyReport,
    breakeven_y,
    cost_direct,
    cost_postselect,
    recommend_strategy,
)
from .estimator import (
    EstimatorObservable,
    build_observable,
    five_outcome_probs,
    mle_direct,
    mle_nla,
    outcome_probabilities,
)
from .fisher import (
    FisherBreakdown,
    binomial_tail,
    branch_breakdown,
    default_gain_grid,
    j_nla_conditional,
    min_ns_exceeding,
    qfi_coherent,
    qfi_pure,
    sweep_fraction,
    sweep_gain,
)
from .fock import (
    CoherentParams,
    FockVector,
    choose_cutoff,
    coherent_state,
    inner_product,
    phase_derivative,
)
from .kernels import active_backend, categorical_counts, derive_key
from .montecarlo import (
    PrecisionReport,
    SimConfig,
    precision_from_samples,
    simulate_direct,
    simulate_nla,
)
from .nla import (
    NlaParams,
    apply_branch,
    arm_weights,
    heralding_probabilities,
)

__all__ = [
    "__version__",
    "errors",
    "CoherentParams",
    "FockVector",
    "choose_cutoff",
    "coherent_state",
    "inner_product",
    "phase_derivative",
    "NlaParams",
    "arm_weights",
    "heralding_probabilities",
    "apply_branch",
    "FisherBreakdown",
    "qfi_pure",
    "qfi_coherent",
    "branch_breakdown",
    "j_nla_conditional",
    "min_ns_exceeding",
    "binomial_tail",
    "sweep_gain",
    "sweep_fraction",
    "default_gain_grid",
    "EstimatorObservable",
    "build_observable",
    "outcome_probabilities",
    "five_outcome_probs",
    "mle_direct",
    "mle_nla",
    "SimConfig",
    "PrecisionReport",
    "simulate_direct",
    "simulate_nla",
    "precision_from_samples",
    "CostParams",
    "StrategyReport",
    "cost_direct",
    "cost_postselect",
    "breakeven_y",
    "recommend_strategy",
    "active_backend",
    "categorical_counts",
    "derive_key",
]
