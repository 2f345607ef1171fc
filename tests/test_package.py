"""Tests for the package's public names: each module's `__all__` is the only list."""

import importlib

import nlaphase

PUBLIC = [
    "__version__", "errors",
    "CoherentParams", "FockVector", "choose_cutoff", "coherent_state", "inner_product",
    "phase_derivative",
    "NlaParams", "arm_weights", "heralding_probabilities", "apply_branch",
    "FisherBreakdown", "qfi_pure", "qfi_coherent", "branch_breakdown", "j_nla_conditional",
    "min_ns_exceeding", "binomial_tail", "sweep_gain", "sweep_fraction", "default_gain_grid",
    "EstimatorObservable", "build_observable", "outcome_probabilities", "five_outcome_probs",
    "mle_direct", "mle_nla",
    "SimConfig", "PrecisionReport", "simulate_direct", "simulate_nla", "precision_from_samples",
    "CostParams", "StrategyReport", "cost_direct", "cost_postselect", "breakeven_y",
    "recommend_strategy",
    "categorical_counts", "derive_key",
]
MODULES = ["fock", "nla", "fisher", "estimator", "montecarlo", "cost", "kernels"]


def test_the_41_public_names():
    assert len(PUBLIC) == len(set(PUBLIC)) == 41
    assert nlaphase.__all__ == PUBLIC


def test_each_name_resolves_to_its_modules_object():
    assert isinstance(nlaphase.__version__, str) and nlaphase.errors.__name__ == "nlaphase.errors"
    declared = []
    for name in MODULES:
        module = importlib.import_module(f"nlaphase.{name}")
        for public in module.__all__:
            assert getattr(nlaphase, public) is getattr(module, public), public
        declared += module.__all__
    assert ["__version__", "errors", *declared] == PUBLIC

