"""Tests for the library's argument rules and the arguments that use them."""

import enum
import fractions
import math
from dataclasses import fields, replace

import numpy as np
import pytest

from nlaphase import (
    CoherentParams,
    CostParams,
    FisherBreakdown,
    NlaParams,
    SimConfig,
    apply_branch,
    arm_weights,
    binomial_tail,
    branch_breakdown,
    breakeven_y,
    categorical_counts,
    choose_cutoff,
    coherent_state,
    cost_direct,
    cost_postselect,
    derive_key,
    heralding_probabilities,
    j_nla_conditional,
    min_ns_exceeding,
    mle_direct,
    mle_nla,
    precision_from_samples,
    qfi_coherent,
    sweep_fraction,
    sweep_gain,
)
from nlaphase.errors import as_float, as_int, as_seed


class TestAsInt:
    @pytest.mark.parametrize("value", [0, 7, -3, 10**30, np.int64(5), np.uint8(7), enum.IntEnum("E", "A").A])
    def test_integers_pass_as_ints(self, value):
        got = as_int("m", value)
        assert type(got) is int and got == value

    def test_python_ints_return_themselves(self):
        big = 10**30
        assert as_int("m", big) is big and as_int("m", big, minimum=1) is big

    @pytest.mark.parametrize("value", [True, False, np.True_, 2.0, 2.5, np.float64(3.0), "3", None, 1j])
    def test_bools_floats_and_other_values_refused(self, value):
        with pytest.raises(ValueError, match=r"^m must be an integer, got "):
            as_int("m", value)

    @pytest.mark.parametrize("value", [0, -1, np.int64(0)])
    def test_minimum(self, value):
        with pytest.raises(ValueError, match=r"^m must be an integer >= 1, got "):
            as_int("m", value, minimum=1)
        assert as_int("m", value, minimum=value) == value

    def test_unnamed_message_starts_at_must_be(self):
        with pytest.raises(ValueError, match=r"^must be an integer, got True$"):
            as_int(None, True)


class TestAsFloat:
    @pytest.mark.parametrize(
        "value, want",
        [
            (0.25, 0.25),
            (2, 2.0),
            (-0.0, -0.0),
            (1e308, 1e308),
            (np.float64(0.1), 0.1),
            (np.float32(0.5), 0.5),
            (np.int64(3), 3.0),
            (np.uint8(7), 7.0),
            (fractions.Fraction(1, 4), 0.25),
        ],
    )
    def test_real_numbers_pass_as_floats(self, value, want):
        got = as_float("r", value)
        assert type(got) is float and got == want
        assert math.copysign(1.0, got) == math.copysign(1.0, want)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, np.float32(math.nan)])
    def test_nan_and_infinities_refused(self, value):
        with pytest.raises(ValueError, match=r"^r must be a finite number, got "):
            as_float("r", value)

    @pytest.mark.parametrize(
        "value", [True, False, np.True_, np.False_, 1 + 0j, np.complex128(1), "0.25", None, [0.25]]
    )
    def test_bools_and_non_real_values_refused(self, value):
        with pytest.raises(ValueError, match=r"^gain must be a number, got "):
            as_float("gain", value)

    def test_unnamed_message_starts_at_must_be(self):
        with pytest.raises(ValueError, match=r"^must be a number, got True$"):
            as_float(None, True)

    def test_integer_beyond_doubles_refused(self):
        with pytest.raises(ValueError, match=r"^r must be a number a double can hold"):
            as_float("r", 10**400)

    @pytest.mark.parametrize("value", [0.5, -1, np.float32(0.5), -math.inf])
    def test_minimum(self, value):
        with pytest.raises(ValueError, match=r"^gain must be a finite number >= 1, got "):
            as_float("gain", value, minimum=1)
        assert as_float("gain", 1, minimum=1) == 1.0 and as_float("r", -0.0, minimum=0) == 0.0


class TestAsSeed:
    @pytest.mark.parametrize("value", [0, 4, 2**64 - 1, np.uint64(2**64 - 1), np.int8(3)])
    def test_64_bit_unsigned_integers_pass(self, value):
        got = as_seed("seed", value)
        assert type(got) is int and got == value

    @pytest.mark.parametrize(
        "value, rule",
        [(-1, "an integer >= 0"), (True, "an integer >= 0"), (4.0, "an integer >= 0"),
         (2**64, "a 64-bit unsigned integer"), (10**30, "a 64-bit unsigned integer")],
    )
    def test_refused(self, value, rule):
        with pytest.raises(ValueError, match=rf"^seed must be {rule}, got "):
            as_seed("seed", value)
        with pytest.raises(ValueError, match=rf"^must be {rule}, got "):
            as_seed(None, value)


class TestFloatParameters:
    """Every float parameter of the library refuses a bool instead of reading it as 0 or 1:
    `branch_breakdown(True, ...)` once returned the r = 1 figures."""

    @pytest.mark.parametrize(
        "build",
        [
            lambda b: CoherentParams(b),
            lambda b: CoherentParams(0.25, b),
            lambda b: NlaParams(b, 2),
            lambda b: SimConfig(r=b),
            lambda b: SimConfig(theta_true=b),
            lambda b: SimConfig(gain=b),
            lambda b: branch_breakdown(b, NlaParams(2.0, 2)),
            lambda b: qfi_coherent(b),
            lambda b: heralding_probabilities(b, NlaParams(2.0, 2)),
            lambda b: choose_cutoff(CoherentParams(0.25), 2, b),
            lambda b: CostParams(b, 0.0, 1.0, 1.0),
            lambda b: CostParams(1.0, 0.0, 1.0, b),
        ],
    )
    @pytest.mark.parametrize("flag", [True, np.True_])
    def test_bools_refused(self, build, flag):
        with pytest.raises(ValueError, match="must be a number, got"):
            build(flag)

    def test_stored_as_floats(self):
        coherent = CoherentParams(np.float32(0.5), np.int64(1))
        config = SimConfig(r=1, theta_true=np.float64(0.01), gain=np.int64(2))
        costs = CostParams(1, np.int64(0), 1, fractions.Fraction(1, 2))
        breakdown = FisherBreakdown(np.float64(1.0), 2, np.float32(0.5), 4, np.int64(1), 0)
        stored = [coherent.r, coherent.theta, NlaParams(np.int64(2), 2).gain, config.r,
                  config.theta_true, config.gain, costs.x, costs.y, costs.z, costs.epsilon,
                  *(getattr(breakdown, f.name) for f in fields(breakdown))]
        assert [type(v) for v in stored] == [float] * len(stored)
        assert coherent == CoherentParams(0.5, 1.0)
        assert config == SimConfig(r=1.0, theta_true=0.01, gain=2.0)


BREAKDOWN = FisherBreakdown(j_alpha=0.25, j_s=0.5, j_f=0.1, j_ideal=1.0, p_s=0.5, p_f=0.5)
COSTS = CostParams(1.0, 0.0, 1.0, 1.0)
# (case, the argument's name, a value below its minimum or None, the call that takes it)
ARGUMENTS = [
    ("CoherentParams.r", "r", -0.5, lambda v: CoherentParams(v)),
    ("CoherentParams.theta", "theta", None, lambda v: CoherentParams(0.25, v)),
    ("NlaParams.gain", "gain", 0.5, lambda v: NlaParams(v, 2)),
    ("NlaParams.n0", "n0", 0, lambda v: NlaParams(2.0, v)),
    ("choose_cutoff.nla_n0", "nla_n0", 0, lambda v: choose_cutoff(CoherentParams(0.25), v, 2.0)),
    ("choose_cutoff.gain", "gain", 0.5, lambda v: choose_cutoff(CoherentParams(0.25), 2, v)),
    ("coherent_state.cutoff", "cutoff", -1, lambda v: coherent_state(CoherentParams(0.25), v)),
    ("arm_weights.cutoff", "cutoff", 1, lambda v: arm_weights(NlaParams(2.0, 2), v)),
    ("apply_branch.cutoff", "cutoff", 1,
     lambda v: apply_branch(CoherentParams(0.25), NlaParams(2.0, 2), v)),
    ("heralding_probabilities.r", "r", -0.5,
     lambda v: heralding_probabilities(v, NlaParams(2.0, 2))),
    ("qfi_coherent.r", "r", -0.5, lambda v: qfi_coherent(v)),
    ("branch_breakdown.r", "r", -0.5, lambda v: branch_breakdown(v, NlaParams(2.0, 2))),
    *[
        (f"FisherBreakdown.{name}", name, -1.0, lambda v, name=name: replace(BREAKDOWN, **{name: v}))
        for name in ("j_alpha", "j_s", "j_f", "j_ideal", "p_s", "p_f")
    ],
    ("j_nla_conditional.n_s", "n_s", -1, lambda v: j_nla_conditional(v, 3, BREAKDOWN)),
    ("j_nla_conditional.n_f", "n_f", -1, lambda v: j_nla_conditional(3, v, BREAKDOWN)),
    ("j_nla_conditional.j_s", "j_s", -1.0,
     lambda v: j_nla_conditional(3, 1, replace(BREAKDOWN, j_s=v))),
    ("j_nla_conditional.j_f", "j_f", -1.0,
     lambda v: j_nla_conditional(3, 1, replace(BREAKDOWN, j_f=v))),
    ("min_ns_exceeding.m", "m", 0, lambda v: min_ns_exceeding(v, BREAKDOWN)),
    ("min_ns_exceeding.j_alpha", "j_alpha", -1.0,
     lambda v: min_ns_exceeding(100, replace(BREAKDOWN, j_alpha=v))),
    ("min_ns_exceeding.j_s", "j_s", -1.0,
     lambda v: min_ns_exceeding(100, replace(BREAKDOWN, j_s=v))),
    ("min_ns_exceeding.j_f", "j_f", -1.0,
     lambda v: min_ns_exceeding(100, replace(BREAKDOWN, j_f=v))),
    ("binomial_tail.m", "m", -1, lambda v: binomial_tail(v, 0.5, 0)),
    ("binomial_tail.p", "p", -0.1, lambda v: binomial_tail(10, v, 3)),
    ("sweep_gain.r", "r", -0.5, lambda v: sweep_gain(v, [1], gains=[2.0])),
    ("sweep_gain.n0", "n0", 0, lambda v: sweep_gain(0.25, [v], gains=[2.0])),
    ("sweep_gain.gain", "gain", 0.5, lambda v: sweep_gain(0.25, [1], gains=[v, 2.0])),
    ("sweep_fraction.m", "m", 0, lambda v: sweep_fraction(v, BREAKDOWN)),
    ("SimConfig.r", "r", -0.5, lambda v: SimConfig(r=v)),
    ("SimConfig.theta_true", "theta_true", None, lambda v: SimConfig(theta_true=v)),
    ("SimConfig.gain", "gain", 0.5, lambda v: SimConfig(gain=v)),
    ("SimConfig.n0", "n0", 0, lambda v: SimConfig(n0=v)),
    ("SimConfig.m", "m", 0, lambda v: SimConfig(m=v)),
    ("SimConfig.runs", "runs", 0, lambda v: SimConfig(runs=v)),
    ("SimConfig.seed", "seed", -1, lambda v: SimConfig(seed=v)),
    ("precision_from_samples.theta_true", "theta_true", None,
     lambda v: precision_from_samples([0.1, 0.2], v, 5)),
    ("precision_from_samples.m", "m", 0, lambda v: precision_from_samples([0.1, 0.2], 0.0, v)),
    ("derive_key.seed", "seed", -1, lambda v: derive_key(v, 0)),
    ("derive_key.stream_index", "stream_index", -1, lambda v: derive_key(4, v)),
    ("categorical_counts.key", "key", -1, lambda v: categorical_counts(v, 0, 2, 5, [0.5, 0.5])),
    ("categorical_counts.run0", "run0", -1, lambda v: categorical_counts(1, v, 2, 5, [0.5, 0.5])),
    ("categorical_counts.runs", "runs", -1, lambda v: categorical_counts(1, 0, v, 5, [0.5, 0.5])),
    ("categorical_counts.m", "m", 0, lambda v: categorical_counts(1, 0, 2, v, [0.5, 0.5])),
    ("mle_direct.lam", "lam", 0.0, lambda v: mle_direct(5, 3, v)),
    ("mle_nla.lambda_s", "lambda_s", 0.0, lambda v: mle_nla([3, 1, 2, 2, 0], v, 1.0)),
    ("mle_nla.lambda_f", "lambda_f", 0.0, lambda v: mle_nla([3, 1, 2, 2, 0], 1.0, v)),
    ("CostParams.x", "x", -1.0, lambda v: CostParams(v, 0.0, 1.0, 1.0)),
    ("CostParams.y", "y", -1.0, lambda v: CostParams(1.0, v, 1.0, 1.0)),
    ("CostParams.z", "z", -1.0, lambda v: CostParams(1.0, 0.0, v, 1.0)),
    ("CostParams.epsilon", "epsilon", 0.0, lambda v: CostParams(1.0, 0.0, 1.0, v)),
    ("cost_direct.j_alpha", "j_alpha", 0.0, lambda v: cost_direct(COSTS, v)),
    ("cost_postselect.j_s", "j_s", 0.0, lambda v: cost_postselect(COSTS, v, 0.5)),
    ("cost_postselect.p_s", "p_s", 0.0, lambda v: cost_postselect(COSTS, 8.0, v)),
    ("breakeven_y.x", "x", -5, lambda v: breakeven_y(v, 1, 4.0, 8.0, 0.5)),
    ("breakeven_y.z", "z", -1, lambda v: breakeven_y(1, v, 4.0, 8.0, 0.5)),
    ("breakeven_y.j_alpha", "j_alpha", 0.0, lambda v: breakeven_y(1, 1, v, 8.0, 0.5)),
    ("breakeven_y.j_s", "j_s", None, lambda v: breakeven_y(1, 1, 4.0, v, 0.5)),
    ("breakeven_y.p_s", "p_s", 0.0, lambda v: breakeven_y(1, 1, 4.0, 8.0, v)),
]
BAD = {"nan": math.nan, "inf": math.inf, "-inf": -math.inf, "bool": True, "text": "2"}


@pytest.mark.parametrize(
    "name, call, value",
    [
        pytest.param(name, call, value, id=f"{case}-{kind}")
        for case, name, below, call in ARGUMENTS
        for kind, value in [*BAD.items(), ("below", below)]
        if value is not None
    ],
)
def test_every_argument_refuses_what_its_rule_refuses(name, call, value):
    """A NaN, an infinity, a bool, a string or a value below the minimum raises a
    ValueError that names the argument, instead of giving a silently wrong number:
    `cost_direct(costs, nan)` once returned nan and `binomial_tail(10, True, 3)` 1.0."""
    with pytest.raises(ValueError, match=rf"^{name} must "):
        call(value)


@pytest.mark.parametrize("name", ["p_s", "p_f"])
def test_breakdown_probabilities_above_one_refused(name):
    with pytest.raises(ValueError, match=rf"^{name} must lie in \[0, 1\], got 1.5$"):
        replace(BREAKDOWN, **{name: 1.5})
    assert getattr(replace(BREAKDOWN, **{name: 1.0}), name) == 1.0
