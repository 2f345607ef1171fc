"""Tests for the library's integer and float checks and the float parameters that use them."""

import enum
import fractions
import math

import numpy as np
import pytest

from nlaphase import (
    CoherentParams,
    NlaParams,
    SimConfig,
    branch_breakdown,
    choose_cutoff,
    heralding_probabilities,
    qfi_coherent,
)
from nlaphase.cost import CostParams
from nlaphase.errors import as_float, as_int


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
            (math.inf, math.inf),
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

    def test_nan_passes_for_the_caller_to_judge(self):
        assert math.isnan(as_float("r", math.nan))

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
        stored = [coherent.r, coherent.theta, NlaParams(np.int64(2), 2).gain, config.r,
                  config.theta_true, config.gain, costs.x, costs.y, costs.z, costs.epsilon]
        assert [type(v) for v in stored] == [float] * len(stored)
        assert coherent == CoherentParams(0.5, 1.0)
        assert config == SimConfig(r=1.0, theta_true=0.01, gain=2.0)
