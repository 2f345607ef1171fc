"""Tests for the amplifier measurement pair and branch projections."""

import math
import sys
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nlaphase import (
    CoherentParams,
    FockVector,
    NlaParams,
    apply_branch,
    arm_weights,
    choose_cutoff,
    coherent_state,
    default_gain_grid,
    heralding_probabilities,
    phase_derivative,
)

import oracle

# frozen from the high-precision series oracle (r=0.25, g=2, n0=2)
P_S_PAPER_POINT = 0.075265266292984773
P_F_PAPER_POINT = 0.924734733707015227

GRID_R = [0.0, 0.1, 0.25, 0.5, 1.0, 1.5]
GRID_G = [1.0, 1.5, 2.0, 4.0, 8.0]
GRID_N0 = [1, 2, 3, 4, 5]


class TestOperators:
    def test_identity_gain_success(self):
        op, _ = arm_weights(NlaParams(1.0, 2), 4)
        np.testing.assert_array_equal(op, np.ones(5))

    def test_paper_weights(self):
        op, _ = arm_weights(NlaParams(2.0, 2), 4)
        np.testing.assert_allclose(op, [0.25, 0.5, 1.0, 1.0, 1.0], atol=0)

    def test_success_weight_at_n0_is_one(self):
        for g in GRID_G:
            assert arm_weights(NlaParams(g, 3), 6)[0][3] == 1.0

    def test_identity_gain_failure_is_zero(self):
        _, op = arm_weights(NlaParams(1.0, 2), 4)
        np.testing.assert_array_equal(op, np.zeros(5))

    def test_failure_weights_by_substitution(self):
        _, op = arm_weights(NlaParams(2.0, 2), 4)
        np.testing.assert_allclose(
            op, [math.sqrt(15) / 4, math.sqrt(3) / 2, 0.0, 0.0, 0.0], atol=1e-15
        )

    def test_failure_weight_at_n0_is_zero(self):
        for g in GRID_G:
            assert arm_weights(NlaParams(g, 3), 6)[1][3] == 0.0

    @pytest.mark.parametrize("n0", [0, 2.5, 2.0, True])
    def test_non_integer_n0_rejected(self, n0):
        with pytest.raises(ValueError, match=f"n0 must be an integer >= 1, got {n0!r}"):
            NlaParams(2.0, n0)

    @pytest.mark.parametrize("integer", [np.int64, np.uint8])
    def test_numpy_integer_n0_stored_as_int(self, integer):
        params = NlaParams(2.0, integer(2))
        assert type(params.n0) is int and params == NlaParams(2.0, 2)

    def test_cutoff_below_n0_rejected(self):
        with pytest.raises(ValueError):
            arm_weights(NlaParams(2.0, 3), 2)

    @pytest.mark.parametrize("g", [1.0, 1.0 + 2.0**-52, 1.5, 2.0, 8.0, 16.0, 1e100, 1e200])
    @pytest.mark.parametrize("n0", [1, 2, 7, 900])
    def test_weights_equal_whole_array_formula(self, g, n0):
        # the weights are computed on the head 0..n0 only; every level must be the
        # double the formula over all levels gives
        params = NlaParams(g, n0)
        for cutoff in (n0, n0 + 1, n0 + 3, 20000):
            got, again = arm_weights(params, cutoff), arm_weights(params, cutoff)
            for w, want in zip(got, oracle.arm_weights(params, cutoff)):
                assert w.dtype == np.float64 and w.shape == (cutoff + 1,)
                assert w.flags.writeable
                assert [v.hex() for v in w.tolist()] == [v.hex() for v in want.tolist()]
            arrays = got + again
            for i, a in enumerate(arrays):
                for b in arrays[i + 1:]:
                    assert not np.shares_memory(a, b)

    @pytest.mark.parametrize("g", GRID_G)
    @pytest.mark.parametrize("n0", GRID_N0)
    def test_completeness(self, g, n0):
        params = NlaParams(g, n0)
        es, ef = arm_weights(params, n0 + 4)
        np.testing.assert_allclose(es**2 + ef**2, np.ones(n0 + 5), atol=1e-14)


class TestProbabilities:
    def test_identity_gain(self):
        p_s, p_f = heralding_probabilities(0.7, NlaParams(1.0, 3))
        assert p_s == pytest.approx(1.0, abs=1e-15)
        assert p_f == 0.0

    def test_paper_point_against_series_oracle(self):
        p_s, p_f = heralding_probabilities(0.25, NlaParams(2.0, 2))
        assert p_s == pytest.approx(P_S_PAPER_POINT, abs=1e-12)
        assert p_s == pytest.approx(oracle.heralding_probabilities_mp(0.25, 2, 2)[0], abs=1e-12)
        assert p_f == pytest.approx(P_F_PAPER_POINT, abs=1e-12)

    def test_vacuum_input(self):
        # only the n = 0 term survives at r = 0
        p_s, p_f = heralding_probabilities(0.0, NlaParams(2.0, 2))
        assert p_s == pytest.approx(1 / 16, abs=1e-15)
        assert p_f == pytest.approx(15 / 16, abs=1e-15)

    @pytest.mark.parametrize("r", GRID_R)
    @pytest.mark.parametrize("g", GRID_G)
    @pytest.mark.parametrize("n0", GRID_N0)
    def test_sum_to_one(self, r, g, n0):
        p_s, p_f = heralding_probabilities(r, NlaParams(g, n0))
        assert abs(p_s + p_f - 1.0) < 1e-12

    @pytest.mark.parametrize("n0", [1, 2, 3])
    def test_monotone_in_gain(self, n0):
        gains = np.linspace(1.0, 8.0, 30)
        ps, pf = zip(*(heralding_probabilities(0.25, NlaParams(g, n0)) for g in gains))
        assert all(a >= b - 1e-15 for a, b in zip(ps, ps[1:]))
        assert all(a <= b + 1e-15 for a, b in zip(pf, pf[1:]))

    @pytest.mark.parametrize("r", [0.1, 0.25, 0.5, 1.0])
    @pytest.mark.parametrize("g", [1.5, 2.0, 4.0])
    def test_closed_form_matches_truncated_norm(self, r, g):
        # tr(rho E_s^2) evaluated numerically in the truncated basis
        n0 = 2
        cutoff = choose_cutoff(CoherentParams(r), n0, g)
        alpha = coherent_state(CoherentParams(r), cutoff)
        projected = FockVector(arm_weights(NlaParams(g, n0), cutoff)[0] * alpha.amplitudes)
        assert abs(projected.norm_sq - heralding_probabilities(r, NlaParams(g, n0))[0]) < 1e-12

    def test_theta_independence(self):
        n0, g, r = 2, 2.0, 0.25
        cutoff = choose_cutoff(CoherentParams(r), n0, g)
        op, _ = arm_weights(NlaParams(g, n0), cutoff)
        n0_norm = FockVector(op * coherent_state(CoherentParams(r, 0.0), cutoff).amplitudes).norm_sq
        n1_norm = FockVector(op * coherent_state(CoherentParams(r, 1.0), cutoff).amplitudes).norm_sq
        assert abs(n0_norm - n1_norm) < 1e-14

    @pytest.mark.parametrize("r", [30.0, 1e78, 1e80, 1e155, 1e300])
    @pytest.mark.parametrize("g, n0", [(1.0, 1), (2.0, 2), (8.0, 6), (1.5, 40)])
    def test_large_amplitude_heralds_success(self, r, g, n0):
        # e^{-r^2} is 0.0 here; from r near 1e78 a head term r^{2n}/n! overflows too
        assert heralding_probabilities(r, NlaParams(g, n0)) == (1.0, 0.0)

    @pytest.mark.parametrize(
        "r, g, n0",
        [(16.0, 8.0, 256), (22.0, 2.0, 540), (1.0, 8.0, 200), (28.0, 1.5, 900), (27.0, 2.0, 800)],
    )
    def test_starting_factor_out_of_range_against_oracle(self, r, g, n0):
        # e^{-r^2} or g^{-2 n0} is not a normal double here: the running-term loop
        # lost the head sum (p_s = 0.4834 for 0.5087 at the first point), went
        # negative, or turned into nan and inf
        exact_s, exact_f = oracle.heralding_probabilities_mp(r, g, n0)
        p_s, p_f = heralding_probabilities(r, NlaParams(g, n0))
        assert p_s == pytest.approx(exact_s, rel=1e-11, abs=1e-300)
        assert p_f == pytest.approx(exact_f, rel=1e-11, abs=1e-300)

    def test_gain_too_large_to_square(self):
        # g^2 overflows a double; g^{-2 n0} is then 0.0 and the scaled path runs
        exact_s, exact_f = oracle.heralding_probabilities_mp(0.5, 1e200, 2)
        p_s, p_f = heralding_probabilities(0.5, NlaParams(1e200, 2))
        assert p_s == pytest.approx(exact_s, rel=1e-14)
        assert p_f == pytest.approx(exact_f, rel=1e-14)

    def test_loop_doubles_kept_where_its_factors_are_normal(self):
        # every point the benchmark evaluates (r <= 16, n0 <= 6) and a wider grid
        # of points whose e^{-r^2} and g^{-2 n0} are normal doubles.  The loop's
        # doubles are kept where its p_s is at least 2**-16, which covers every
        # benchmark point; below, the scaled path runs
        points = [(r, float(g), n0) for r in (0.25, 16.0) for g in default_gain_grid() for n0 in range(1, 7)]
        points += [
            (r, g, n0)
            for r in (0.0, 0.1, 0.5, 1.0, 2.0, 5.0, 10.0, 20.0, 26.0)
            for g in (1.0, 1.5, 2.0, 4.0, 8.0)
            for n0 in (1, 2, 3, 6, 10, 40, 100)
            if math.exp(-r * r) >= sys.float_info.min and g ** (-2 * n0) >= sys.float_info.min
        ]
        for r, g, n0 in points:
            want = oracle.heralding_probabilities(r, g, n0)
            got = heralding_probabilities(r, NlaParams(g, n0))
            if want[0] >= 2**-16:
                assert [p.hex() for p in got] == [p.hex() for p in want], (r, g, n0)
            else:
                exact = oracle.heralding_probabilities_mp(r, g, n0)
                assert got == pytest.approx(exact, rel=1e-11, abs=0), (r, g, n0)

    @pytest.mark.parametrize(
        "r, g, n0, loop_rel_error",
        [(0.1, 16.0, 7, 1.26), (0.1, 16.0, 5, 2.4e-5), (0.1, 8.0, 6, 8.2e-6), (0.25, 8.0, 6, 2.4e-7)],
    )
    def test_small_success_probability_against_oracle(self, r, g, n0, loop_rel_error):
        # the loop's 1 - e^{-r^2} * sum cancels here, with the relative error in p_s
        # given; at the first point it gives 0.0 for 1.7687e-16
        exact_s, exact_f = oracle.heralding_probabilities_mp(r, g, n0)
        loop_s = oracle.heralding_probabilities(r, g, n0)[0]
        assert abs(loop_s - exact_s) / exact_s == pytest.approx(loop_rel_error, rel=0.05)
        p_s, p_f = heralding_probabilities(r, NlaParams(g, n0))
        assert p_s == pytest.approx(exact_s, rel=1e-14, abs=0)
        assert p_f == pytest.approx(exact_f, rel=1e-14, abs=0)

    def test_relative_error_on_a_small_amplitude_grid(self):
        # the loop above 2**-16 and the scaled path below stay within 2e-11 of p_s
        for r, g, n0 in product((0.0, 0.1, 0.25, 0.5, 1.0, 2.0), (1.0, 2.0, 16.0, 1e4), (1, 2, 5, 8, 12)):
            exact_s, exact_f = oracle.heralding_probabilities_mp(r, g, n0)
            p_s, p_f = heralding_probabilities(r, NlaParams(g, n0))
            assert p_s == pytest.approx(exact_s, rel=2e-11, abs=0), (r, g, n0)
            assert p_f == pytest.approx(exact_f, rel=2e-11, abs=1e-300), (r, g, n0)

    @settings(max_examples=300, deadline=None)
    @given(
        st.floats(min_value=0.0, max_value=40.0),
        st.floats(min_value=1.0, max_value=8.0),
        st.integers(min_value=1, max_value=1000),
    )
    def test_probabilities_in_range_and_complete(self, r, g, n0):
        p_s, p_f = heralding_probabilities(r, NlaParams(g, n0))
        assert 0.0 <= p_s <= 1.0 and 0.0 <= p_f <= 1.0
        assert abs(p_s + p_f - 1.0) <= 1e-12

    @settings(max_examples=25, deadline=None)
    @given(
        st.floats(min_value=0.0, max_value=40.0),
        st.floats(min_value=1.0, max_value=8.0),
        st.integers(min_value=1, max_value=1000),
    )
    def test_probabilities_match_oracle(self, r, g, n0):
        exact_s, exact_f = oracle.heralding_probabilities_mp(r, g, n0)
        p_s, p_f = heralding_probabilities(r, NlaParams(g, n0))
        assert p_s == pytest.approx(exact_s, rel=1e-10, abs=1e-12)
        assert p_f == pytest.approx(exact_f, rel=1e-10, abs=1e-12)

    def test_invalid_r(self):
        # -1e80 and inf also have e^{-r^2} = 0.0, which must not pass for a large r
        for r in (-0.1, -1e80, math.nan, math.inf):
            with pytest.raises(ValueError):
                heralding_probabilities(r, NlaParams(2.0, 2))


class TestApplyBranch:
    def test_identity_gain_success_is_input(self):
        cutoff = choose_cutoff(CoherentParams(0.25), 2, 1.0)
        out, _ = apply_branch(CoherentParams(0.25), NlaParams(1.0, 2), cutoff)
        expected = coherent_state(CoherentParams(0.25), cutoff)
        np.testing.assert_array_equal(out.amplitudes, expected.amplitudes)
        assert heralding_probabilities(0.25, NlaParams(1.0, 2))[0] == pytest.approx(1.0, abs=1e-15)

    @pytest.mark.parametrize("g", [1.5, 2.0, 4.0])
    def test_failure_with_n0_one_is_vacuum(self, g):
        # the single surviving level n = 0 makes the failure output exactly vacuum
        cutoff = choose_cutoff(CoherentParams(0.25), 1, g)
        _, out = apply_branch(CoherentParams(0.25), NlaParams(g, 1), cutoff)
        expected = np.zeros(cutoff + 1)
        expected[0] = 1.0
        np.testing.assert_allclose(out.amplitudes, expected, atol=1e-15)

    def test_success_state_normalized(self):
        cutoff = choose_cutoff(CoherentParams(0.25), 2, 2.0)
        out, _ = apply_branch(CoherentParams(0.25), NlaParams(2.0, 2), cutoff)
        assert abs(out.norm_sq - 1.0) < 1e-10

    @pytest.mark.parametrize("r, g, n0", [(0.1, 16.0, 5), (0.1, 8.0, 6), (0.25, 8.0, 6), (0.1, 16.0, 7)])
    def test_success_state_normalized_at_small_success_probability(self, r, g, n0):
        # normalized by the loop's cancelled p_s, norm_sq - 1 would be 2.4e-5, 8.2e-6 and
        # 2.4e-7 on the first three points, and p_s = 0.0 at the last
        cutoff = choose_cutoff(CoherentParams(r), n0, g)
        out, _ = apply_branch(CoherentParams(r), NlaParams(g, n0), cutoff)
        assert abs(out.norm_sq - 1.0) < 1e-14

    @pytest.mark.parametrize("cutoff", [True, 10.0, 10.5])
    def test_cutoff_that_is_not_an_integer_rejected(self, cutoff):
        params = NlaParams(2.0, 1)
        with pytest.raises(ValueError, match="cutoff must be an integer"):
            arm_weights(params, cutoff)
        with pytest.raises(ValueError, match="cutoff must be an integer"):
            apply_branch(CoherentParams(0.25), params, cutoff)

    def test_numpy_integer_cutoff_accepted(self):
        params, input = NlaParams(2.0, 2), CoherentParams(0.25)
        for got, want in zip(arm_weights(params, np.int64(10)), arm_weights(params, 10)):
            assert got.tobytes() == want.tobytes()
        for got, want in zip(apply_branch(input, params, np.int64(10)), apply_branch(input, params, 10)):
            assert got.amplitudes.tobytes() == want.amplitudes.tobytes()

    def test_degenerate_failure_branch_is_none(self):
        assert apply_branch(CoherentParams(0.25), NlaParams(1.0, 2), 6)[1] is None

    def test_unrepresentable_amplitude_rejected_before_the_weights(self):
        # cutoff 1 < n0 would fail in the weights; coherent_state must refuse r = 40 first,
        # so a huge cutoff from choose_cutoff never reaches an allocation
        with pytest.raises(ValueError, match="not a normal double"):
            apply_branch(CoherentParams(40.0), NlaParams(2.0, 3), 1)

    def test_pair_bytes_match_the_single_arm_formula(self):
        # r = 30 gives p_f = 0.0 at every gain, and g = 1 at every r
        for r, g, n0 in product((0.0, 0.25, 16.0, 30.0), (1.0, 1.5, 8.0), (1, 2, 6)):
            params, input = NlaParams(g, n0), CoherentParams(r)
            cutoff = choose_cutoff(input, n0, g)
            states = apply_branch(input, params, cutoff)
            p_f = heralding_probabilities(r, params)[1]
            assert (states[1] is None) == (p_f == 0.0), (r, g, n0)
            arms = zip(arm_weights(params, cutoff), states, oracle.arm_weights(params, cutoff),
                       oracle.apply_branch(input, params, cutoff))
            for branch, (weights, state, want_weights, want_state) in zip(("success", "failure"), arms):
                assert weights.tobytes() == want_weights.tobytes(), (r, g, n0, branch)
                if state is not None:
                    assert state.amplitudes.tobytes() == want_state.amplitudes.tobytes(), (r, g, n0, branch)


class TestDiagonalOperator:
    def test_cutoff_is_length_minus_one(self):
        assert [w.size for w in arm_weights(NlaParams(2.0, 2), 4)] == [5, 5]


class TestBranchDerivative:
    def test_vacuum_failure_has_zero_derivative(self):
        cutoff = choose_cutoff(CoherentParams(0.25), 1, 2.0)
        _, out = apply_branch(CoherentParams(0.25), NlaParams(2.0, 1), cutoff)
        np.testing.assert_array_equal(phase_derivative(out).amplitudes, np.zeros(cutoff + 1))

    def test_identity_gain_matches_coherent_derivative(self):
        cutoff = choose_cutoff(CoherentParams(0.25), 2, 1.0)
        out, _ = apply_branch(CoherentParams(0.25), NlaParams(1.0, 2), cutoff)
        expected = phase_derivative(coherent_state(CoherentParams(0.25), cutoff))
        np.testing.assert_array_equal(phase_derivative(out).amplitudes, expected.amplitudes)

    def test_finite_difference(self):
        r, g, n0, h = 0.25, 2.0, 2, 1e-6
        cutoff = choose_cutoff(CoherentParams(r), n0, g)
        params = NlaParams(g, n0)
        arms = zip(
            apply_branch(CoherentParams(r), params, cutoff),
            apply_branch(CoherentParams(r, h), params, cutoff),
            apply_branch(CoherentParams(r, -h), params, cutoff),
        )
        for out, plus, minus in arms:
            fd = (plus.amplitudes - minus.amplitudes) / (2 * h)
            assert np.linalg.norm(fd - phase_derivative(out).amplitudes) < 1e-6
