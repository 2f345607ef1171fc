"""Tests for the amplifier measurement pair and branch projections."""

import math

import mpmath as mp
import numpy as np
import pytest

from nlaphase import (
    CoherentParams,
    DiagonalOperator,
    NlaParams,
    apply_branch,
    choose_cutoff,
    coherent_state,
    failure_operator,
    failure_probability,
    phase_derivative,
    success_operator,
    success_probability,
)
from nlaphase.errors import DegenerateBranchError

# frozen from the high-precision series oracle below (r=0.25, g=2, n0=2)
P_S_PAPER_POINT = 0.075265266292984773
P_F_PAPER_POINT = 0.924734733707015227

GRID_R = [0.0, 0.1, 0.25, 0.5, 1.0, 1.5]
GRID_G = [1.0, 1.5, 2.0, 4.0, 8.0]
GRID_N0 = [1, 2, 3, 4, 5]


def success_probability_oracle(r, g, n0, dps=50):
    """Independent high-precision evaluation by explicit series summation."""
    with mp.workdps(dps):
        r, g = mp.mpf(r), mp.mpf(g)
        head = mp.fsum([g ** (2 * (n - n0)) * r ** (2 * n) / mp.factorial(n) for n in range(n0 + 1)])
        tail = mp.e ** (r**2) - mp.fsum([r ** (2 * n) / mp.factorial(n) for n in range(n0 + 1)])
        return float(mp.e ** (-(r**2)) * (head + tail))


class TestOperators:
    def test_identity_gain_success(self):
        op = success_operator(NlaParams(1.0, 2), 4)
        np.testing.assert_array_equal(op.weights, np.ones(5))

    def test_paper_weights(self):
        op = success_operator(NlaParams(2.0, 2), 4)
        np.testing.assert_allclose(op.weights, [0.25, 0.5, 1.0, 1.0, 1.0], atol=0)

    def test_success_weight_at_n0_is_one(self):
        for g in GRID_G:
            assert success_operator(NlaParams(g, 3), 6).weights[3] == 1.0

    def test_identity_gain_failure_is_zero(self):
        op = failure_operator(NlaParams(1.0, 2), 4)
        np.testing.assert_array_equal(op.weights, np.zeros(5))

    def test_failure_weights_by_substitution(self):
        op = failure_operator(NlaParams(2.0, 2), 4)
        np.testing.assert_allclose(
            op.weights, [math.sqrt(15) / 4, math.sqrt(3) / 2, 0.0, 0.0, 0.0], atol=1e-15
        )

    def test_failure_weight_at_n0_is_zero(self):
        for g in GRID_G:
            assert failure_operator(NlaParams(g, 3), 6).weights[3] == 0.0

    def test_cutoff_below_n0_rejected(self):
        with pytest.raises(ValueError):
            success_operator(NlaParams(2.0, 3), 2)
        with pytest.raises(ValueError):
            failure_operator(NlaParams(2.0, 3), 2)

    @pytest.mark.parametrize("g", GRID_G)
    @pytest.mark.parametrize("n0", GRID_N0)
    def test_completeness(self, g, n0):
        params = NlaParams(g, n0)
        es = success_operator(params, n0 + 4).weights
        ef = failure_operator(params, n0 + 4).weights
        np.testing.assert_allclose(es**2 + ef**2, np.ones(n0 + 5), atol=1e-14)


class TestProbabilities:
    def test_identity_gain(self):
        assert success_probability(0.7, NlaParams(1.0, 3)) == pytest.approx(1.0, abs=1e-15)
        assert failure_probability(0.7, NlaParams(1.0, 3)) == 0.0

    def test_paper_point_against_series_oracle(self):
        got = success_probability(0.25, NlaParams(2.0, 2))
        assert got == pytest.approx(P_S_PAPER_POINT, abs=1e-12)
        assert got == pytest.approx(success_probability_oracle(0.25, 2, 2), abs=1e-12)
        assert failure_probability(0.25, NlaParams(2.0, 2)) == pytest.approx(
            P_F_PAPER_POINT, abs=1e-12
        )

    def test_vacuum_input(self):
        # only the n = 0 term survives at r = 0
        assert success_probability(0.0, NlaParams(2.0, 2)) == pytest.approx(1 / 16, abs=1e-15)
        assert failure_probability(0.0, NlaParams(2.0, 2)) == pytest.approx(15 / 16, abs=1e-15)

    @pytest.mark.parametrize("r", GRID_R)
    @pytest.mark.parametrize("g", GRID_G)
    @pytest.mark.parametrize("n0", GRID_N0)
    def test_sum_to_one(self, r, g, n0):
        params = NlaParams(g, n0)
        assert abs(success_probability(r, params) + failure_probability(r, params) - 1.0) < 1e-12

    @pytest.mark.parametrize("n0", [1, 2, 3])
    def test_monotone_in_gain(self, n0):
        gains = np.linspace(1.0, 8.0, 30)
        ps = [success_probability(0.25, NlaParams(g, n0)) for g in gains]
        pf = [failure_probability(0.25, NlaParams(g, n0)) for g in gains]
        assert all(a >= b - 1e-15 for a, b in zip(ps, ps[1:]))
        assert all(a <= b + 1e-15 for a, b in zip(pf, pf[1:]))

    @pytest.mark.parametrize("r", [0.1, 0.25, 0.5, 1.0])
    @pytest.mark.parametrize("g", [1.5, 2.0, 4.0])
    def test_closed_form_matches_truncated_norm(self, r, g):
        # tr(rho E_s^2) evaluated numerically in the truncated basis
        n0 = 2
        cutoff = choose_cutoff(CoherentParams(r), n0, g)
        alpha = coherent_state(CoherentParams(r), cutoff)
        projected = success_operator(NlaParams(g, n0), cutoff).apply(alpha)
        assert abs(projected.norm_sq - success_probability(r, NlaParams(g, n0))) < 1e-12

    def test_theta_independence(self):
        n0, g, r = 2, 2.0, 0.25
        cutoff = choose_cutoff(CoherentParams(r), n0, g)
        op = success_operator(NlaParams(g, n0), cutoff)
        n0_norm = op.apply(coherent_state(CoherentParams(r, 0.0), cutoff)).norm_sq
        n1_norm = op.apply(coherent_state(CoherentParams(r, 1.0), cutoff)).norm_sq
        assert abs(n0_norm - n1_norm) < 1e-14

    def test_invalid_r(self):
        with pytest.raises(ValueError):
            success_probability(-0.1, NlaParams(2.0, 2))
        with pytest.raises(ValueError):
            failure_probability(math.nan, NlaParams(2.0, 2))


class TestApplyBranch:
    def test_identity_gain_success_is_input(self):
        cutoff = choose_cutoff(CoherentParams(0.25), 2, 1.0)
        out = apply_branch(CoherentParams(0.25), NlaParams(1.0, 2), "success", cutoff)
        expected = coherent_state(CoherentParams(0.25), cutoff)
        np.testing.assert_array_equal(out.state.amplitudes, expected.amplitudes)
        assert out.probability == pytest.approx(1.0, abs=1e-15)

    @pytest.mark.parametrize("g", [1.5, 2.0, 4.0])
    def test_failure_with_n0_one_is_vacuum(self, g):
        # the single surviving level n = 0 makes the failure output exactly vacuum
        cutoff = choose_cutoff(CoherentParams(0.25), 1, g)
        out = apply_branch(CoherentParams(0.25), NlaParams(g, 1), "failure", cutoff)
        expected = np.zeros(cutoff + 1)
        expected[0] = 1.0
        np.testing.assert_allclose(out.state.amplitudes, expected, atol=1e-15)

    def test_success_state_normalized(self):
        cutoff = choose_cutoff(CoherentParams(0.25), 2, 2.0)
        out = apply_branch(CoherentParams(0.25), NlaParams(2.0, 2), "success", cutoff)
        assert abs(out.state.norm_sq - 1.0) < 1e-10

    def test_degenerate_failure_branch_raises(self):
        with pytest.raises(DegenerateBranchError):
            apply_branch(CoherentParams(0.25), NlaParams(1.0, 2), "failure", 6)

    def test_unrepresentable_amplitude_rejected_before_the_weights(self):
        # cutoff 1 < n0 would fail in the weights; coherent_state must refuse r = 40 first,
        # so a huge cutoff from choose_cutoff never reaches an allocation
        with pytest.raises(ValueError, match="not a normal double"):
            apply_branch(CoherentParams(40.0), NlaParams(2.0, 3), "success", 1)

    def test_unknown_branch_rejected(self):
        with pytest.raises(ValueError):
            apply_branch(CoherentParams(0.25), NlaParams(2.0, 2), "both", 6)


class TestDiagonalOperator:
    def test_cutoff_is_length_minus_one(self):
        assert success_operator(NlaParams(2.0, 2), 4).cutoff == 4
        assert DiagonalOperator(np.ones(3)).cutoff == 2

    def test_caller_array_neither_frozen_nor_aliased(self):
        w = np.full(4, 0.5)
        op = DiagonalOperator(w)
        w[0] = 1.0  # the caller's array stays writable
        assert op.weights[0] == 0.5
        with pytest.raises(ValueError):
            op.weights[0] = 1.0
        b = np.zeros(6)
        op = DiagonalOperator(b[:3])
        b[:] = 1.0  # a write through the base does not reach the operator
        np.testing.assert_array_equal(op.weights, np.zeros(3))

    @pytest.mark.parametrize("bad", [[0.5, 1.5], [-0.1], [np.nan, 0.5], [], [[0.5]]])
    def test_invalid_weights_rejected(self, bad):
        with pytest.raises(ValueError):
            DiagonalOperator(np.array(bad))


class TestBranchDerivative:
    def test_vacuum_failure_has_zero_derivative(self):
        cutoff = choose_cutoff(CoherentParams(0.25), 1, 2.0)
        out = apply_branch(CoherentParams(0.25), NlaParams(2.0, 1), "failure", cutoff)
        np.testing.assert_array_equal(phase_derivative(out.state).amplitudes, np.zeros(cutoff + 1))

    def test_identity_gain_matches_coherent_derivative(self):
        cutoff = choose_cutoff(CoherentParams(0.25), 2, 1.0)
        out = apply_branch(CoherentParams(0.25), NlaParams(1.0, 2), "success", cutoff)
        expected = phase_derivative(coherent_state(CoherentParams(0.25), cutoff))
        np.testing.assert_array_equal(phase_derivative(out.state).amplitudes, expected.amplitudes)

    def test_finite_difference(self):
        r, g, n0, h = 0.25, 2.0, 2, 1e-6
        cutoff = choose_cutoff(CoherentParams(r), n0, g)
        params = NlaParams(g, n0)
        for branch in ("success", "failure"):
            out = apply_branch(CoherentParams(r), params, branch, cutoff)
            plus = apply_branch(CoherentParams(r, h), params, branch, cutoff).state.amplitudes
            minus = apply_branch(CoherentParams(r, -h), params, branch, cutoff).state.amplitudes
            fd = (plus - minus) / (2 * h)
            assert np.linalg.norm(fd - phase_derivative(out.state).amplitudes) < 1e-6
