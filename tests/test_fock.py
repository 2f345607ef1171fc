"""Tests for the truncated Fock-basis substrate."""

import math

import mpmath as mp
import numpy as np
import pytest

from nlaphase import (
    CoherentParams,
    FockVector,
    NlaParams,
    Tolerance,
    apply_branch,
    choose_cutoff,
    coherent_state,
    inner_product,
    phase_derivative,
)
from nlaphase.errors import DimensionMismatchError


def poisson_tail_oracle(mu, cutoff, dps=50):
    """High-precision independent tail sum: sum_{n > cutoff} e^-mu mu^n / n!."""
    with mp.workdps(dps):
        mu = mp.mpf(mu)
        term = mp.e ** (-mu) * mu ** (cutoff + 1) / mp.factorial(cutoff + 1)
        total = mp.mpf(0)
        n = cutoff + 1
        while term > mp.mpf("1e-60"):
            total += term
            n += 1
            term = term * mu / n
        return float(total)


class TestChooseCutoff:
    def test_vacuum_hits_floor(self):
        # no tail at r = 0, so the floor n0 + 1 wins
        assert choose_cutoff(CoherentParams(0.0), 2, 2.0, Tolerance(tail_tol=1e-12)) == 3

    def test_matches_tail_oracle(self):
        # smallest N >= 3 with Poisson(0.25) tail below 1e-12, from the mpmath oracle
        n = choose_cutoff(CoherentParams(0.25), 2, 2.0, Tolerance(tail_tol=1e-12))
        assert n == 9
        mu = (2.0 * 0.25) ** 2
        assert poisson_tail_oracle(mu, n) < 1e-12
        assert poisson_tail_oracle(mu, n - 1) >= 1e-12

    def test_monotone_in_tolerance(self):
        loose = choose_cutoff(CoherentParams(0.25), 2, 2.0, Tolerance(tail_tol=1e-6))
        tight = choose_cutoff(CoherentParams(0.25), 2, 2.0, Tolerance(tail_tol=1e-12))
        assert loose <= tight

    def test_floor_respected(self):
        for n0 in (1, 3, 5):
            assert choose_cutoff(CoherentParams(0.0), n0, 4.0) == n0 + 1

    @pytest.mark.parametrize("r", [1e8, 1e100, 1e160, 1e308])
    def test_unrepresentable_cutoff_raises(self, r):
        # the Poisson mean (gain*r)^2 lies beyond 2**53, or overflows, so no level
        # can be scanned to; the call must raise at once instead of scanning forever
        with pytest.raises(ValueError, match="2\\*\\*53"):
            choose_cutoff(CoherentParams(r), 1, 1.0)
        with pytest.raises(ValueError, match="2\\*\\*53"):
            choose_cutoff(CoherentParams(r), 2, 8.0)

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            choose_cutoff(CoherentParams(0.25), 0, 2.0)
        with pytest.raises(ValueError):
            choose_cutoff(CoherentParams(0.25), 2, 0.5)
        with pytest.raises(ValueError):
            choose_cutoff(CoherentParams(0.25), 2, math.inf)
        with pytest.raises(ValueError):
            CoherentParams(-0.1)
        with pytest.raises(ValueError):
            CoherentParams(0.1, math.nan)


class TestCoherentState:
    def test_vacuum(self):
        v = coherent_state(CoherentParams(0.0), 4)
        np.testing.assert_array_equal(v.amplitudes, [1, 0, 0, 0, 0])

    def test_normalization_with_auto_cutoff(self):
        for r in (0.1, 0.25, 0.5, 1.0, 1.5):
            n = choose_cutoff(CoherentParams(r), 1, 1.0)
            v = coherent_state(CoherentParams(r), n)
            assert abs(v.norm_sq - 1.0) < 1e-12

    def test_mean_photon_number_is_r_squared(self):
        # Poisson mean identity, cross-checked against an explicit series sum;
        # the amplified-bound cutoff (n0=2, g=2) leaves no visible truncation
        r = 0.25
        n = choose_cutoff(CoherentParams(r), 2, 2.0)
        v = coherent_state(CoherentParams(r), n)
        mean_n = float(np.sum(v.photon_numbers() * np.abs(v.amplitudes) ** 2))
        assert abs(mean_n - r**2) < 1e-12
        with mp.workdps(40):
            series = mp.fsum(
                [k * mp.e ** (-mp.mpf(r) ** 2) * mp.mpf(r) ** (2 * k) / mp.factorial(k) for k in range(60)]
            )
        assert abs(mean_n - float(series)) < 1e-13

    def test_matches_explicit_formula(self):
        r, theta = 0.7, 1.1
        v = coherent_state(CoherentParams(r, theta), 12)
        alpha = r * np.exp(1j * theta)
        explicit = np.array(
            [np.exp(-r**2 / 2) * alpha**k / math.sqrt(math.factorial(k)) for k in range(13)]
        )
        np.testing.assert_allclose(v.amplitudes, explicit, atol=1e-15)

    def test_negative_cutoff_rejected(self):
        with pytest.raises(ValueError):
            coherent_state(CoherentParams(0.25), -1)

    def test_largest_amplitudes_with_normal_vacuum_amplitude(self):
        # e^{-r^2/2} is still a normal double at r = 37.6, so the recurrence is exact
        params = CoherentParams(37.6)
        v = coherent_state(params, choose_cutoff(params, 1, 1.0))
        assert abs(v.norm_sq - 1.0) < 1e-10

    @pytest.mark.parametrize("r", [38.7, 40.0])
    def test_underflowing_vacuum_amplitude_rejected(self, r):
        # e^{-r^2/2} is 0.0 here: every amplitude would silently be zero
        with pytest.raises(ValueError, match="not a normal double"):
            coherent_state(CoherentParams(r), 10)


class TestInnerProduct:
    def test_self_overlap_is_one(self):
        v = coherent_state(CoherentParams(0.25), choose_cutoff(CoherentParams(0.25), 1, 1.0))
        assert abs(inner_product(v, v) - 1.0) < 1e-12

    @pytest.mark.parametrize("theta", [0.0, 0.4, 2.0])
    def test_overlap_with_derivative_is_i_r_squared(self, theta):
        r = 0.25
        v = coherent_state(CoherentParams(r, theta), choose_cutoff(CoherentParams(r), 1, 1.0))
        got = inner_product(v, phase_derivative(v))
        assert abs(got - 1j * r**2) < 1e-10

    def test_conjugate_symmetry(self):
        rng = np.random.default_rng(1234)
        for _ in range(20):
            a = FockVector(rng.normal(size=6) + 1j * rng.normal(size=6))
            b = FockVector(rng.normal(size=6) + 1j * rng.normal(size=6))
            assert inner_product(a, b) == pytest.approx(inner_product(b, a).conjugate(), abs=0)

    def test_cutoff_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            inner_product(FockVector(np.ones(3) / math.sqrt(3)), FockVector(np.ones(4) / 2))


class TestPhaseDerivative:
    def test_vacuum_has_no_phase(self):
        out = phase_derivative(FockVector(np.array([1.0, 0, 0])))
        np.testing.assert_array_equal(out.amplitudes, np.zeros(3))

    def test_single_photon_rule(self):
        out = phase_derivative(FockVector(np.array([0.0, 1.0, 0.0])))
        np.testing.assert_array_equal(out.amplitudes, [0, 1j, 0])

    def test_norm_is_second_moment(self):
        # ||dpsi||^2 = <n^2> = r^2 + r^4 for the Poisson photon distribution
        r = 0.25
        v = coherent_state(CoherentParams(r), choose_cutoff(CoherentParams(r), 1, 1.0))
        assert abs(phase_derivative(v).norm_sq - (r**2 + r**4)) < 1e-10

    @pytest.mark.parametrize("r", [0.1, 0.25, 0.5])
    def test_finite_difference_coherent(self, r):
        h = 1e-6
        n = choose_cutoff(CoherentParams(r), 1, 1.0)
        plus = coherent_state(CoherentParams(r, h), n).amplitudes
        minus = coherent_state(CoherentParams(r, -h), n).amplitudes
        fd = (plus - minus) / (2 * h)
        exact = phase_derivative(coherent_state(CoherentParams(r), n)).amplitudes
        assert np.linalg.norm(fd - exact) < 1e-6

    @pytest.mark.parametrize("g", [1.5, 2.0, 4.0])
    @pytest.mark.parametrize("n0", [1, 2, 3])
    def test_finite_difference_branches(self, g, n0):
        r, h = 0.25, 1e-6
        params = NlaParams(g, n0)
        n = choose_cutoff(CoherentParams(r), n0, g)
        for branch in ("success", "failure"):
            plus = apply_branch(CoherentParams(r, h), params, branch, n).state.amplitudes
            minus = apply_branch(CoherentParams(r, -h), params, branch, n).state.amplitudes
            fd = (plus - minus) / (2 * h)
            exact = phase_derivative(apply_branch(CoherentParams(r), params, branch, n).state)
            assert np.linalg.norm(fd - exact.amplitudes) < 1e-6


@pytest.mark.parametrize("r", [0.1, 0.25, 0.5])
@pytest.mark.parametrize("g", [1.0, 1.5, 2.0, 4.0])
@pytest.mark.parametrize("n0", [1, 2, 3])
def test_overlap_purely_imaginary_across_grid(r, g, n0):
    params = NlaParams(g, n0)
    n = choose_cutoff(CoherentParams(r), n0, g)
    states = [coherent_state(CoherentParams(r), n)]
    states.append(apply_branch(CoherentParams(r), params, "success", n).state)
    if g > 1.0:
        states.append(apply_branch(CoherentParams(r), params, "failure", n).state)
    for psi in states:
        assert abs(inner_product(psi, phase_derivative(psi)).real) < 1e-12


class TestFockVector:
    def test_length_mismatch_rejected(self):
        # the cutoff is the length - 1, so only a nonempty 1-d array has one
        with pytest.raises(ValueError):
            FockVector(np.ones((3, 1)))
        with pytest.raises(ValueError):
            FockVector(np.ones(0))

    def test_cutoff_is_length_minus_one(self):
        assert FockVector(np.ones(4)).cutoff == 3
        assert coherent_state(CoherentParams(0.25), 5).cutoff == 5

    def test_caller_array_neither_frozen_nor_aliased(self):
        a = np.ones(4, dtype=np.complex128)
        v = FockVector(a)
        a[0] = 2.0  # the caller's array stays writable
        assert v.amplitudes[0] == 1.0
        b = np.zeros(6)
        w = FockVector(b[:3])
        b[:] = 5.0  # a write through the base does not reach the vector
        np.testing.assert_array_equal(w.amplitudes, np.zeros(3))

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            FockVector(np.array([1.0, np.nan]))
        with pytest.raises(ValueError):
            FockVector(np.array([1.0, np.inf * 1j]))

    def test_amplitudes_read_only(self):
        v = coherent_state(CoherentParams(0.25), 5)
        with pytest.raises(ValueError):
            v.amplitudes[0] = 0.0


class TestTolerance:
    def test_defaults(self):
        tol = Tolerance()
        assert tol.tail_tol == 1e-12
        assert tol.norm_tol == 1e-10

    @pytest.mark.parametrize("bad", [0.0, -1e-9, 1e-3, 0.5])
    def test_out_of_range_rejected(self, bad):
        with pytest.raises(ValueError):
            Tolerance(tail_tol=bad)
        with pytest.raises(ValueError):
            Tolerance(norm_tol=bad)
