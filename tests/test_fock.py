"""Tests for the truncated Fock-basis substrate."""

import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nlaphase import (
    CoherentParams,
    FockVector,
    NlaParams,
    apply_branch,
    choose_cutoff,
    coherent_state,
    fock,
    inner_product,
    nla,
    phase_derivative,
    sweep_gain,
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
        assert choose_cutoff(CoherentParams(0.0), 2, 2.0) == 3

    def test_matches_tail_oracle(self):
        # smallest N >= 3 with Poisson(0.25) tail below 1e-12, from the mpmath oracle
        n = choose_cutoff(CoherentParams(0.25), 2, 2.0)
        assert n == 9
        mu = (2.0 * 0.25) ** 2
        assert poisson_tail_oracle(mu, n) < 1e-12
        assert poisson_tail_oracle(mu, n - 1) >= 1e-12

    def test_floor_respected(self):
        for n0 in (1, 3, 5):
            assert choose_cutoff(CoherentParams(0.0), n0, 4.0) == n0 + 1

    @pytest.mark.parametrize("r", [1e8, 1e100, 1e160, 1e308])
    def test_unrepresentable_cutoff_raises(self, r):
        # the Poisson mean (gain*r)^2 lies beyond 2**24, or overflows, so no state
        # could be built on the cutoff; the call must raise at once instead of scanning
        with pytest.raises(ValueError, match="2\\*\\*24"):
            choose_cutoff(CoherentParams(r), 1, 1.0)
        with pytest.raises(ValueError, match="2\\*\\*24"):
            choose_cutoff(CoherentParams(r), 2, 8.0)

    @pytest.mark.parametrize("r", [38.7, 40.0, 1000.0])
    def test_underflowing_vacuum_amplitude_rejected_before_the_scan(self, monkeypatch, r):
        # coherent_state refuses such an r, so the cutoff scan (at r = 1000 a scan
        # near a million levels) must not run first
        def no_scan(*args):
            raise AssertionError("gammainc called")

        monkeypatch.setattr(fock, "gammainc", no_scan)
        with pytest.raises(ValueError, match="not a normal double"):
            choose_cutoff(CoherentParams(r), 1, 1.0)

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

    @pytest.mark.parametrize("n0", [2.5, 2.0, True])
    def test_non_integer_n0_rejected(self, n0):
        # 2.5 once gave the cutoff 14.5; 2.0 and 2 are one key of the scan's memo,
        # so an accepted 2.0 would make the type of the result depend on call order
        assert type(choose_cutoff(CoherentParams(1.0), 2, 1.0)) is int
        for _ in range(2):
            with pytest.raises(ValueError, match=f"nla_n0 .*{n0!r}"):
                choose_cutoff(CoherentParams(1.0), n0, 1.0)

    @pytest.mark.parametrize(
        "good, bad, message",
        [
            # same mu = 0.0625 on both sides
            ((0.25, 2, 1.0), (0.5, 2, 0.5), "gain"),
            ((0.25, 1, 2.0), (0.25, 0, 2.0), "nla_n0"),
            # the scan itself raises: mu = 4095**2 leaves 2 standard deviations below 2**24
            ((1.0, 1, 4090.0), (1.0, 1, 4095.0), "no cutoff up to 2\\*\\*24"),
            ((1.0, 1, 4090.0), (1.0, 1, 4097.0), "needs a cutoff above 2\\*\\*24"),
            # same mu = 1600 on both sides
            ((20.0, 1, 2.0), (40.0, 1, 1.0), "not a normal double"),
        ],
    )
    def test_errors_raise_again_after_a_success(self, good, bad, message):
        # exceptions are not memoized: every repeat runs the checks and the scan again
        r, n0, g = good
        assert choose_cutoff(CoherentParams(r), n0, g) > n0
        r, n0, g = bad
        for _ in range(3):
            with pytest.raises(ValueError, match=message):
                choose_cutoff(CoherentParams(r), n0, g)


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

    @pytest.mark.parametrize("r", [38.7, 40.0, 1.35e154, 1e200])
    def test_underflowing_vacuum_amplitude_rejected(self, r):
        # e^{-r^2/2} is 0.0 here (r**2 overflows from about 1.34e154 on): every
        # amplitude would silently be zero
        with pytest.raises(ValueError, match="not a normal double"):
            coherent_state(CoherentParams(r), 10)


def coherent_reference(r, theta, cutoff):
    """The recurrence as one call ran it before amplitudes were reused across calls."""
    vacuum = math.exp(-0.5 * r**2)
    alpha = r * np.exp(1j * theta)
    amps = np.zeros(cutoff + 1, dtype=np.complex128)
    amps[0] = vacuum
    for n in range(cutoff):
        amps[n + 1] = amps[n] * alpha / math.sqrt(n + 1)
    return amps


REUSE_R = [0.0, -0.0, 0.25, 16.0]
REUSE_THETA = [0.0, -0.0, 1.1]


class TestCoherentStateReuse:
    """coherent_state reuses the amplitudes of its last state; every double must stay."""

    def assert_calls_match_reference(self, calls):
        for r, theta, cutoff in calls:
            got = coherent_state(CoherentParams(r, theta), cutoff).amplitudes
            assert got.tobytes() == coherent_reference(r, theta, cutoff).tobytes(), (r, theta, cutoff)

    @pytest.mark.parametrize(
        "cutoffs",
        [[0, 1, 5, 40, 300], [300, 40, 5, 1, 0], [40, 40, 40], [0, 0], [7, 300, 3, 300, 120]],
        ids=["rising", "falling", "repeated", "zero", "mixed"],
    )
    @pytest.mark.parametrize("r", REUSE_R)
    @pytest.mark.parametrize("theta", REUSE_THETA)
    def test_cutoff_sequences(self, cutoffs, r, theta):
        self.assert_calls_match_reference([(r, theta, c) for c in cutoffs])

    def test_alternating_keys(self):
        keys = [(r, theta) for r in REUSE_R for theta in REUSE_THETA]
        calls = [(r, theta, c) for c in (3, 60, 0, 200) for r, theta in keys + keys[::-1]]
        self.assert_calls_match_reference(calls)

    def test_earlier_vector_unchanged_by_a_longer_call(self):
        params = CoherentParams(16.0, 1.1)
        short = coherent_state(params, 10)
        before = short.amplitudes.tobytes()
        long = coherent_state(params, 400)
        assert short.amplitudes.tobytes() == before
        assert long.amplitudes[:11].tobytes() == before

    def test_one_state_kept(self):
        coherent_state(CoherentParams(16.0), 400)
        coherent_state(CoherentParams(0.25), 5)
        _, kept = fock._last_amplitudes
        assert kept.size == 6

    @pytest.mark.parametrize("cutoff", [0, 10, 400])
    def test_unrepresentable_amplitude_raises_after_a_cached_call(self, cutoff):
        coherent_state(CoherentParams(16.0), 400)
        with pytest.raises(ValueError, match="not a normal double"):
            coherent_state(CoherentParams(38.7), cutoff)

    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.sampled_from(REUSE_R),
                st.sampled_from(REUSE_THETA),
                st.integers(min_value=0, max_value=400),
            ),
            min_size=1,
            max_size=8,
        )
    )
    def test_any_call_sequence_matches_reference(self, calls):
        self.assert_calls_match_reference(calls)

    def test_sweep_rows_match_the_reference_loop(self, monkeypatch):
        def hex_rows(rows):
            return [{k: float.hex(v) if isinstance(v, float) else v for k, v in row.items()} for row in rows]

        reused = hex_rows(sweep_gain(16, [1, 6], gains=[1, 2.5, 8]))
        monkeypatch.setattr(
            nla,
            "coherent_state",
            lambda params, cutoff: FockVector(coherent_reference(params.r, params.theta, cutoff)),
        )
        assert reused == hex_rows(sweep_gain(16, [1, 6], gains=[1, 2.5, 8]))


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
        arms = zip(
            apply_branch(CoherentParams(r, h), params, n),
            apply_branch(CoherentParams(r, -h), params, n),
            apply_branch(CoherentParams(r), params, n),
        )
        for plus, minus, out in arms:
            fd = (plus.amplitudes - minus.amplitudes) / (2 * h)
            assert np.linalg.norm(fd - phase_derivative(out).amplitudes) < 1e-6


@pytest.mark.parametrize("r", [0.1, 0.25, 0.5])
@pytest.mark.parametrize("g", [1.0, 1.5, 2.0, 4.0])
@pytest.mark.parametrize("n0", [1, 2, 3])
def test_overlap_purely_imaginary_across_grid(r, g, n0):
    params = NlaParams(g, n0)
    n = choose_cutoff(CoherentParams(r), n0, g)
    succ, fail = apply_branch(CoherentParams(r), params, n)
    assert (fail is None) == (g == 1.0)
    states = [coherent_state(CoherentParams(r), n), succ] + ([] if fail is None else [fail])
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
