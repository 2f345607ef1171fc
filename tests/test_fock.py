"""Tests for the truncated Fock-basis substrate."""

import math
import random

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nlaphase import (
    CoherentParams,
    FockVector,
    NlaParams,
    apply_branch,
    choose_cutoff,
    coherent_state,
    fisher,
    fock,
    heralding_probabilities,
    inner_product,
    nla,
    phase_derivative,
    sweep_gain,
)
from nlaphase.errors import DimensionMismatchError


def poisson_sides_oracle(n, mu, dps=30):
    """(P[N <= n], P[N > n], pmf at n) for N ~ Poisson(mu), finite mu > 0, as mpf values.

    The side away from the mode is summed term by term from its first term, whose
    logarithm mpmath evaluates, until a term is below 2**-60 of the sum; the other
    side is the complement.  No gammainc: mpmath's raised NoConvergence near mu = 1.2e7.
    """
    with mp.workdps(dps):
        m = mp.mpf(mu)
        first, step = (n, -1) if n < mu else (n + 1, 1)
        term, total, k = mp.mpf(1), mp.mpf(0), first
        while True:
            total += term
            if term < total * mp.mpf(2) ** -60 or k + step < 0:
                break
            term = term * (k / m if step < 0 else m / (k + 1))
            k += step
        side = mp.exp(-m + first * mp.log(m) - mp.loggamma(first + 1)) * total
        pmf = mp.exp(-m + n * mp.log(m) - mp.loggamma(n + 1))
        return (side, 1 - side, pmf) if step < 0 else (1 - side, side, pmf)


def cutoff_points_past_1800(count=6, seed=20):
    """Seeded (r, n0, g) points with g*r in [1800, 4000], where scipy's gammainc was off
    by up to 2.5e-2 of the tail near the cutoff."""
    rng = random.Random(seed)
    points = []
    while len(points) < count:
        r, gr = rng.uniform(20.0, 37.6), rng.uniform(1800.0, 4000.0)
        if gr / r >= 1.0:
            points.append((r, rng.randint(1, 20), gr / r))
    return points


class TestChooseCutoff:
    def test_vacuum_hits_floor(self):
        # no tail at r = 0, so the floor n0 + 1 wins
        assert choose_cutoff(CoherentParams(0.0), 2, 2.0) == 3

    def test_matches_tail_oracle(self):
        # smallest N >= 3 with Poisson(0.25) tail below 1e-12, from the mpmath oracle
        n = choose_cutoff(CoherentParams(0.25), 2, 2.0)
        assert n == 9
        mu = (2.0 * 0.25) ** 2
        assert poisson_sides_oracle(n, mu)[1] < 1e-12
        assert poisson_sides_oracle(n - 1, mu)[1] >= 1e-12

    @pytest.mark.parametrize(
        "r, n0, g", [(34.83, 15, 98.22), *cutoff_points_past_1800()], ids=lambda v: f"{v:.6g}"
    )
    def test_tail_contract_past_gr_1800(self, r, n0, g):
        # the tail beyond N - 1 is at least 1e-12 and the tail beyond N below it; at the
        # first point scipy's gammainc gave 11727326, whose tail is 1.0113e-12
        n = choose_cutoff(CoherentParams(r), n0, g)
        if (r, n0, g) == (34.83, 15, 98.22):
            assert n == 11727332
        _, tail_before, pmf = poisson_sides_oracle(n - 1, (g * r) ** 2)
        with mp.workdps(30):
            assert tail_before >= mp.mpf("1e-12") > tail_before - pmf

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
            raise AssertionError("cutoff scan ran")

        monkeypatch.setattr(fock, "_upper_tails", no_scan)
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

    def test_numpy_integer_n0_gives_an_int(self):
        # a numpy n0 is converted before the scan's memo sees it, so the first
        # scan of a start level stores an int whatever type its n0 had
        from nlaphase import fock

        fock._scan_cutoff.cache_clear()
        got = choose_cutoff(CoherentParams(1.0), np.int64(2), 1.0)
        assert type(got) is int and got == choose_cutoff(CoherentParams(1.0), 2, 1.0)

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


class TestPoissonTails:
    """fock._poisson_tails(n, mu) = (P[N <= n], P[N > n]) against a direct mpmath sum.

    The side away from the mode, of value v, is p * S: an anchor p = exp(ln p) and a
    run of K terms in units of p (K = len(fock._pmf_run(...)), the same run the code
    sums).  Term j carries at most 3j roundings of u = 2**-53 (its ratio, the running
    product, the chunk's scale) and summing K terms adds K more, so S is within 4Ku.
    ln p = -stirlerr - bd0 - ln sqrt(2 pi n) is Loader's form.  Its deviance bd0 is a
    series added by fsum (within 4u bd0) where |v| < 1/2, v = (n - mu)/(n + mu), and the
    closed form elsewhere, whose roundings of n ln(n/mu), n and mu stay within 8u bd0
    there; with the two subtractions and ln sqrt(2 pi n) <= 10, ln p is within
    10u (|ln p| + 2), and |ln p| <= |ln v| + ln K.  exp adds u (1 + |ln v|).  The other
    side is 1 - v, which adds one rounding.  Both sides are checked wherever they are
    at least 1e-300.
    """

    @staticmethod
    def bound(v, terms):
        return (4 * terms + 12 * (abs(math.log(v)) + math.log(terms) + 2)) * 2.0**-53

    @settings(max_examples=40, deadline=None)
    @given(
        st.one_of(st.sampled_from([0.0, math.inf]), st.floats(-10.0, 24.0).map(lambda e: 2.0**e)),
        st.floats(-40.0, 40.0),
        st.integers(0, 2**25),
    )
    @example(0.0, 0.0, 3)
    @example(math.inf, 0.0, 7)
    @example(2.0**24 - 5.5, 1.0, 0)
    @example(1.2e7, 0.0, 0)
    def test_against_mpmath(self, mu, z, n_if_not_finite):
        # n sits z standard deviations from the mean, where both sides are representable
        if mu in (0.0, math.inf):
            n = n_if_not_finite
            assert fock._poisson_tails(n, mu) == ((1.0, 0.0) if mu == 0.0 else (0.0, 1.0))
            return
        n = max(0, int(mu + z * math.sqrt(mu)))
        got = fock._poisson_tails(n, mu)
        below, above, _ = poisson_sides_oracle(n, mu)
        want = (float(below), float(above))
        small = 0 if n < mu else 1
        run = fock._pmf_run(n, mu, -1) if n < mu else fock._pmf_run(n + 1, mu, 1)
        if want[small] >= 1e-300:
            tol = self.bound(want[small], run.size)
            assert abs(got[small] - want[small]) <= tol * want[small], (n, mu, got, want)
            big_tol = tol * want[small] + 2.0**-52 * want[1 - small]
            assert abs(got[1 - small] - want[1 - small]) <= big_tol, (n, mu, got, want)
        else:
            assert got[small] < 2e-300 and got[1 - small] == 1.0


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

    @pytest.mark.parametrize("cutoff", [True, 10.0, 10.5])
    def test_cutoff_that_is_not_an_integer_rejected(self, cutoff):
        # a bool would give a 2-level vector, a float a numpy TypeError
        with pytest.raises(ValueError, match="cutoff must be an integer"):
            coherent_state(CoherentParams(0.25), cutoff)

    def test_numpy_integer_cutoff_accepted(self):
        got = coherent_state(CoherentParams(0.25, 0.7), np.int64(10)).amplitudes
        assert got.tobytes() == coherent_state(CoherentParams(0.25, 0.7), 10).amplitudes.tobytes()

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


REUSE_R = [0.0, -0.0, 1e-3, 0.25, 1.0, 4.0, 16.0, 30.0]
REUSE_THETA = [0.0, -0.0, 1.1]


class TestCoherentStateReuse:
    """coherent_state reuses the kept runs of recent states; every double must stay."""

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

    def test_two_states_kept(self):
        # the runs of the two most recent states are kept: a third state evicts the
        # one used least recently, and a short cutoff views a run without a copy
        first, second, third = CoherentParams(16.0), CoherentParams(16.0, 0.01), CoherentParams(0.25)
        fock._run.cache_clear()
        coherent_state(first, 400)
        coherent_state(second, 5)
        coherent_state(first, 20)
        short = coherent_state(third, 5)
        assert fock._run.cache_info()[:2] == (1, 3)  # (hits, misses)
        run = fock._state_run(third)[0]
        assert run.size == 256 and np.shares_memory(short.amplitudes, run)
        coherent_state(first, 5)
        coherent_state(second, 5)
        assert fock._run.cache_info()[:2] == (3, 4)

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

    @pytest.mark.parametrize("theta", [0.0, 1.1, math.pi])
    @pytest.mark.parametrize("r", [1.0, 5.0, 16.0])
    def test_extension_past_the_first_zero(self, r, theta):
        # the run ends at the first 0.0 amplitude, padded to a multiple of 64 levels; a
        # longer coherent_state call extends from it, and its tail must hold the signed
        # zeros the recurrence gives, not a fill
        params = CoherentParams(r, theta)
        cutoff = int(r * r) + 2000
        support = fock._support(params, cutoff)
        run = fock._state_run(params)[0]
        want = coherent_reference(r, theta, cutoff)
        zero_from = int((want == 0).argmax())
        assert not want[zero_from:].any() and want[zero_from - 1] != 0
        assert support == run.size == -(-zero_from // 64) * 64 < cutoff
        assert run.tobytes() == want[: run.size].tobytes()
        if theta != 0.0:
            assert np.signbit(want[zero_from:].view(np.float64)).any()
        for c in (zero_from - 1, zero_from, zero_from + 5, run.size - 1, run.size, cutoff):
            assert coherent_state(params, c).amplitudes.tobytes() == want[: c + 1].tobytes(), c
            assert fock._support(params, c) == min(support, c + 1)

    def test_sweep_rows_match_the_reference_loop(self, monkeypatch):
        def column_bytes(table):
            return {name: column.tobytes() for name, column in table.items()}

        reused = column_bytes(sweep_gain(16, [1, 6], gains=[1, 2.5, 8]))
        monkeypatch.setattr(
            nla,
            "coherent_state",
            lambda params, cutoff: FockVector(coherent_reference(params.r, params.theta, cutoff)),
        )
        assert reused == column_bytes(sweep_gain(16, [1, 6], gains=[1, 2.5, 8]))


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


def old_apply_branch(input, params, cutoff):
    """apply_branch as it was written with whole weight arrays and copying vectors."""
    p_s, p_f = heralding_probabilities(input.r, params)
    alpha = FockVector(coherent_state(input, cutoff).amplitudes)
    n0 = params.n0
    ratio = np.power(params.gain, np.arange(n0 + 1, dtype=np.float64) - n0)
    w_s = np.ones(cutoff + 1)
    w_f = np.zeros(cutoff + 1)
    w_s[: n0 + 1] = ratio
    w_f[: n0 + 1] = np.sqrt(np.maximum(0.0, 1.0 - ratio**2))
    succ = FockVector(w_s * alpha.amplitudes / math.sqrt(p_s))
    if p_f == 0.0:
        return succ, None
    return succ, FockVector(w_f * alpha.amplitudes / math.sqrt(p_f))


def old_phase_derivative(v):
    """phase_derivative as it was written, building its factors on every call."""
    n = np.arange(v.cutoff + 1)
    return FockVector(1j * n * v.amplitudes)


class TestStateArraysMatchOldExpressions:
    """Branch states and derivatives hold the bytes of the expressions that built them
    before; TestCoherentStateReuse checks coherent_state the same way."""

    @pytest.mark.parametrize("r", REUSE_R)
    @pytest.mark.parametrize("g", [1.0, 1.5, 8.0])
    def test_branches_and_derivatives(self, r, g):
        # g = 1 has no failure state; r = 30 has none at any gain (p_f = 0.0)
        input = CoherentParams(r, 0.7)
        for n0 in (1, 2, 8):
            params = NlaParams(g, n0)
            for cutoff in (n0, n0 + 60, choose_cutoff(input, n0, g), n0 + 3):
                got, want = apply_branch(input, params, cutoff), old_apply_branch(input, params, cutoff)
                assert (got[1] is None) == (want[1] is None) == (g == 1.0 or r == 30.0)
                for state, old in zip(got, want):
                    if state is None:
                        continue
                    where = (n0, cutoff)
                    assert state.amplitudes.tobytes() == old.amplitudes.tobytes(), where
                    derivative = phase_derivative(state).amplitudes
                    assert derivative.tobytes() == old_phase_derivative(old).amplitudes.tobytes(), where

    @pytest.mark.parametrize("r", REUSE_R)
    def test_sweep_rows(self, monkeypatch, r):
        def column_bytes(table):
            return {name: column.tobytes() for name, column in table.items()}

        # the longest cutoff first, then shorter ones: the kept run serves by prefix
        got = column_bytes(sweep_gain(r, [8, 2, 1], gains=[8.0, 1.5, 1.0]))
        monkeypatch.setattr(fisher, "apply_branch", old_apply_branch)
        monkeypatch.setattr(fisher, "phase_derivative", old_phase_derivative)
        assert got == column_bytes(sweep_gain(r, [8, 2, 1], gains=[8.0, 1.5, 1.0]))


class TestHandOff:
    """The package hands out the arrays it builds read-only, without copies."""

    def returned_vectors(self, r, cutoff):
        input = CoherentParams(r, 0.7)
        alpha = coherent_state(input, cutoff)
        succ, fail = apply_branch(input, NlaParams(2.0, 3), cutoff)
        return [alpha, succ, fail, phase_derivative(succ), phase_derivative(fail)]

    def test_returned_vectors_read_only(self):
        for v in self.returned_vectors(4.0, 80):
            assert not v.amplitudes.flags.writeable
            with pytest.raises(ValueError):
                v.amplitudes[0] = 1.0
            with pytest.raises(ValueError):
                v.amplitudes *= 2.0

    def test_kept_arrays_read_only(self):
        v = coherent_state(CoherentParams(4.0, 0.7), 80)
        phase_derivative(v)
        for array in (fock._state_run(CoherentParams(4.0, 0.7))[0], fock._phase_factors(81)):
            with pytest.raises(ValueError):
                array[0] = 1.0

    def test_earlier_vectors_keep_their_bytes(self):
        earlier = self.returned_vectors(4.0, 80)
        before = [v.amplitudes.tobytes() for v in earlier]
        self.returned_vectors(4.0, 900)  # a longer cutoff: past the run, and new phase factors
        self.returned_vectors(0.25, 30)  # another state
        self.returned_vectors(16.0, 1200)
        assert [v.amplitudes.tobytes() for v in earlier] == before

    def test_wrap_checks_without_copying(self):
        a = np.arange(4, dtype=np.complex128)
        v = FockVector._wrap(a)
        assert v.amplitudes is a and not a.flags.writeable
        for bad in (np.ones((2, 2), dtype=np.complex128), np.ones(0, dtype=np.complex128)):
            with pytest.raises(ValueError, match="nonempty 1-d"):
                FockVector._wrap(bad)
        for part in (np.nan, np.inf, -np.inf):
            for value in (complex(part, 0.0), complex(0.0, part)):
                with pytest.raises(ValueError, match="finite"):
                    FockVector._wrap(np.array([1.0, value, 0.5]))
                with pytest.raises(ValueError, match="finite"):
                    FockVector(np.array([1.0, value, 0.5]))
