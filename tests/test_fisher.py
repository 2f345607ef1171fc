"""Tests for the branch Fisher information bookkeeping."""

import functools
import json
import math
import random

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import gammainc
from scipy.stats import binom

from nlaphase import (
    CoherentParams,
    FisherBreakdown,
    FockVector,
    NlaParams,
    apply_branch,
    binomial_tail,
    branch_breakdown,
    choose_cutoff,
    coherent_state,
    default_gain_grid,
    fisher,
    fock,
    j_nla_conditional,
    min_ns_exceeding,
    phase_derivative,
    qfi_coherent,
    qfi_pure,
    sweep_fraction,
    sweep_gain,
)
from nlaphase.cli import main
from nlaphase.errors import NoCrossingError

# frozen from the high-cutoff mpmath brute-force oracle (numerical derivative of
# the normalized branch amplitudes at 50 digits); see also the float64
# finite-difference oracle below which re-derives them at test time
J_S_PAPER_POINT = 0.948176848961115
J_F_PAPER_POINT = 0.181405895691610


def qfi_finite_difference_oracle(r, g, n0, branch, hi_cutoff=60, h=1e-5):
    """Brute-force branch QFI: explicit amplitudes in a large basis, numerically
    normalized, differentiated by central differences.  Independent of the
    production path (no recurrence, no closed-form probability, no i*n rule)."""

    def normalized(theta):
        alpha = r * np.exp(1j * theta)
        n = np.arange(hi_cutoff + 1, dtype=float)
        log_fact = np.cumsum(np.log(np.maximum(n, 1.0)))
        amps = np.exp(-r**2 / 2) * alpha ** n * np.exp(-log_fact / 2)
        if branch == "success":
            w = np.where(n <= n0, float(g) ** (n - n0), 1.0)
        else:
            w = np.where(n <= n0, np.sqrt(np.maximum(0.0, 1.0 - float(g) ** (2 * (n - n0)))), 0.0)
        v = w * amps
        return v / np.linalg.norm(v)

    psi = normalized(0.0)
    dpsi = (normalized(h) - normalized(-h)) / (2 * h)
    overlap = np.vdot(psi, dpsi)
    return 4.0 * (np.vdot(dpsi, dpsi).real - abs(overlap) ** 2)


def paper_breakdown():
    return branch_breakdown(0.25, NlaParams(2.0, 2))


def fraction_rows(m, breakdown):
    """sweep_fraction's columns, each a 1-d array of m + 1 values, as rows of Python scalars."""
    columns = sweep_fraction(m, breakdown)
    assert all(c.shape == (m + 1,) for c in columns.values())
    values = [c.tolist() for c in columns.values()]
    return [dict(zip(columns, row)) for row in zip(*values)]


class TestQfiPure:
    @pytest.mark.parametrize("r", [0.1, 0.25, 0.5, 1.0])
    def test_coherent_family_is_4_r_squared(self, r):
        n = choose_cutoff(CoherentParams(r), 1, 1.0)
        psi = coherent_state(CoherentParams(r), n)
        assert qfi_pure(psi, phase_derivative(psi)) == pytest.approx(4 * r**2, abs=1e-9)

    def test_paper_amplitude_at_conservative_cutoff(self):
        # with the amplified-bound cutoff the truncation residue disappears
        n = choose_cutoff(CoherentParams(0.25), 2, 2.0)
        psi = coherent_state(CoherentParams(0.25), n)
        assert qfi_pure(psi, phase_derivative(psi)) == pytest.approx(0.25, abs=1e-10)

    def test_vacuum_carries_nothing(self):
        psi = coherent_state(CoherentParams(0.0), 4)
        assert qfi_pure(psi, phase_derivative(psi)) == 0.0

    def test_degenerate_failure_branch(self):
        b = branch_breakdown(0.25, NlaParams(2.0, 1))
        assert b.j_f < 1e-12

    def test_real_overlap_rejected(self):
        psi = coherent_state(CoherentParams(0.25), 6)
        with pytest.raises(ValueError):
            qfi_pure(psi, psi)  # overlap is 1, clearly not imaginary


class TestQfiCoherent:
    def test_values(self):
        assert qfi_coherent(0.25) == 0.25
        assert qfi_coherent(0.0) == 0.0
        assert qfi_coherent(0.5) == 1.0

    def test_invalid(self):
        with pytest.raises(ValueError):
            qfi_coherent(-1.0)


class TestBranchBreakdown:
    def test_identity_device(self):
        # at g = 1 the internal cutoff is the tightest admissible one, which
        # bounds the truncated QFI to the same 1e-9 accuracy as criterion 1
        b = branch_breakdown(0.25, NlaParams(1.0, 2))
        assert b.p_s == pytest.approx(1.0, abs=1e-15)
        assert b.p_f == 0.0
        assert b.j_s == pytest.approx(b.j_alpha, abs=1e-9)
        assert b.j_f == 0.0
        assert b.j_nla_asymptotic == pytest.approx(b.j_alpha, abs=1e-9)

    def test_paper_point_against_frozen_oracle(self):
        b = paper_breakdown()
        assert b.j_s == pytest.approx(J_S_PAPER_POINT, abs=1e-12)
        assert b.j_f == pytest.approx(J_F_PAPER_POINT, abs=1e-12)
        assert b.j_nla_asymptotic < b.j_alpha

    @pytest.mark.parametrize("g", [1.5, 2.0, 4.0])
    @pytest.mark.parametrize("n0", [1, 2, 3])
    def test_against_finite_difference_oracle(self, g, n0):
        b = branch_breakdown(0.25, NlaParams(g, n0))
        assert b.j_s == pytest.approx(qfi_finite_difference_oracle(0.25, g, n0, "success"), abs=1e-7)
        assert b.j_f == pytest.approx(qfi_finite_difference_oracle(0.25, g, n0, "failure"), abs=1e-7)

    @pytest.mark.parametrize("r", [0.1, 0.25, 0.5])
    @pytest.mark.parametrize("g", [1.5, 2.0, 4.0])
    @pytest.mark.parametrize("n0", [1, 2, 3])
    def test_ordering_in_amplifier_regime(self, r, g, n0):
        # the branch ordering of the figures holds where amplification genuinely
        # spreads the photon distribution (moderate r*g); see the companion test
        # below for where it stops holding
        b = branch_breakdown(r, NlaParams(g, n0))
        assert b.j_s >= b.j_alpha - 1e-9
        assert b.j_alpha >= b.j_f - 1e-9
        assert b.j_nla_asymptotic <= b.j_alpha + 1e-12
        assert b.j_nla_asymptotic < b.j_alpha  # strict away from g = 1 (r > 0 here)

    def test_success_branch_can_fall_below_baseline_at_large_r(self):
        # J equals 4*Var(n) for these families; once the input distribution is
        # already broad, the level filter g^(n-n0) narrows it and the success
        # branch carries less information than the bare coherent state.  Values
        # frozen from the mpmath brute-force oracle.
        b = branch_breakdown(1.0, NlaParams(4.0, 3))
        assert b.j_s == pytest.approx(2.18033714989, abs=1e-9)
        assert b.j_s < b.j_alpha == 4.0
        b2 = branch_breakdown(0.5, NlaParams(8.0, 1))
        assert b2.j_s == pytest.approx(0.765874108315, abs=1e-9)
        assert b2.j_s < b2.j_alpha
        # the averaged information inequality is a theorem and survives regardless
        assert b.j_nla_asymptotic <= b.j_alpha
        assert b2.j_nla_asymptotic <= b2.j_alpha

    def test_ideal_limit_with_growing_n0(self):
        # larger n0 approximates |g*alpha> better, so j_s approaches 4 g^2 r^2
        r, g = 0.25, 1.5
        err4 = abs(branch_breakdown(r, NlaParams(g, 4)).j_s - 4 * g**2 * r**2)
        err12 = abs(branch_breakdown(r, NlaParams(g, 12)).j_s - 4 * g**2 * r**2)
        assert err12 < err4

    def test_vacuum_input(self):
        b = branch_breakdown(0.0, NlaParams(2.0, 2))
        assert b.j_alpha == 0.0
        assert b.j_s == 0.0
        assert b.j_f == 0.0

    def test_largest_amplitude_with_normal_vacuum_amplitude(self):
        # g = 1 leaves the state alone, so j_s is the coherent 4 r^2
        b = branch_breakdown(37.6, NlaParams(1.0, 1))
        assert b.j_s == pytest.approx(b.j_alpha, rel=1e-8)

    @pytest.mark.parametrize("r", [38.7, 40.0])
    def test_underflowing_vacuum_amplitude_raises(self, r):
        # e^{-r^2/2} underflows to 0.0; a zero c_0 would give j_s = 0.0, not 4 r^2
        with pytest.raises(ValueError, match="not a normal double"):
            branch_breakdown(r, NlaParams(2.0, 2))
        with pytest.raises(ValueError, match="not a normal double"):
            sweep_gain(r, [2], gains=[2.0])


class TestSupportPrefix:
    """branch_breakdown works on the levels below the input's first 0.0 amplitude,
    padded to 64; its figures must be the doubles the states on the whole cutoff give."""

    @pytest.mark.parametrize("r", [0.25, 1.0, 5.0, 16.0, 30.0, 37.6])
    def test_figures_match_the_full_cutoff_states(self, r):
        input = CoherentParams(r)
        for n0 in range(1, 7):
            for g in default_gain_grid():
                params = NlaParams(float(g), n0)
                b = branch_breakdown(r, params)
                succ, fail = apply_branch(input, params, choose_cutoff(input, n0, float(g)))
                j_f = 0.0 if fail is None else qfi_pure(fail, phase_derivative(fail))
                want = (qfi_pure(succ, phase_derivative(succ)).hex(), j_f.hex())
                assert (b.j_s.hex(), b.j_f.hex()) == want, (n0, float(g))

    def test_large_r_works_on_a_short_prefix(self):
        # at r = 16, g = 8 the cutoff is 17292 and the amplitudes are 0.0 from 1544 on
        input = CoherentParams(16.0)
        cutoff = choose_cutoff(input, 1, 8.0)
        assert cutoff == 17292
        assert fock._support(input, cutoff) == 1600
        # the run holds the levels up to the first 0.0, padded to 64
        run = fock._state_run(input)[0]
        assert run.size == 1600 and int((run == 0).argmax()) == 1544 and not run[1544:].any()
        # no 0.0 inside a small cutoff: the whole vector is worked on
        assert fock._support(CoherentParams(0.25), 9) == 10


class TestJnlaConditional:
    def test_degenerate_averages(self):
        b = paper_breakdown()
        assert j_nla_conditional(0, 10, b) == pytest.approx(b.j_f, rel=1e-15)
        assert j_nla_conditional(10, 0, b) == pytest.approx(b.j_s, rel=1e-15)

    def test_exact_fraction_reproduces_asymptote(self):
        # integer counts with n_s/m = p_s exactly recover p_s*j_s + p_f*j_f
        b = paper_breakdown()
        n_s, m = b.p_s.as_integer_ratio()
        exact = j_nla_conditional(n_s, m - n_s, b)
        assert exact == pytest.approx(b.j_nla_asymptotic, abs=1e-12)
        # with integer rounding the gap is bounded by the count quantization
        m = 10**6
        rounded = j_nla_conditional(round(m * b.p_s), m - round(m * b.p_s), b)
        assert abs(rounded - b.j_nla_asymptotic) <= (b.j_s - b.j_f) * 0.5 / m + 1e-12

    def test_no_events_rejected(self):
        with pytest.raises(ValueError):
            j_nla_conditional(0, 0, paper_breakdown())
        with pytest.raises(ValueError):
            j_nla_conditional(-1, 2, paper_breakdown())


class TestMinNsExceeding:
    def test_paper_value(self):
        assert min_ns_exceeding(1000, paper_breakdown()) == 90

    def test_single_sample(self):
        assert min_ns_exceeding(1, paper_breakdown()) == 1

    def test_no_crossing_at_identity_gain(self):
        with pytest.raises(NoCrossingError):
            min_ns_exceeding(1000, branch_breakdown(0.25, NlaParams(1.0, 2)))

    def test_boundary_contract(self):
        # j_s exactly equal to j_alpha means no crossing
        b = FisherBreakdown(
            j_alpha=0.25, j_s=0.25, j_f=0.1, j_ideal=1.0, p_s=0.5, p_f=0.5, j_nla_asymptotic=0.175
        )
        with pytest.raises(NoCrossingError):
            min_ns_exceeding(100, b)

    def test_definition_holds(self):
        b = paper_breakdown()
        for m in (10, 100, 1000, 4321):
            n = min_ns_exceeding(m, b)
            assert j_nla_conditional(n, m - n, b) > b.j_alpha
            if n > 0:
                assert j_nla_conditional(n - 1, m - n + 1, b) <= b.j_alpha


class TestCountArguments:
    """m and the event counts are integers: bools and floats, even integral ones, raise."""

    @pytest.mark.parametrize(
        "m", [10.5, 10.0, np.float64(10.0), True, np.True_],
        ids=["fraction", "integral-float", "numpy-float", "bool", "numpy-bool"],
    )
    @pytest.mark.parametrize(
        "call",
        [
            lambda m: binomial_tail(m, 0.5, 3),
            lambda m: binomial_tail(m, 0.5, np.array([1, 3])),
            lambda m: min_ns_exceeding(m, paper_breakdown()),
            lambda m: sweep_fraction(m, paper_breakdown()),
        ],
        ids=["binomial_tail", "binomial_tail-array", "min_ns_exceeding", "sweep_fraction"],
    )
    def test_non_integer_m_rejected(self, call, m):
        with pytest.raises(ValueError, match="m must be an integer"):
            call(m)

    @pytest.mark.parametrize(
        "n_s, n_f, name",
        [(True, 2, "n_s"), (2.5, 1, "n_s"), (2, 1.0, "n_f"), (2, np.True_, "n_f")],
        ids=["bool", "fraction", "integral-float", "numpy-bool"],
    )
    def test_non_integer_counts_rejected(self, n_s, n_f, name):
        with pytest.raises(ValueError, match=f"{name} must be an integer"):
            j_nla_conditional(n_s, n_f, paper_breakdown())

    @pytest.mark.parametrize("integer", [np.int64, np.int32, np.uint16])
    def test_numpy_integers_accepted(self, integer):
        b = paper_breakdown()
        assert binomial_tail(integer(1000), b.p_s, 90) == binomial_tail(1000, b.p_s, 90)
        assert min_ns_exceeding(integer(1000), b) == 90
        assert j_nla_conditional(integer(3), integer(7), b) == j_nla_conditional(3, 7, b)
        got, want = sweep_fraction(integer(300), b), sweep_fraction(300, b)
        for name in want:
            np.testing.assert_array_equal(got[name], want[name])


class TestBinomialTail:
    def test_trivial_edges(self):
        assert binomial_tail(10, 0.3, 0) == 1.0
        assert binomial_tail(10, 0.0, 1) == 0.0
        assert binomial_tail(10, 1.0, 10) == 1.0
        assert binomial_tail(5, 0.0, 0) == 1.0

    def test_paper_value(self):
        b = paper_breakdown()
        assert binomial_tail(1000, b.p_s, 90) == pytest.approx(0.0468, abs=0.0005)

    def test_against_scipy_oracle(self):
        rng = np.random.default_rng(7321)
        for _ in range(200):
            m = int(rng.integers(1, 3000))
            p = float(rng.uniform())
            k = int(rng.integers(0, m + 1))
            want = float(binom.sf(k - 1, m, p))
            got = binomial_tail(m, p, k)
            assert got == pytest.approx(want, abs=1e-12, rel=1e-9)

    def test_complement_sums_to_one(self):
        # P[X >= k] + P[X <= k-1], the latter written as an upper tail of failures
        rng = np.random.default_rng(99)
        for _ in range(100):
            m = int(rng.integers(1, 2000))
            p = float(rng.uniform(0.01, 0.99))
            k = int(rng.integers(1, m + 1))
            total = binomial_tail(m, p, k) + binomial_tail(m, 1.0 - p, m - k + 1)
            assert total == pytest.approx(1.0, abs=1e-12)

    def test_deep_tail_stability(self):
        # far right tail stays finite and ordered instead of overflowing to junk
        assert 0.0 <= binomial_tail(2000, 0.5, 1900) < 1e-100
        assert binomial_tail(2000, 0.5, 100) == pytest.approx(1.0, abs=1e-12)

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            binomial_tail(10, -0.1, 2)
        with pytest.raises(ValueError):
            binomial_tail(10, 0.5, 11)

    @pytest.mark.parametrize(
        "k, message",
        [
            (np.array([3, -1, 4]), "k=-1"),
            (np.array([3, 11, 4]), "k=11"),
            (-1, "k=-1"),
            (np.array([2.0, 3.0]), "integer"),
            (2.0, "integer"),
            (np.array([True]), "integer"),
            (np.array([[1, 2]]), "1-d"),
        ],
        ids=["below-0", "above-m", "scalar-below-0", "float-array", "float", "bool", "2-d"],
    )
    def test_invalid_levels(self, k, message):
        with pytest.raises(ValueError, match=message):
            binomial_tail(10, 0.5, k)

    @pytest.mark.parametrize("k", [3, np.array([3], dtype=np.uint64)], ids=["int", "uint64"])
    def test_m_beyond_exact_doubles_rejected(self, k):
        # above 2**53 not every integer is a double, so a factor could differ from the loop's
        with pytest.raises(ValueError, match="2\\*\\*53"):
            binomial_tail(2**53 + 1, 0.5, k)

    def test_array_and_scalar_results(self):
        assert type(binomial_tail(10, 0.3, 4)) is float
        got = binomial_tail(10, 0.3, np.array([4, 0, 10]))
        assert got.dtype == np.float64 and got.shape == (3,)
        assert binomial_tail(10, 0.3, np.array([], dtype=np.int64)).shape == (0,)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 3000), st.sampled_from([0.0, 1.0, 1e-300, 0.3]) | st.floats(0.0, 1.0), st.data())
    def test_scalar_is_the_one_row_array(self, m, p, data):
        k = data.draw(st.integers(0, m))
        assert binomial_tail(m, p, k).hex() == float(binomial_tail(m, p, np.array([k]))[0]).hex()


_TAIL_P = st.floats(0.0, 1.0, exclude_min=True, exclude_max=True) | st.sampled_from(
    [1e-300, 1e-12, 1.0 - 1e-12]
)


@st.composite
def _tail_levels(draw):
    """m and an unsorted, possibly repeated or empty, array of levels in [0, m]."""
    m = draw(st.integers(1, 1500))
    ks = draw(st.lists(st.integers(0, m), max_size=40))
    return m, np.array(ks, dtype=np.int64)


class TestTailArrayWalk:
    """The array walk gives every row the double of a one-row scalar loop."""

    @settings(max_examples=300, deadline=None)
    @given(_tail_levels(), _TAIL_P)
    def test_matches_the_scalar_loop_row_by_row(self, levels, p):
        m, ks = levels
        got = binomial_tail(m, p, ks)
        assert got.shape == ks.shape
        want = [reference_binomial_tail(m, p, k) for k in ks.tolist()]
        assert [v.hex() for v in got.tolist()] == [v.hex() for v in want]

    @pytest.mark.parametrize("p", [1e-300, 0.5, 1.0 - 1e-12])
    def test_full_column_at_large_m_warns_nothing(self, p):
        # entries walked past a row's stop may overflow; none of it may show
        m = 100_000
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            tails = binomial_tail(m, p, np.arange(m + 1))
        assert tails[0] == 1.0 and np.all(np.diff(tails) <= 0.0)
        assert np.all((tails >= 0.0) & (tails <= 1.0))

    def test_blocks_smaller_than_the_rows(self, monkeypatch):
        # a block budget below one row's walk: every row carries on through many blocks
        m, p = 3000, 0.4
        monkeypatch.setattr(fisher, "_BLOCK_TERMS", 64)
        monkeypatch.setattr(fisher, "_FIRST_TERMS", 1)
        monkeypatch.setattr(fisher, "_FIRST_WIDTH", 1)
        got = binomial_tail(m, p, np.arange(m + 1))
        want = [reference_binomial_tail(m, p, k) for k in range(m + 1)]
        assert [v.hex() for v in got.tolist()] == [v.hex() for v in want]


def reference_binomial_tail(m, p, k):
    """binomial_tail as a walk that stops only on the relative threshold, never on
    an exact zero: the same anchor, recurrence and operation order, term by term."""
    if k == 0:
        return 1.0
    if p == 0.0:
        return 0.0
    if p == 1.0:
        return 1.0

    def term_at(j):
        return math.exp(
            math.lgamma(m + 1) - math.lgamma(j + 1) - math.lgamma(m - j + 1)
            + j * math.log(p) + (m - j) * math.log1p(-p)
        )

    if k > (m + 1) * p:
        term, ratio, total = term_at(k), p / (1.0 - p), 0.0
        for j in range(k, m + 1):
            total += term
            if term < total * 1e-18:
                break
            term *= (m - j) / (j + 1) * ratio
        return min(1.0, total)
    term, ratio, total = term_at(k - 1), (1.0 - p) / p, 0.0
    for j in range(k - 1, -1, -1):
        total += term
        if term < total * 1e-18:
            break
        if j > 0:
            term *= j / (m - j + 1) * ratio
    return max(0.0, 1.0 - total)


@functools.cache
def reference_choose_cutoff(r, n0, gain):
    """choose_cutoff as a one-level-at-a-time scan from the floor n0 + 1.

    Kept per argument tuple: at r = 30 one scan makes about 10**5 scalar calls."""
    mu = (gain * r) ** 2
    n = n0 + 1
    while gammainc(n + 1, mu) >= 1e-12:
        n += 1
    return n


FRACTION_M = 10000


@pytest.fixture(scope="module")
def fraction_tail_reference():
    # every row of the fraction dataset at m = 10000 and the paper working point
    p = paper_breakdown().p_s
    return p, [reference_binomial_tail(FRACTION_M, p, k) for k in range(FRACTION_M + 1)]


class TestTailReferenceEquality:
    def test_binomial_tail_every_row_at_large_m(self, fraction_tail_reference):
        p, want = fraction_tail_reference
        got = [binomial_tail(FRACTION_M, p, k) for k in range(FRACTION_M + 1)]
        assert [v.hex() for v in got] == [v.hex() for v in want]

    @pytest.mark.parametrize("p", [1e-12, 1e-9, 1e-4, 0.0752652662929847, 0.3, 0.5,
                                   0.9, 1.0 - 1e-4, 1.0 - 1e-9, 1.0 - 1e-12])
    def test_binomial_tail_grid(self, p):
        for m in (1, 2, 5, 40, 333, 1500):
            for k in range(m + 1):
                assert binomial_tail(m, p, k).hex() == reference_binomial_tail(m, p, k).hex()

    @pytest.mark.parametrize("r", [0.0, 1e-3, 0.25, 1.0, 4.0, 16.0, 30.0])
    def test_choose_cutoff_default_grid(self, r):
        for n0 in (1, 2, 3, 6):
            for g in default_gain_grid():
                got = choose_cutoff(CoherentParams(r), n0, float(g))
                assert got == reference_choose_cutoff(r, n0, float(g)), (r, n0, g)

    @pytest.mark.parametrize("r", [0.25, 16.0, 30.0])
    def test_choose_cutoff_independent_of_call_order(self, r):
        # n0 in shuffled and repeated order, against a cold and a warm scan memo
        points = [(n0, float(g)) for n0 in (1, 2, 3, 6) for g in default_gain_grid()] * 2
        random.Random(7).shuffle(points)
        cold = {}
        for n0, g in points:
            fock._scan_cutoff.cache_clear()
            cold[n0, g] = choose_cutoff(CoherentParams(r), n0, g)
        for n0, g in points:
            warm = choose_cutoff(CoherentParams(r), n0, g)
            want = reference_choose_cutoff(r, n0, g)
            assert type(warm) is int
            assert warm == cold[n0, g] == want, (r, n0, g)

    def test_choose_cutoff_large_r_point(self):
        assert choose_cutoff(CoherentParams(16.0), 1, 8.0) == 17292

    def test_fraction_dataset_tail_column(self, tmp_path, fraction_tail_reference):
        _, want = fraction_tail_reference
        out = tmp_path / "fraction.json"
        assert main(["fraction", "--m", str(FRACTION_M), "--r", "0.25", "--gain", "2",
                     "--n0", "2", "--format", "json", "--output", str(out)]) == 0
        tail = [row["p_ns_or_more"] for row in json.loads(out.read_text())]
        assert [v.hex() for v in tail] == [v.hex() for v in want]
        assert tail[0] == 1.0
        assert all(a >= b for a, b in zip(tail, tail[1:]))
        # the mean is about 753 successes; far above it the tail underflows to zero
        assert tail[5000:] == [0.0] * (FRACTION_M - 4999)


class TestSweeps:
    def test_large_r_rows_independent_of_call_order(self):
        # the rows of one sweep against branch_breakdown point by point in reverse
        # order in the same process, past both the amplitude cache and the scan memo
        table = sweep_gain(16.0, [1, 2, 3, 4, 5, 6])
        for i in reversed(range(table["gain"].size)):
            gain, n0 = table["gain"][i].item(), table["n0"][i].item()
            b = branch_breakdown(16.0, NlaParams(gain, n0))
            for name in ("j_alpha", "j_s", "j_f", "j_ideal", "p_s", "p_f", "j_nla_asymptotic"):
                assert table[name][i].item().hex() == getattr(b, name).hex(), (n0, gain, name)

    def test_gain_one_rows(self):
        table = sweep_gain(0.25, [1, 2], gains=[1.0, 2.0])
        g1 = table["gain"] == 1.0
        assert g1.sum() == 2
        assert table["p_s"][g1] == pytest.approx(1.0, abs=1e-15)
        assert table["j_s_norm"][g1] == pytest.approx(1.0, abs=1e-9)
        assert (table["pf_jf"][g1] == 0.0).all()

    def test_p_s_monotone_in_gain(self):
        ps = sweep_gain(0.25, [2])["p_s"]
        assert all(a >= b - 1e-15 for a, b in zip(ps, ps[1:]))

    def test_ideal_norm_is_gain_squared(self):
        table = sweep_gain(0.25, [1, 3], gains=[1.0, 1.7, 4.0])
        assert table["j_ideal_norm"] == pytest.approx(table["gain"] ** 2, abs=1e-12)

    def test_asymptotic_never_exceeds_one(self):
        assert (sweep_gain(0.25, [1, 2, 3])["j_nla_asymptotic_norm"] <= 1.0 + 1e-12).all()

    def test_column_table(self):
        # n0-major columns: n0 int64, every other column float64
        table = sweep_gain(0.25, [1, 3], gains=[1.0, 2.0, 8.0])
        assert list(table) == [
            "gain", "n0", "j_alpha", "j_s", "j_f", "j_ideal", "p_s", "p_f", "ps_js",
            "pf_jf", "j_nla_asymptotic", "j_s_norm", "j_f_norm", "j_ideal_norm",
            "ps_js_norm", "pf_jf_norm", "j_nla_asymptotic_norm",
        ]
        assert {name: column.dtype for name, column in table.items()} == {
            name: np.dtype(np.int64 if name == "n0" else np.float64) for name in table
        }
        assert table["gain"].tolist() == [1.0, 2.0, 8.0] * 2
        assert table["n0"].tolist() == [1, 1, 1, 3, 3, 3]

    def test_derived_columns_are_the_scalar_doubles(self):
        # each product and quotient is the double the scalar expression gives
        table = sweep_gain(1.0, [1, 2], gains=[1.0, 1.5, 8.0])
        j_alpha = qfi_coherent(1.0)
        rows = [dict(zip(table, values)) for values in zip(*(c.tolist() for c in table.values()))]
        for row in rows:
            assert row["j_alpha"] == j_alpha
            for name, value in (("ps_js", row["p_s"] * row["j_s"]), ("pf_jf", row["p_f"] * row["j_f"])):
                assert row[name].hex() == value.hex()
            for name in ("j_s", "j_f", "j_ideal", "ps_js", "pf_jf", "j_nla_asymptotic"):
                assert row[f"{name}_norm"].hex() == (row[name] / j_alpha).hex()

    @pytest.mark.parametrize("r", [0.0, 1e-170])
    def test_norm_columns_are_nan_where_j_alpha_is_zero(self, r):
        table = sweep_gain(r, [1, 2], gains=[1.0, 2.0])
        assert (table["j_alpha"] == 0.0).all()
        for name in table:
            assert np.isnan(table[name]).all() == name.endswith("_norm"), name

    def test_empty_or_invalid_grid_rejected(self):
        with pytest.raises(ValueError):
            sweep_gain(0.25, [2], gains=[])
        with pytest.raises(ValueError):
            sweep_gain(0.25, [2], gains=[0.5, 2.0])

    @pytest.mark.parametrize("bad", [0.5, math.nan, math.inf])
    def test_bad_last_gain_refused_before_any_breakdown(self, monkeypatch, bad):
        # NlaParams checks every grid point, NaN included, before the first breakdown
        def no_breakdown(*args):
            raise AssertionError("branch_breakdown called")

        monkeypatch.setattr(fisher, "branch_breakdown", no_breakdown)
        with pytest.raises(ValueError, match=f"^gain must be a finite number >= 1, got {bad}$"):
            sweep_gain(0.25, [1, 2], gains=[1.0, 2.0, bad])

    @pytest.mark.parametrize("n0", [2.5, True, "3"])
    def test_non_integer_n0_refused(self, n0):
        # n0 goes to NlaParams unconverted: int() would truncate 2.5 and turn
        # True and "3" into 1 and 3, and give rows for the wrong n0
        with pytest.raises(ValueError, match="n0 must be an integer >= 1"):
            sweep_gain(0.25, [n0], gains=[2.0])

    def test_fraction_rows(self):
        b = paper_breakdown()
        m = 1000
        rows = fraction_rows(m, b)
        assert len(rows) == m + 1
        assert rows[-1]["j_nla"] == pytest.approx(b.j_s, abs=0)
        marked = [row for row in rows if row["is_most_likely"]]
        assert len(marked) == 1
        assert marked[0]["n_s"] == round(m * b.p_s)
        assert marked[0]["j_nla"] < b.j_alpha
        crossing = [row for row in rows if row["is_crossing"]]
        assert len(crossing) == 1
        assert crossing[0]["n_s"] == min_ns_exceeding(m, b)

    @pytest.mark.parametrize(
        "r, g, n0", [(0.25, 2.0, 2), (0.0, 2.0, 2), (0.25, 1.0, 2), (1.0, 8.0, 1), (0.25, 8.0, 6)]
    )
    def test_fraction_rows_match_the_per_row_formula(self, r, g, n0):
        b = branch_breakdown(r, NlaParams(g, n0))
        for m in (1, 2, 50, 1000):
            most_likely = int(round(m * b.p_s))
            try:
                crossing = min_ns_exceeding(m, b)
            except NoCrossingError:
                crossing = None
            want = []
            for n_s in range(m + 1):
                j = j_nla_conditional(n_s, m - n_s, b)
                want.append(
                    {
                        "n_s": n_s,
                        "fraction": n_s / m,
                        "ns_js_over_m": n_s * b.j_s / m,
                        "nf_jf_over_m": (m - n_s) * b.j_f / m,
                        "j_nla": j,
                        "j_nla_norm": j / b.j_alpha if b.j_alpha > 0.0 else float("nan"),
                        "is_most_likely": int(n_s == most_likely),
                        "is_crossing": int(n_s == crossing),
                        "p_ns_or_more": binomial_tail(m, b.p_s, n_s),
                    }
                )

            def exact(rows):
                return [
                    [(k, type(v), v.hex() if isinstance(v, float) else v) for k, v in row.items()]
                    for row in rows
                ]

            assert exact(fraction_rows(m, b)) == exact(want), (r, g, n0, m)

    def test_fraction_without_crossing(self):
        b = branch_breakdown(0.25, NlaParams(1.0, 2))
        rows = fraction_rows(50, b)
        assert not any(row["is_crossing"] for row in rows)
