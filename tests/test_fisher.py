"""Tests for the branch Fisher information bookkeeping."""

import json
import math

import numpy as np
import pytest
from scipy.special import gammainc
from scipy.stats import binom

from nlaphase import (
    CoherentParams,
    FisherBreakdown,
    FockVector,
    NlaParams,
    binomial_tail,
    branch_breakdown,
    Tolerance,
    choose_cutoff,
    coherent_state,
    default_gain_grid,
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


class TestJnlaConditional:
    def test_degenerate_averages(self):
        b = paper_breakdown()
        assert j_nla_conditional(0, 10, b) == pytest.approx(b.j_f, rel=1e-15)
        assert j_nla_conditional(10, 0, b) == pytest.approx(b.j_s, rel=1e-15)

    def test_exact_fraction_reproduces_asymptote(self):
        # substituting n_s/m = p_s exactly recovers p_s*j_s + p_f*j_f
        b = paper_breakdown()
        m = 10**6
        exact = j_nla_conditional(m * b.p_s, m * b.p_f, b)
        assert exact == pytest.approx(b.j_nla_asymptotic, abs=1e-12)
        # with integer rounding the gap is bounded by the count quantization
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


def reference_choose_cutoff(r, n0, gain, tol=Tolerance()):
    """choose_cutoff as a one-level-at-a-time scan from the floor n0 + 1."""
    mu = (gain * r) ** 2
    n = n0 + 1
    while gammainc(n + 1, mu) >= tol.tail_tol:
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

    @pytest.mark.parametrize("r", [0.0, 1e-3, 0.25, 1.0, 4.0, 16.0, 30.0])
    def test_choose_cutoff_loose_tolerance(self, r):
        tol = Tolerance(tail_tol=1e-6)
        for g in default_gain_grid():
            got = choose_cutoff(CoherentParams(r), 2, float(g), tol)
            assert got == reference_choose_cutoff(r, 2, float(g), tol), (r, g)

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
    def test_gain_one_rows(self):
        rows = sweep_gain(0.25, [1, 2], gains=[1.0, 2.0])
        g1 = [row for row in rows if row["gain"] == 1.0]
        for row in g1:
            assert row["p_s"] == pytest.approx(1.0, abs=1e-15)
            assert row["j_s_norm"] == pytest.approx(1.0, abs=1e-9)
            assert row["pf_jf"] == 0.0

    def test_monotone_success_probability(self):
        rows = sweep_gain(0.25, [2])
        ps = [row["p_s"] for row in rows]
        assert all(a >= b - 1e-15 for a, b in zip(ps, ps[1:]))

    def test_ideal_norm_is_gain_squared(self):
        for row in sweep_gain(0.25, [1, 3], gains=[1.0, 1.7, 4.0]):
            assert row["j_ideal_norm"] == pytest.approx(row["gain"] ** 2, abs=1e-12)

    def test_asymptotic_never_exceeds_one(self):
        for row in sweep_gain(0.25, [1, 2, 3]):
            assert row["j_nla_asymptotic_norm"] <= 1.0 + 1e-12

    def test_empty_or_invalid_grid_rejected(self):
        with pytest.raises(ValueError):
            sweep_gain(0.25, [2], gains=[])
        with pytest.raises(ValueError):
            sweep_gain(0.25, [2], gains=[0.5, 2.0])

    def test_fraction_rows(self):
        b = paper_breakdown()
        m = 1000
        rows = sweep_fraction(m, b)
        assert len(rows) == m + 1
        assert rows[-1]["j_nla"] == pytest.approx(b.j_s, abs=0)
        marked = [row for row in rows if row["is_most_likely"]]
        assert len(marked) == 1
        assert marked[0]["n_s"] == round(m * b.p_s)
        assert marked[0]["j_nla"] < b.j_alpha
        crossing = [row for row in rows if row["is_crossing"]]
        assert len(crossing) == 1
        assert crossing[0]["n_s"] == min_ns_exceeding(m, b)

    def test_fraction_without_crossing(self):
        b = branch_breakdown(0.25, NlaParams(1.0, 2))
        rows = sweep_fraction(50, b)
        assert not any(row["is_crossing"] for row in rows)
