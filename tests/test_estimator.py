"""Tests for the optimal observable and the maximum-likelihood estimators."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nlaphase import (
    CoherentParams,
    NlaParams,
    SimConfig,
    apply_branch,
    build_observable,
    choose_cutoff,
    coherent_state,
    five_outcome_probs,
    heralding_probabilities,
    inner_product,
    mle_direct,
    mle_nla,
    outcome_probabilities,
    phase_derivative,
    qfi_pure,
    simulate_direct,
    simulate_nla,
)
from nlaphase import kernels, montecarlo
from nlaphase.errors import DegenerateObservableError, DimensionMismatchError, NoDataError


def coherent_family(r, theta=0.0, n0=2, gain=2.0):
    # the conservative amplified-bound cutoff keeps truncation residues at
    # machine precision, which the 1e-12 checks below rely on
    cutoff = choose_cutoff(CoherentParams(r), n0, gain)
    psi = coherent_state(CoherentParams(r, theta), cutoff)
    return psi, phase_derivative(psi)


def coherent_observable(r=0.25):
    psi0, dpsi0 = coherent_family(r)
    return build_observable(psi0, dpsi0), psi0, dpsi0


def branch_observables(r, gain, n0):
    params = NlaParams(gain, n0)
    cutoff = choose_cutoff(CoherentParams(r), n0, gain)
    succ, fail = apply_branch(CoherentParams(r), params, cutoff)
    obs_s = build_observable(succ, phase_derivative(succ))
    obs_f = None
    if fail is not None:
        try:
            obs_f = build_observable(fail, phase_derivative(fail))
        except DegenerateObservableError:
            obs_f = None
    return params, obs_s, obs_f


def rebuild_matrix(lam, psi0, dpsi0):
    """Independent reconstruction of the observable as a dense matrix."""
    outer = np.outer(psi0.amplitudes, dpsi0.amplitudes.conj())
    return 2.0 * lam**2 * (outer + outer.conj().T)


class TestBuildObservable:
    def test_coherent_eigenvalue_is_half_inverse_r(self):
        obs, _, _ = coherent_observable(0.25)
        assert obs.lam == pytest.approx(2.0, abs=1e-12)  # 1/(2r)

    def test_lambda_squared_times_j_is_one(self):
        for r, gain, n0 in [(0.25, 1.0, 1), (0.25, 2.0, 2), (0.5, 4.0, 3), (0.1, 1.5, 2)]:
            _, obs_s, obs_f = branch_observables(r, gain, n0)
            cutoff = choose_cutoff(CoherentParams(r), n0, gain)
            succ, _ = apply_branch(CoherentParams(r), NlaParams(gain, n0), cutoff)
            j = qfi_pure(succ, phase_derivative(succ))
            assert obs_s.lam**2 * j == pytest.approx(1.0, abs=1e-10)

    def test_degenerate_family_rejected(self):
        cutoff = choose_cutoff(CoherentParams(0.25), 1, 2.0)
        _, fail = apply_branch(CoherentParams(0.25), NlaParams(2.0, 1), cutoff)
        with pytest.raises(DegenerateObservableError):
            build_observable(fail, phase_derivative(fail))

    def test_eigenpair_orthonormal_and_phase_fixed(self):
        obs, psi0, _ = coherent_observable(0.25)
        assert abs(inner_product(obs.c_plus, obs.c_minus)) < 1e-10
        assert abs(obs.c_plus.norm_sq - 1.0) < 1e-10
        assert abs(obs.c_minus.norm_sq - 1.0) < 1e-10
        for c in (obs.c_plus, obs.c_minus):
            overlap = inner_product(psi0, c)
            assert overlap.real > 0
            assert abs(overlap.imag) < 1e-12

    def test_sandwich_reconstruction(self):
        # rebuild the operator from scratch and sandwich the claimed eigenvectors
        families = [coherent_observable(0.25)]
        for gain, n0, arm in [(2.0, 2, 0), (2.0, 2, 1), (4.0, 3, 1)]:
            cutoff = choose_cutoff(CoherentParams(0.25), n0, gain)
            out = apply_branch(CoherentParams(0.25), NlaParams(gain, n0), cutoff)[arm]
            dstate = phase_derivative(out)
            families.append((build_observable(out, dstate), out, dstate))
        for obs, psi0, dpsi0 in families:
            mat = rebuild_matrix(obs.lam, psi0, dpsi0)
            cp, cm = obs.c_plus.amplitudes, obs.c_minus.amplitudes
            assert np.vdot(cp, mat @ cp).real == pytest.approx(obs.lam, abs=1e-10)
            assert np.vdot(cm, mat @ cm).real == pytest.approx(-obs.lam, abs=1e-10)
            assert abs(np.vdot(cp, mat @ cm)) < 1e-10

    def test_zero_trace(self):
        obs, psi0, dpsi0 = coherent_observable(0.25)
        mat = rebuild_matrix(obs.lam, psi0, dpsi0)
        cp, cm = obs.c_plus.amplitudes, obs.c_minus.amplitudes
        trace = np.vdot(cp, mat @ cp).real + np.vdot(cm, mat @ cm).real
        assert abs(trace) < 1e-10

    def test_real_overlap_rejected(self):
        psi0, _ = coherent_family(0.25)
        with pytest.raises(ValueError):
            build_observable(psi0, psi0)


class TestMoments:
    def test_second_moment_at_origin(self):
        # tr(rho_0 C^2) = lam^2 exactly at theta = 0
        obs, psi0, _ = coherent_observable(0.25)
        p = outcome_probabilities(obs, psi0)
        second = obs.lam**2 * (p[0] + p[1])
        assert second == pytest.approx(obs.lam**2, abs=1e-10)

    @pytest.mark.parametrize("theta", [5e-4, 1e-3])
    def test_mean_residual_is_cubic(self, theta):
        # tr(rho_theta C) = theta - kappa*theta^3 + ... for this family: the
        # quadratic term vanishes by parity (the amplitudes at theta = 0 are
        # real), so doubling theta multiplies the residual by 8, not 4
        obs, _, _ = coherent_observable(0.25)
        cutoff = obs.c_plus.cutoff

        def mean(th):
            state = coherent_state(CoherentParams(0.25, th), cutoff)
            p = outcome_probabilities(obs, state)
            return obs.lam * (p[0] - p[1])

        e1 = abs(mean(theta) - theta)
        e2 = abs(mean(2 * theta) - 2 * theta)
        assert e1 < theta**2  # consistent with the O(theta^2) bound
        assert e2 / e1 == pytest.approx(8.0, abs=0.5)


class TestOutcomeProbabilities:
    def test_balanced_at_origin(self):
        obs, psi0, _ = coherent_observable(0.25)
        p = outcome_probabilities(obs, psi0)
        assert p[0] == pytest.approx(0.5, abs=1e-12)
        assert p[1] == pytest.approx(0.5, abs=1e-12)
        assert p[2] == pytest.approx(0.0, abs=1e-12)

    def test_linear_response(self):
        theta = 1e-3
        obs, _, _ = coherent_observable(0.25)
        state = coherent_state(CoherentParams(0.25, theta), obs.c_plus.cutoff)
        p = outcome_probabilities(obs, state)
        assert p[0] - p[1] == pytest.approx(theta / obs.lam, abs=5e-7)

    def test_sums_to_one(self):
        obs, _, _ = coherent_observable(0.25)
        state = coherent_state(CoherentParams(0.25, 0.3), obs.c_plus.cutoff)
        p = outcome_probabilities(obs, state)
        assert p[0] + p[1] + p[2] == pytest.approx(1.0, abs=1e-12)

    def test_dimension_mismatch(self):
        obs, _, _ = coherent_observable(0.25)
        with pytest.raises(DimensionMismatchError):
            outcome_probabilities(obs, coherent_state(CoherentParams(0.25), obs.c_plus.cutoff + 3))


class TestFiveOutcomeProbs:
    @pytest.mark.parametrize("r", [0.1, 0.25, 0.5])
    @pytest.mark.parametrize("gain", [1.5, 2.0, 4.0])
    @pytest.mark.parametrize("n0", [2, 3])
    def test_balanced_at_origin(self, r, gain, n0):
        # n0 = 1 is the degenerate four-outcome structure, covered separately
        params, obs_s, obs_f = branch_observables(r, gain, n0)
        five = five_outcome_probs(CoherentParams(r, 0.0), params, obs_s, obs_f)
        p_s, p_f = heralding_probabilities(r, params)
        assert five[0] == pytest.approx(p_s / 2, abs=1e-12)
        assert five[1] == pytest.approx(p_s / 2, abs=1e-12)
        assert five[2] == pytest.approx(p_f / 2, abs=1e-12)
        assert five[3] == pytest.approx(p_f / 2, abs=1e-12)
        assert five[4] == pytest.approx(0.0, abs=1e-12)
        assert obs_f is not None

    def test_identity_gain_reduces_to_direct(self):
        params, obs_s, obs_f = branch_observables(0.25, 1.0, 2)
        assert obs_f is None  # the failure branch never fires at g = 1
        theta = 0.01
        five = five_outcome_probs(CoherentParams(0.25, theta), params, obs_s, obs_f)
        direct = outcome_probabilities(
            obs_s, coherent_state(CoherentParams(0.25, theta), obs_s.c_plus.cutoff)
        )
        assert five[0] == pytest.approx(direct[0], abs=1e-12)
        assert five[1] == pytest.approx(direct[1], abs=1e-12)
        assert five[2] == pytest.approx(0.0, abs=1e-15)
        assert five[3] == 0.0
        assert five[4] == pytest.approx(direct[2], abs=1e-12)

    def test_degenerate_failure_collapses_to_aggregate(self):
        # with no failure observable the failure mass p_f is counted as null,
        # beside the success arm's own null |<null|E_s|alpha>|^2
        theta = 0.01
        params, obs_s, obs_f = branch_observables(0.25, 2.0, 1)
        assert obs_f is None
        five = five_outcome_probs(CoherentParams(0.25, theta), params, obs_s, None)
        succ, _ = apply_branch(CoherentParams(0.25, theta), params, obs_s.c_plus.cutoff)
        p_s, p_f = heralding_probabilities(0.25, params)
        null_s = p_s * (1.0 - outcome_probabilities(obs_s, succ)[:2].sum())
        assert five[2] == 0.0
        assert five[3] == 0.0
        assert five[4] == pytest.approx(p_f + null_s, abs=1e-12)

    def test_sums_to_one(self):
        params, obs_s, obs_f = branch_observables(0.25, 2.0, 2)
        five = five_outcome_probs(CoherentParams(0.25, 0.7), params, obs_s, obs_f)
        assert float(five.sum()) == pytest.approx(1.0, abs=1e-12)

    def test_equivalent_branch_state_form(self):
        # |<c_{s,+-}| E_s |alpha>|^2 equals p_s * |<c_{s,+-}|psi_s(theta)>|^2
        theta = 0.01
        params, obs_s, obs_f = branch_observables(0.25, 2.0, 2)
        five = five_outcome_probs(CoherentParams(0.25, theta), params, obs_s, obs_f)
        cutoff = obs_s.c_plus.cutoff
        succ, fail = apply_branch(CoherentParams(0.25, theta), params, cutoff)
        p_s, p_f = heralding_probabilities(0.25, params)
        assert five[0] == pytest.approx(p_s * abs(inner_product(obs_s.c_plus, succ)) ** 2, abs=1e-14)
        assert five[1] == pytest.approx(p_s * abs(inner_product(obs_s.c_minus, succ)) ** 2, abs=1e-14)
        assert five[2] == pytest.approx(p_f * abs(inner_product(obs_f.c_plus, fail)) ** 2, abs=1e-14)


class TestMleDirect:
    def test_substitution(self):
        assert mle_direct(60, 40, 2.0) == pytest.approx(0.4, abs=1e-15)

    def test_symmetry(self):
        assert mle_direct(50, 50, 3.7) == 0.0

    def test_saturation(self):
        assert mle_direct(100, 0, 2.0) == 2.0
        assert mle_direct(0, 100, 2.0) == -2.0

    def test_no_data(self):
        with pytest.raises(NoDataError):
            mle_direct(0, 0, 2.0)
        with pytest.raises(NoDataError):
            mle_direct(np.array([3, 0]), np.array([1, 0]), 2.0)

    def test_arrays(self):
        got = mle_direct(np.array([60, 50, 100]), np.array([40, 50, 0]), 2.0)
        assert got.tolist() == [mle_direct(60, 40, 2.0), 0.0, 2.0]
        assert mle_direct(np.array([], dtype=np.int64), np.array([], dtype=np.int64), 2.0).size == 0

    def test_negative_counts_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            mle_direct(5, -1, 2.0)


class TestMleNla:
    def test_single_branch_limits(self):
        assert mle_nla([6, 4, 0, 0, 0], 2.0, 3.0) == mle_direct(6, 4, 2.0)
        assert mle_nla([0, 0, 6, 4, 0], 2.0, 3.0) == mle_direct(6, 4, 3.0)

    def test_degenerate_failure_ignores_failure_counts(self):
        assert mle_nla([6, 4, 30, 10, 0], 2.0, None) == mle_direct(6, 4, 2.0)

    def test_symmetric_weights_average(self):
        got = mle_nla([6, 4, 8, 2, 0], 2.0, 2.0)
        want = 0.5 * (mle_direct(6, 4, 2.0) + mle_direct(8, 2, 2.0))
        assert got == pytest.approx(want, abs=1e-15)

    def test_consistent_with_variance_weight(self):
        # the count-weighted combination equals the beta-weighted one with
        # per-branch variances lam^2 / n
        lam_s, lam_f = 1.3, 0.8
        n_s, n_f = 65, 203
        v_s, v_f = lam_s**2 / n_s, lam_f**2 / n_f
        beta = v_f / (v_s + v_f)  # the variance-minimizing weight on the success estimate
        want = beta * mle_direct(40, 25, lam_s) + (1 - beta) * mle_direct(110, 93, lam_f)
        assert mle_nla([40, 25, 110, 93, 2], lam_s, lam_f) == pytest.approx(want, abs=1e-14)

    def test_no_data(self):
        with pytest.raises(NoDataError):
            mle_nla([0, 0, 0, 0, 10], 2.0, 3.0)
        with pytest.raises(NoDataError):
            mle_nla([0, 0, 5, 5, 0], 2.0, None)

    def test_negative_counts_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            mle_nla([-1, 0, 0, 0, 0], 2.0, 3.0)
        with pytest.raises(ValueError, match="nonnegative"):
            mle_nla([[1, 0, 0, 0, 0], [3, 0, -1, 0, 0]], 2.0, 3.0)

    def test_rows_must_hold_five_outcomes(self):
        with pytest.raises(ValueError, match="5 outcomes"):
            mle_nla([6, 4, 0], 2.0, None)


# Reference: the scalar estimators and the per-run loop that dropped no-data runs,
# as they were before the estimators took arrays.  The array path must give the
# same doubles.


def reference_direct(n_plus, n_minus, lam):
    total = n_plus + n_minus
    if total < 1:
        raise NoDataError("no informative counts")
    return lam * (n_plus - n_minus) / total


def reference_nla(row, lambda_s, lambda_f):
    s_plus, s_minus, f_plus, f_minus, _ = (int(c) for c in row)
    n_s = s_plus + s_minus
    n_f = f_plus + f_minus
    if lambda_f is None:
        if n_s < 1:
            raise NoDataError("no informative counts (degenerate failure branch)")
        return reference_direct(s_plus, s_minus, lambda_s)
    if n_s + n_f < 1:
        raise NoDataError("no informative counts")
    if n_f == 0:
        return reference_direct(s_plus, s_minus, lambda_s)
    if n_s == 0:
        return reference_direct(f_plus, f_minus, lambda_f)
    theta_s = reference_direct(s_plus, s_minus, lambda_s)
    theta_f = reference_direct(f_plus, f_minus, lambda_f)
    w_s = n_s * lambda_f**2
    w_f = n_f * lambda_s**2
    return (w_s * theta_s + w_f * theta_f) / (w_s + w_f)


def reference_estimates(rows, estimate):
    kept = []
    for row in rows:
        try:
            kept.append(estimate(row))
        except NoDataError:
            continue
    return kept


def hexes(values):
    return [float(v).hex() for v in values]


counts_st = st.one_of(st.just(0), st.integers(0, 3), st.integers(0, 10_000))
rows_st = st.lists(st.tuples(*[counts_st] * 5), min_size=1, max_size=40)
lam_st = st.floats(1e-3, 1e3, allow_nan=False, allow_infinity=False)


class TestArrayEstimatorsMatchReference:
    @settings(max_examples=300, deadline=None)
    @given(rows=rows_st, lambda_s=lam_st, lambda_f=st.none() | lam_st)
    def test_nla_rows(self, rows, lambda_s, lambda_f):
        kept, want = [], []
        for row in rows:
            try:
                want.append(reference_nla(row, lambda_s, lambda_f))
            except NoDataError:
                with pytest.raises(NoDataError):
                    mle_nla(row, lambda_s, lambda_f)
                continue
            kept.append(row)
            assert hexes([mle_nla(row, lambda_s, lambda_f)]) == hexes(want[-1:])
        got = mle_nla(np.array(kept, dtype=np.int64).reshape(-1, 5), lambda_s, lambda_f)
        assert hexes(got) == hexes(want)

    @settings(max_examples=300, deadline=None)
    @given(rows=rows_st, lam=lam_st)
    def test_direct_rows(self, rows, lam):
        pairs = np.array(rows, dtype=np.int64)[:, :2]
        want = reference_estimates(pairs, lambda pair: reference_direct(int(pair[0]), int(pair[1]), lam))
        kept = pairs[pairs.sum(axis=1) >= 1]
        assert hexes(mle_direct(kept[:, 0], kept[:, 1], lam)) == hexes(want)
        if len(kept) < len(pairs):
            with pytest.raises(NoDataError):
                mle_direct(pairs[:, 0], pairs[:, 1], lam)

    # the grid points of the benchmark's mc-small-m workload: n0 = 1 has a
    # degenerate failure branch, and about a fifth of the runs at g = 8, n0 = 1
    # carry no data; at a far phase with one trial per run the direct experiment
    # drops runs too
    @pytest.mark.parametrize(
        "config",
        [
            SimConfig(r=0.25, gain=gain, n0=n0, m=20, runs=50_000, seed=4)
            for gain in (1.0, 2.0, 8.0)
            for n0 in (1, 2)
        ]
        + [SimConfig(r=0.25, theta_true=3.0, gain=2.0, n0=2, m=1, runs=50_000, seed=4)],
        ids=lambda c: f"g{c.gain}-n0{c.n0}-m{c.m}",
    )
    def test_simulate_reports(self, config):
        obs, probs = montecarlo._direct_setup(config)
        key = kernels.derive_key(config.seed, montecarlo._STREAM_DIRECT)
        counts = kernels.categorical_counts(key, 0, config.runs, config.m, probs)
        direct = reference_estimates(counts, lambda row: reference_direct(int(row[0]), int(row[1]), obs.lam))

        obs_s, obs_f, probs = montecarlo._nla_setup(config)
        lam_f = None if obs_f is None else obs_f.lam
        key = kernels.derive_key(config.seed, montecarlo._STREAM_NLA)
        counts = kernels.categorical_counts(key, 0, config.runs, config.m, probs)
        nla = reference_estimates(counts, lambda row: reference_nla(row, obs_s.lam, lam_f))

        assert (lam_f is None) == (config.n0 == 1 or config.gain == 1.0)
        if (config.gain, config.n0) == (8.0, 1):
            assert 0.15 < 1 - len(nla) / config.runs < 0.3
        if config.m == 1:
            assert 0.01 < 1 - len(direct) / config.runs < 0.05
        for simulate, estimates in ((simulate_direct, direct), (simulate_nla, nla)):
            want = montecarlo.precision_from_samples(estimates, config.theta_true, config.m)
            got = simulate(config)
            assert got.runs_used == want.runs_used == len(estimates)
            assert hexes([got.mse, got.precision, got.stderr_precision]) == hexes(
                [want.mse, want.precision, want.stderr_precision]
            )
