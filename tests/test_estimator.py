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
from nlaphase import estimator, kernels, montecarlo
from nlaphase.errors import DegenerateObservableError, DimensionMismatchError, NoDataError

import oracle


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
            mat = oracle.observable_matrix(obs.lam, psi0, dpsi0)
            cp, cm = obs.c_plus.amplitudes, obs.c_minus.amplitudes
            assert np.vdot(cp, mat @ cp).real == pytest.approx(obs.lam, abs=1e-10)
            assert np.vdot(cm, mat @ cm).real == pytest.approx(-obs.lam, abs=1e-10)
            assert abs(np.vdot(cp, mat @ cm)) < 1e-10

    def test_zero_trace(self):
        obs, psi0, dpsi0 = coherent_observable(0.25)
        mat = oracle.observable_matrix(obs.lam, psi0, dpsi0)
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


class TestCountRule:
    """Counts are integers of any integer type in [0, 2**63), taken as int64 a block
    of runs at a time: unsigned subtraction once wrapped (`mle_direct(np.uint8(1),
    np.uint8(3), 1.0)` gave 63.5) and float counts once gave an estimate or a
    NoDataError."""

    def test_unsigned_counts_do_not_wrap(self):
        assert mle_direct(np.uint8(1), np.uint8(3), 1.0) == -0.5
        pair = np.array([1, 5], np.uint64), np.array([3, 1], np.uint64)
        assert mle_direct(*pair, 1.0).tolist() == [-0.5, 2 / 3]
        assert mle_nla(np.array([1, 3, 0, 0, 0], np.uint32), 1.0, 2.0) == -0.5

    @pytest.mark.parametrize(
        "n_plus, n_minus", [(2.5, 1), (0.5, 0.2), (2.0, 1), (True, False), (np.True_, 1), ("3", 1), (2**64, 1)]
    )
    def test_non_integer_counts_refused(self, n_plus, n_minus):
        with pytest.raises(ValueError, match=r"^n_plus must be integer counts, got dtype ") as raised:
            mle_direct(n_plus, n_minus, 1.0)
        assert raised.type is ValueError  # not a NoDataError

    def test_non_integer_rows_refused(self):
        with pytest.raises(ValueError, match=r"^counts must be integer counts, got dtype float64$"):
            mle_nla([1.0, 3.0, 0.0, 0.0, 0.0], 1.0, 2.0)
        with pytest.raises(ValueError, match=r"^counts must be integer counts, got dtype bool$"):
            mle_nla(np.ones(5, dtype=bool), 1.0, 2.0)

    @pytest.mark.parametrize("big", [np.uint64(2**63), 2**63, np.array([1, 2**64 - 1], np.uint64)])
    def test_counts_above_int64_refused(self, big):
        with pytest.raises(ValueError, match=r"^n_minus must be at most 2\*\*63 - 1, got "):
            mle_direct(1, big, 1.0)

    @pytest.mark.parametrize("dtype", [np.int8, np.int16, np.int32, np.int64, np.uint8, np.uint16])
    def test_every_integer_type_gives_the_int64_doubles(self, dtype):
        # the sampling kernel hands over its narrowest type; rows of m = 100 trials,
        # near int8's limit, over three blocks of runs, two of them all + or all -
        counts = np.random.default_rng(3).multinomial(
            100, [0.3, 0.2, 0.05, 0.05, 0.4], size=2 * estimator._BLOCK_RUNS + 5)
        counts[:2] = [[100, 0, 0, 0, 0], [0, 100, 0, 0, 0]]
        counts = np.asarray(counts, order="F")
        typed = counts.astype(dtype)
        for lam_f in (None, 2.0):
            want = mle_nla(counts, 1.5, lam_f)
            assert mle_nla(typed, 1.5, lam_f).tobytes() == want.tobytes()
            assert mle_nla(typed[7], 1.5, lam_f).hex() == float(want[7]).hex()
        want = mle_direct(counts[:, 0], counts[:, 1], 1.5)
        assert mle_direct(typed[:, 0], typed[:, 1], 1.5).tobytes() == want.tobytes()

    @pytest.mark.parametrize("dtype", [np.int8, np.int16, np.int32, np.int64, np.uint8, np.uint16])
    def test_every_integer_type_gives_the_same_no_data_error(self, dtype):
        rows = np.array([[3, 1, 0, 0, 96], [0, 0, 0, 0, 100]], dtype=dtype)
        with pytest.raises(NoDataError, match="^no informative counts$"):
            mle_nla(rows, 1.5, 2.0)
        with pytest.raises(NoDataError, match="^no informative counts$"):
            mle_direct(rows[:, 0], rows[:, 1], 1.5)

    def test_int64_counts_are_not_copied(self):
        counts = np.zeros((4, 5), dtype=np.int64, order="F")
        counts[:, 0] = 1
        assert estimator._counts("counts", counts) is counts
        assert mle_nla(counts, 1.0, 2.0).tolist() == [1.0] * 4


class TestHasData:
    """The no-data rule against the informative counts of each run."""

    @pytest.mark.parametrize("failure_informative", [False, True])
    def test_matches_the_axis_reduce(self, failure_informative):
        rng = np.random.default_rng(18)
        counts = rng.integers(0, 3, size=(2000, 5)) * (rng.random((2000, 1)) < 0.9)
        counts[:7] = 0  # all-zero rows
        counts[7:12, :2] = 0  # informative only through the failure pair
        cases = [counts, counts[:, :4], counts[3], counts[9], counts[20], counts.reshape(40, 50, 5)]
        for c in cases:
            got = estimator._has_data(c, failure_informative)
            want = oracle.mle(c, 1.0, 1.0 if failure_informative else None)[1]
            assert got.shape == want.shape and np.array_equal(got, want)


def hexes(values):
    return [float(v).hex() for v in values]


counts_st = st.one_of(st.just(0), st.integers(0, 3), st.integers(0, 10_000))
rows_st = st.lists(st.tuples(*[counts_st] * 5), min_size=1, max_size=40)
lam_st = st.floats(1e-3, 1e3, allow_nan=False, allow_infinity=False)


class TestArrayEstimatorsMatchReference:
    @settings(max_examples=300, deadline=None)
    @given(rows=rows_st, lambda_s=lam_st, lambda_f=st.none() | lam_st)
    def test_nla_rows(self, rows, lambda_s, lambda_f):
        counts = np.array(rows, dtype=np.int64)
        want, has_data = oracle.mle(counts, lambda_s, lambda_f)
        for row, estimate, ok in zip(rows, want, has_data):
            if ok:
                assert hexes([mle_nla(row, lambda_s, lambda_f)]) == hexes([estimate])
            else:
                with pytest.raises(NoDataError):
                    mle_nla(row, lambda_s, lambda_f)
        assert hexes(mle_nla(counts[has_data], lambda_s, lambda_f)) == hexes(want[has_data])

    @settings(max_examples=300, deadline=None)
    @given(rows=rows_st, lam=lam_st)
    def test_direct_rows(self, rows, lam):
        pairs = np.array(rows, dtype=np.int64)[:, :2]
        want, has_data = oracle.mle(pairs, lam)
        kept = pairs[has_data]
        assert hexes(mle_direct(kept[:, 0], kept[:, 1], lam)) == hexes(want[has_data])
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
        estimates, has_data = oracle.mle(counts, obs.lam)
        direct = estimates[has_data]

        obs_s, obs_f, probs = montecarlo._nla_setup(config)
        lam_f = None if obs_f is None else obs_f.lam
        key = kernels.derive_key(config.seed, montecarlo._STREAM_NLA)
        counts = kernels.categorical_counts(key, 0, config.runs, config.m, probs)
        estimates, has_data = oracle.mle(counts, obs_s.lam, lam_f)
        nla = estimates[has_data]

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


class TestEigenvalueChecks:
    """lam, lambda_s and lambda_f must be finite positive numbers."""

    BAD = [-2.0, 0.0, -0.0, True, False, np.True_, np.nan, np.inf, -np.inf, "2.0", None, 1j]

    @pytest.mark.parametrize("lam", BAD)
    def test_direct_refuses(self, lam):
        with pytest.raises(ValueError, match=r"^lam must be a"):
            mle_direct(5, 3, lam)

    @pytest.mark.parametrize("lam", BAD)
    def test_nla_refuses(self, lam):
        with pytest.raises(ValueError, match=r"^lambda_s must be a"):
            mle_nla([3, 1, 2, 2, 0], lam, 1.0)
        if lam is not None:  # lambda_f = None marks a degenerate failure branch
            with pytest.raises(ValueError, match=r"^lambda_f must be a"):
                mle_nla([3, 1, 2, 2, 0], 1.0, lam)

    def test_messages(self):
        with pytest.raises(ValueError, match=r"^lam must be a finite number > 0, got -2\.0$"):
            mle_direct(5, 3, -2.0)
        with pytest.raises(ValueError, match=r"^lambda_f must be a finite number, got inf$"):
            mle_nla([3, 1, 2, 2, 0], 1.0, np.inf)
        with pytest.raises(ValueError, match=r"^lam must be a number, got True$"):
            mle_direct(5, 3, True)

    @pytest.mark.parametrize("lam", [2, np.float32(0.5), np.float64(0.3), np.int64(3), 1e-300, 1e300])
    def test_real_eigenvalues_keep_their_bits(self, lam):
        want = float(lam) * 2 / 8
        assert mle_direct(5, 3, lam).hex() == want.hex()
        assert mle_nla([5, 3, 1, 0, 0], lam, None).hex() == want.hex()


class TestOnePassEstimatorsGiveTheOldDoubles:
    """The estimators read each count column once; every estimate must be the double
    of the whole-array expressions they replaced."""

    # m = 20 rows over more than three estimator blocks; about a fifth of the runs
    # have n_s = 0 and a tenth n_f = 0 (rows with neither are dropped)
    RUNS = 3 * estimator._BLOCK_RUNS + 123

    @classmethod
    def matrix(cls, seed, order):
        probs = [0.04, 0.04, 0.055, 0.055, 0.81]
        counts = np.random.default_rng(seed).multinomial(20, probs, size=cls.RUNS)
        counts = counts[counts[:, :4].sum(axis=1) >= 1]
        return np.asarray(counts, order=order)

    @pytest.mark.parametrize("order", ["C", "F"])
    @pytest.mark.parametrize("seed", [4, 11])
    @pytest.mark.parametrize("lambda_f", [None, 0.81, 2.9])
    def test_nla(self, order, seed, lambda_f):
        counts = self.matrix(seed, order)
        n_s, n_f = counts[:, :2].sum(axis=1), counts[:, 2:4].sum(axis=1)
        assert 0.1 < np.mean(n_s == 0) < 0.3 and 0.05 < np.mean(n_f == 0) < 0.2
        if lambda_f is None:
            counts = counts[n_s >= 1]
        got = mle_nla(counts, 1.37, lambda_f)
        assert got.dtype == np.float64 and np.array_equal(got, oracle.mle(counts, 1.37, lambda_f)[0])

    @pytest.mark.parametrize("order", ["C", "F"])
    @pytest.mark.parametrize("seed", [4, 11])
    def test_direct(self, order, seed):
        counts = self.matrix(seed, order)
        counts = counts[counts[:, :2].sum(axis=1) >= 1]
        got = mle_direct(counts[:, 0], counts[:, 1], 0.61)
        want = oracle.mle(counts, 0.61)[0]
        assert got.dtype == np.float64 and np.array_equal(got, want)

    def test_shapes(self):
        # one row gives a float, a stack of matrices an array of the same stack shape
        counts = self.matrix(4, "F")[:600]
        assert type(mle_nla(counts[7], 1.37, 0.81)) is float
        stacked = counts.reshape(20, 30, 5)
        assert np.array_equal(mle_nla(stacked, 1.37, 0.81), oracle.mle(stacked, 1.37, 0.81)[0])
        pairs = counts[counts[:, :2].sum(axis=1) >= 1][:, :2]
        got = mle_direct(pairs[:, :1], pairs[0, 1], 0.61)  # a column against one count
        assert got.shape == (len(pairs), 1)
        want = oracle.mle(np.stack(np.broadcast_arrays(pairs[:, :1], pairs[0, 1]), axis=-1), 0.61)[0]
        assert np.array_equal(got, want)
