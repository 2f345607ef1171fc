"""Tests for the seeded Monte Carlo estimation experiments."""

import dataclasses
import math
import tracemalloc
import warnings

import numpy as np
import pytest

from nlaphase import (
    NlaParams,
    PrecisionReport,
    SimConfig,
    branch_breakdown,
    derive_key,
    mle_direct,
    precision_from_samples,
    qfi_coherent,
    simulate_direct,
    simulate_nla,
)
from nlaphase import estimator, fock, kernels
from nlaphase.errors import NoDataError
from nlaphase.montecarlo import _STREAM_DIRECT, _direct_setup, _runs_with_data


def _draw(probs, m: int, key: int, run: int) -> np.ndarray:
    """One multinomial count vector of m trials: run index `run` of stream `key`,
    drawn the way the simulations draw each of their runs."""
    return kernels.categorical_counts(key, run, 1, m, np.asarray(probs, dtype=float))[0]


class TestSampleMultinomial:
    def test_certain_outcome(self):
        counts = _draw([1.0, 0.0, 0.0], 100, derive_key(3, 0), 0)
        np.testing.assert_array_equal(counts, [100, 0, 0])

    def test_deterministic_for_equal_streams(self):
        a = _draw([0.5, 0.5], 50, derive_key(3, 1), 0)
        b = _draw([0.5, 0.5], 50, derive_key(3, 1), 0)
        np.testing.assert_array_equal(a, b)

    def test_stream_advances_between_draws(self):
        key = derive_key(3, 1)
        a = _draw([0.5, 0.5], 50, key, 0)
        b = _draw([0.5, 0.5], 50, key, 1)
        assert not np.array_equal(a, b)  # astronomically unlikely to collide

    def test_mean_matches_binomial(self):
        key = derive_key(2024, 5)
        m, draws = 40, 20_000
        first = np.array([_draw([0.5, 0.5], m, key, run)[0] for run in range(draws)])
        se = math.sqrt(m * 0.25 / draws)
        assert abs(first.mean() - m / 2) < 4 * se

    def test_negative_probability_rejected(self):
        with pytest.raises(ValueError):
            _draw([-0.2, 1.2], 10, 1, 0)


class TestPrecisionFromSamples:
    def test_infinite_precision_sentinel(self):
        report = precision_from_samples([0.01, 0.01, 0.01], 0.01, 1000)
        assert report.mse == 0.0
        assert math.isinf(report.precision)

    def test_symmetric_pair(self):
        e = 1e-3
        report = precision_from_samples([0.01 + e, 0.01 - e], 0.01, 1000)
        assert report.mse == pytest.approx(e**2, rel=1e-12)
        assert report.precision == pytest.approx(1.0 / (1000 * e**2), rel=1e-12)

    def test_bias_only_batch(self):
        # MSE includes the bias; a pure-bias batch has MSE = bias^2 and zero spread
        report = precision_from_samples([0.02] * 10, 0.01, 100)
        assert report.mse == pytest.approx(1e-4, rel=1e-12)
        assert report.stderr_precision == 0.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            precision_from_samples([], 0.0, 10)

    @pytest.mark.parametrize("m", [-5, 0, 2.5, 1000.0, True, np.True_, None, "20"])
    def test_m_must_be_an_integer_of_at_least_one(self, m):
        with pytest.raises(ValueError, match=r"^m must be an integer >= 1, got "):
            precision_from_samples([0.1, 0.2], 0.0, m)

    @pytest.mark.parametrize("theta_true", [True, np.False_, "0.0", None, 1j])
    def test_theta_true_must_be_a_number(self, theta_true):
        with pytest.raises(ValueError, match=r"^theta_true must be a number, got "):
            precision_from_samples([0.1, 0.2], theta_true, 20)

    @pytest.mark.parametrize("estimates", [[0.1, math.nan], [0.1, math.inf], [-math.inf, 0.1]])
    def test_non_finite_mean_square_error_refused(self, estimates):
        # once an all-nan report (with a numpy RuntimeWarning) or precision 0.0
        message = r"^estimates must give a finite mean square error, got (nan|inf)$"
        with pytest.raises(ValueError, match=message):
            precision_from_samples(estimates, 0.0, 20)

    @pytest.mark.parametrize("estimates, theta_true", [([1e300], 0.0), ([0.1], -1e300), ([1e154, 1e154], 0.0)])
    def test_overflowing_square_error_refused_without_a_warning(self, estimates, theta_true):
        # a square or a sum past the largest double once raised numpy's overflow
        # RuntimeWarning, under -W error::RuntimeWarning, in place of this message
        message = r"^estimates must give a finite mean square error, got inf$"
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(ValueError, match=message):
                precision_from_samples(estimates, theta_true, 1)

    def test_overflowing_centred_square_refused_without_a_warning(self):
        # a finite mean square error whose centred squares pass the largest double once
        # gave stderr_precision = inf, with numpy's overflow RuntimeWarning
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(ValueError, match=r"^estimates must give a finite standard error, got inf$"):
                precision_from_samples([1.3e154, 0.0], 0.0, 1)

    def test_numpy_scalars_accepted(self):
        want = precision_from_samples([0.1, 0.2, 0.4], 0.0, 20)
        assert precision_from_samples([0.1, 0.2, 0.4], np.float32(0.0), np.int64(20)) == want

    @pytest.mark.parametrize("runs", [2, 7, 50_000])
    @pytest.mark.parametrize("seed", [4, 11])
    def test_the_old_expressions_bit_for_bit(self, runs, seed):
        # the squared errors and their spread in their own buffer give the doubles
        # of (est - theta)**2, np.mean and np.std(ddof=1)
        est = np.random.default_rng(seed).normal(0.01, 0.3, runs)
        sq = (est - 0.01) ** 2
        mse = float(np.mean(sq))
        precision = 1.0 / (20 * mse)
        stderr = precision * (float(np.std(sq, ddof=1)) / math.sqrt(runs)) / mse
        got = precision_from_samples(est, 0.01, 20)
        assert [got.mse.hex(), got.precision.hex(), got.stderr_precision.hex()] == [
            mse.hex(), precision.hex(), stderr.hex()]
        assert got.runs_used == runs


def _report_close(a: PrecisionReport, b: PrecisionReport, n_sigma=3.0) -> bool:
    spread = math.hypot(a.stderr_precision, b.stderr_precision)
    return abs(a.precision - b.precision) < n_sigma * spread


class TestSimulateDirect:
    def test_normalized_precision_near_one(self):
        config = SimConfig(r=0.25, theta_true=0.01, m=1000, runs=20_000, seed=321)
        report = simulate_direct(config)
        j_alpha = qfi_coherent(0.25)
        assert report.runs_used == config.runs
        assert abs(report.precision / j_alpha - 1.0) < 3 * report.stderr_precision / j_alpha

    def test_zero_theta_mean_estimate_vanishes(self):
        # at theta_true = 0 the estimator is symmetric; rebuild its estimates from
        # the same stream the simulation reads and check the mean directly
        config = SimConfig(r=0.25, theta_true=0.0, m=200, runs=20_000, seed=17)
        obs, probs = _direct_setup(config)
        counts = kernels.categorical_counts(
            derive_key(config.seed, _STREAM_DIRECT), 0, config.runs, config.m, probs
        )
        est = np.array([mle_direct(int(a), int(b), obs.lam) for a, b, _ in counts])
        assert abs(est.mean()) < 4 * est.std(ddof=1) / math.sqrt(est.size)

    def test_stderr_scales_with_runs(self):
        base = dataclasses.asdict(SimConfig(r=0.25, runs=10_000, seed=5))
        small = simulate_direct(SimConfig(**base))
        base["runs"] = 20_000
        big = simulate_direct(SimConfig(**base))
        ratio = small.stderr_precision**2 / big.stderr_precision**2
        assert 1.6 < ratio < 2.4

    def test_bit_reproducible(self):
        config = SimConfig(r=0.25, runs=5_000, seed=99)
        a = simulate_direct(config)
        b = simulate_direct(config)
        assert a == b


class TestSimulateNla:
    def test_large_r_points_build_each_state_once(self):
        # every point of a simulate grid builds the theta = 0 state (observables,
        # branches) and then the theta_true state (outcome probabilities); both are
        # kept, so neither evicts the other from one point to the next
        fock._run.cache_clear()
        config = SimConfig(r=16.0, theta_true=0.01, gain=8.0, n0=2, m=20, runs=200, seed=4)
        simulate_direct(config)
        simulate_nla(config)
        simulate_nla(dataclasses.replace(config, gain=2.0, n0=1))
        assert fock._run.cache_info().misses == 2

    def test_identity_gain_matches_direct(self):
        config = SimConfig(r=0.25, theta_true=0.01, gain=1.0, n0=1, m=1000, runs=20_000, seed=42)
        assert _report_close(simulate_nla(config), simulate_direct(config))

    def test_paper_point_below_direct(self):
        config = SimConfig(r=0.25, theta_true=0.01, gain=2.0, n0=2, m=1000, runs=50_000, seed=42)
        nla = simulate_nla(config)
        direct = simulate_direct(config)
        assert nla.precision < direct.precision

    def test_degenerate_failure_still_estimates(self):
        config = SimConfig(r=0.25, theta_true=0.01, gain=2.0, n0=1, m=1000, runs=20_000, seed=8)
        nla = simulate_nla(config)
        direct = simulate_direct(config)
        assert 0.0 < nla.precision < direct.precision

    def test_success_fraction_converges(self):
        # empirical n_s/m across all runs against the closed-form p_s
        config = SimConfig(r=0.25, theta_true=0.01, gain=2.0, n0=2, m=1000, runs=20_000, seed=6)
        from nlaphase.montecarlo import _STREAM_NLA, _nla_setup

        _, _, probs = _nla_setup(config)
        counts = kernels.categorical_counts(
            derive_key(config.seed, _STREAM_NLA), 0, config.runs, config.m, probs
        )
        p_s = branch_breakdown(config.r, NlaParams(config.gain, config.n0)).p_s
        frac = counts[:, :2].sum() / (config.runs * config.m)
        se = math.sqrt(p_s * (1 - p_s) / (config.runs * config.m))
        assert abs(frac - p_s) < 4 * se

    def test_tracks_asymptotic_information(self):
        config = SimConfig(r=0.25, theta_true=0.01, gain=2.0, n0=2, m=1000, runs=20_000, seed=13)
        report = simulate_nla(config)
        b = branch_breakdown(config.r, NlaParams(config.gain, config.n0))
        assert report.precision == pytest.approx(b.j_nla_asymptotic, rel=0.05)

    def test_peak_memory_of_a_small_m_point(self, monkeypatch):
        # 50000 runs x 5 outcomes at m = 20 are an int8 count matrix of 250 KB (2 MB
        # as int64) beside two workers' kernel scratch of 16 B per chunk trial (2 MiB)
        monkeypatch.setattr(kernels, "_workers", lambda: 2)
        config = SimConfig(r=0.25, gain=8, n0=1, m=20, runs=50000, seed=5)
        tracemalloc.start()
        try:
            simulate_nla(config)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3_000_000

    def test_bit_reproducible(self):
        config = SimConfig(gain=2.0, n0=2, runs=5_000, seed=99)
        assert simulate_nla(config) == simulate_nla(config)


class TestNoRunLeft:
    """A grid point whose every run the no-data rule drops raises NoDataError naming it."""

    def test_nla(self):
        # p_s is 0.016 here and no run heralds success; with n0 = 1 the failure
        # branch holds no phase, so every run is dropped
        config = SimConfig(r=0.001, gain=8.0, n0=1, m=1, runs=10)
        with pytest.raises(NoDataError, match=r"gain=8\.0, n0=1, m=1, runs=10"):
            simulate_nla(config)

    def test_direct(self, monkeypatch):
        # a null outcome on every trial of every run
        def null_counts(key, start, runs, m, probs):
            counts = np.zeros((runs, probs.size), dtype=np.int64)
            counts[:, -1] = m
            return counts

        monkeypatch.setattr(kernels, "categorical_counts", null_counts)
        with pytest.raises(NoDataError, match=r"gain=1\.0, n0=1, m=3, runs=5"):
            simulate_direct(SimConfig(gain=1.0, n0=1, m=3, runs=5))


class TestRunsWithData:
    """The no-data rule's filter: the count matrix itself when it keeps every run."""

    CONFIG = SimConfig(gain=2.0, n0=2, m=4, runs=3)
    COUNTS = np.array([[1, 0, 0, 0, 3], [0, 2, 0, 0, 2], [0, 0, 1, 0, 3]])

    def test_every_run_kept_returns_counts_itself(self):
        assert _runs_with_data(self.COUNTS, self.CONFIG, failure_informative=True) is self.COUNTS

    def test_dropped_runs_are_left_out(self):
        # without an informative failure pair the third run has no data
        counts = self.COUNTS.copy()
        got = _runs_with_data(counts, self.CONFIG)
        np.testing.assert_array_equal(got, self.COUNTS[:2])
        np.testing.assert_array_equal(counts, self.COUNTS)

    @pytest.mark.parametrize("order", ["C", "F"])
    @pytest.mark.parametrize("failure_informative", [False, True])
    def test_kept_rows_across_blocks(self, order, failure_informative):
        # a tenth to a half of the runs dropped, over more than three blocks of runs
        rng = np.random.default_rng(7)
        runs = 3 * estimator._BLOCK_RUNS + 11
        counts = rng.multinomial(20, [0.02, 0.02, 0.03, 0.03, 0.9], size=runs)
        counts = np.asarray(counts, order=order)
        keep = counts[:, : 4 if failure_informative else 2].sum(axis=1) >= 1
        assert 0.1 < 1 - keep.mean() < 0.6
        want = counts[keep]
        np.testing.assert_array_equal(_runs_with_data(counts, self.CONFIG, failure_informative), want)

    def test_no_run_kept_raises(self):
        counts = np.array([[0, 0, 0, 0, 4], [0, 0, 2, 2, 0]])
        with pytest.raises(NoDataError, match=r"gain=2\.0, n0=2, m=4, runs=3"):
            _runs_with_data(counts, self.CONFIG)


class TestSimConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            SimConfig(m=0)
        with pytest.raises(ValueError):
            SimConfig(runs=0)
        with pytest.raises(ValueError):
            SimConfig(seed=-1)
        with pytest.raises(ValueError):
            SimConfig(r=-0.2)
        with pytest.raises(ValueError):
            SimConfig(theta_true=math.inf)

    @pytest.mark.parametrize(
        "field, value",
        [("m", 2.5), ("m", True), ("m", 20.0), ("runs", 20.0), ("runs", False), ("seed", 4.0), ("seed", True)],
    )
    def test_sizes_that_are_not_integers_rejected(self, field, value):
        # each would reach numpy as a float or a bool and fail there, or run with it
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            SimConfig(**{field: value})

    def test_numpy_integers_stored_as_ints(self):
        config = SimConfig(n0=np.int64(2), m=np.int64(20), runs=np.uint32(30), seed=np.uint64(2**63))
        assert [type(v) for v in (config.n0, config.m, config.runs, config.seed)] == [int] * 4
        assert config == SimConfig(n0=2, m=20, runs=30, seed=2**63)

    @pytest.mark.parametrize("amplifier", [{"gain": 0.5}, {"n0": 0}, {"n0": 2.5}])
    def test_invalid_amplifier_rejected_at_construction(self, amplifier):
        # the same checks as NlaParams, before any setup or sampling runs
        with pytest.raises(ValueError, match="gain must be|n0 must be"):
            SimConfig(**amplifier)
