"""Tests for the seeded Monte Carlo estimation experiments."""

import dataclasses
import math

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
from nlaphase import kernels
from nlaphase.errors import NoDataError
from nlaphase.montecarlo import _STREAM_DIRECT, _direct_setup


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

    @pytest.mark.parametrize("amplifier", [{"gain": 0.5}, {"n0": 0}, {"n0": 2.5}])
    def test_invalid_amplifier_rejected_at_construction(self, amplifier):
        # the same checks as NlaParams, before any setup or sampling runs
        with pytest.raises(ValueError, match="gain must be|n0 must be"):
            SimConfig(**amplifier)
