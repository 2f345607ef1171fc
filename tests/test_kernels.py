"""Tests for the counter-based sampling kernels and backend equivalence."""

import numpy as np
import pytest

from nlaphase import kernels
from nlaphase.kernels import (
    NUMBA_AVAILABLE,
    active_backend,
    categorical_counts,
    derive_key,
    uniform_stream,
)

BACKENDS = ["numpy"] + (["numba"] if NUMBA_AVAILABLE else [])


class TestMixer:
    def test_scalar_matches_vector_pipeline(self):
        key = derive_key(123456789, 3)
        got = uniform_stream(key, 0, 8)
        # recompute with the masked python-int reference
        mask = (1 << 64) - 1
        want = []
        for c in range(8):
            z = (key + ((c + 1) * 0x9E3779B97F4A7C15 & mask)) & mask
            z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9 & mask
            z = (z ^ (z >> 27)) * 0x94D049BB133111EB & mask
            z = z ^ (z >> 31)
            want.append((z >> 11) * 2.0**-53)
        np.testing.assert_array_equal(got, np.array(want))

    def test_derive_key_distinct_streams(self):
        keys = {derive_key(42, i) for i in range(1000)}
        assert len(keys) == 1000

    def test_derive_key_validates(self):
        with pytest.raises(ValueError):
            derive_key(-1, 0)
        with pytest.raises(ValueError):
            derive_key(1 << 64, 0)
        with pytest.raises(ValueError):
            derive_key(3, -1)

    def test_uniform_range_and_mean(self):
        u = uniform_stream(derive_key(2024, 0), 0, 200_000)
        assert float(u.min()) >= 0.0
        assert float(u.max()) < 1.0
        # mean of U(0,1): se = 1/sqrt(12 n)
        assert abs(float(u.mean()) - 0.5) < 4 / np.sqrt(12 * u.size)

    def test_uniform_bins_chi_square(self):
        u = uniform_stream(derive_key(77, 3), 0, 1 << 18)
        counts = np.bincount((u * 64).astype(np.int64), minlength=64)
        expected = u.size / 64
        chi2 = float(((counts - expected) ** 2 / expected).sum())
        # 63 degrees of freedom: mean 63, sd sqrt(126); generous 6-sigma window
        assert chi2 < 63 + 6 * np.sqrt(126)

    def test_uniform_lag_correlation(self):
        u = uniform_stream(derive_key(5150, 1), 0, 1 << 17)
        a, b = u[:-1] - u.mean(), u[1:] - u.mean()
        corr = float((a * b).mean() / (a.std() * b.std()))
        assert abs(corr) < 5 / np.sqrt(u.size)


class TestCategoricalCounts:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_rows_sum_to_m(self, backend):
        probs = np.array([0.2, 0.3, 0.5])
        counts = categorical_counts(derive_key(5, 0), 0, 50, 97, probs, backend=backend)
        assert counts.shape == (50, 3)
        np.testing.assert_array_equal(counts.sum(axis=1), np.full(50, 97))

    def test_certain_category(self):
        counts = categorical_counts(derive_key(5, 0), 0, 10, 100, [1.0, 0.0, 0.0])
        np.testing.assert_array_equal(counts, np.tile([100, 0, 0], (10, 1)))

    @pytest.mark.skipif(not NUMBA_AVAILABLE, reason="numba not installed")
    def test_backends_bit_identical(self):
        rng = np.random.default_rng(31337)
        for _ in range(5):
            k = int(rng.integers(2, 6))
            probs = rng.dirichlet(np.ones(k))
            if rng.random() < 0.5:
                probs[rng.integers(k)] = 0.0  # zero-width category
                probs = probs / probs.sum()
            m = int(rng.integers(1, 400))
            runs = int(rng.integers(1, 200))
            key = derive_key(int(rng.integers(0, 1 << 63)), 1)
            a = categorical_counts(key, 0, runs, m, probs, backend="numba")
            b = categorical_counts(key, 0, runs, m, probs, backend="numpy")
            np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_run_slices_are_position_independent(self, backend):
        # run i draws the same counts whether computed alone or in a batch, which
        # is what makes any worker split reproduce the same totals
        probs = [0.1, 0.6, 0.3]
        key = derive_key(77, 2)
        whole = categorical_counts(key, 0, 30, 53, probs, backend=backend)
        part = categorical_counts(key, 12, 18, 53, probs, backend=backend)
        np.testing.assert_array_equal(whole[12:], part)
        one = categorical_counts(key, 17, 1, 53, probs, backend=backend)
        np.testing.assert_array_equal(whole[17], one[0])

    def test_deterministic_repeat(self):
        probs = [0.25, 0.25, 0.5]
        a = categorical_counts(derive_key(9, 9), 0, 40, 64, probs)
        b = categorical_counts(derive_key(9, 9), 0, 40, 64, probs)
        np.testing.assert_array_equal(a, b)

    def test_binomial_mean(self):
        # first-category mean over many runs approaches m/2 (4-sigma window)
        m, runs = 100, 100_000
        counts = categorical_counts(derive_key(2, 0), 0, runs, m, [0.5, 0.5])
        mean = float(counts[:, 0].mean())
        se = np.sqrt(m * 0.25 / runs)
        assert abs(mean - m / 2) < 4 * se

    def test_validation(self):
        key = derive_key(1, 0)
        with pytest.raises(ValueError):
            categorical_counts(key, 0, 5, 10, [-0.1, 1.1])
        with pytest.raises(ValueError):
            categorical_counts(key, 0, 5, 10, [0.3, 0.3])
        with pytest.raises(ValueError):
            categorical_counts(key, 0, 5, 0, [0.5, 0.5])
        with pytest.raises(ValueError):
            categorical_counts(key, 0, 5, 10, [0.5, 0.5], backend="fortran")

    def test_empty_runs(self):
        counts = categorical_counts(derive_key(1, 0), 0, 0, 10, [0.5, 0.5])
        assert counts.shape == (0, 2)


class TestBackendSelection:
    def test_env_flag_numpy(self, monkeypatch):
        monkeypatch.setenv("NLAPHASE_BACKEND", "numpy")
        assert active_backend() == "numpy"

    @pytest.mark.skipif(not NUMBA_AVAILABLE, reason="numba not installed")
    def test_env_flag_numba(self, monkeypatch):
        monkeypatch.setenv("NLAPHASE_BACKEND", "numba")
        assert active_backend() == "numba"

    def test_default_prefers_numba(self, monkeypatch):
        monkeypatch.delenv("NLAPHASE_BACKEND", raising=False)
        assert active_backend() == ("numba" if NUMBA_AVAILABLE else "numpy")

    def test_invalid_value_rejected(self, monkeypatch):
        monkeypatch.setenv("NLAPHASE_BACKEND", "cuda")
        with pytest.raises(ValueError):
            active_backend()
