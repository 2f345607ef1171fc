"""Tests for the counter-based sampling kernel against its float reference."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nlaphase import kernels
from nlaphase.kernels import categorical_counts, derive_key, uniform_stream


def reference_hash(key, counter):
    """The 64-bit hash behind one draw, on masked python ints."""
    mask = (1 << 64) - 1
    z = (key + ((counter + 1) * 0x9E3779B97F4A7C15 & mask)) & mask
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9 & mask
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB & mask
    return z ^ (z >> 31)


class TestMixer:
    def test_scalar_matches_vector_pipeline(self):
        key = derive_key(123456789, 3)
        got = uniform_stream(key, 0, 8)
        want = [(reference_hash(key, c) >> 11) * 2.0**-53 for c in range(8)]
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
    def test_rows_sum_to_m(self):
        probs = np.array([0.2, 0.3, 0.5])
        counts = categorical_counts(derive_key(5, 0), 0, 50, 97, probs)
        assert counts.shape == (50, 3)
        np.testing.assert_array_equal(counts.sum(axis=1), np.full(50, 97))

    def test_certain_category(self):
        counts = categorical_counts(derive_key(5, 0), 0, 10, 100, [1.0, 0.0, 0.0])
        np.testing.assert_array_equal(counts, np.tile([100, 0, 0], (10, 1)))

    def test_run_slices_are_position_independent(self):
        # run i draws the same counts whether computed alone or in a batch, which
        # is what makes any worker split reproduce the same totals
        probs = [0.1, 0.6, 0.3]
        key = derive_key(77, 2)
        whole = categorical_counts(key, 0, 30, 53, probs)
        part = categorical_counts(key, 12, 18, 53, probs)
        np.testing.assert_array_equal(whole[12:], part)
        one = categorical_counts(key, 17, 1, 53, probs)
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

    @pytest.mark.parametrize(
        "probs", [[np.nan, 0.5, 0.5], [0.5, np.nan, 0.5], [np.inf, 0.5, 0.5], [0.5, 0.5, -np.inf]]
    )
    def test_non_finite_probabilities_rejected(self, probs):
        # NaN compares false with everything, so a sign check and a sum check alone let it through
        with pytest.raises(ValueError, match="finite"):
            categorical_counts(derive_key(1, 0), 0, 5, 10, probs)

    def test_failure_mass_counted_as_null_keeps_success_counts(self):
        # [a, b, p_f, 0, rest] and [a, b, 0, 0, p_f + rest] share the cdf
        # boundaries a and a + b, so the s+- columns agree draw for draw
        a, b, p_f, rest = 0.31, 0.17, 0.43, 0.09
        key = derive_key(11, 1)
        split = categorical_counts(key, 0, 200, 97, [a, b, p_f, 0.0, rest])
        merged = categorical_counts(key, 0, 200, 97, [a, b, 0.0, 0.0, p_f + rest])
        np.testing.assert_array_equal(split[:, :2], merged[:, :2])
        np.testing.assert_array_equal(merged[:, 2:4], 0)
        np.testing.assert_array_equal(merged[:, 4], split[:, 2:].sum(axis=1))

    def test_empty_runs(self):
        counts = categorical_counts(derive_key(1, 0), 0, 0, 10, [0.5, 0.5])
        assert counts.shape == (0, 2)


def reference_counts(key, run0, runs, m, probs):
    """Per-row bincount of searchsorted over the raw uniforms: the float categorization."""
    probs = np.asarray(probs, dtype=np.float64)
    cdf = np.cumsum(probs[:-1])
    cat = np.searchsorted(cdf, uniform_stream(key, run0 * m, runs * m), side="right")
    out = np.zeros((runs, probs.size), dtype=np.int64)
    for i, row in enumerate(cat.reshape(runs, m)):
        out[i] = np.bincount(row, minlength=probs.size)
    return out


def assert_matches_reference(key, run0, runs, m, probs):
    got = categorical_counts(key, run0, runs, m, probs)
    np.testing.assert_array_equal(got, reference_counts(key, run0, runs, m, probs))
    return got


class TestNumpyKernelMatchesReference:
    """The kernel compares raw hashes with integer thresholds; every draw must
    land in the category that comparing its float uniform with the cdf gives."""

    KEY = derive_key(20240607, 4)

    @pytest.mark.parametrize(
        "probs",
        [
            [0.0, 0.3, 0.0, 0.7],  # zero-width first and third categories: a cdf entry at 0
            [0.2, 0.0, 0.0, 0.5, 0.3],
            [0.0376, 0.0376, 0.4624, 0.4624, 0.0],  # five-outcome working point
            [1.0, 0.0, 0.0],  # cdf = [1, 1]
            [0.25, 0.75, 0.0],  # a cdf entry exactly 1
            [0.5, 0.5 + 5e-10],  # sums above 1: the last cdf entry is 1 + 5e-10
            [0.5, 0.5 + 5e-10, 0.0],
            [0.5, 0.5 - 5e-10, 5e-10],
            [1.0],
        ],
    )
    @pytest.mark.parametrize("m", [1, 20, 97, 1000])
    def test_fixed_vectors(self, probs, m):
        got = assert_matches_reference(self.KEY, 3, 70, m, probs)
        if probs[-1] == 0.0:
            np.testing.assert_array_equal(got[:, -1], 0)

    @pytest.mark.parametrize("nudge", [None, 0.0, 1.0])
    def test_cdf_entries_on_and_next_to_drawn_uniforms(self, nudge):
        # cdf entries k * 2**-53 equal to draws of the stream (nudge None), or the
        # neighbouring double below (0.0) or above (1.0) them, so draws sit exactly
        # at a boundary and a rounding slip in the thresholds moves them
        m, runs, run0 = 50, 40, 5
        u = uniform_stream(self.KEY, run0 * m, runs * m)
        a, b = np.sort(u[u < 0.5])[[3, -3]]
        if nudge is not None:
            a, b = np.nextafter(a, nudge), np.nextafter(b, nudge)
        probs = [a, b - a, 1.0 - b]
        assert np.array_equal(np.cumsum(probs[:-1]), [a, b])
        got = assert_matches_reference(self.KEY, run0, runs, m, probs)
        assert got[:, 0].sum() == 3 + (nudge == 1.0)

    def test_cdf_entry_at_a_draw_whose_hash_is_its_threshold(self):
        # a hash with its low 11 bits clear equals the threshold of its own uniform,
        # so that draw passes only under z >= threshold, not z > threshold
        m, runs = 100, 60
        exact = [c for c in range(runs * m) if reference_hash(self.KEY, c) & 0x7FF == 0]
        assert exact, "no hash with clear low bits in the stream"
        a = uniform_stream(self.KEY, exact[0], 1)[0]
        assert_matches_reference(self.KEY, 0, runs, m, [a, 1.0 - a])

    @pytest.mark.parametrize("m", [1, 20, 1000, kernels._BLOCK_TRIALS + 3])
    def test_runs_across_chunk_boundaries(self, m):
        # a run count that is no multiple of the chunk, from a run0 > 0, so the call's
        # chunk boundaries fall inside the chunks of the same rows drawn from run 0
        chunk = max(1, kernels._BLOCK_TRIALS // m)
        runs = 2 * chunk + 3 if chunk > 1 else 3
        run0 = chunk - 1 if chunk > 1 else 7
        probs = [0.1, 0.0, 0.6, 0.3]
        got = assert_matches_reference(self.KEY, run0, runs, m, probs)
        whole = categorical_counts(self.KEY, 0, run0 + runs, m, probs)
        np.testing.assert_array_equal(whole[run0:], got)

    @pytest.mark.parametrize("float32_exact", [kernels._FLOAT32_EXACT, 1], ids=["float32", "float64"])
    @pytest.mark.parametrize("m", [1, 2, 20, 1000, kernels._BLOCK_TRIALS + 1])
    def test_row_counts_at_every_row_width(self, monkeypatch, m, float32_exact):
        # rows are counted by a matrix-vector product of the 0/1 mask with ones; counts
        # sit at 0, near m and in between, over more than two chunks.  A limit of 1
        # sums every width in float64, as rows of 2**24 or more trials are.
        monkeypatch.setattr(kernels, "_FLOAT32_EXACT", float32_exact)
        runs = 2 * max(1, kernels._BLOCK_TRIALS // m) + 1
        assert_matches_reference(self.KEY, 5, runs, m, [0.0, 1e-5, 0.3, 0.7 - 2e-5, 1e-5])

    @settings(max_examples=200, deadline=None)
    @given(
        weights=st.lists(st.sampled_from([0.0]) | st.floats(1e-6, 1.0), min_size=2, max_size=5).filter(
            lambda w: sum(w) > 0
        ),
        m=st.integers(1, 300),
        runs=st.integers(0, 40),
        run0=st.integers(0, 10**9),
        key=st.integers(0, (1 << 64) - 1),
    )
    def test_random_vectors(self, weights, m, runs, run0, key):
        probs = np.array(weights) / sum(weights)
        assert_matches_reference(key, run0, runs, m, probs)

