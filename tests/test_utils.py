"""Tests for repro.utils: validation, statistics and RNG handling."""

import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.errors import ShapeError
from repro.utils import (
    as_rng,
    check_matrix,
    check_positive,
    check_vector,
    norm_cdf,
    norm_pdf,
    summarize_runs,
)
from repro.utils.random import spawn_seed_ints


class TestRandom:
    def test_as_rng_from_int_is_deterministic(self):
        assert as_rng(3).uniform() == as_rng(3).uniform()

    def test_as_rng_passthrough(self):
        generator = np.random.default_rng(0)
        assert as_rng(generator) is generator

    def test_as_rng_none(self):
        assert isinstance(as_rng(None), np.random.Generator)

    def test_spawn_seed_ints_count(self):
        seeds = spawn_seed_ints(0, 5)
        assert len(seeds) == 5
        assert all(isinstance(seed, int) for seed in seeds)

    def test_spawn_seed_ints_independent_streams(self):
        a, b = spawn_seed_ints(0, 2)
        assert a != b
        assert as_rng(a).uniform() != as_rng(b).uniform()

    def test_spawn_seed_ints_reproducible(self):
        assert spawn_seed_ints(42, 3) == spawn_seed_ints(42, 3)

    def test_spawn_seed_ints_negative_count(self):
        with pytest.raises(ValueError):
            spawn_seed_ints(0, -1)


class TestValidation:
    def test_check_array_rejects_nan(self):
        with pytest.raises(ShapeError):
            check_array_helper = check_vector([1.0, np.nan])

    def test_check_vector_scalar_promoted(self):
        assert check_vector(3.0).shape == (1,)

    def test_check_vector_rejects_matrix(self):
        with pytest.raises(ShapeError):
            check_vector(np.ones((2, 2)))

    def test_check_matrix_promotes_vector(self):
        assert check_matrix([1.0, 2.0]).shape == (1, 2)

    def test_check_matrix_wrong_columns(self):
        with pytest.raises(ShapeError):
            check_matrix(np.ones((3, 2)), n_cols=4)

    def test_check_matrix_rejects_3d(self):
        with pytest.raises(ShapeError):
            check_matrix(np.ones((2, 2, 2)))

    def test_check_positive(self):
        assert check_positive(2.5) == 2.5
        with pytest.raises(ValueError):
            check_positive(0.0)
        with pytest.raises(ValueError):
            check_positive(-1.0)


class TestStats:
    def test_norm_pdf_peak(self):
        assert norm_pdf(0.0) == pytest.approx(1.0 / np.sqrt(2 * np.pi))

    def test_norm_cdf_symmetry(self):
        assert norm_cdf(0.0) == pytest.approx(0.5)
        assert norm_cdf(1.0) + norm_cdf(-1.0) == pytest.approx(1.0)

    def test_norm_cdf_matches_scipy(self):
        from scipy.stats import norm
        z = np.linspace(-4, 4, 17)
        assert np.allclose(norm_cdf(z), norm.cdf(z), atol=1e-12)

    def test_summarize_runs(self):
        stats = summarize_runs([[1.0, 2.0], [3.0, 4.0]])
        assert np.allclose(stats["mean"], [2.0, 3.0])
        assert np.allclose(stats["min"], [1.0, 2.0])
        assert np.allclose(stats["max"], [3.0, 4.0])

    def test_summarize_runs_std_is_inf_over_non_finite_budgets(self):
        inf = np.inf
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            stats = summarize_runs([[inf, inf, 1.0], [inf, 3.0, 3.0]])
        assert np.array_equal(stats["std"], [inf, inf, 1.0])
        assert np.array_equal(stats["mean"], [inf, inf, 2.0])

    def test_summarize_runs_rejects_ragged(self):
        with pytest.raises(ValueError):
            summarize_runs([np.ones(3)])  # 1 run is fine shape-wise
            summarize_runs([[1.0], [1.0, 2.0]])

    @given(st.floats(-6, 6))
    def test_norm_cdf_in_unit_interval(self, z):
        assert 0.0 <= float(norm_cdf(z)) <= 1.0
