"""Tests for Pareto utilities and NSGA-II."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.moo import (
    NSGA2,
    crowding_distance,
    fast_non_dominated_sort,
    pareto_front_mask,
)


class TestDominance:
    def test_pareto_front_mask_simple(self):
        objectives = np.array([[1.0, 4.0], [2.0, 2.0], [4.0, 1.0], [3.0, 3.0]])
        mask = pareto_front_mask(objectives)
        assert mask.tolist() == [True, True, True, False]

    def test_pareto_front_mask_duplicates(self):
        objectives = np.array([[1.0, 1.0], [1.0, 1.0], [2.0, 2.0]])
        mask = pareto_front_mask(objectives)
        assert mask[0] and mask[1] and not mask[2]

    def test_fast_non_dominated_sort_fronts(self):
        objectives = np.array([[1.0, 1.0], [2.0, 2.0], [3.0, 3.0]])
        fronts = fast_non_dominated_sort(objectives)
        assert [front.tolist() for front in fronts] == [[0], [1], [2]]

    def test_fast_sort_partitions_everything(self, rng):
        objectives = rng.normal(size=(30, 3))
        fronts = fast_non_dominated_sort(objectives)
        flattened = sorted(int(i) for front in fronts for i in front)
        assert flattened == list(range(30))

    def test_first_front_is_pareto_mask(self, rng):
        objectives = rng.normal(size=(25, 2))
        fronts = fast_non_dominated_sort(objectives)
        mask = pareto_front_mask(objectives)
        assert sorted(fronts[0].tolist()) == sorted(np.nonzero(mask)[0].tolist())


class TestCrowding:
    def test_boundary_points_infinite(self):
        objectives = np.array([[0.0, 3.0], [1.0, 2.0], [2.0, 1.0], [3.0, 0.0]])
        distance = crowding_distance(objectives)
        assert np.isinf(distance[0]) and np.isinf(distance[3])
        assert np.isfinite(distance[1]) and np.isfinite(distance[2])

    def test_two_points_infinite(self):
        assert np.all(np.isinf(crowding_distance(np.array([[0.0, 1.0], [1.0, 0.0]]))))

    def test_constant_objective_no_nan(self):
        distance = crowding_distance(np.ones((5, 2)))
        assert not np.any(np.isnan(distance))


def _zdt1_like(x):
    """A simple bi-objective test problem on [0, 1]^d."""
    x = np.atleast_2d(x)
    f1 = x[:, 0]
    g = 1.0 + 9.0 * x[:, 1:].mean(axis=1)
    f2 = g * (1.0 - np.sqrt(np.clip(f1 / g, 0, 1)))
    return np.column_stack([f1, f2])


class TestNSGA2:
    def test_result_shapes(self, rng):
        nsga = NSGA2(pop_size=20, n_generations=5, rng=rng)
        result = nsga.minimize(_zdt1_like, np.array([[0.0, 1.0]] * 4))
        assert result.x.shape == (20, 4)
        assert result.objectives.shape == (20, 2)
        assert result.pareto_x.shape[0] >= 1
        assert result.n_generations == 5

    def test_respects_bounds(self, rng):
        nsga = NSGA2(pop_size=16, n_generations=5, rng=rng)
        bounds = np.array([[0.2, 0.4]] * 3)
        result = nsga.minimize(_zdt1_like, bounds)
        assert np.all(result.x >= 0.2 - 1e-12) and np.all(result.x <= 0.4 + 1e-12)

    def test_improves_over_random(self, rng):
        # The Pareto set of _zdt1_like has x[1:] = 0 (g = 1); NSGA-II's front
        # must sit much closer to it than uniform random designs do.
        bounds = np.array([[0.0, 1.0]] * 5)
        nsga = NSGA2(pop_size=30, n_generations=25, rng=rng)
        result = nsga.minimize(_zdt1_like, bounds)
        random_x = rng.uniform(size=(30, 5))
        assert result.pareto_x[:, 1:].mean() < 0.5 * random_x[:, 1:].mean()

    def test_single_objective_degenerates_to_minimum(self, rng):
        def single(x):
            return np.sum((np.atleast_2d(x) - 0.3) ** 2, axis=1)

        nsga = NSGA2(pop_size=24, n_generations=25, rng=rng)
        result = nsga.minimize(single, np.array([[0.0, 1.0]] * 3))
        assert result.pareto_objectives.min() < 0.01

    def test_initial_population_seeded(self, rng):
        seeds = np.full((4, 2), 0.5)
        nsga = NSGA2(pop_size=8, n_generations=1, rng=rng)
        result = nsga.minimize(_zdt1_like, np.array([[0.0, 1.0]] * 2),
                               initial_population=seeds)
        assert result.x.shape == (8, 2)

    def test_nonfinite_objectives_handled(self, rng):
        def bad(x):
            values = _zdt1_like(x)
            values[::2] = np.nan
            return values

        nsga = NSGA2(pop_size=12, n_generations=3, rng=rng)
        result = nsga.minimize(bad, np.array([[0.0, 1.0]] * 2))
        assert np.all(np.isfinite(result.objectives))

    def test_pop_size_validation(self):
        with pytest.raises(ValueError):
            NSGA2(pop_size=2)

    def test_invalid_bounds(self, rng):
        nsga = NSGA2(pop_size=8, n_generations=1, rng=rng)
        with pytest.raises(ValueError):
            nsga.minimize(_zdt1_like, np.array([[1.0, 0.0]] * 2))

    def test_objective_row_mismatch_rejected(self, rng):
        nsga = NSGA2(pop_size=8, n_generations=1, rng=rng)
        with pytest.raises(ValueError):
            nsga.minimize(lambda x: np.zeros((3, 2)), np.array([[0.0, 1.0]] * 2))


class TestParetoProperties:
    @settings(max_examples=25, deadline=None)
    @given(st.integers(2, 25))
    def test_pareto_front_nonempty_and_mutually_nondominated(self, n):
        rng = np.random.default_rng(n)
        objectives = rng.normal(size=(n, 3))
        mask = pareto_front_mask(objectives)
        front = objectives[mask]
        assert front.shape[0] >= 1
        for i in range(front.shape[0]):
            for j in range(front.shape[0]):
                if i != j:
                    dominates = (np.all(front[j] <= front[i])
                                 and np.any(front[j] < front[i]))
                    assert not dominates


def _reference_pareto_front_mask(objectives):
    """Frozen copy of the original per-row loop behind ``pareto_front_mask``."""
    objectives = np.asarray(objectives, dtype=float)
    n = objectives.shape[0]
    mask = np.ones(n, dtype=bool)
    for i in range(n):
        if not mask[i]:
            continue
        dominated_by_i = np.all(objectives[i] <= objectives, axis=1) & np.any(
            objectives[i] < objectives, axis=1)
        dominated_by_i[i] = False
        mask &= ~dominated_by_i
        dominates_i = np.all(objectives <= objectives[i], axis=1) & np.any(
            objectives < objectives[i], axis=1)
        if np.any(dominates_i & mask):
            mask[i] = False
    return mask


def _reference_fast_non_dominated_sort(objectives):
    """Frozen copy of the original per-row loop behind ``fast_non_dominated_sort``."""
    objectives = np.asarray(objectives, dtype=float)
    n = objectives.shape[0]
    dominated_sets = [[] for _ in range(n)]
    domination_counts = np.zeros(n, dtype=int)
    for i in range(n):
        better = np.all(objectives[i] <= objectives, axis=1) & np.any(
            objectives[i] < objectives, axis=1)
        worse = np.all(objectives <= objectives[i], axis=1) & np.any(
            objectives < objectives[i], axis=1)
        dominated_sets[i] = list(np.nonzero(better)[0])
        domination_counts[i] = int(np.count_nonzero(worse))
    fronts = []
    current = np.nonzero(domination_counts == 0)[0]
    while current.size:
        fronts.append(current)
        counts = domination_counts.copy()
        for index in current:
            for dominated in dominated_sets[index]:
                counts[dominated] -= 1
            counts[index] = -1
        domination_counts = counts
        current = np.nonzero(domination_counts == 0)[0]
    return fronts


class TestSortMatchesReference:
    """The vectorised sort and mask reproduce the original loops exactly."""

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(1, 130), k=st.integers(1, 6), seed=st.integers(0, 2**32 - 1),
           levels=st.sampled_from([0, 2, 5]), n_duplicates=st.integers(0, 10),
           n_huge=st.integers(0, 10))
    def test_fronts_and_mask_match_reference(self, n, k, seed, levels, n_duplicates,
                                             n_huge):
        rng = np.random.default_rng(seed)
        # ``levels`` > 0 draws from a small integer grid, so ties are common.
        if levels:
            objectives = rng.integers(0, levels, size=(n, k)).astype(float)
        else:
            objectives = rng.normal(size=(n, k))
        for _ in range(n_duplicates):
            objectives[rng.integers(n)] = objectives[rng.integers(n)]
        for _ in range(n_huge):
            objectives[rng.integers(n)] = 1e18

        fronts = fast_non_dominated_sort(objectives)
        expected = _reference_fast_non_dominated_sort(objectives)
        assert len(fronts) == len(expected)
        for front, reference in zip(fronts, expected):
            assert front.dtype == reference.dtype
            assert np.array_equal(front, reference)
        assert np.array_equal(pareto_front_mask(objectives),
                              _reference_pareto_front_mask(objectives))

    def test_duplicate_rows_stay_non_dominated(self):
        objectives = np.array([[1.0, 2.0], [1.0, 2.0], [2.0, 1.0], [3.0, 3.0], [3.0, 3.0]])
        assert pareto_front_mask(objectives).tolist() == [True, True, True, False, False]
        fronts = fast_non_dominated_sort(objectives)
        assert [front.tolist() for front in fronts] == [[0, 1, 2], [3, 4]]
