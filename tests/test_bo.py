"""Tests for the BO engines: design space, problem, history and optimizers."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.bo import (
    Constraint,
    DesignSpace,
    DesignVariable,
    MACE,
    OptimizationHistory,
    RandomSearch,
    SMACRF,
)
from repro.errors import DesignSpaceError, OptimizationError
from repro.study import UnknownOptimizerError, build_optimizer


class TestDesignVariable:
    def test_invalid_bounds(self):
        with pytest.raises(DesignSpaceError):
            DesignVariable("x", 1.0, 0.5)

    def test_log_scale_requires_positive(self):
        with pytest.raises(DesignSpaceError):
            DesignVariable("x", -1.0, 1.0, log_scale=True)

    def test_non_finite_bounds(self):
        with pytest.raises(DesignSpaceError):
            DesignVariable("x", 0.0, np.inf)


class TestDesignSpace:
    def _space(self):
        return DesignSpace([
            DesignVariable("w", 1e-6, 1e-4, log_scale=True, unit="m"),
            DesignVariable("i", 1e-6, 1e-3, log_scale=True, unit="A"),
            DesignVariable("ratio", 0.0, 10.0),
        ])

    def test_dim_names_bounds(self):
        space = self._space()
        assert space.dim == 3
        assert space.names == ["w", "i", "ratio"]
        assert space.bounds.shape == (3, 2)
        assert np.allclose(space.unit_bounds[:, 0], 0.0)

    def test_duplicate_names_rejected(self):
        with pytest.raises(DesignSpaceError):
            DesignSpace([DesignVariable("a", 0, 1), DesignVariable("a", 0, 1)])

    def test_empty_rejected(self):
        with pytest.raises(DesignSpaceError):
            DesignSpace([])

    def test_unit_roundtrip(self, rng):
        space = self._space()
        x = space.sample(20, rng=rng)
        recovered = space.from_unit(space.to_unit(x))
        assert np.allclose(recovered, x, rtol=1e-9)

    def test_log_scaling_midpoint_is_geometric_mean(self):
        space = self._space()
        mid = space.from_unit(np.full((1, 3), 0.5))[0]
        assert mid[0] == pytest.approx(np.sqrt(1e-6 * 1e-4), rel=1e-9)
        assert mid[2] == pytest.approx(5.0)

    def test_sample_within_bounds(self, rng):
        space = self._space()
        x = space.sample(50, rng=rng)
        bounds = space.bounds
        assert np.all(x >= bounds[:, 0]) and np.all(x <= bounds[:, 1])

    def test_latin_hypercube_stratified(self, rng):
        space = DesignSpace([DesignVariable("a", 0.0, 1.0)])
        x = space.latin_hypercube(10, rng=rng)[:, 0]
        counts, _ = np.histogram(x, bins=10, range=(0, 1))
        assert np.all(counts == 1)

    def test_clip(self):
        space = self._space()
        clipped = space.clip(np.array([[1.0, 1.0, 20.0]]))
        assert clipped[0, 2] == 10.0

    def test_dict_roundtrip(self):
        space = self._space()
        vector = np.array([2e-5, 5e-4, 3.0])
        assert np.allclose(space.from_dict(space.as_dict(vector)), vector)

    def test_from_dict_missing_key(self):
        with pytest.raises(DesignSpaceError):
            self._space().from_dict({"w": 1e-5})

    @settings(max_examples=20, deadline=None)
    @given(st.integers(1, 50))
    def test_unit_transform_in_unit_cube(self, n):
        space = self._space()
        x = space.sample(n, rng=np.random.default_rng(n))
        unit = space.to_unit(x)
        assert np.all(unit >= 0.0) and np.all(unit <= 1.0)


class TestConstraintAndProblem:
    def test_constraint_senses(self):
        ge = Constraint("gain", 60.0, "ge")
        assert ge.satisfied(65.0) and not ge.satisfied(55.0)
        assert ge.violation(55.0) == pytest.approx(5.0)
        le = Constraint("current", 6.0, "le")
        assert le.satisfied(5.0) and not le.satisfied(7.0)
        assert le.violation(7.0) == pytest.approx(1.0)

    def test_invalid_sense(self):
        with pytest.raises(ValueError):
            Constraint("x", 0.0, "gt")

    def test_metric_names_order(self, constrained_problem):
        assert constrained_problem.metric_names == ["cost", "g1", "g2"]

    def test_evaluate_feasibility(self, constrained_problem):
        good = constrained_problem.evaluate(np.array([0.4, 0.4, 0.1]))
        assert good.feasible and good.violation == 0.0
        bad = constrained_problem.evaluate(np.array([0.0, 0.0, 0.0]))
        assert not bad.feasible and bad.violation > 0.0

    def test_evaluate_batch_and_matrix(self, constrained_problem, rng):
        designs = constrained_problem.design_space.sample(6, rng=rng)
        evaluations = constrained_problem.evaluate_batch(designs)
        matrix = constrained_problem.metrics_matrix(evaluations)
        assert matrix.shape == (6, 3)

    def test_is_better_direction(self, constrained_problem, quadratic_problem):
        assert constrained_problem.is_better(1.0, 2.0)       # minimisation
        assert quadratic_problem.is_better(2.0, 1.0)          # maximisation

    def test_simulate_missing_metric_raises(self, quadratic_problem):
        quadratic_problem.simulate = lambda design: {"wrong": 1.0}
        with pytest.raises(KeyError):
            quadratic_problem.evaluate(np.array([0.5, 0.5, 0.5]))


class TestHistory:
    def _filled_history(self, problem, rng, n=12):
        history = OptimizationHistory(problem)
        history.extend(problem.evaluate_batch(problem.design_space.sample(n, rng=rng)))
        return history

    def test_lengths_and_arrays(self, constrained_problem, rng):
        history = self._filled_history(constrained_problem, rng)
        assert len(history) == 12
        assert history.x.shape == (12, 3)
        assert history.objectives.shape == (12,)
        assert history.feasible.dtype == bool

    def test_best_curve_monotone(self, constrained_problem, rng):
        history = self._filled_history(constrained_problem, rng, n=20)
        curve = history.best_curve(constrained=True)
        finite = curve[np.isfinite(curve)]
        assert np.all(np.diff(finite) <= 1e-12)

    def test_best_is_feasible_when_possible(self, constrained_problem, rng):
        history = self._filled_history(constrained_problem, rng, n=30)
        best = history.best(constrained=True)
        if history.feasible.any():
            assert best.feasible

    def test_unconstrained_best(self, quadratic_problem, rng):
        history = OptimizationHistory(quadratic_problem)
        history.extend(quadratic_problem.evaluate_batch(
            quadratic_problem.design_space.sample(10, rng=rng)))
        assert history.best_objective(constrained=False) == history.objectives.max()

    def test_empty_history(self, quadratic_problem):
        history = OptimizationHistory(quadratic_problem)
        assert history.best_index() is None
        assert history.best_curve().size == 0
        assert np.isneginf(history.best_objective(constrained=False))

    def test_summary_keys(self, constrained_problem, rng):
        history = self._filled_history(constrained_problem, rng)
        summary = history.summary()
        assert {"problem", "n_simulations", "n_feasible", "best_objective"} <= set(summary)


class TestOptimizers:
    def test_random_search_improves_with_budget(self, quadratic_problem):
        optimizer = RandomSearch(quadratic_problem, batch_size=5, rng=0)
        history = optimizer.optimize(n_simulations=40, n_init=5)
        assert len(history) >= 40
        assert history.best_objective(constrained=False) > -0.5

    def test_smac_rf_runs(self, quadratic_problem):
        optimizer = SMACRF(quadratic_problem, batch_size=2, rng=0, n_candidates=128)
        history = optimizer.optimize(n_simulations=20, n_init=8)
        assert len(history) >= 20

    def test_mace_runs_and_improves(self, quadratic_problem):
        optimizer = MACE(quadratic_problem, batch_size=4, rng=0,
                         surrogate_train_iters=10, pop_size=16, n_generations=5)
        history = optimizer.optimize(n_simulations=24, n_init=8)
        assert history.best_objective(constrained=False) > -0.2

    def test_constrained_mace_variants(self, constrained_problem):
        for variant in ("modified", "full"):
            optimizer = MACE(constrained_problem, batch_size=4, rng=0,
                             variant=variant, surrogate_train_iters=10,
                             pop_size=16, n_generations=5)
            history = optimizer.optimize(n_simulations=24, n_init=12)
            assert len(history) >= 24
            best = history.best(constrained=True)
            assert best is not None

    def test_constrained_mace_rejects_unconstrained(self, quadratic_problem):
        # MACE itself runs {UCB, EI, PI} on unconstrained problems; the
        # modified constrained ensemble's registry entry refuses them.
        with pytest.raises(UnknownOptimizerError, match="constrained"):
            build_optimizer("mace_modified", quadratic_problem, 0)

    def test_constrained_mace_rejects_bad_variant(self, constrained_problem):
        with pytest.raises(OptimizationError):
            MACE(constrained_problem, variant="bogus")

    def test_step_before_initialize_raises(self, quadratic_problem):
        with pytest.raises(OptimizationError):
            RandomSearch(quadratic_problem).step()

    def test_batch_size_validation(self, quadratic_problem):
        with pytest.raises(OptimizationError):
            RandomSearch(quadratic_problem, batch_size=0)

    def test_initialize_with_explicit_designs(self, quadratic_problem):
        optimizer = RandomSearch(quadratic_problem, rng=0)
        designs = quadratic_problem.design_space.sample(4, rng=1)
        optimizer.initialize(n_init=4, initial_designs=designs)
        assert len(optimizer.history) == 4

    def test_callback_invoked(self, quadratic_problem):
        calls = []
        optimizer = RandomSearch(quadratic_problem, batch_size=2, rng=0)
        optimizer.optimize(n_simulations=8, n_init=4, callback=lambda h: calls.append(len(h)))
        assert calls and calls[-1] >= 8
