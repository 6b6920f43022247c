"""Tests for acquisition functions and the MACE ensembles."""

import numpy as np
import pytest

from repro.acquisition import (
    ConstrainedMACEObjectives,
    ExpectedImprovement,
    MACEObjectives,
    ModifiedConstrainedMACEObjectives,
    expected_improvement,
    probability_of_improvement,
    upper_confidence_bound,
)
from repro.acquisition.functions import probability_of_feasibility
from repro.gp import GPRegression, MultiOutputGP


class _CountingModel:
    """Wraps a surrogate and counts its ``predict`` calls."""

    def __init__(self, model):
        self.model = model
        self.calls = 0

    def predict(self, x):
        self.calls += 1
        return self.model.predict(x)


class TestExpectedImprovement:
    def test_positive_when_mean_above_best(self):
        assert expected_improvement(1.0, 0.01, best=0.0) > 0.9

    def test_small_when_mean_far_below_best(self):
        assert expected_improvement(-5.0, 0.01, best=0.0) < 1e-6

    def test_zero_variance_limit(self):
        value = expected_improvement(2.0, 0.0, best=1.0)
        assert value == pytest.approx(1.0, abs=1e-3)

    def test_minimize_flag_flips(self):
        better_low = expected_improvement(-1.0, 0.1, best=0.0, minimize=True)
        worse_high = expected_improvement(1.0, 0.1, best=0.0, minimize=True)
        assert better_low > worse_high

    def test_increases_with_variance_below_best(self):
        low = expected_improvement(-1.0, 0.01, best=0.0)
        high = expected_improvement(-1.0, 4.0, best=0.0)
        assert high > low

    def test_nonnegative(self, rng):
        means = rng.normal(size=50)
        variances = rng.uniform(0.001, 2.0, size=50)
        assert np.all(expected_improvement(means, variances, best=0.3) >= 0)


class TestOtherAcquisitions:
    def test_pi_bounds(self, rng):
        values = probability_of_improvement(rng.normal(size=20),
                                            rng.uniform(0.01, 1, 20), best=0.0)
        assert np.all((values >= 0) & (values <= 1))

    def test_pi_monotone_in_mean(self):
        assert (probability_of_improvement(1.0, 0.5, best=0.0)
                > probability_of_improvement(-1.0, 0.5, best=0.0))

    def test_ucb_exceeds_mean(self):
        assert upper_confidence_bound(1.0, 1.0, beta=2.0) > 1.0

    def test_ucb_minimize_prefers_low_mean(self):
        low = upper_confidence_bound(-2.0, 0.1, beta=1.0, minimize=True)
        high = upper_confidence_bound(2.0, 0.1, beta=1.0, minimize=True)
        assert low > high

    def test_probability_of_feasibility_product(self):
        means = np.array([[10.0, 1.0]])
        variances = np.array([[0.01, 0.01]])
        # metric0 >= 5 satisfied with near-certainty; metric1 <= 0 nearly violated
        value = probability_of_feasibility(means, variances, [5.0, 0.0], ["ge", "le"])
        assert value[0] < 0.01

    def test_probability_of_feasibility_all_satisfied(self):
        value = probability_of_feasibility([[10.0, -5.0]], [[0.01, 0.01]],
                                           [5.0, 0.0], ["ge", "le"])
        assert value[0] > 0.99

    def test_probability_of_feasibility_unknown_sense(self):
        with pytest.raises(ValueError):
            probability_of_feasibility([[1.0]], [[1.0]], [0.0], ["gt"])


class TestBoundAcquisitionClasses:
    def test_ei_class_on_gp(self, rng):
        x = rng.uniform(size=(20, 2))
        y = -np.sum((x - 0.5) ** 2, axis=1)
        gp = GPRegression().fit(x, y, n_iters=20)
        acquisition = ExpectedImprovement(gp, best=float(y.max()))
        values = acquisition(rng.uniform(size=(10, 2)))
        assert values.shape == (10,)
        assert np.all(values >= 0)


class TestEnsembles:
    def _models(self, rng):
        x = rng.uniform(size=(25, 2))
        objective = np.sum(x, axis=1)
        constraints = np.column_stack([x[:, 0] * 3.0, x[:, 1] * 2.0])
        objective_gp = GPRegression().fit(x, objective, n_iters=15)
        constraint_gp = MultiOutputGP().fit(x, constraints, n_iters=15)
        return objective_gp, constraint_gp

    def test_mace_objectives_shape_and_direction(self, rng):
        objective_gp, _ = self._models(rng)
        ensemble = MACEObjectives(objective_gp, best=1.0, minimize=True)
        values = ensemble(rng.uniform(size=(12, 2)))
        assert values.shape == (12, 3)
        assert np.all(np.isfinite(values))

    def test_constrained_ensemble_six_objectives(self, rng):
        objective_gp, constraint_gp = self._models(rng)
        ensemble = ConstrainedMACEObjectives(objective_gp, constraint_gp, best=1.0,
                                             thresholds=[1.5, 1.0], senses=["ge", "le"],
                                             minimize=True)
        values = ensemble(rng.uniform(size=(9, 2)))
        assert values.shape == (9, 6)
        assert ensemble.n_objectives == 6

    def test_constrained_ensemble_predicts_constraints_once(self, rng):
        objective_gp, constraint_gp = self._models(rng)
        counting = _CountingModel(constraint_gp)
        thresholds, senses = [1.5, 1.0], ["ge", "le"]
        ensemble = ConstrainedMACEObjectives(objective_gp, counting, best=1.0,
                                             thresholds=thresholds, senses=senses,
                                             minimize=True)
        x = rng.uniform(size=(9, 2))
        values = ensemble(x)
        assert counting.calls == 1

        # The same matrix built from independent predictions.
        mean, variance = objective_gp.predict(x)
        c_means, c_vars = constraint_gp.predict(x)
        margins = np.column_stack([c_means[:, 0] - thresholds[0],
                                   thresholds[1] - c_means[:, 1]])
        positive = np.maximum(0.0, margins)
        expected = np.column_stack([
            -upper_confidence_bound(mean, variance, 2.0, True),
            -np.log(np.maximum(expected_improvement(mean, variance, 1.0, True), 1e-40)),
            -np.log(np.maximum(probability_of_improvement(mean, variance, 1.0, True),
                               1e-40)),
            -probability_of_feasibility(c_means, c_vars, thresholds, senses),
            -np.sum(positive, axis=1),
            -np.sum(positive / np.sqrt(np.maximum(c_vars, 1e-12)), axis=1),
        ])
        assert np.array_equal(values, expected)

    def test_modified_ensemble_three_objectives(self, rng):
        objective_gp, constraint_gp = self._models(rng)
        ensemble = ModifiedConstrainedMACEObjectives(objective_gp, constraint_gp,
                                                     best=1.0, thresholds=[1.5, 1.0],
                                                     senses=["ge", "le"], minimize=True)
        values = ensemble(rng.uniform(size=(9, 2)))
        assert values.shape == (9, 3)
        assert ensemble.n_objectives == 3
        assert np.all(np.isfinite(values))

    def test_modified_ensemble_prefers_feasible_good_points(self, rng):
        objective_gp, constraint_gp = self._models(rng)
        ensemble = ModifiedConstrainedMACEObjectives(objective_gp, constraint_gp,
                                                     best=1.0, thresholds=[1.5, 1.9],
                                                     senses=["ge", "le"], minimize=True)
        # A point with high x0 (satisfies constraint 1) and low x1.
        good = ensemble(np.array([[0.9, 0.1]]))
        bad = ensemble(np.array([[0.05, 0.05]]))  # violates the >= constraint badly
        # Lower is better in minimisation convention for every ensemble column.
        assert good[0, 1] < bad[0, 1]
