"""Tests for the baseline optimizers and the human-expert designs."""

import numpy as np
import pytest

from repro.baselines import MESMOC, TLMBO, USeMOC, evaluate_expert, expert_design
from repro.baselines.tlmbo import gaussian_copula_transform
from repro.errors import OptimizationError


class TestMESMOC:
    def test_runs_and_records(self, constrained_problem):
        optimizer = MESMOC(constrained_problem, batch_size=3, rng=0,
                           n_candidates=128, surrogate_train_iters=10)
        history = optimizer.optimize(n_simulations=21, n_init=12)
        assert len(history) >= 21
        assert history.best(constrained=True) is not None

    def test_rejects_unconstrained(self, quadratic_problem):
        with pytest.raises(OptimizationError):
            MESMOC(quadratic_problem)


class TestUSeMOC:
    def test_runs_and_records(self, constrained_problem):
        optimizer = USeMOC(constrained_problem, batch_size=3, rng=0,
                           surrogate_train_iters=10, pop_size=16, n_generations=5)
        history = optimizer.optimize(n_simulations=21, n_init=12)
        assert len(history) >= 21

    def test_rejects_unconstrained(self, quadratic_problem):
        with pytest.raises(OptimizationError):
            USeMOC(quadratic_problem)


class TestTLMBO:
    def test_copula_transform_is_monotone_and_standardised(self, rng):
        values = rng.normal(3.0, 10.0, size=50)
        z = gaussian_copula_transform(values)
        order_original = np.argsort(values)
        order_transformed = np.argsort(z)
        assert np.array_equal(order_original, order_transformed)
        assert abs(z.mean()) < 0.2

    def test_transfer_run_improves(self, quadratic_problem, rng):
        # Source data from the same (synthetic) design space.
        source_x = rng.uniform(size=(40, 3))
        source_y = -np.sum((source_x - 0.6) ** 2, axis=1)
        optimizer = TLMBO(quadratic_problem, source_x=source_x, source_y=source_y,
                          batch_size=1, rng=0, surrogate_train_iters=10)
        history = optimizer.optimize(n_simulations=14, n_init=6)
        assert history.best_objective(constrained=False) > -0.15

    def test_rejects_mismatched_design_space(self, quadratic_problem, rng):
        with pytest.raises(OptimizationError):
            TLMBO(quadratic_problem, source_x=rng.uniform(size=(10, 5)),
                  source_y=rng.normal(size=10))


class TestHumanExpert:
    def test_designs_exist_for_all_circuits_and_nodes(self):
        for circuit in ("two_stage_opamp", "three_stage_opamp", "bandgap"):
            for node in ("180nm", "40nm"):
                assert expert_design(circuit, node)

    def test_expert_design_lookup(self):
        design = expert_design("two_stage_opamp", "180nm")
        assert "i_bias1" in design
        with pytest.raises(KeyError):
            expert_design("pll", "180nm")

    def test_expert_designs_return_copies(self):
        first = expert_design("bandgap", "180nm")
        first["r_ptat"] = 0.0
        assert expert_design("bandgap", "180nm")["r_ptat"] != 0.0

    def test_expert_two_stage_is_feasible(self, two_stage_problem):
        evaluation = evaluate_expert(two_stage_problem)
        assert evaluation.feasible
        assert evaluation.metrics["gain"] > 60.0
