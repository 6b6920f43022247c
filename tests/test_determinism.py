"""Seeded-determinism regressions: fixed seeds mean bit-identical runs.

Reproducibility is a hard requirement for the paper experiments (statistics
over fixed seed sets) and for the design cache (bit-identical replays).
These tests pin it down for the two stochastic engines -- MACE's BO loop and
NSGA-II -- across repeated runs *and* across execution backends, since the
process backend must preserve batch order and produce the same bits as
serial.
"""

from __future__ import annotations

import numpy as np

from repro.bo.design_space import DesignSpace, DesignVariable
from repro.bo.mace import MACE
from repro.bo.problem import OptimizationProblem
from repro.engine import EvaluationEngine
from repro.moo import NSGA2


class _QuadraticProblem(OptimizationProblem):
    """Cheap deterministic maximisation problem (defined here, not imported
    from the tests' conftest: `import conftest` is ambiguous when the full
    suite also collects benchmarks/conftest.py)."""

    def __init__(self, dim: int = 3):
        space = DesignSpace([DesignVariable(f"x{i}", 0.0, 1.0) for i in range(dim)])
        super().__init__(name="quadratic_det", design_space=space, objective="f",
                         minimize=False, constraints=[])

    def simulate(self, design):
        x = np.array([design[f"x{i}"] for i in range(self.design_space.dim)])
        return {"f": float(-np.sum((x - 0.6) ** 2))}


def _run_mace(seed: int, backend: str | None = None) -> tuple[np.ndarray, np.ndarray]:
    problem = _QuadraticProblem(dim=3)
    if backend is not None:
        problem.attach_engine(EvaluationEngine(problem, backend=backend))
    try:
        optimizer = MACE(problem, batch_size=2, rng=seed,
                         surrogate_train_iters=10, pop_size=16, n_generations=5)
        history = optimizer.optimize(n_simulations=12, n_init=6)
        return history.x.copy(), history.objectives.copy()
    finally:
        problem.engine.close()


class TestMACEDeterminism:
    def test_bit_identical_across_runs(self):
        x_first, y_first = _run_mace(seed=42)
        x_second, y_second = _run_mace(seed=42)
        np.testing.assert_array_equal(x_first, x_second)
        np.testing.assert_array_equal(y_first, y_second)

    def test_bit_identical_serial_vs_process_backend(self):
        x_serial, y_serial = _run_mace(seed=7, backend="serial")
        x_process, y_process = _run_mace(seed=7, backend="process")
        np.testing.assert_array_equal(x_serial, x_process)
        np.testing.assert_array_equal(y_serial, y_process)

    def test_different_seeds_diverge(self):
        x_first, _ = _run_mace(seed=1)
        x_second, _ = _run_mace(seed=2)
        assert not np.array_equal(x_first, x_second)


class TestNSGA2Determinism:
    @staticmethod
    def _objectives(x: np.ndarray) -> np.ndarray:
        # A simple bi-objective trade-off (ZDT1-like on 4 variables).
        f1 = x[:, 0]
        g = 1.0 + 9.0 * np.mean(x[:, 1:], axis=1)
        f2 = g * (1.0 - np.sqrt(np.clip(f1 / g, 0.0, None)))
        return np.column_stack([f1, f2])

    def _run(self, seed: int):
        optimizer = NSGA2(pop_size=16, n_generations=8, rng=seed)
        bounds = np.column_stack([np.zeros(4), np.ones(4)])
        return optimizer.minimize(self._objectives, bounds)

    def test_bit_identical_across_runs(self):
        first = self._run(seed=123)
        second = self._run(seed=123)
        np.testing.assert_array_equal(first.x, second.x)
        np.testing.assert_array_equal(first.objectives, second.objectives)
        np.testing.assert_array_equal(first.pareto_x, second.pareto_x)
        np.testing.assert_array_equal(first.pareto_objectives,
                                      second.pareto_objectives)

    def test_different_seeds_diverge(self):
        assert not np.array_equal(self._run(seed=1).x, self._run(seed=2).x)
