"""Optimization history: the per-simulation record behind every figure."""

from __future__ import annotations

import numpy as np

from repro.bo.problem import EvaluatedDesign, OptimizationProblem


class OptimizationHistory:
    """Records every simulated design in order and derives summary curves.

    The paper's figures plot "performance versus simulation budget"; this
    class produces exactly those curves (:meth:`best_curve`) for both FOM
    (unconstrained) and constrained runs, where infeasible designs do not
    improve the incumbent.
    """

    def __init__(self, problem: OptimizationProblem):
        self.problem = problem
        self.evaluations: list[EvaluatedDesign] = []

    # ------------------------------------------------------------------ #
    # recording                                                           #
    # ------------------------------------------------------------------ #
    def record(self, evaluation: EvaluatedDesign) -> None:
        self.evaluations.append(evaluation)

    def extend(self, evaluations: list[EvaluatedDesign]) -> None:
        self.evaluations.extend(evaluations)

    def __len__(self) -> int:
        return len(self.evaluations)

    @property
    def n_simulations(self) -> int:
        return len(self.evaluations)

    # ------------------------------------------------------------------ #
    # data access                                                         #
    # ------------------------------------------------------------------ #
    @property
    def x(self) -> np.ndarray:
        """Design matrix ``(n, d)`` in physical units."""
        if not self.evaluations:
            return np.empty((0, self.problem.design_space.dim))
        return np.array([e.x for e in self.evaluations], dtype=float)

    @property
    def objectives(self) -> np.ndarray:
        return np.array([e.objective for e in self.evaluations], dtype=float)

    @property
    def feasible(self) -> np.ndarray:
        return np.array([e.feasible for e in self.evaluations], dtype=bool)

    @property
    def violations(self) -> np.ndarray:
        return np.array([e.violation for e in self.evaluations], dtype=float)

    def metrics_matrix(self) -> np.ndarray:
        """All metrics, ``(n, n_metrics)``, in :attr:`OptimizationProblem.metric_names` order."""
        return self.problem.metrics_matrix(self.evaluations)

    # ------------------------------------------------------------------ #
    # summaries                                                           #
    # ------------------------------------------------------------------ #
    def best_index(self, constrained: bool = True) -> int | None:
        """Index of the best design (feasible-only when ``constrained``).

        Falls back to the minimum-violation design when nothing is feasible,
        which matches how practitioners read partially-failed runs.
        """
        if not self.evaluations:
            return None
        objectives = self.objectives
        if constrained:
            feasible = self.feasible
            if feasible.any():
                candidate_indices = np.nonzero(feasible)[0]
            else:
                violations = self.violations
                return int(np.argmin(violations))
        else:
            candidate_indices = np.arange(len(self.evaluations))
        values = objectives[candidate_indices]
        best_local = int(np.argmin(values)) if self.problem.minimize else int(np.argmax(values))
        return int(candidate_indices[best_local])

    def best(self, constrained: bool = True) -> EvaluatedDesign | None:
        index = self.best_index(constrained)
        return None if index is None else self.evaluations[index]

    def best_objective(self, constrained: bool = True) -> float:
        """Best objective so far (``problem.worst_objective`` when empty/infeasible)."""
        index = self.best_index(constrained)
        if index is None:
            return self.problem.worst_objective
        if constrained and not self.evaluations[index].feasible:
            return self.problem.worst_objective
        return self.evaluations[index].objective

    def best_curve(self, constrained: bool = True) -> np.ndarray:
        """Best-so-far objective after each simulation (the paper's x-axis)."""
        best = self.problem.worst_objective
        curve = np.empty(len(self.evaluations))
        for index, evaluation in enumerate(self.evaluations):
            eligible = evaluation.feasible or not constrained
            if eligible and self.problem.is_better(evaluation.objective, best):
                best = evaluation.objective
            curve[index] = best
        return curve

    def summary(self) -> dict[str, object]:
        """Compact dictionary used by the experiment reports."""
        best = self.best(constrained=True)
        return {
            "problem": self.problem.name,
            "n_simulations": self.n_simulations,
            "n_feasible": int(self.feasible.sum()) if self.evaluations else 0,
            "best_objective": None if best is None else best.objective,
            "best_feasible": None if best is None else best.feasible,
            "best_metrics": None if best is None else dict(best.metrics),
        }
