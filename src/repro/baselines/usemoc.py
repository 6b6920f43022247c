"""USeMOC baseline: uncertainty-aware search with constraints.

Belakaria et al. (AAAI 2020) first compute a cheap Pareto set of the
surrogate optimistic objectives, then pick the candidates with the largest
posterior uncertainty from it.  Adapted to the single-objective constrained
sizing problems of the paper, the cheap multi-objective front trades off the
optimistic (LCB/UCB) objective value against the probability of feasibility,
and the batch is filled with the highest-uncertainty members of that front.
"""

from __future__ import annotations

import numpy as np

from repro.acquisition.functions import probability_of_feasibility, upper_confidence_bound
from repro.bo.base import BaseOptimizer
from repro.bo.mace import search_budget, select_batch_from_pareto
from repro.bo.problem import OptimizationProblem
from repro.errors import OptimizationError
from repro.kernels import RBFKernel
from repro.moo import NSGA2
from repro.study.registry import register_optimizer
from repro.utils.random import RandomState


def _build_usemoc(cls, problem, rng, context):
    return cls(problem, rng=rng, **search_budget(context))


@register_optimizer("usemoc", builder=_build_usemoc, supports_unconstrained=False,
                    description="Uncertainty-aware constrained BO baseline")
class USeMOC(BaseOptimizer):
    """Uncertainty-aware constrained BO baseline."""

    name = "usemoc"

    def __init__(self, problem: OptimizationProblem, batch_size: int = 4,
                 rng: RandomState = None, surrogate_train_iters: int = 50,
                 pop_size: int = 64, n_generations: int = 30, beta: float = 2.0):
        super().__init__(problem, batch_size=batch_size, rng=rng,
                         surrogate_train_iters=surrogate_train_iters)
        if problem.n_constraints == 0:
            raise OptimizationError("USeMOC requires a constrained problem")
        self.pop_size = int(pop_size)
        self.n_generations = int(n_generations)
        self.beta = float(beta)

    def propose(self) -> np.ndarray:
        objective_model, constraint_model = self.fit_surrogates(RBFKernel)

        def cheap_objectives(candidates: np.ndarray) -> np.ndarray:
            mean, var = objective_model.predict(candidates)
            optimistic = upper_confidence_bound(mean, var, self.beta,
                                                minimize=self.problem.minimize)
            c_mean, c_var = constraint_model.predict(candidates)
            feasibility = probability_of_feasibility(
                c_mean, c_var, self.problem.constraint_thresholds,
                self.problem.constraint_senses)
            return np.column_stack([-optimistic, -feasibility])

        searcher = NSGA2(pop_size=self.pop_size, n_generations=self.n_generations,
                         rng=self.rng)
        x_unit, _ = self._training_data()
        result = searcher.minimize(cheap_objectives,
                                   self.problem.design_space.unit_bounds,
                                   initial_population=x_unit[-self.pop_size:])
        pareto = result.pareto_x
        # Uncertainty-aware pick: the front members with the largest total
        # posterior variance (objective plus constraints).
        _, objective_var = objective_model.predict(pareto)
        _, constraint_var = constraint_model.predict(pareto)
        uncertainty = objective_var + constraint_var.sum(axis=1)
        order = np.argsort(-uncertainty)
        if pareto.shape[0] >= self.batch_size:
            return pareto[order[: self.batch_size]]
        return select_batch_from_pareto(pareto, self.batch_size, self.rng)
