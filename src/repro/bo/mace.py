"""MACE: batch BO via a multi-objective acquisition ensemble.

Implements Lyu et al. (ICML 2018): candidates are drawn from the NSGA-II
Pareto front of an acquisition ensemble, so a whole batch of diverse,
well-motivated designs can be simulated in parallel.  The ensemble depends
on the problem (paper section 3.3):

* unconstrained (FOM) problems -- {UCB, EI, PI};
* ``variant="full"`` -- the original six-objective constrained MACE of
  Zhang et al. (TCAD 2021), the "MACE" baseline of Fig. 5;
* ``variant="modified"`` -- KATO's reduction to ``{UCB, PI, EI} x PF``
  (Eq. 13).

KATO (:class:`repro.core.KATO`) is this optimizer with Neural-Kernel
surrogates, the modified ensemble and selective transfer on top.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.acquisition import (
    ConstrainedMACEObjectives,
    MACEObjectives,
    ModifiedConstrainedMACEObjectives,
)
from repro.bo.base import BaseOptimizer
from repro.bo.problem import OptimizationProblem
from repro.errors import OptimizationError
from repro.kernels import Kernel, RBFKernel
from repro.moo import NSGA2
from repro.study.registry import register_optimizer
from repro.utils.random import RandomState


def select_batch_from_pareto(pareto_x: np.ndarray, batch_size: int, rng) -> np.ndarray:
    """Pick ``batch_size`` diverse points from a Pareto set.

    When the front is larger than the batch, a random subset is drawn (as in
    the MACE paper); when smaller, points are repeated with small jitter so a
    full batch is always returned.
    """
    n = pareto_x.shape[0]
    if n >= batch_size:
        indices = rng.choice(n, size=batch_size, replace=False)
        return pareto_x[indices]
    extra_indices = rng.choice(n, size=batch_size - n, replace=True)
    jitter = rng.normal(scale=0.01, size=(batch_size - n, pareto_x.shape[1]))
    extra = np.clip(pareto_x[extra_indices] + jitter, 0.0, 1.0)
    return np.vstack([pareto_x, extra])


def search_budget(context, **defaults) -> dict:
    """Constructor keywords with the quick- or paper-scale search budget.

    The surrogate-training and NSGA-II budgets follow ``context.quick``;
    ``defaults`` add or replace keywords beneath the context's batch size
    and user options.
    """
    quick = context.quick
    return context.constructor_kwargs(**{
        "batch_size": 4,
        "surrogate_train_iters": 20 if quick else 50,
        "pop_size": 32 if quick else 64,
        "n_generations": 10 if quick else 30,
        **defaults,
    })


def _build_mace(cls, problem, rng, context):
    return cls(problem, rng=rng, **search_budget(context))


def _build_mace_modified(cls, problem, rng, context):
    return cls(problem, rng=rng, **search_budget(context, variant="modified"))


@register_optimizer("mace", builder=_build_mace,
                    description="MACE acquisition-ensemble BO (six-objective "
                                "constrained variant on constrained problems)")
@register_optimizer("mace_modified", aliases=("modified_mace",),
                    builder=_build_mace_modified, supports_unconstrained=False,
                    description="KATO's modified three-objective constrained "
                                "MACE (Eq. 13)")
class MACE(BaseOptimizer):
    """Batch BO with an acquisition-ensemble Pareto search.

    Parameters
    ----------
    variant:
        Constrained ensemble: ``"full"`` (the original six objectives, the
        default) or ``"modified"`` (KATO's three objectives, Eq. 13).
        Unconstrained problems always use {UCB, EI, PI}.
    kernel_factory:
        Callable ``dim -> Kernel`` used for the objective *and* each
        constraint surrogate; defaults to ARD RBF.
    pop_size / n_generations:
        NSGA-II budget for the acquisition Pareto search.
    """

    name = "mace"

    def __init__(self, problem: OptimizationProblem, batch_size: int = 4,
                 rng: RandomState = None, variant: str = "full",
                 kernel_factory: Callable[[int], Kernel] | None = None,
                 surrogate_train_iters: int = 50,
                 pop_size: int = 64, n_generations: int = 30,
                 ucb_beta: float = 2.0):
        super().__init__(problem, batch_size=batch_size, rng=rng,
                         surrogate_train_iters=surrogate_train_iters)
        if variant not in ("modified", "full"):
            raise OptimizationError(f"unknown variant {variant!r}")
        self.variant = variant
        self.kernel_factory = kernel_factory or RBFKernel
        self.pop_size = int(pop_size)
        self.n_generations = int(n_generations)
        self.ucb_beta = float(ucb_beta)

    def acquisition_pareto(self, objective_model, constraint_model=None) -> np.ndarray:
        """NSGA-II Pareto set (unit cube) of the problem's acquisition ensemble."""
        best = self.incumbent()
        if self.problem.n_constraints == 0:
            ensemble = MACEObjectives(objective_model, best,
                                      minimize=self.problem.minimize,
                                      beta=self.ucb_beta)
        else:
            objectives = (ModifiedConstrainedMACEObjectives
                          if self.variant == "modified" else ConstrainedMACEObjectives)
            ensemble = objectives(
                objective_model=objective_model,
                constraint_model=constraint_model,
                best=best,
                thresholds=self.problem.constraint_thresholds,
                senses=self.problem.constraint_senses,
                minimize=self.problem.minimize,
                beta=self.ucb_beta,
            )
        searcher = NSGA2(pop_size=self.pop_size, n_generations=self.n_generations,
                         rng=self.rng)
        x_unit, _ = self._training_data()
        result = searcher.minimize(ensemble, self.problem.design_space.unit_bounds,
                                   initial_population=x_unit[-self.pop_size:])
        return result.pareto_x

    def propose(self) -> np.ndarray:
        pareto = self.acquisition_pareto(*self.fit_surrogates(self.kernel_factory))
        return select_batch_from_pareto(pareto, self.batch_size, self.rng)
