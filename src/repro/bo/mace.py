"""MACE: batch BO via a multi-objective acquisition ensemble (unconstrained).

Implements Lyu et al. (ICML 2018): candidates are drawn from the NSGA-II
Pareto front of {UCB, EI, PI}, so a whole batch of diverse, well-motivated
designs can be simulated in parallel.  This is the "MACE" baseline of the
paper's FOM experiments and the acquisition machinery KATO builds on.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.acquisition import MACEObjectives
from repro.bo.base import BaseOptimizer
from repro.bo.problem import OptimizationProblem
from repro.gp import GPRegression
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


def _build_mace(cls, problem, rng, context):
    """Build "mace" for either problem family, as the paper's figures do.

    On unconstrained (FOM) problems this is plain MACE; on constrained
    problems it is the original six-objective constrained MACE
    (``ConstrainedMACE(variant="full")``), so the one "mace" name serves
    both the FOM and the constrained experiments.
    """
    quick = context.quick
    kwargs = context.constructor_kwargs(
        batch_size=4,
        surrogate_train_iters=20 if quick else 50,
        pop_size=32 if quick else 64,
        n_generations=10 if quick else 30,
    )
    if getattr(problem, "n_constraints", 0) > 0:
        from repro.bo.constrained_mace import ConstrainedMACE
        kwargs.setdefault("variant", "full")
        return ConstrainedMACE(problem, rng=rng, **kwargs)
    return cls(problem, rng=rng, **kwargs)


@register_optimizer("mace", builder=_build_mace,
                    description="MACE acquisition-ensemble BO (six-objective "
                                "constrained variant on constrained problems)")
class MACE(BaseOptimizer):
    """Unconstrained MACE for FOM-style single-objective problems.

    Parameters
    ----------
    kernel_factory:
        Callable ``dim -> Kernel`` for the surrogate; defaults to ARD RBF.
        KATO passes the Neural Kernel here.
    pop_size / n_generations:
        NSGA-II budget for the acquisition Pareto search.
    """

    name = "mace"

    def __init__(self, problem: OptimizationProblem, batch_size: int = 4,
                 rng: RandomState = None,
                 kernel_factory: Callable[[int], Kernel] | None = None,
                 surrogate_train_iters: int = 50,
                 pop_size: int = 64, n_generations: int = 30,
                 ucb_beta: float = 2.0):
        super().__init__(problem, batch_size=batch_size, rng=rng,
                         surrogate_train_iters=surrogate_train_iters)
        self.kernel_factory = kernel_factory or (lambda dim: RBFKernel(dim))
        self.pop_size = int(pop_size)
        self.n_generations = int(n_generations)
        self.ucb_beta = float(ucb_beta)

    def _fit_surrogate(self) -> GPRegression:
        x_unit, y = self._training_data()
        model = GPRegression(kernel=self.kernel_factory(x_unit.shape[1]))
        model.fit(x_unit, y, n_iters=self.surrogate_train_iters)
        return model

    def acquisition_pareto(self, model: GPRegression) -> np.ndarray:
        """Run NSGA-II on the acquisition ensemble; returns unit-cube Pareto set."""
        objectives = MACEObjectives(model, self.incumbent(constrained=False),
                                    minimize=self.problem.minimize, beta=self.ucb_beta)
        searcher = NSGA2(pop_size=self.pop_size, n_generations=self.n_generations,
                         rng=self.rng)
        x_unit, _ = self._training_data()
        result = searcher.minimize(objectives, self.problem.design_space.unit_bounds,
                                   initial_population=x_unit[-self.pop_size:])
        return result.pareto_x

    def propose(self) -> np.ndarray:
        model = self._fit_surrogate()
        pareto = self.acquisition_pareto(model)
        return select_batch_from_pareto(pareto, self.batch_size, self.rng)
