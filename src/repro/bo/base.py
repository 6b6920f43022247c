"""Optimizer base class: the shared ask/tell loop and surrogate fit."""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.bo.history import OptimizationHistory
from repro.bo.problem import EvaluatedDesign, OptimizationProblem
from repro.errors import OptimizationError
from repro.gp import GPRegression, MultiOutputGP
from repro.kernels import Kernel
from repro.utils.random import RandomState, as_rng


class BaseOptimizer:
    """Shared ask/tell loop for all sizing optimizers.

    Subclasses implement :meth:`propose` which returns a batch of unit-cube
    candidates given the current history; the base class owns the history,
    the initial random designs and the budgeted :meth:`optimize` loop.

    Parameters
    ----------
    problem:
        The black-box sizing problem.
    batch_size:
        Number of designs simulated per iteration (MACE-style batching).
    surrogate_train_iters:
        Adam iterations for surrogate hyper-parameter training per refit.
    """

    name = "base"

    def __init__(self, problem: OptimizationProblem, batch_size: int = 1,
                 rng: RandomState = None, surrogate_train_iters: int = 50):
        if batch_size < 1:
            raise OptimizationError("batch_size must be at least 1")
        self.problem = problem
        self.batch_size = int(batch_size)
        self.rng = as_rng(rng)
        self.surrogate_train_iters = int(surrogate_train_iters)
        self.history = OptimizationHistory(problem)

    # ------------------------------------------------------------------ #
    # data handling                                                       #
    # ------------------------------------------------------------------ #
    def initialize(self, n_init: int = 10,
                   initial_designs: np.ndarray | None = None,
                   initial_evaluations: list[EvaluatedDesign] | None = None) -> None:
        """Seed the history with random designs and/or provided evaluations.

        Random designs are only drawn to top the history up to ``n_init``;
        with ``n_init=0`` nothing is ever sampled, so passing
        ``initial_evaluations=[]`` together with ``n_init=0`` is an exact
        no-op (callers managing their own warm start rely on this).
        """
        if n_init < 0:
            raise OptimizationError(f"n_init must be non-negative, got {n_init}")
        if initial_evaluations is not None:
            self.history.extend(list(initial_evaluations))
        if initial_designs is not None:
            self.history.extend(self.problem.evaluate_batch(initial_designs))
        already = len(self.history)
        if already < n_init:
            designs = self.problem.design_space.sample(n_init - already, rng=self.rng)
            self.history.extend(self.problem.evaluate_batch(designs))

    def _training_data(self) -> tuple[np.ndarray, np.ndarray]:
        """Unit-cube inputs and objective values of everything simulated so far."""
        x_unit = self.problem.design_space.to_unit(self.history.x)
        return x_unit, self.history.objectives

    def _constraint_data(self) -> np.ndarray:
        """Constraint-metric matrix ``(n, n_constraints)`` of the history."""
        metrics = self.history.metrics_matrix()
        return metrics[:, 1:]

    def fit_surrogates(self, kernel_factory: Callable[[int], Kernel]
                       ) -> tuple[GPRegression, MultiOutputGP | None]:
        """Fit the objective GP and, on constrained problems, the constraint GPs.

        ``kernel_factory`` (``dim -> Kernel``) is called for the objective
        first, then once per constraint metric; the constraint model is
        ``None`` for unconstrained problems.
        """
        x_unit, y = self._training_data()
        objective_model = GPRegression(kernel=kernel_factory(x_unit.shape[1]))
        objective_model.fit(x_unit, y, n_iters=self.surrogate_train_iters)
        if self.problem.n_constraints == 0:
            return objective_model, None
        constraint_model = MultiOutputGP(kernel_factory=kernel_factory)
        constraint_model.fit(x_unit, self._constraint_data(),
                             n_iters=self.surrogate_train_iters)
        return objective_model, constraint_model

    def incumbent(self, constrained: bool | None = None) -> float:
        """Current best objective (feasible-only for constrained problems)."""
        constrained = self.problem.n_constraints > 0 if constrained is None else constrained
        best = self.history.best_objective(constrained=constrained)
        if np.isfinite(best):
            return best
        # No feasible design yet: fall back to the best raw objective so the
        # acquisition still has a reference level.
        return self.history.best_objective(constrained=False)

    # ------------------------------------------------------------------ #
    # optimization loop                                                   #
    # ------------------------------------------------------------------ #
    def propose(self) -> np.ndarray:
        """Return a ``(batch_size, d)`` matrix of unit-cube candidates."""
        raise NotImplementedError

    def step(self) -> list[EvaluatedDesign]:
        """One ask/evaluate/tell iteration; returns the new evaluations."""
        if len(self.history) == 0:
            raise OptimizationError("call initialize() before step()")
        unit_candidates = np.atleast_2d(self.propose())
        designs = self.problem.design_space.from_unit(unit_candidates)
        evaluations = self.problem.evaluate_batch(designs)
        self.history.extend(evaluations)
        return evaluations

    def optimize(self, n_simulations: int, n_init: int = 10,
                 initial_designs: np.ndarray | None = None,
                 initial_evaluations: list[EvaluatedDesign] | None = None,
                 callback=None) -> OptimizationHistory:
        """Run until ``n_simulations`` total simulations have been spent."""
        if len(self.history) == 0:
            self.initialize(n_init=min(n_init, n_simulations),
                            initial_designs=initial_designs,
                            initial_evaluations=initial_evaluations)
        if len(self.history) == 0 and n_simulations > 0:
            raise OptimizationError(
                "optimize() has no designs to start from: provide n_init > 0, "
                "initial_designs or non-empty initial_evaluations")
        while len(self.history) < n_simulations:
            self.step()
            if callback is not None:
                callback(self.history)
        return self.history
