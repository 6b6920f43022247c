"""Bayesian-optimization engines.

* :class:`DesignSpace` -- named, bounded (optionally log-scaled) design
  variables mapped to the unit cube that every optimizer works in.
* :class:`OptimizationProblem` / :class:`Constraint` -- the black-box
  interface the circuit testbenches implement.
* :class:`OptimizationHistory` -- per-simulation records and best-so-far
  curves (the x-axis of every figure in the paper).
* Optimizers: random search, SMAC-RF and
  :class:`MACE`, the one acquisition-ensemble optimizer: {UCB, EI, PI} on
  FOM problems, and on constrained ones the original six-objective
  ensemble (``variant="full"``) or KATO's three-objective one
  (``variant="modified"``, paper Eq. 13).  KATO subclasses it.
"""

from repro.bo.design_space import DesignSpace, DesignVariable
from repro.bo.problem import Constraint, EvaluatedDesign, OptimizationProblem
from repro.bo.history import OptimizationHistory
from repro.bo.base import BaseOptimizer
from repro.bo.random_search import RandomSearch
from repro.bo.smac_rf import SMACRF
from repro.bo.mace import MACE

__all__ = [
    "DesignSpace",
    "DesignVariable",
    "Constraint",
    "EvaluatedDesign",
    "OptimizationProblem",
    "OptimizationHistory",
    "BaseOptimizer",
    "RandomSearch",
    "SMACRF",
    "MACE",
]
