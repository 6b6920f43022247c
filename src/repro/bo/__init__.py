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

This ``__init__`` resolves every name lazily (PEP 562).  The simulation
stack (circuits, engine, bench, Monte Carlo, queue workers) imports only
the leaf modules :mod:`repro.bo.design_space`, :mod:`repro.bo.problem` and
:mod:`repro.bo.history`; an eager package import would drag the optimizer
stack (:mod:`repro.bo.base` and with it the GP, NN, kernel, acquisition and
NSGA-II packages plus ``scipy.linalg``) into every process that only
simulates.  ``tests/test_imports.py`` pins that boundary.
"""

from __future__ import annotations

import importlib

_LAZY_ATTRS = {
    "DesignSpace": "repro.bo.design_space",
    "DesignVariable": "repro.bo.design_space",
    "Constraint": "repro.bo.problem",
    "EvaluatedDesign": "repro.bo.problem",
    "OptimizationProblem": "repro.bo.problem",
    "OptimizationHistory": "repro.bo.history",
    "BaseOptimizer": "repro.bo.base",
    "RandomSearch": "repro.bo.random_search",
    "SMACRF": "repro.bo.smac_rf",
    "MACE": "repro.bo.mace",
}

__all__ = sorted(_LAZY_ATTRS)


def __getattr__(name: str):
    module_name = _LAZY_ATTRS.get(name)
    if module_name is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(module_name), name)


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_LAZY_ATTRS))
