"""Acquisition ensembles searched by MACE and by KATO's modified variant.

MACE (Lyu et al., ICML 2018; Zhang et al., TCAD 2021 for the constrained
version) proposes batch candidates from the Pareto front of several
acquisition functions.  The original constrained formulation uses six
objectives; KATO's modification (paper Eq. 13) keeps only
``{UCB, PI, EI} x PF``, cutting the Pareto search from six to three
objectives.

Each ensemble exposes ``__call__(x) -> (n, k)`` matrices of objectives in
*minimisation* convention so they can be passed straight to
:class:`repro.moo.NSGA2`.
"""

from __future__ import annotations

import numpy as np

from repro.acquisition.functions import (
    expected_improvement,
    probability_of_feasibility,
    probability_of_improvement,
    upper_confidence_bound,
)

_EPS = 1e-12
_LOG_FLOOR = 1e-40


class MACEObjectives:
    """Unconstrained MACE ensemble: maximise {UCB, EI, PI} of one surrogate.

    Used for the FOM (single-objective) experiments.  EI and PI are mapped
    through ``-log`` (as in the reference MACE implementation) to spread the
    scale, and every objective is negated for minimisation.
    """

    n_objectives = 3

    def __init__(self, model, best: float, minimize: bool = False, beta: float = 2.0):
        self.model = model
        self.best = float(best)
        self.minimize = bool(minimize)
        self.beta = float(beta)

    def __call__(self, x) -> np.ndarray:
        mean, variance = self.model.predict(x)
        mean = np.asarray(mean, dtype=float).ravel()
        variance = np.asarray(variance, dtype=float).ravel()
        ucb = upper_confidence_bound(mean, variance, self.beta, self.minimize)
        ei = expected_improvement(mean, variance, self.best, self.minimize)
        pi = probability_of_improvement(mean, variance, self.best, self.minimize)
        return np.column_stack([
            -ucb,
            -np.log(np.maximum(ei, _LOG_FLOOR)),
            -np.log(np.maximum(pi, _LOG_FLOOR)),
        ])


class ConstrainedMACEObjectives:
    """Original six-objective constrained MACE ensemble (baseline).

    Objectives (all to be maximised, returned negated):
    ``UCB, EI, PI`` of the objective surrogate, the probability of
    feasibility ``PF``, and two constraint-violation terms built from the
    constraint surrogate means/variances (the two sums in the paper's
    section 3.3 quotation of MACE).
    """

    n_objectives = 6

    def __init__(self, objective_model, constraint_model, best: float,
                 thresholds, senses, minimize: bool = True, beta: float = 2.0):
        self.objective_model = objective_model
        self.constraint_model = constraint_model
        self.best = float(best)
        self.thresholds = np.asarray(thresholds, dtype=float)
        self.senses = list(senses)
        self.minimize = bool(minimize)
        self.beta = float(beta)

    def _violation_terms(self, means, variances) -> tuple[np.ndarray, np.ndarray]:
        means = np.atleast_2d(means)
        variances = np.atleast_2d(variances)
        # Signed "satisfaction margin" u_i: positive when the constraint is
        # predicted satisfied.  For >= constraints u = mu - C, for <= u = C - mu.
        margins = np.empty_like(means)
        for j, sense in enumerate(self.senses):
            if sense == "ge":
                margins[:, j] = means[:, j] - self.thresholds[j]
            else:
                margins[:, j] = self.thresholds[j] - means[:, j]
        satisfied = np.sum(np.maximum(0.0, margins), axis=1)
        scaled = np.sum(np.maximum(0.0, margins) / np.sqrt(np.maximum(variances, _EPS)),
                        axis=1)
        return satisfied, scaled

    def __call__(self, x) -> np.ndarray:
        mean, variance = self.objective_model.predict(x)
        mean = np.asarray(mean, dtype=float).ravel()
        variance = np.asarray(variance, dtype=float).ravel()
        ucb = upper_confidence_bound(mean, variance, self.beta, self.minimize)
        ei = expected_improvement(mean, variance, self.best, self.minimize)
        pi = probability_of_improvement(mean, variance, self.best, self.minimize)
        c_means, c_vars = self.constraint_model.predict(x)
        pf = probability_of_feasibility(c_means, c_vars, self.thresholds, self.senses)
        satisfied, scaled = self._violation_terms(c_means, c_vars)
        return np.column_stack([
            -ucb,
            -np.log(np.maximum(ei, _LOG_FLOOR)),
            -np.log(np.maximum(pi, _LOG_FLOOR)),
            -pf,
            -satisfied,
            -scaled,
        ])


class ModifiedConstrainedMACEObjectives:
    """KATO's modified constrained ensemble (paper Eq. 13).

    The constraint handling is folded into the acquisition by multiplying
    each of ``{UCB, PI, EI}`` with the probability of feasibility, leaving a
    three-objective Pareto search.
    """

    n_objectives = 3

    def __init__(self, objective_model, constraint_model, best: float,
                 thresholds, senses, minimize: bool = True, beta: float = 2.0):
        self.objective_model = objective_model
        self.constraint_model = constraint_model
        self.best = float(best)
        self.thresholds = np.asarray(thresholds, dtype=float)
        self.senses = list(senses)
        self.minimize = bool(minimize)
        self.beta = float(beta)

    def __call__(self, x) -> np.ndarray:
        mean, variance = self.objective_model.predict(x)
        mean = np.asarray(mean, dtype=float).ravel()
        variance = np.asarray(variance, dtype=float).ravel()
        c_means, c_vars = self.constraint_model.predict(x)
        pf = probability_of_feasibility(c_means, c_vars, self.thresholds, self.senses)
        ucb = upper_confidence_bound(mean, variance, self.beta, self.minimize)
        # UCB can be negative; shift it to a non-negative scale before the
        # feasibility product so the product stays order-preserving.
        ucb_shifted = ucb - ucb.min() + _EPS
        ei = expected_improvement(mean, variance, self.best, self.minimize)
        pi = probability_of_improvement(mean, variance, self.best, self.minimize)
        return np.column_stack([
            -(ucb_shifted * pf),
            -np.log(np.maximum(ei * pf, _LOG_FLOOR)),
            -np.log(np.maximum(pi * pf, _LOG_FLOOR)),
        ])
