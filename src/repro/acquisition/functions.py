"""Scalar acquisition functions (maximisation convention).

All functions take posterior mean/variance arrays and return the acquisition
value per point; :class:`ExpectedImprovement` binds a surrogate model so an
instance can be called directly on candidate design matrices.
"""

from __future__ import annotations

import numpy as np

from repro.utils.stats import norm_cdf, norm_pdf

_EPS = 1e-12


def expected_improvement(mean, variance, best, minimize: bool = False,
                         xi: float = 0.0) -> np.ndarray:
    """Expected improvement (paper Eq. 6).

    Parameters
    ----------
    mean, variance:
        Posterior mean and variance of the objective surrogate.
    best:
        Incumbent value ``y^\\dagger``.
    minimize:
        When True, improvement means going *below* ``best``.
    xi:
        Optional exploration margin.
    """
    mean = np.asarray(mean, dtype=float)
    std = np.sqrt(np.maximum(np.asarray(variance, dtype=float), _EPS))
    if minimize:
        delta = best - mean - xi
    else:
        delta = mean - best - xi
    z = delta / std
    return delta * norm_cdf(z) + std * norm_pdf(z)


def probability_of_improvement(mean, variance, best, minimize: bool = False,
                               xi: float = 0.0) -> np.ndarray:
    """Probability of improvement (paper Eq. 5)."""
    mean = np.asarray(mean, dtype=float)
    std = np.sqrt(np.maximum(np.asarray(variance, dtype=float), _EPS))
    if minimize:
        z = (best - mean - xi) / std
    else:
        z = (mean - best - xi) / std
    return norm_cdf(z)


def upper_confidence_bound(mean, variance, beta: float = 2.0,
                           minimize: bool = False) -> np.ndarray:
    """Upper confidence bound (paper Eq. 7); lower confidence bound when minimising."""
    mean = np.asarray(mean, dtype=float)
    std = np.sqrt(np.maximum(np.asarray(variance, dtype=float), _EPS))
    if minimize:
        return -(mean - beta * std)
    return mean + beta * std


def probability_of_feasibility(means, variances, thresholds, senses) -> np.ndarray:
    """Probability that every constraint is satisfied (independent GPs).

    Parameters
    ----------
    means, variances:
        ``(n, n_constraints)`` posterior statistics of the constraint metrics.
    thresholds:
        Constraint limits ``C_i``.
    senses:
        Sequence of ``"ge"`` / ``"le"`` per constraint (metric >= C or <= C).
    """
    means = np.atleast_2d(np.asarray(means, dtype=float))
    variances = np.atleast_2d(np.asarray(variances, dtype=float))
    thresholds = np.asarray(thresholds, dtype=float)
    stds = np.sqrt(np.maximum(variances, _EPS))
    probability = np.ones(means.shape[0])
    for j, sense in enumerate(senses):
        z = (means[:, j] - thresholds[j]) / stds[:, j]
        if sense == "ge":
            probability = probability * norm_cdf(z)
        elif sense == "le":
            probability = probability * norm_cdf(-z)
        else:
            raise ValueError(f"unknown constraint sense {sense!r}")
    return probability


class ExpectedImprovement:
    """EI (paper Eq. 6) bound to a surrogate with ``predict`` and an incumbent."""

    def __init__(self, model, best: float, minimize: bool = False):
        self.model = model
        self.minimize = bool(minimize)
        self.best = float(best)

    def __call__(self, x) -> np.ndarray:
        mean, variance = self.model.predict(x)
        mean = np.asarray(mean, dtype=float).ravel()
        variance = np.asarray(variance, dtype=float).ravel()
        return expected_improvement(mean, variance, self.best, self.minimize)
