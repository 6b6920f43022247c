"""Acquisition functions for Bayesian optimization.

Implements the paper's Eq. 5-7 (PI, EI, UCB), the probability of feasibility
used by constrained MACE, an EI callable bound to a surrogate (TLMBO) and the
acquisition ensembles searched by (modified) MACE.
"""

from repro.acquisition.functions import (
    ExpectedImprovement,
    expected_improvement,
    probability_of_improvement,
    upper_confidence_bound,
)
from repro.acquisition.ensemble import (
    ConstrainedMACEObjectives,
    MACEObjectives,
    ModifiedConstrainedMACEObjectives,
)

__all__ = [
    "expected_improvement",
    "probability_of_improvement",
    "upper_confidence_bound",
    "ExpectedImprovement",
    "MACEObjectives",
    "ConstrainedMACEObjectives",
    "ModifiedConstrainedMACEObjectives",
]
