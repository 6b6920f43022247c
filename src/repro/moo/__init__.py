"""Multi-objective optimization utilities: NSGA-II and Pareto-front tools."""

from repro.moo.pareto import (
    crowding_distance,
    fast_non_dominated_sort,
    pareto_front_mask,
)
from repro.moo.nsga2 import NSGA2, NSGA2Result

__all__ = [
    "NSGA2",
    "NSGA2Result",
    "fast_non_dominated_sort",
    "crowding_distance",
    "pareto_front_mask",
]
