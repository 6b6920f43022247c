"""Pareto-dominance utilities (minimisation convention throughout)."""

from __future__ import annotations

import numpy as np

from repro.utils.validation import check_matrix


def _dominance_matrix(objectives: np.ndarray) -> np.ndarray:
    """``(n, n)`` boolean matrix whose entry ``(i, j)`` says row ``i`` dominates row ``j``."""
    n = objectives.shape[0]
    no_worse = np.ones((n, n), dtype=bool)
    better = np.zeros((n, n), dtype=bool)
    for column in objectives.T:
        no_worse &= column[:, None] <= column[None, :]
        better |= column[:, None] < column[None, :]
    return no_worse & better


def pareto_front_mask(objectives) -> np.ndarray:
    """Boolean mask of non-dominated rows of an ``(n, k)`` objective matrix.

    Duplicate rows do not dominate each other, so every copy of a
    non-dominated point stays in the front.
    """
    objectives = check_matrix(objectives, "objectives")
    return ~_dominance_matrix(objectives).any(axis=0)


def fast_non_dominated_sort(objectives) -> list[np.ndarray]:
    """Deb's fast non-dominated sorting.

    Returns a list of ascending index arrays; the first entry is the Pareto
    front, subsequent entries are successive fronts after removing earlier
    ones.
    """
    objectives = check_matrix(objectives, "objectives")
    dominates = _dominance_matrix(objectives)
    counts = dominates.sum(axis=0)
    fronts: list[np.ndarray] = []
    current = np.nonzero(counts == 0)[0]
    while current.size:
        fronts.append(current)
        counts -= dominates[current].sum(axis=0)
        counts[current] = -1  # mark as assigned
        current = np.nonzero(counts == 0)[0]
    return fronts


def crowding_distance(objectives) -> np.ndarray:
    """NSGA-II crowding distance of each row (larger = more isolated)."""
    objectives = check_matrix(objectives, "objectives")
    n, k = objectives.shape
    if n <= 2:
        return np.full(n, np.inf)
    distance = np.zeros(n)
    for j in range(k):
        order = np.argsort(objectives[:, j], kind="stable")
        spread = objectives[order[-1], j] - objectives[order[0], j]
        distance[order[0]] = np.inf
        distance[order[-1]] = np.inf
        if spread <= 1e-15:
            continue
        gaps = (objectives[order[2:], j] - objectives[order[:-2], j]) / spread
        distance[order[1:-1]] += gaps
    return distance
