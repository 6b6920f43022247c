"""Small statistical helpers: normal distribution functions and run summaries."""

from __future__ import annotations

import math

import numpy as np

_SQRT2 = math.sqrt(2.0)
_SQRT2PI = math.sqrt(2.0 * math.pi)


def norm_pdf(z) -> np.ndarray:
    """Standard normal probability density function."""
    z = np.asarray(z, dtype=float)
    return np.exp(-0.5 * z * z) / _SQRT2PI


def norm_cdf(z) -> np.ndarray:
    """Standard normal cumulative distribution function (via erf)."""
    z = np.asarray(z, dtype=float)
    try:
        from scipy.special import erf
        return 0.5 * (1.0 + erf(z / _SQRT2))
    except ImportError:  # pragma: no cover - scipy is a hard dependency
        return 0.5 * (1.0 + np.vectorize(math.erf)(z / _SQRT2))


def summarize_runs(curves) -> dict[str, np.ndarray]:
    """Aggregate repeated-run curves into mean/std/median statistics.

    Parameters
    ----------
    curves:
        A sequence of equal-length 1-D arrays, one per random seed.

    ``std`` is ``inf`` at every budget where some run has a non-finite entry
    (e.g. an ``inf`` best-so-far before the first feasible design), instead
    of the NaN -- and ``RuntimeWarning`` -- that ``inf - inf`` would give.
    """
    arr = np.asarray([np.asarray(c, dtype=float) for c in curves])
    if arr.ndim != 2:
        raise ValueError("curves must be a sequence of equal-length 1-D arrays")
    finite = np.isfinite(arr).all(axis=0)
    std = np.full(arr.shape[1], np.inf)
    std[finite] = arr[:, finite].std(axis=0)
    return {
        "mean": arr.mean(axis=0),
        "std": std,
        "median": np.median(arr, axis=0),
        "min": arr.min(axis=0),
        "max": arr.max(axis=0),
    }
