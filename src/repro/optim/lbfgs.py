"""Thin wrapper around scipy's L-BFGS-B for acquisition maximisation.

The paper optimizes acquisition functions with "gradient descent methods,
e.g. L-BFGS-B".  Acquisition functions here are cheap numpy functions, so we
use finite-difference gradients through scipy unless an analytic gradient is
supplied.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.utils.random import RandomState, as_rng


def minimize_lbfgs(func: Callable[[np.ndarray], float],
                   bounds: np.ndarray,
                   x0: np.ndarray | None = None,
                   n_restarts: int = 4,
                   rng: RandomState = None,
                   jac: Callable[[np.ndarray], np.ndarray] | None = None,
                   maxiter: int = 200) -> tuple[np.ndarray, float]:
    """Minimise ``func`` inside box ``bounds`` with multi-start L-BFGS-B.

    Parameters
    ----------
    func:
        Objective to minimise (negate an acquisition to maximise it).
    bounds:
        ``(d, 2)`` array of lower/upper bounds.
    x0:
        Optional explicit initial point added to the random restarts.
    n_restarts:
        Number of random restarts.

    Returns
    -------
    (x_best, f_best)
    """
    # Imported here: loading scipy.optimize takes about 0.3 s, and only
    # TLMBO's acquisition search needs it.
    from scipy.optimize import minimize

    bounds = np.asarray(bounds, dtype=float)
    if bounds.ndim != 2 or bounds.shape[1] != 2:
        raise ValueError(f"bounds must have shape (d, 2), got {bounds.shape}")
    rng = as_rng(rng)
    dim = bounds.shape[0]
    starts = list(rng.uniform(bounds[:, 0], bounds[:, 1], size=(max(n_restarts, 1), dim)))
    if x0 is not None:
        starts.insert(0, np.clip(np.asarray(x0, dtype=float), bounds[:, 0], bounds[:, 1]))

    best_x: np.ndarray | None = None
    best_f = np.inf
    for start in starts:
        result = minimize(
            func, start, jac=jac, method="L-BFGS-B",
            bounds=[(low, high) for low, high in bounds],
            options={"maxiter": maxiter},
        )
        if np.isfinite(result.fun) and result.fun < best_f:
            best_f = float(result.fun)
            best_x = np.asarray(result.x, dtype=float)
    if best_x is None:
        # All restarts failed (e.g. objective returned NaN everywhere);
        # fall back to the best random start evaluation.
        values = np.asarray([func(s) for s in starts], dtype=float)
        if np.all(np.isnan(values)):
            index = 0
        else:
            index = int(np.nanargmin(values))
        best_x, best_f = starts[index], float(values[index])
    return best_x, best_f
