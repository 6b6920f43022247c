"""Input-validation helpers used across the package.

These functions normalise user input to float arrays of the expected rank and
raise :class:`repro.errors.ShapeError` with actionable messages otherwise.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ShapeError


def check_array(x, name: str = "x") -> np.ndarray:
    """Convert ``x`` to a float64 array and reject non-finite entries."""
    arr = np.asarray(x, dtype=float)
    if arr.size and not np.all(np.isfinite(arr)):
        raise ShapeError(f"{name} contains NaN or infinite values")
    return arr


def check_vector(x, name: str = "x") -> np.ndarray:
    """Return ``x`` as a 1-D float array."""
    arr = check_array(x, name)
    if arr.ndim == 0:
        arr = arr.reshape(1)
    if arr.ndim != 1:
        raise ShapeError(f"{name} must be 1-D, got shape {arr.shape}")
    return arr


def check_matrix(x, name: str = "x", n_cols: int | None = None) -> np.ndarray:
    """Return ``x`` as a 2-D float array, optionally checking column count."""
    arr = check_array(x, name)
    if arr.ndim == 1:
        arr = arr.reshape(1, -1)
    if arr.ndim != 2:
        raise ShapeError(f"{name} must be 2-D, got shape {arr.shape}")
    if n_cols is not None and arr.shape[1] != n_cols:
        raise ShapeError(
            f"{name} must have {n_cols} columns, got {arr.shape[1]}"
        )
    return arr


def check_positive(value: float, name: str = "value") -> float:
    """Raise if ``value`` is not strictly positive; return it as float."""
    value = float(value)
    if not value > 0:
        raise ValueError(f"{name} must be positive, got {value}")
    return value


def suggestion_hint(key: str, vocabulary, n: int = 3, cutoff: float = 0.5) -> str:
    """A ``" (did you mean ...?)"`` fragment for unknown-name errors.

    One shared implementation for every registry and spec lookup, so
    error-message behaviour stays consistent across layers.  Returns an
    empty string when nothing in ``vocabulary`` is close.
    """
    import difflib

    close = difflib.get_close_matches(str(key), [str(v) for v in vocabulary],
                                      n=n, cutoff=cutoff)
    if not close:
        return ""
    return f" (did you mean {' or '.join(repr(c) for c in close)}?)"
