"""Kernel base class.

All kernels are :class:`repro.nn.Module` instances whose ``forward`` takes two
row-matrices (``(n, d)`` and ``(m, d)``, numpy arrays or tensors) and returns
the ``(n, m)`` cross-covariance as a :class:`repro.autodiff.Tensor`, so that
hyper-parameters -- and, importantly for KAT-GP, the *inputs* -- stay
differentiable.
"""

from __future__ import annotations

import numpy as np

from repro.autodiff import Tensor, no_grad
from repro.autodiff.functional import as_tensor
from repro.nn.module import Module, Parameter


def _log(value: float) -> float:
    return float(np.log(max(float(value), 1e-12)))


class Kernel(Module):
    """Base class for covariance functions on ``R^input_dim``."""

    def __init__(self, input_dim: int):
        if input_dim <= 0:
            raise ValueError(f"input_dim must be positive, got {input_dim}")
        self.input_dim = int(input_dim)

    # Subclasses implement forward(x1, x2) -> Tensor of shape (n, m).

    def __call__(self, x1, x2=None) -> Tensor:
        x1 = as_tensor(x1)
        x2 = x1 if x2 is None else as_tensor(x2)
        return self.forward(x1, x2)

    def matrix(self, x1, x2=None) -> np.ndarray:
        """Evaluate the kernel as a plain numpy matrix (no gradient graph)."""
        with no_grad():
            return self(x1, x2).data

    def diag(self, x) -> np.ndarray:
        """Diagonal of ``k(x, x)`` as a numpy vector (no gradient graph)."""
        x = as_tensor(x)
        with no_grad():
            return np.diag(self(x, x).data).copy()
