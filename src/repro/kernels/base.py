"""Kernel base class and composition operators.

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

    # ------------------------------------------------------------------ #
    # composition                                                         #
    # ------------------------------------------------------------------ #
    def __add__(self, other: "Kernel") -> "SumKernel":
        return SumKernel(self, other)

    def __mul__(self, other: "Kernel") -> "ProductKernel":
        return ProductKernel(self, other)


class ScaleKernel(Kernel):
    """Output-scale wrapper ``sigma^2 * k(x, x')`` with a trainable scale."""

    def __init__(self, base: Kernel, outputscale: float = 1.0):
        super().__init__(base.input_dim)
        self.base = base
        self.raw_outputscale = Parameter([_log(outputscale)], name="raw_outputscale")

    @property
    def outputscale(self) -> float:
        return float(np.exp(self.raw_outputscale.data[0]))

    def forward(self, x1, x2) -> Tensor:
        return self.base(x1, x2) * self.raw_outputscale.exp()


class SumKernel(Kernel):
    """Pointwise sum of two kernels (valid covariance)."""

    def __init__(self, left: Kernel, right: Kernel):
        if left.input_dim != right.input_dim:
            raise ValueError("summed kernels must share input_dim")
        super().__init__(left.input_dim)
        self.left = left
        self.right = right

    def forward(self, x1, x2) -> Tensor:
        return self.left(x1, x2) + self.right(x1, x2)


class ProductKernel(Kernel):
    """Pointwise product of two kernels (valid covariance)."""

    def __init__(self, left: Kernel, right: Kernel):
        if left.input_dim != right.input_dim:
            raise ValueError("multiplied kernels must share input_dim")
        super().__init__(left.input_dim)
        self.left = left
        self.right = right

    def forward(self, x1, x2) -> Tensor:
        return self.left(x1, x2) * self.right(x1, x2)


class ConstantKernel(Kernel):
    """Constant covariance ``c`` (captures a global offset)."""

    def __init__(self, input_dim: int, constant: float = 1.0):
        super().__init__(input_dim)
        self.raw_constant = Parameter([_log(constant)], name="raw_constant")

    def forward(self, x1, x2) -> Tensor:
        x1 = as_tensor(x1)
        x2 = as_tensor(x2)
        ones = Tensor(np.ones((x1.shape[0], x2.shape[0])))
        return ones * self.raw_constant.exp()


class WhiteKernel(Kernel):
    """White-noise kernel: ``sigma^2`` on exact input matches, zero elsewhere.

    Gradient support is only needed for the noise amplitude, not the inputs,
    because this kernel is used to model observation noise.
    """

    def __init__(self, input_dim: int, noise: float = 1e-2):
        super().__init__(input_dim)
        self.raw_noise = Parameter([_log(noise)], name="raw_noise")

    def forward(self, x1, x2) -> Tensor:
        x1 = as_tensor(x1)
        x2 = as_tensor(x2)
        a, b = x1.data, x2.data
        same = (a[:, None, :] == b[None, :, :]).all(axis=2).astype(float)
        return Tensor(same) * self.raw_noise.exp()
