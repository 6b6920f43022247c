"""Gaussian-process covariance functions.

Includes the classic stationary kernels (ARD RBF, Rational Quadratic,
Periodic, Matern-5/2), a deep kernel (DKL baseline) and the paper's
**Neural Kernel (Neuk)** -- the automatic kernel constructor of KATO
(paper section 3.1, Eq. 8-10), which mixes its own primitives.
"""

from repro.kernels.base import Kernel
from repro.kernels.stationary import (
    Matern52Kernel,
    PeriodicKernel,
    RBFKernel,
    RationalQuadraticKernel,
)
from repro.kernels.neural import DeepKernel, NeuralKernel

__all__ = [
    "Kernel",
    "RBFKernel",
    "RationalQuadraticKernel",
    "PeriodicKernel",
    "Matern52Kernel",
    "NeuralKernel",
    "DeepKernel",
]
