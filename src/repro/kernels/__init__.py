"""Gaussian-process covariance functions.

Includes the classic stationary kernels (ARD RBF, Rational Quadratic,
Periodic, Matern), composition operators, a deep kernel (DKL baseline) and
the paper's **Neural Kernel (Neuk)** -- the automatic kernel constructor of
KATO (paper section 3.1, Eq. 8-10).
"""

from repro.kernels.base import (
    ConstantKernel,
    Kernel,
    ProductKernel,
    ScaleKernel,
    SumKernel,
    WhiteKernel,
)
from repro.kernels.stationary import (
    LinearKernel,
    Matern12Kernel,
    Matern32Kernel,
    Matern52Kernel,
    PeriodicKernel,
    RBFKernel,
    RationalQuadraticKernel,
)
from repro.kernels.neural import DeepKernel, NeuralKernel

KERNEL_REGISTRY = {
    "rbf": RBFKernel,
    "rq": RationalQuadraticKernel,
    "periodic": PeriodicKernel,
    "matern12": Matern12Kernel,
    "matern32": Matern32Kernel,
    "matern52": Matern52Kernel,
    "linear": LinearKernel,
    "neural": NeuralKernel,
    "deep": DeepKernel,
}


def make_kernel(name: str, input_dim: int, **kwargs) -> Kernel:
    """Instantiate a kernel by registry name (``'rbf'``, ``'neural'``, ...)."""
    key = name.lower()
    if key not in KERNEL_REGISTRY:
        raise ValueError(
            f"unknown kernel {name!r}; available: {sorted(KERNEL_REGISTRY)}"
        )
    return KERNEL_REGISTRY[key](input_dim, **kwargs)


__all__ = [
    "Kernel",
    "ScaleKernel",
    "SumKernel",
    "ProductKernel",
    "ConstantKernel",
    "WhiteKernel",
    "RBFKernel",
    "RationalQuadraticKernel",
    "PeriodicKernel",
    "Matern12Kernel",
    "Matern32Kernel",
    "Matern52Kernel",
    "LinearKernel",
    "NeuralKernel",
    "DeepKernel",
    "KERNEL_REGISTRY",
    "make_kernel",
]
