"""NeukGP: Gaussian processes equipped with the Neural Kernel.

:class:`NeukGP` is a thin, named specialisation of
:class:`repro.gp.GPRegression`; the paper refers to the target-only model of
the selective-transfer scheme as "NeukGP", so the same name is used here.
:func:`neural_kernel_factory` is the ``dim -> NeuralKernel`` factory that
KATO fits its objective and constraint surrogates with.
"""

from __future__ import annotations

from repro.gp import GPRegression
from repro.kernels import Kernel, NeuralKernel
from repro.utils.random import RandomState, as_rng


def neural_kernel_factory(rng: RandomState = None, **kwargs):
    """Return a ``dim -> NeuralKernel`` factory suitable for the BO engines."""
    rng = as_rng(rng)

    def factory(input_dim: int) -> Kernel:
        return NeuralKernel(input_dim, rng=rng, **kwargs)

    return factory


class NeukGP(GPRegression):
    """Single-output GP regression with a Neural Kernel."""

    def __init__(self, input_dim: int, noise: float = 1e-2,
                 normalize_y: bool = True, rng: RandomState = None,
                 **kernel_kwargs):
        kernel = NeuralKernel(int(input_dim), rng=rng, **kernel_kwargs)
        super().__init__(kernel=kernel, noise=noise, normalize_y=normalize_y)
