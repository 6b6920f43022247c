"""NeukGP: Gaussian processes equipped with the Neural Kernel.

The paper calls the target-only model of the selective-transfer scheme
"NeukGP": a :class:`repro.gp.GPRegression` over a Neural Kernel.
:func:`neural_kernel_factory` is the ``dim -> NeuralKernel`` factory that
KATO fits its objective and constraint surrogates with.
"""

from __future__ import annotations

from repro.kernels import Kernel, NeuralKernel
from repro.utils.random import RandomState, as_rng


def neural_kernel_factory(rng: RandomState = None, **kwargs):
    """Return a ``dim -> NeuralKernel`` factory suitable for the BO engines."""
    rng = as_rng(rng)

    def factory(input_dim: int) -> Kernel:
        return NeuralKernel(input_dim, rng=rng, **kwargs)

    return factory

